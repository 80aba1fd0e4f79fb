"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions and methods of the lanesim
modules with timed wrappers and swaps ``lanesim.sim.heapq`` for a shim that
counts event pops; ``Tracer.remove`` puts everything back. Calls at layer
boundaries are kept as spans (name, start, end, parent, scenario); the hot
library calls inside the engine are only counted and timed in aggregate,
because keeping a span for each of them would cost more memory than the
runs themselves.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager

from stats import IntervalCharger

# (module attribute of the lanesim handle, owner attribute path, metric
# prefix, keep a span per call)
_TARGETS = (
    ("scenario", "load_scenario", "scenario.parse", True),
    ("scenario", "build_system", "model.build_system", True),
    ("sim", "Engine.__init__", "sim.init", True),
    ("sim", "Engine.run", "sim.run", True),
    ("cli", "write_outputs", "cli.write", True),
    ("sim", "select_spare", "reconfig.select_spare", True),
    ("sim", "classify", "fault.classify", True),
    ("sim", "cross_monitor", "fault.vote", False),
    ("sim", "exchange_vote", "fault.vote", False),
    ("sim", "bit_detects", "fault.bit_detects", False),
    ("fault", "FaultSpec.active_at", "fault.active_at", False),
    ("timing", "ProcessorState.utilization", "timing.sum", False),
    ("timing", "BusState.current_load", "timing.sum", False),
    ("timing", "ProcessorState.priorities", "timing.priorities", False),
    ("timing", "ProcessorState.with_task", "timing.state_copy", False),
    ("timing", "ProcessorState.without_task", "timing.state_copy", False),
    ("timing", "BusState.with_demand", "timing.state_copy", False),
    ("timing", "BusState.without_demand", "timing.state_copy", False),
    ("coverage", "functional_coverage", "coverage.level", False),
    ("coverage", "zonal_coverage", "coverage.level", False),
    ("coverage", "peripheral_coverage", "coverage.level", False),
    ("coverage", "time_at_risk", "coverage.time_at_risk", False),
)

NAMES = sorted({name for _, _, name, _ in _TARGETS})


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {name: 0 for name in NAMES}
        self.seconds = {name: 0.0 for name in NAMES}
        self.self_seconds = {name: 0.0 for name in NAMES}
        self.spans: list = []        # (name, start, end, parent index, scenario)
        self.scenario = None         # id stamped on spans opened from now on
        self.pops = IntervalCharger()
        self.failed_offered = 0      # failed tasks handed to select_spare
        self.placed = 0              # placements select_spare returned
        self.bytes_written = 0
        self.trace_rows = 0
        self._stack: list = []       # [child seconds, enclosing span index]
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a kept span that is not a library call."""
        return self._wrap(name, fn, keep=True, record=False)(*args)

    def _wrap(self, name, fn, keep, observe=None, record=True):
        stack, spans, clock = self._stack, self.spans, self.clock
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        tracer = self

        def timed(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]
            if keep:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                took = t1 - t0
                if stack:
                    stack[-1][0] += took
                if record:
                    calls[name] += 1
                    seconds[name] += took
                    self_seconds[name] += took - frame[0]
                if keep:
                    spans[frame[1]] = (name, t0, t1, parent, tracer.scenario)
            if observe is not None:
                observe(args, out)
            return out

        return timed

    # -- installing the probes ------------------------------------------------

    def install(self, ls):
        observers = {
            "reconfig.select_spare": self._saw_selection,
            "cli.write": self._saw_write,
            "sim.run": lambda args, out: self.pops.close(self.clock()),
        }
        for module, path, name, keep in _TARGETS:
            owner = getattr(ls, module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, property):
                new = property(self._wrap(name, raw.fget, keep))
            else:
                new = self._wrap(name, raw, keep, observers.get(name))
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
        self._undo.append((ls.sim, "heapq", ls.sim.heapq))
        ls.sim.heapq = _HeapShim(self.pops, self.clock)

    def remove(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _saw_selection(self, args, plan):
        self.failed_offered += len(args[0])
        self.placed += len(plan.placements)

    def _saw_write(self, args, written):
        self.trace_rows += len(args[0].trace)
        self.bytes_written += sum(p.stat().st_size for p in written)

    # -- results --------------------------------------------------------------

    def metrics(self, event_kinds) -> dict:
        """Per-layer figures for everything traced so far."""
        c, s = self.calls, self.seconds
        events = sum(self.pops.counts.values())
        run_s = s["sim.run"]
        out = {
            "scenario.parse_s": s["scenario.parse"],
            "model.build_system_s": s["model.build_system"],
            "sim.init_s": s["sim.init"],
            "timing.state_copies": c["timing.state_copy"],
            "sim.run_s": run_s,
            "sim.events": events,
            "sim.us_per_event": run_s / events * 1e6 if events else 0.0,
            "sim.self_s": self.self_seconds["sim.run"],
        }
        for kind in event_kinds:
            out[f"sim.events.{kind.value}"] = self.pops.counts.get(kind, 0)
            out[f"sim.s.{kind.value}"] = self.pops.seconds.get(kind, 0.0)
        for name in ("fault.active_at", "fault.vote", "fault.bit_detects",
                     "reconfig.select_spare", "timing.sum", "timing.priorities",
                     "coverage.level"):
            out[f"{name}_calls"] = c[name]
            out[f"{name}_s"] = s[name]
        out["fault.classify_calls"] = c["fault.classify"]
        out["reconfig.placed_ratio"] = (self.placed / self.failed_offered
                                        if self.failed_offered else 0.0)
        out["coverage.time_at_risk_s"] = s["coverage.time_at_risk"]
        out["cli.write_s"] = s["cli.write"]
        out["cli.bytes_written"] = self.bytes_written
        out["cli.trace_rows"] = self.trace_rows
        return out

    def write_spans(self, path, origin: float):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tscenario\n")
            for i, (name, t0, t1, parent, scenario) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0 - origin:.6f}\t{t1 - origin:.6f}\t"
                         f"{'-' if parent is None else parent}\t{scenario}\n")


def exact_counts(metrics: dict) -> dict:
    """The figures that must repeat exactly between two traced passes."""
    return {k: v for k, v in metrics.items()
            if k.startswith("sim.events") or k.endswith("_calls")
            or k in ("timing.state_copies", "cli.trace_rows", "cli.bytes_written")}


@contextmanager
def counting_pops(sim_module):
    """Count the engine's event pops (and time between them) while active."""
    charger = IntervalCharger()
    saved = sim_module.heapq
    sim_module.heapq = _HeapShim(charger, time.perf_counter)
    try:
        yield charger
    finally:
        sim_module.heapq = saved


class _HeapShim:
    """Stands in for the heapq module inside lanesim.sim, counting pops."""

    def __init__(self, charger: IntervalCharger, clock):
        self.heappush = heapq.heappush
        pop, charge = heapq.heappop, charger.pop

        def heappop(heap):
            item = pop(heap)
            charge(item[4], clock())
            return item

        self.heappop = heappop
