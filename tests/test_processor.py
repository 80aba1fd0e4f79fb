"""One processor's job table: a release chooses again only when it can win.

``Processor.release`` calls ``dispatch`` only when nothing runs, when the
new job replaces the running one, or when it outranks the running one by
(rank, key); otherwise the running job is still the best ready job. The
property drives random sequences of releases, aborts, deadline expiries,
halts and resumes, with background work and same-key replacement, on a
``Processor`` and on a reference whose ``release`` always dispatches, and
compares what runs, the generation, the job table and every ``wake`` after
each step. Wake-ups are delivered as the engine delivers them: every one
due by an instant before anything else at that instant. Each delivery also
checks that the generation alone tells a stale wake-up: one of the current
generation finishes exactly the job it was made for, an older one nothing.
"""

import heapq

from hypothesis import example, given, settings, strategies as st

from lanesim.processor import Job, Processor

_TASK_KEYS = (0, 1, 2, 3)
_BACKGROUND_KEYS = (10, 11)     # outside the ranks, as the engine's copy ids


class _Recorder(Processor):
    """A processor that records each wake-up and may be halted."""

    def __init__(self, prios):
        super().__init__()
        self.prios = prios
        self.up = True
        self.wakes = []         # (at, generation, job) in call order
        self.pending = []       # heap of (at, index into wakes) undelivered

    def runnable(self):
        return self.up

    def wake(self, at_us):
        heapq.heappush(self.pending, (at_us, len(self.wakes)))
        self.wakes.append((at_us, self.gen, self.running))


class _AlwaysDispatch(_Recorder):
    """The reference: every release chooses again."""

    def release(self, job, now):
        self.charge(now)
        self.jobs[job.key] = job
        self.dispatch(now)


def _job_view(job):
    return None if job is None else (
        job.key, job.release_us, job.remaining_us, job.start_us, job.background)


def _view(cpu):
    return (_job_view(cpu.running), cpu.gen, cpu.since, cpu.up,
            {key: _job_view(job) for key, job in cpu.jobs.items()},
            [(at, gen, _job_view(job)) for at, gen, job in cpu.wakes])


def _deliver(cpu, until):
    """Finish every wake-up due by ``until`` in (time, call) order, as the
    engine's TaskComplete events would."""
    pending = cpu.pending
    while pending and pending[0][0] <= until:
        at, i = heapq.heappop(pending)
        _, gen, job = cpu.wakes[i]
        current = gen == cpu.gen
        finished = cpu.finish(gen, at)
        if current:
            assert finished is job and job.remaining_us == 0
            assert cpu.jobs.get(job.key) is not job
        else:
            assert finished is None     # a stale one changes nothing


_RELEASE = st.tuples(st.just("release"),
                     st.sampled_from(_TASK_KEYS + _BACKGROUND_KEYS),
                     st.integers(1, 6))
# releases are half the steps, so most sequences hold several ready jobs
_OPS = st.one_of(
    _RELEASE, _RELEASE, _RELEASE, _RELEASE, _RELEASE,
    st.tuples(st.just("drop"), st.sampled_from(_TASK_KEYS + _BACKGROUND_KEYS)),
    st.tuples(st.just("expire"), st.sampled_from(_TASK_KEYS)),
    st.tuples(st.just("stale"), st.sampled_from(_TASK_KEYS + _BACKGROUND_KEYS)),
    st.tuples(st.just("halt")),
    st.tuples(st.just("resume")),
)


@settings(max_examples=400, deadline=None)
@given(st.permutations(_TASK_KEYS),
       st.lists(st.tuples(st.integers(0, 4), _OPS), max_size=40))
# a lower key that outranks the running job, a same-key replacement, and
# two background jobs that tie on rank
@example([1, 0, 2, 3], [(0, ("release", 0, 5)), (1, ("release", 1, 5))])
@example([0, 1, 2, 3], [(0, ("release", 2, 5)), (1, ("release", 2, 5))])
@example([0, 1, 2, 3], [(0, ("release", 11, 5)), (1, ("release", 10, 5)),
                        (0, ("release", 1, 2))])
def test_release_chooses_as_a_full_dispatch_would(ranks, steps):
    prios = {key: rank for key, rank in zip(_TASK_KEYS, ranks)}
    cpus = [_Recorder(prios), _AlwaysDispatch(prios)]
    now = 0
    for dt, (op, *args) in steps:
        now += dt
        for cpu in cpus:
            _deliver(cpu, now)
            if op == "release":
                key, wcet = args
                cpu.release(Job(None, key, now, wcet,
                                background=key in _BACKGROUND_KEYS), now)
            elif op == "drop":
                cpu.drop(args[0], now)
            elif op == "expire":
                job = cpu.jobs.get(args[0])
                if job is not None:
                    cpu.expire(args[0], job.release_us, now)
            elif op == "stale":
                # a wake-up from an earlier generation changes nothing
                if cpu.jobs.get(args[0]) is not None:
                    assert cpu.finish(cpu.gen - 1, now) is None
            elif op == "halt":
                cpu.halt(now)
                cpu.up = False
            elif cpu.up is False:       # resume
                cpu.up = True
                cpu.dispatch(now)
        assert _view(cpus[0]) == _view(cpus[1]), (now, op, args)
