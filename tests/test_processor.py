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

A burst is the engine's release instant: several jobs filed at once, then
one ``dispatch`` if any of them can change what runs. A third processor
takes each burst so, while the other two release its jobs one at a time.
Its generation and stale wake-ups differ, so it is compared with the
first, generation aside, by what runs, the job table and its live wake-up;
the burst itself pushes at most one wake-up, which is live.
A plain ``Processor`` driven the same way is told, at each wake-up, the
instant ``since`` plus the running job's remaining work, and that sum
holds for as long as the job runs: ``schedule_processor`` reads it.
A second property checks that an engine set, fresh, split out or grown,
dispatches by the ranks its admitted set's ``priorities`` gives, which are
taken in their key order with no second sort.
"""

import heapq

from hypothesis import example, given, settings, strategies as st

from lanesim.processor import Job, Processor
from lanesim.sim import _ProcSet
from lanesim.timing import ProcessorState

_TASK_KEYS = (0, 1, 2, 3)
_BACKGROUND_KEYS = (10, 11)     # outside the ranks, as the engine's copy ids


class _Recorder(Processor):
    """A processor that records each wake-up and may be halted, as the
    engine halts one: by setting ``failed``."""

    def __init__(self, prios):
        super().__init__()
        self.prios = prios
        self.wakes = []         # (at, generation, job) in call order
        self.pending = []       # heap of (at, index into wakes) undelivered

    def wake(self, at_us):
        heapq.heappush(self.pending, (at_us, len(self.wakes)))
        self.wakes.append((at_us, self.gen, self.running))


class _AlwaysDispatch(_Recorder):
    """The reference: every release chooses again."""

    def release(self, job, now):
        self.charge(now)
        self.jobs[job.key] = job
        self.dispatch(now)


class _Burst(_Recorder):
    """The engine's way: a burst files every job, then chooses once."""

    def burst(self, jobs, now):
        # a list, not a generator: every job is filed, whatever any says
        if any([self.file(job, now) for job in jobs]):
            self.dispatch(now)


def _job_view(job):
    return None if job is None else (
        job.key, job.release_us, job.remaining_us, job.start_us, job.background)


def _view(cpu):
    return (_job_view(cpu.running), cpu.gen, cpu.since, cpu.failed,
            {key: _job_view(job) for key, job in cpu.jobs.items()},
            [(at, gen, _job_view(job)) for at, gen, job in cpu.wakes])


def _choice_view(cpu):
    """What a processor runs and holds, generation aside: its live wake-up
    stands for the generation."""
    return (_job_view(cpu.running), cpu.since, cpu.failed,
            {key: _job_view(job) for key, job in cpu.jobs.items()},
            [(at, _job_view(job)) for at, gen, job in cpu.wakes
             if gen == cpu.gen])


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
    st.tuples(st.just("burst"), st.lists(
        st.tuples(st.sampled_from(_TASK_KEYS + _BACKGROUND_KEYS),
                  st.integers(1, 6)), min_size=2, max_size=5)),
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
# bursts: each later key outranks the earlier ones; one replaces a pending
# job under its key; one replaces the running job and files a job below it
@example([0, 1, 2, 3], [(0, ("release", 3, 9)),
                        (1, ("burst", [(3, 2), (2, 2), (1, 2), (0, 2)]))])
@example([0, 1, 2, 3], [(0, ("burst", [(1, 5), (2, 3), (1, 3), (10, 4)]))])
@example([2, 0, 3, 1], [(0, ("release", 2, 6)),
                        (2, ("burst", [(2, 4), (3, 1), (11, 2)]))])
def test_release_chooses_as_a_full_dispatch_would(ranks, steps):
    # keys listed in rank order, as ProcessorState.priorities lists them
    prios = dict(sorted(zip(_TASK_KEYS, ranks), key=lambda kr: kr[1]))
    cpus = [_Recorder(prios), _AlwaysDispatch(prios), _Burst(prios)]
    now = 0
    for dt, (op, *args) in steps:
        now += dt
        filed = [args] if op == "release" else args[0] if op == "burst" else []
        for cpu in cpus:
            _deliver(cpu, now)
            if filed:
                jobs = [Job(None, key, now, wcet,
                            background=key in _BACKGROUND_KEYS)
                        for key, wcet in filed]
                if isinstance(cpu, _Burst):
                    pushed = len(cpu.wakes)
                    cpu.burst(jobs, now)
                    assert all(gen == cpu.gen for _, gen, _ in cpu.wakes[pushed:])
                    assert len(cpu.wakes) - pushed <= 1
                else:
                    for job in jobs:
                        cpu.release(job, now)
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
                cpu.failed = True
            elif cpu.failed:            # resume
                cpu.failed = False
                cpu.dispatch(now)
        assert _view(cpus[0]) == _view(cpus[1]), (now, op, args)
        assert _choice_view(cpus[2]) == _choice_view(cpus[0]), (now, op, args)


class _Sums(Processor):
    """A plain processor that checks each wake-up against the sum it
    restates: ``since`` plus the running job's remaining work."""

    def __init__(self, prios):
        super().__init__()
        self.prios = prios
        self.live = None        # (at, job) of the wake-up of this generation

    def wake(self, at_us):
        assert at_us == self.since + self.running.remaining_us
        self.live = (at_us, self.running)


@settings(max_examples=300, deadline=None)
@given(st.permutations(_TASK_KEYS),
       st.lists(st.tuples(st.integers(0, 4), _OPS), max_size=40))
def test_a_wake_up_is_since_plus_the_remaining_work(ranks, steps):
    # the instant each wake names stays since + running.remaining_us for as
    # long as the same job runs: charging moves both terms alike
    prios = dict(sorted(zip(_TASK_KEYS, ranks), key=lambda kr: kr[1]))
    cpu = _Sums(prios)
    now = 0
    for dt, (op, *args) in steps:
        now += dt
        while cpu.running is not None and cpu.live[0] <= now:
            cpu.finish(cpu.gen, cpu.live[0])
        filed = [args] if op == "release" else args[0] if op == "burst" else []
        for key, wcet in filed:
            cpu.release(Job(None, key, now, wcet,
                            background=key in _BACKGROUND_KEYS), now)
        if op == "drop":
            cpu.drop(args[0], now)
        elif op == "expire":
            job = cpu.jobs.get(args[0])
            if job is not None:
                cpu.expire(args[0], job.release_us, now)
        elif op == "stale":
            cpu.charge(now)
        elif op == "halt":
            cpu.halt(now)
            cpu.failed = True
        elif op == "resume" and cpu.failed:
            cpu.failed = False
            cpu.dispatch(now)
        if cpu.running is not None:
            assert cpu.live == (cpu.since + cpu.running.remaining_us, cpu.running)


# (app, task) keys as the engine's, and few deadlines, so that ranks tie
_ENTRIES = st.dictionaries(
    st.tuples(st.integers(1, 3), st.integers(1, 6)),
    st.tuples(st.integers(1, 5), st.sampled_from((10, 20, 40)),
              st.sampled_from((10, 20))),
    max_size=10)


@settings(max_examples=200, deadline=None)
@given(_ENTRIES, _ENTRIES)
def test_a_set_takes_the_ranks_of_its_admitted_set_sorted_once(entries, grown):
    # a set takes the ranks ProcessorState.priorities gives, whose key
    # order is its dispatch order: by deadline, ties by key
    def ranked_as_dm(ps, entries):
        assert ps.prios == ProcessorState(entries).priorities()
        assert list(ps.prios) == sorted(ps.prios, key=lambda k: (ps.prios[k], k))
        assert list(ps.prios) == sorted(entries, key=lambda k: (entries[k][2], k))
        assert sorted(ps.prios.values()) == list(range(len(entries)))

    state = ProcessorState(entries)
    ps = _ProcSet([(0, 1), (1, 1)], lambda *event: None, state,
                  state.priorities())
    ranked_as_dm(ps, entries)
    own = ps.split((1, 1), 0)           # a split-out set keeps the ranks
    ranked_as_dm(own, entries)
    own.admit(ProcessorState(grown))    # and takes new ones on admission
    ranked_as_dm(own, grown)
    ranked_as_dm(ps, entries)
