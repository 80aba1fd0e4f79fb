"""One processor's preemptive deadline-monotonic schedule.

The event engine (:mod:`lanesim.sim`) drives this one class for every set
of its places, and ``schedule_processor`` below steps a plain one over a
window as the reference the engine is checked against. It keeps one table
of jobs, run by the ranks of
:meth:`lanesim.timing.ProcessorState.priorities`, whose keys come in
rank order, since the admitted set is held in that order: a dispatch walks
``prios`` as it is, making no order of its own. Background work (a rebuilt
copy's history replay) is keyed outside those ranks, so it ranks below
every task and takes the time no task job wants, lowest key first.
Time is charged lazily, when the caller touches the processor.
What runs is always the best ready job, so a new job needs a choice only
when it can win: nothing runs, it replaces the running job, or it
outranks it. ``file`` adds a job and answers whether it can; ``release``
chooses again when it can. The engine files every job of a release
instant and then chooses once, which ends on the job that releasing them
one at a time would: a job that cannot beat the running one cannot beat
one that does. Each change of what runs moves the generation on and tells
``wake`` when the job that now runs will finish. The base ``wake`` records
that instant in ``wake_us``; the engine's sets push an event instead. A
wake-up is stale when its generation is old, and ``finish`` then returns
None: the generation alone decides, since every change of ``running``
moves it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .timing import ProcessorState


@dataclass(eq=False, slots=True)
class Job:
    owner: object           # whatever the caller runs the work for
    key: object             # the job's slot: one job per key
    release_us: int
    remaining_us: int
    start_us: int | None = None
    background: bool = False  # history replay, not a task's job


class Processor:
    """The one job table of one processor, and what runs now.

    Background work is keyed outside ``prios``, so it ranks below every
    task and runs only when no task job is ready. A processor that is
    ``failed`` (halted by an active fault) or ``dead`` (withdrawn from
    service) runs nothing. A subclass may deliver :meth:`wake` otherwise.
    """

    __slots__ = ("prios", "jobs", "running", "since", "gen", "wake_us",
                 "failed", "dead")

    def __init__(self):
        self.prios = {}             # job key -> DM rank, keys in rank order
        self.jobs: dict = {}        # job key -> Job, background work too
        self.running: Job | None = None
        self.since = 0
        self.gen = 0
        self.wake_us: int | None = None   # when the running job finishes
        self.failed = False
        self.dead = False

    def wake(self, at_us: int):
        """Note that the job now running finishes at at_us, under ``gen``
        as it is now."""
        self.wake_us = at_us

    def charge(self, now: int):
        """Charge the running work for the time since it was last charged."""
        job = self.running
        if job is not None:
            ran = now - self.since
            # the first dispatch only counts once it consumed time; a
            # zero-width dispatch preempted at the same instant did not
            # actually start the job
            if ran > 0 and job.start_us is None:
                job.start_us = self.since
            job.remaining_us -= ran
        self.since = now

    def dispatch(self, now: int):
        """Choose what runs next; the processor must be charged up to now."""
        chosen = None
        jobs = self.jobs
        if jobs and not (self.failed or self.dead):
            for key in self.prios:
                job = jobs.get(key)
                if job is not None and job.remaining_us > 0:
                    chosen = job
                    break
            else:
                # no task job is ready: background work, lowest key first
                ready = [key for key, job in jobs.items() if job.remaining_us > 0]
                if ready:
                    chosen = jobs[min(ready)]
        if chosen is self.running:
            return
        self.running = chosen
        self.since = now
        self.gen += 1
        if chosen is not None:
            self.wake(now + chosen.remaining_us)

    def file(self, job: Job, now: int) -> bool:
        """Make a job ready without choosing again, replacing any earlier
        job under its key, and tell whether it can change what runs."""
        self.charge(now)
        self.jobs[job.key] = job
        # what runs is the best ready job; only a job that replaces it (an
        # equal key) or outranks it by (rank, key) changes the choice
        running = self.running
        if running is None:
            return True
        prios, last = self.prios, len(self.prios)
        return (prios.get(job.key, last), job.key) <= (
            prios.get(running.key, last), running.key)

    def release(self, job: Job, now: int):
        """Make a job ready, replacing any earlier job under its key."""
        if self.file(job, now):
            self.dispatch(now)

    def finish(self, gen: int, now: int) -> Job | None:
        """Finish and return the job the wake-up of generation gen was for,
        or None if the wake-up is stale."""
        if gen != self.gen:
            return None
        self.charge(now)
        job = self.running
        del self.jobs[job.key]
        self.running = None
        self.gen += 1
        self.dispatch(now)
        return job

    def drop(self, key, now: int):
        """Abort the job under key, if there is one."""
        # only losing the running job changes what runs; choosing again
        # anyway would bump gen, and a job finishing at this very instant
        # would lose its finish as stale
        self.charge(now)
        job = self.jobs.pop(key, None)
        if job is not None and job is self.running:
            self.running = None
            self.gen += 1
            self.dispatch(now)

    def expire(self, key, release_us: int, now: int) -> Job | None:
        """At its deadline, abort and return the job if it is unfinished.

        The job is charged first, so its remaining work is what was left.
        """
        job = self.jobs.get(key)
        if job is None or job.release_us != release_us:
            return None
        self.charge(now)
        if job.remaining_us <= 0:
            return None
        self.drop(key, now)
        return job

    def halt(self, now: int):
        """Drop every task job; background work stays for when the processor
        resumes."""
        self.charge(now)
        self.jobs = {k: j for k, j in self.jobs.items() if j.background}
        self.running = None
        self.gen += 1


@dataclass
class ProcSchedule:
    """What one fixed-priority processor did over a window."""

    completions: list = field(default_factory=list)   # (task_id, release, finish)
    misses: list = field(default_factory=list)        # (task_id, release, deadline)
    background_done_us: int | None = None


def schedule_processor(tasks, window_us: int, background_us: int = 0) -> ProcSchedule:
    """Run a deadline-monotonic preemptive schedule on one processor.

    ``tasks`` are TaskSpec-likes with distinct ids, released together at
    time zero. Background work soaks up every idle microsecond at less than
    any task priority; the report notes when the backlog (if any) drained.
    An instance that reaches its deadline unfinished is recorded as a miss
    and aborted. A plain :class:`Processor` is stepped from one instant to
    the next. At each it finishes the running job, then checks deadlines,
    then releases, each in task-id order: the engine's order of event
    kinds. Releases fall before the window's end, and a deadline on the
    window's end still counts, as on the engine's horizon.
    """
    tasks = list(tasks)
    specs = {t.task_id: t for t in tasks}
    if len(specs) != len(tasks):
        raise ValueError("task ids must be distinct")
    cpu = Processor()
    cpu.prios = ProcessorState({key: (t.wcet_us, t.period_us, t.deadline_us)
                                for key, t in specs.items()}).priorities()
    if background_us > 0:
        cpu.release(Job(None, None, 0, background_us, background=True), 0)
    order = sorted(specs)
    releases = dict.fromkeys(order, 0)  # task id -> next release, None past the window
    checks = []                         # sorted (deadline, task id, release)

    report = ProcSchedule()
    now = 0
    while now <= window_us:
        if cpu.running is not None and cpu.wake_us == now:
            job = cpu.finish(cpu.gen, now)
            if job.background:
                report.background_done_us = now
            else:
                report.completions.append((job.key, job.release_us, now))
        while checks and checks[0][0] == now:
            _, tid, release = checks.pop(0)
            if cpu.expire(tid, release, now) is not None:
                report.misses.append((tid, release, now))
        for tid in order:
            if releases[tid] == now:
                t = specs[tid]
                cpu.release(Job(t, tid, now, t.wcet_us), now)
                if now + t.deadline_us <= window_us:
                    bisect.insort(checks, (now + t.deadline_us, tid, now))
                nxt = now + t.period_us
                releases[tid] = nxt if nxt < window_us else None
        due = [at for at in releases.values() if at is not None]
        if checks:
            due.append(checks[0][0])
        if cpu.running is not None:
            due.append(cpu.wake_us)
        now = min(due, default=window_us + 1)
    return report
