"""One processor's preemptive deadline-monotonic schedule.

The event engine and ``schedule_processor`` (both in :mod:`lanesim.sim`)
drive this one class. It keeps one table of jobs, run by the ranks of
:meth:`lanesim.timing.ProcessorState.priorities`. Background work (a
rebuilt copy's history replay) is keyed outside those ranks, so it ranks
below every task and takes the time no task job wants, lowest key first.
Time is charged lazily, when the caller touches the processor.
What runs is always the best ready job, so a release chooses again only
when the new job can win: nothing runs, it replaces the running job, or it
outranks it. Each change of what runs moves the generation on and tells
``wake`` which ``Job`` now runs and when it will finish; a finish of an
older generation, or of a job that no longer runs, is stale.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(eq=False)
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
    task and runs only when no task job is ready. A subclass implements
    :meth:`wake` and may narrow :meth:`runnable`.
    """

    def __init__(self):
        self.prios: dict = {}       # job key -> DM rank, 0 highest
        self.jobs: dict = {}        # job key -> Job, background work too
        self.running: Job | None = None
        self.since = 0
        self.gen = 0

    def runnable(self) -> bool:
        """May the processor run anything at all right now?"""
        return True

    def wake(self, at_us: int):
        """Deliver at_us to :meth:`finish` with ``running`` and ``gen`` as now."""
        raise NotImplementedError

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
        if self.runnable():
            prios, last = self.prios, len(self.prios)
            ready = [(prios.get(key, last), key)
                     for key, job in self.jobs.items() if job.remaining_us > 0]
            if ready:
                chosen = self.jobs[min(ready)[1]]
        if chosen is self.running:
            return
        self.running = chosen
        self.since = now
        self.gen += 1
        if chosen is not None:
            self.wake(now + chosen.remaining_us)

    def release(self, job: Job, now: int):
        """Make a job ready, replacing any earlier job under its key."""
        self.charge(now)
        self.jobs[job.key] = job
        # what runs is the best ready job; only a job that replaces it (an
        # equal key) or outranks it by (rank, key) changes the choice
        running = self.running
        if running is not None:
            prios, last = self.prios, len(self.prios)
            if (prios.get(running.key, last), running.key) < (
                    prios.get(job.key, last), job.key):
                return
        self.dispatch(now)

    def finish(self, job: Job, gen: int, now: int) -> bool:
        """Did the wake-up for ``job`` finish it? Removes it if so.

        False when the wake-up is stale: another choice ran since, or the
        job is not yet done.
        """
        if gen != self.gen or job is not self.running:
            return False
        self.charge(now)
        if job.remaining_us > 0:
            return False
        del self.jobs[job.key]
        self.running = None
        self.gen += 1
        self.dispatch(now)
        return True

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
