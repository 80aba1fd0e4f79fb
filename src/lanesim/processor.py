"""One processor's preemptive deadline-monotonic schedule.

The event engine and ``schedule_processor`` (both in :mod:`lanesim.sim`)
drive this one class. Jobs run by the ranks of
:meth:`lanesim.timing.ProcessorState.priorities`; background work (a
rebuilt copy's history replay) takes the time no job wants, lowest key
first. Time is charged lazily, when the caller touches the processor.
Each change of what runs moves the generation on and tells ``wake`` when
the new choice will finish; a finish of an older generation is stale.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Job:
    owner: object           # whatever the caller files the work under
    release_us: int
    remaining_us: int
    start_us: int | None = None


class Processor:
    """Ready jobs and background work of one processor, and what runs now.

    A subclass implements :meth:`wake` and may narrow :meth:`runnable`.
    """

    def __init__(self):
        self.prios: dict = {}       # job key -> DM rank, 0 highest
        self.jobs: dict = {}        # job key -> Job
        self.background: dict = {}  # key -> Job, runs only when no job is ready
        self.running = None         # ("job", key) | ("background", key)
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
        if self.running is None:
            self.since = now
            return
        ran = now - self.since
        what, key = self.running
        job = (self.jobs if what == "job" else self.background).get(key)
        if job is not None:
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
                chosen = ("job", min(ready)[1])
            else:
                live = [key for key, job in self.background.items()
                        if job.remaining_us > 0]
                if live:
                    chosen = ("background", min(live))
        if chosen == self.running:
            return
        self.running = chosen
        self.since = now
        self.gen += 1
        if chosen is not None:
            what, key = chosen
            job = (self.jobs if what == "job" else self.background)[key]
            self.wake(now + job.remaining_us)

    def release(self, key, job: Job, now: int):
        """Make a job ready, replacing any earlier job under the same key."""
        self.charge(now)
        self.jobs[key] = job
        self.dispatch(now)

    def add_background(self, key, job: Job, now: int):
        self.charge(now)
        self.background[key] = job
        self.dispatch(now)

    def finish(self, what, gen: int, now: int) -> Job | None:
        """The job or background work that a wake-up for ``what`` finished.

        None when the wake-up is stale: the choice changed since, or the
        work is gone or not yet done.
        """
        if gen != self.gen or what != self.running:
            return None
        self.charge(now)
        kind, key = what
        pool = self.jobs if kind == "job" else self.background
        job = pool.get(key)
        if job is None or job.remaining_us > 0:
            return None
        del pool[key]
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
        self.jobs.pop(key, None)
        if self.running == ("job", key):
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
        """Drop every job; background work stays for when the processor resumes."""
        self.charge(now)
        self.jobs.clear()
        self.running = None
        self.gen += 1
