"""Fixture: deterministic tracing that must lint clean under RPL106.

Simulated-cycle emissions only: the tracing layer reads no wall clock.
"""


class _Tracer:
    def instant(self, name, cycle, **args):
        pass

    def counter(self, name, cycle, **args):
        pass


def emit_simulated(tracer, cycle):
    tracer.instant("job.arrival", cycle, job_id="j0")
    tracer.counter("queue.depth", cycle, depth=3)
