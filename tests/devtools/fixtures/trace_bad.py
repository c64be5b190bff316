"""Fixture: wall-clock leaks that the trace-purity rule must flag.

This file stands in for a module inside ``src/repro/obs/`` (scope A) that
is also a simulated-clock path (scope B).  Only ``time.perf_counter`` is
used so every finding here is RPL106, never RPL102.
"""

import time
from time import perf_counter


class _Tracer:
    def instant(self, name, cycle, **args):
        pass

    def counter(self, name, cycle, **args):
        pass


def stamp_outside_helper():
    # Any wall read in the tracing layer.
    return time.perf_counter()  # expect: RPL106


def emit_wall_positional(tracer):
    # The wall value lands in the event timestamp: two findings (the raw
    # read, and the emission it flows into) collapse onto this line.
    tracer.instant("job.arrival", int(time.perf_counter()))  # expect: RPL106


def emit_wall_keyword(tracer):
    tracer.counter("queue.depth", 0, depth=perf_counter())  # expect: RPL106
