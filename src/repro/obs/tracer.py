"""Deterministic structured tracing on the simulated clock.

The serving stack schedules on a *simulated* cycle counter, so every event
worth tracing already has an exact integer timestamp.  :class:`Tracer`
records those events as immutable :class:`TraceEvent` records — instants,
complete spans, and counter samples — keyed by ``(pid, tid)`` tracks so the
Chrome-trace exporter (:mod:`repro.obs.export`) can lay one process per
worker class and one thread per worker.

Determinism is the design constraint: event payloads carry only simulated
quantities (cycles, counts, ids), ``args`` are stored key-sorted, and the
tracing layer never reads the wall clock.  ``reprolint`` rule RPL106
enforces that.

Instrumented call sites keep the disabled path at ~zero cost by holding
``tracer = None`` and guarding each emission with ``if tracer is not None``.

>>> tracer = Tracer()
>>> tracer.instant("job.arrival", 0, job_id="t0-j0", tenant="t0")
>>> tracer.complete("batch.execute", 10, 90, pid=1, tid=0, batch_id=0)
>>> tracer.counter("queue.depth", 10, depth=3)
>>> [event.name for event in tracer.events]
['job.arrival', 'batch.execute', 'queue.depth']
>>> tracer.events[0].args
(('job_id', 't0-j0'), ('tenant', 't0'))
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Chrome trace-event phases used by this tracer: instant, complete, counter.
PHASES = ("i", "X", "C")


@dataclass(frozen=True)
class TraceEvent:
    """One immutable trace record on the simulated clock.

    ``cycle`` is the simulated timestamp; ``duration`` is only meaningful
    for complete (``"X"``) events.  ``pid``/``tid`` name the track: the
    scheduler emits on ``(0, 0)``, workers on ``(class_id + 1, worker_id)``.
    ``args`` is a key-sorted tuple of pairs so equal payloads compare (and
    serialize) identically.

    >>> TraceEvent("job.requeued", "i", 5, args=(("tenant", "t0"),)).cycle
    5
    """

    name: str
    phase: str
    cycle: int
    duration: int = 0
    pid: int = 0
    tid: int = 0
    category: str = "serve"
    args: tuple[tuple[str, object], ...] = ()

    def to_dict(self) -> dict[str, object]:
        """Return the event as a plain JSON-ready mapping.

        >>> TraceEvent("x", "i", 1).to_dict()["ph"]
        'i'
        """
        record: dict[str, object] = {
            "name": self.name,
            "ph": self.phase,
            "ts": self.cycle,
            "pid": self.pid,
            "tid": self.tid,
            "cat": self.category,
            "args": dict(self.args),
        }
        if self.phase == "X":
            record["dur"] = self.duration
        return record


def _sorted_args(args: dict[str, object]) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(args.items()))


@dataclass
class Tracer:
    """Collects :class:`TraceEvent` records plus track labels.

    The tracer itself is deliberately dumb: appends to an in-memory list in
    call order.  Call order *is* the determinism contract — emission sites
    only fire from deterministic single-threaded sections of the planner
    and result assembly, never from pool threads.

    >>> tracer = Tracer()
    >>> tracer.set_process_label(1, "systolic:32x32")
    >>> tracer.set_thread_label(1, 0, "worker 0")
    >>> tracer.instant("worker.fault", 0, pid=1, tid=0)
    >>> len(tracer)
    1
    """

    _events: list[TraceEvent] = field(default_factory=list)
    _process_labels: dict[int, str] = field(default_factory=dict)
    _thread_labels: dict[tuple[int, int], str] = field(default_factory=dict)

    def emit(self, event: TraceEvent) -> None:
        """Append an already-built event."""
        self._events.append(event)

    def instant(
        self,
        name: str,
        cycle: int,
        *,
        pid: int = 0,
        tid: int = 0,
        category: str = "serve",
        **args: object,
    ) -> None:
        """Record an instant (``"i"``) event at ``cycle``."""
        self._events.append(
            TraceEvent(name, "i", cycle, 0, pid, tid, category, _sorted_args(args))
        )

    def complete(
        self,
        name: str,
        cycle: int,
        duration: int,
        *,
        pid: int = 0,
        tid: int = 0,
        category: str = "serve",
        **args: object,
    ) -> None:
        """Record a complete (``"X"``) span covering ``[cycle, cycle+duration)``."""
        self._events.append(
            TraceEvent(
                name, "X", cycle, duration, pid, tid, category, _sorted_args(args)
            )
        )

    def counter(
        self,
        name: str,
        cycle: int,
        *,
        pid: int = 0,
        tid: int = 0,
        **values: object,
    ) -> None:
        """Record a counter (``"C"``) sample; ``values`` become the series."""
        self._events.append(
            TraceEvent(
                name, "C", cycle, 0, pid, tid, "counter", _sorted_args(values)
            )
        )

    def set_process_label(self, pid: int, label: str) -> None:
        """Name a pid track (one per worker class in serving traces)."""
        self._process_labels[pid] = label

    def set_thread_label(self, pid: int, tid: int, label: str) -> None:
        """Name a tid track (one per worker in serving traces)."""
        self._thread_labels[(pid, tid)] = label

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """All events recorded so far, in emission order."""
        return tuple(self._events)

    @property
    def process_labels(self) -> dict[int, str]:
        """pid → label mapping (copy)."""
        return dict(self._process_labels)

    @property
    def thread_labels(self) -> dict[tuple[int, int], str]:
        """(pid, tid) → label mapping (copy)."""
        return dict(self._thread_labels)

    def clear(self) -> None:
        """Drop all recorded events and labels."""
        self._events.clear()
        self._process_labels.clear()
        self._thread_labels.clear()

    def __len__(self) -> int:
        return len(self._events)


__all__ = [
    "PHASES",
    "TraceEvent",
    "Tracer",
]
