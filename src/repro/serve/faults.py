"""Deterministic fault model for the serving fleet.

Fault tolerance is only testable when failures are reproducible, so the
chaos layer is expressed entirely on the **simulated clock**: a
:class:`FaultPlan` is a set of per-worker :class:`WorkerFault` events
(permanent death, transient outage, slowdown multiplier) pinned to
simulated cycles, and a :class:`FaultInjector` answers the scheduler's
questions about them — is this worker alive at cycle ``T``, when is its
next failure after a dispatch at ``T``, how much does it stretch service.
Nothing in this module reads wall-clock time or an unseeded RNG
(:func:`random_fault_plan` draws from a seeded
``numpy.random.Generator``), so a fault plan perturbs a serving run the
same way on every machine and every rerun — reprolint's RPL102 rule runs
in *strict* mode over this file to keep it that way.

Fault kinds
-----------

* ``permanent`` — the worker dies at ``at_cycle`` and never returns.  A
  batch in flight is cut at the death cycle; its unexecuted jobs requeue
  and the placement policy stops considering the worker.
* ``transient`` — the worker is down for ``down_cycles`` starting at
  ``at_cycle``, then recovers.  In-flight work is cut and requeued the
  same way; dispatches during the outage window start after it ends.
* ``slowdown`` — from ``at_cycle`` on, service on the worker is
  stretched by ``factor`` (a straggler).  Slowdowns change *when* work
  finishes, never *what* it computes — results stay bit-exact.

Fault specs use the same compact grammar style as fleet specs
(:func:`repro.serve.fleet.parse_fleet_spec`):
``WORKER:KIND@CYCLE[+DOWN][xFACTOR]``, comma-separated.

>>> plan = parse_fault_spec("0:perm@5000,1:transient@3000+2000,2:slow@0x1.5")
>>> [fault.kind for fault in plan.faults]
['permanent', 'transient', 'slowdown']
>>> injector = FaultInjector(plan, fleet_size=4)
>>> injector.alive(0, 4999), injector.alive(0, 5000)
(True, False)
>>> injector.unavailable_until(1, 3500)
5000
>>> injector.stretch(2, cycle=10, cycles=100)
150
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.obs.tracer import Tracer

#: The fault kinds a :class:`WorkerFault` may carry.
FAULT_TRANSIENT = "transient"
FAULT_PERMANENT = "permanent"
FAULT_SLOWDOWN = "slowdown"
FAULT_KINDS = (FAULT_TRANSIENT, FAULT_PERMANENT, FAULT_SLOWDOWN)

_KIND_ALIASES = {
    "transient": FAULT_TRANSIENT,
    "fail": FAULT_TRANSIENT,
    "perm": FAULT_PERMANENT,
    "permanent": FAULT_PERMANENT,
    "slow": FAULT_SLOWDOWN,
    "slowdown": FAULT_SLOWDOWN,
}

_FRAGMENT = re.compile(
    r"^(?P<worker>\d+):(?P<kind>[a-z]+)@(?P<cycle>\d+)"
    r"(?:\+(?P<down>\d+))?(?:x(?P<factor>\d+(?:\.\d+)?))?$"
)


@dataclass(frozen=True)
class WorkerFault:
    """One scripted fault on one fleet member.

    ``at_cycle`` is the simulated instant the fault strikes.  Transient
    faults carry ``down_cycles`` (the outage length); slowdowns carry
    ``factor`` (> 1, the service-time multiplier from ``at_cycle`` on).

    >>> WorkerFault(worker_id=1, kind="transient", at_cycle=100,
    ...             down_cycles=50).spec_fragment()
    '1:transient@100+50'
    """

    worker_id: int
    kind: str
    at_cycle: int
    down_cycles: int = 0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ValueError(f"fault worker_id must be >= 0, got {self.worker_id}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}"
            )
        if self.at_cycle < 0:
            raise ValueError(f"fault at_cycle must be >= 0, got {self.at_cycle}")
        if self.kind == FAULT_TRANSIENT:
            if self.down_cycles <= 0:
                raise ValueError(
                    f"transient fault needs down_cycles > 0, got {self.down_cycles}"
                )
        elif self.down_cycles != 0:
            raise ValueError(f"{self.kind} fault cannot carry down_cycles")
        if self.kind == FAULT_SLOWDOWN:
            if self.factor <= 1.0:
                raise ValueError(
                    f"slowdown factor must be > 1, got {self.factor}"
                )
        elif self.factor != 1.0:
            raise ValueError(f"{self.kind} fault cannot carry a factor")

    def spec_fragment(self) -> str:
        """The ``WORKER:KIND@CYCLE[+DOWN][xFACTOR]`` spec for this fault."""
        text = f"{self.worker_id}:{self.kind}@{self.at_cycle}"
        if self.kind == FAULT_TRANSIENT:
            text += f"+{self.down_cycles}"
        elif self.kind == FAULT_SLOWDOWN:
            text += f"x{self.factor:g}"
        return text


@dataclass(frozen=True)
class FailureEvent:
    """One upcoming execution-breaking event on a worker.

    ``resume_cycle`` is when the worker returns to service (None for a
    permanent death).
    """

    cycle: int
    kind: str
    resume_cycle: int | None


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, scripted set of fleet faults (sorted, validated).

    >>> plan = FaultPlan((WorkerFault(0, "permanent", 500),))
    >>> plan.spec()
    '0:permanent@500'
    >>> parse_fault_spec(plan.spec()) == plan
    True
    """

    faults: tuple[WorkerFault, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.faults,
                key=lambda f: (f.worker_id, f.at_cycle, f.kind),
            )
        )
        object.__setattr__(self, "faults", ordered)

    def max_worker_id(self) -> int:
        """Largest worker id any fault names (-1 for an empty plan)."""
        return max((f.worker_id for f in self.faults), default=-1)

    def spec(self) -> str:
        """The comma-separated spec string this plan round-trips through."""
        return ",".join(f.spec_fragment() for f in self.faults)


def parse_fault_spec(text: str) -> FaultPlan:
    """Parse a ``WORKER:KIND@CYCLE[+DOWN][xFACTOR]`` fault-spec string.

    Comma-separated fragments; kinds accept the aliases ``perm``/
    ``permanent``, ``transient``/``fail`` and ``slow``/``slowdown``.
    Transient faults require ``+DOWN`` (outage length); slowdowns require
    ``xFACTOR`` (> 1).  A spec must name at least one fault — an empty
    string is a malformed request, not an empty plan (callers wanting no
    faults pass no plan at all).

    >>> parse_fault_spec("1:fail@200+100").faults[0].down_cycles
    100
    >>> parse_fault_spec("")
    Traceback (most recent call last):
        ...
    ValueError: empty fault spec; expected comma-separated WORKER:KIND@CYCLE[+DOWN][xFACTOR] fragments
    >>> parse_fault_spec("0:bogus@1")
    Traceback (most recent call last):
        ...
    ValueError: malformed fault fragment '0:bogus@1'; unknown kind 'bogus'
    """
    faults: list[WorkerFault] = []
    for fragment in filter(None, (part.strip() for part in text.split(","))):
        match = _FRAGMENT.match(fragment)
        if match is None:
            raise ValueError(
                f"malformed fault fragment {fragment!r}; expected "
                f"WORKER:KIND@CYCLE[+DOWN][xFACTOR], e.g. 0:perm@5000, "
                f"1:transient@3000+2000 or 2:slow@0x1.5"
            )
        kind = _KIND_ALIASES.get(match["kind"])
        if kind is None:
            raise ValueError(
                f"malformed fault fragment {fragment!r}; "
                f"unknown kind {match['kind']!r}"
            )
        down = match["down"]
        factor = match["factor"]
        if kind != FAULT_TRANSIENT and down is not None:
            raise ValueError(
                f"malformed fault fragment {fragment!r}; "
                f"only transient faults take +DOWN"
            )
        if kind != FAULT_SLOWDOWN and factor is not None:
            raise ValueError(
                f"malformed fault fragment {fragment!r}; "
                f"only slowdowns take xFACTOR"
            )
        if kind == FAULT_TRANSIENT and down is None:
            raise ValueError(
                f"malformed fault fragment {fragment!r}; "
                f"transient faults need +DOWN (outage cycles)"
            )
        if kind == FAULT_SLOWDOWN and factor is None:
            raise ValueError(
                f"malformed fault fragment {fragment!r}; "
                f"slowdowns need xFACTOR (service multiplier > 1)"
            )
        try:
            faults.append(
                WorkerFault(
                    worker_id=int(match["worker"]),
                    kind=kind,
                    at_cycle=int(match["cycle"]),
                    down_cycles=int(down) if down is not None else 0,
                    factor=float(factor) if factor is not None else 1.0,
                )
            )
        except ValueError as error:
            raise ValueError(
                f"malformed fault fragment {fragment!r}; {error}"
            ) from None
    if not faults:
        raise ValueError(
            "empty fault spec; expected comma-separated "
            "WORKER:KIND@CYCLE[+DOWN][xFACTOR] fragments"
        )
    return FaultPlan(tuple(faults))


def random_fault_plan(
    fleet_size: int,
    *,
    seed: int,
    horizon_cycles: int,
    transient_rate: float = 0.5,
    permanent_rate: float = 0.25,
    slowdown_rate: float = 0.25,
) -> FaultPlan:
    """A seeded random chaos plan for fuzz-style fault testing.

    Each worker independently draws at most one fault of each kind with
    the given probabilities; timings land uniformly inside
    ``horizon_cycles``.  Deterministic for a given seed (the RNG is a
    seeded ``numpy.random.Generator``), so a failing chaos run is
    replayable from its seed alone.

    >>> plan = random_fault_plan(4, seed=7, horizon_cycles=10_000)
    >>> plan == random_fault_plan(4, seed=7, horizon_cycles=10_000)
    True
    """
    if fleet_size < 1:
        raise ValueError(f"fleet_size must be >= 1, got {fleet_size}")
    if horizon_cycles < 1:
        raise ValueError(f"horizon_cycles must be >= 1, got {horizon_cycles}")
    rng = np.random.default_rng(seed)
    faults: list[WorkerFault] = []
    for worker_id in range(fleet_size):
        if rng.random() < transient_rate:
            at = int(rng.integers(horizon_cycles))
            down = int(rng.integers(1, max(2, horizon_cycles // 4)))
            faults.append(
                WorkerFault(worker_id, FAULT_TRANSIENT, at, down_cycles=down)
            )
        if rng.random() < slowdown_rate:
            at = int(rng.integers(horizon_cycles))
            factor = 1.0 + float(rng.uniform(0.25, 2.0))
            faults.append(WorkerFault(worker_id, FAULT_SLOWDOWN, at, factor=factor))
        if rng.random() < permanent_rate:
            at = int(rng.integers(horizon_cycles))
            faults.append(WorkerFault(worker_id, FAULT_PERMANENT, at))
    return FaultPlan(tuple(faults))


class FaultInjector:
    """Stateless oracle the scheduler consults about a :class:`FaultPlan`.

    All queries are pure functions of ``(plan, worker, cycle)`` — the
    injector keeps no mutable state, so the planner's determinism (one
    schedule per trace/fleet/plan triple) extends to faulty runs.

    >>> plan = parse_fault_spec("0:transient@100+50")
    >>> injector = FaultInjector(plan, fleet_size=2)
    >>> event = injector.next_failure(0, start_cycle=0)
    >>> (event.cycle, event.resume_cycle)
    (100, 150)
    >>> injector.next_failure(1, start_cycle=0) is None
    True
    """

    def __init__(self, plan: FaultPlan, fleet_size: int) -> None:
        if plan.max_worker_id() >= fleet_size:
            raise ValueError(
                f"fault plan names worker {plan.max_worker_id()} but the "
                f"fleet has only {fleet_size} workers (ids 0.."
                f"{fleet_size - 1})"
            )
        self.plan = plan
        self.fleet_size = fleet_size
        self._permanent: dict[int, int] = {}
        self._transients: dict[int, tuple[WorkerFault, ...]] = {}
        self._slowdowns: dict[int, tuple[WorkerFault, ...]] = {}
        for fault in plan.faults:
            if fault.kind == FAULT_PERMANENT:
                previous = self._permanent.get(fault.worker_id)
                if previous is None or fault.at_cycle < previous:
                    self._permanent[fault.worker_id] = fault.at_cycle
            elif fault.kind == FAULT_TRANSIENT:
                self._transients[fault.worker_id] = (
                    self._transients.get(fault.worker_id, ()) + (fault,)
                )
            else:
                self._slowdowns[fault.worker_id] = (
                    self._slowdowns.get(fault.worker_id, ()) + (fault,)
                )

    def permanent_at(self, worker_id: int) -> int | None:
        """The cycle this worker dies for good, or None if it never does."""
        return self._permanent.get(worker_id)

    def alive(self, worker_id: int, cycle: int) -> bool:
        """Whether the worker has not yet permanently died at ``cycle``."""
        death = self._permanent.get(worker_id)
        return death is None or cycle < death

    def unavailable_until(self, worker_id: int, cycle: int) -> int | None:
        """End of a transient outage window covering ``cycle`` (else None)."""
        for fault in self._transients.get(worker_id, ()):
            if fault.at_cycle <= cycle < fault.at_cycle + fault.down_cycles:
                return fault.at_cycle + fault.down_cycles
        return None

    def slowdown_factor(self, worker_id: int, cycle: int) -> float:
        """Product of slowdown factors in effect on this worker at ``cycle``."""
        factor = 1.0
        for fault in self._slowdowns.get(worker_id, ()):
            if fault.at_cycle <= cycle:
                factor *= fault.factor
        return factor

    def stretch(self, worker_id: int, cycle: int, cycles: int) -> int:
        """Service cycles after applying the slowdown in effect at ``cycle``.

        The factor is sampled once at batch start (``cycle``) and applied
        to the whole batch — a straggler stretches occupancy and finish
        times, never results.
        """
        factor = self.slowdown_factor(worker_id, cycle)
        if factor == 1.0:
            return cycles
        return int(math.ceil(cycles * factor))

    def emit_plan(
        self,
        tracer: Tracer,
        track: Mapping[int, tuple[int, int]] | None = None,
    ) -> None:
        """Emit the scripted plan as ``worker.fault``/``worker.recover`` events.

        Pure simulated-clock bookkeeping (this module stays under strict
        RPL102): one instant per scripted fault at its ``at_cycle``, plus a
        recovery instant at the end of each transient outage.  ``track``
        maps worker ids to their ``(pid, tid)`` trace track; unmapped
        workers land on ``(0, worker_id)``.

        >>> from repro.obs.tracer import Tracer
        >>> injector = FaultInjector(
        ...     parse_fault_spec("0:transient@100+50"), fleet_size=1)
        >>> tracer = Tracer()
        >>> injector.emit_plan(tracer)
        >>> [(e.name, e.cycle) for e in tracer.events]
        [('worker.fault', 100), ('worker.recover', 150)]
        """
        tracks = dict(track or {})
        for fault in self.plan.faults:
            pid, tid = tracks.get(fault.worker_id, (0, fault.worker_id))
            args: dict[str, object] = {
                "worker_id": fault.worker_id,
                "kind": fault.kind,
            }
            if fault.kind == FAULT_TRANSIENT:
                args["down_cycles"] = fault.down_cycles
            elif fault.kind == FAULT_SLOWDOWN:
                args["factor"] = fault.factor
            tracer.instant("worker.fault", fault.at_cycle, pid=pid, tid=tid, **args)
            if fault.kind == FAULT_TRANSIENT:
                tracer.instant(
                    "worker.recover",
                    fault.at_cycle + fault.down_cycles,
                    pid=pid,
                    tid=tid,
                    worker_id=fault.worker_id,
                )

    def next_failure(self, worker_id: int, start_cycle: int) -> FailureEvent | None:
        """The earliest execution-breaking fault at or after ``start_cycle``.

        Dispatches consult this to cut batches: a batch started at
        ``start_cycle`` whose finish would overrun the returned event's
        ``cycle`` loses its unexecuted suffix to a requeue.  Permanent
        deaths dominate transients striking on the same cycle.
        """
        best: tuple[int, int] | None = None
        event: FailureEvent | None = None
        death = self._permanent.get(worker_id)
        if death is not None and death >= start_cycle:
            best = (death, 0)
            event = FailureEvent(cycle=death, kind=FAULT_PERMANENT, resume_cycle=None)
        for fault in self._transients.get(worker_id, ()):
            if fault.at_cycle < start_cycle:
                continue
            if death is not None and fault.at_cycle >= death:
                continue  # the worker is already dead by then
            candidate = (fault.at_cycle, 1)
            if best is None or candidate < best:
                best = candidate
                event = FailureEvent(
                    cycle=fault.at_cycle,
                    kind=FAULT_TRANSIENT,
                    resume_cycle=fault.at_cycle + fault.down_cycles,
                )
        return event


__all__ = [
    "FAULT_KINDS",
    "FAULT_PERMANENT",
    "FAULT_SLOWDOWN",
    "FAULT_TRANSIENT",
    "FailureEvent",
    "FaultInjector",
    "FaultPlan",
    "WorkerFault",
    "parse_fault_spec",
    "random_fault_plan",
]
