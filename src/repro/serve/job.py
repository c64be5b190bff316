"""Job model of the batch-serving subsystem.

A :class:`Job` wraps one ``run_gemm`` invocation — the operands plus the
multi-tenant metadata the scheduler needs (tenant id, priority, deadline
hint, simulated arrival time).  A :class:`SeededJob` is the same GEMM with
a seed recipe in place of the operands: it stores only its shape and seed,
and draws the operands when they are read — straight into the stacked
batch buffers while its batch runs, so a long synthetic trace costs a few
hundred bytes per job until it runs.  A :class:`ConvJob` wraps one
``run_conv`` invocation: it carries the IFMAP / filter tensors and their
geometry, and is indistinguishable from a GEMM job to the queues, the
admission controller and the batch packer — conv jobs are priced by their
lowered GEMM shape, stack into the same same-shape batches and are
im2col-lowered only where their batch runs, straight into its buffers.
A :class:`JobResult` wraps the
:class:`repro.api.RunResult` the accelerator produced together with the
serving-side accounting: when the job arrived, started and finished on the
simulated clock, which worker and batch ran it, and what the admission
controller priced it at.

Everything here is plain data; the scheduling policy lives in
:mod:`repro.serve.queues` and :mod:`repro.serve.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.api import RunResult, _AcceleratorBase
from repro.im2col.lowering import (
    ConvShape,
    conv_shape_from_tensors,
    lower_conv_operands,
    lower_conv_to_gemm,
)
from repro.im2col.software import conv_windows
from repro.obs.tracer import TraceEvent

#: Terminal outcomes recorded on a :class:`JobResult`.  ``completed`` is
#: the only status carrying a :class:`repro.api.RunResult`; the rest are
#: jobs the serving stack resolved without (fully) executing them:
#: ``rejected`` by admission, ``failed`` after exhausting retries on
#: worker faults, ``cancelled`` by a client, ``expired`` by deadline
#: enforcement, ``shed`` by the overload policy.
STATUS_COMPLETED = "completed"
STATUS_REJECTED = "rejected"
STATUS_FAILED = "failed"
STATUS_CANCELLED = "cancelled"
STATUS_EXPIRED = "expired"
STATUS_SHED = "shed"
JOB_STATUSES = (
    STATUS_COMPLETED,
    STATUS_REJECTED,
    STATUS_FAILED,
    STATUS_CANCELLED,
    STATUS_EXPIRED,
    STATUS_SHED,
)

#: Per-tenant SLO classes the overload-shedding policy distinguishes:
#: under sustained queue growth, ``best-effort`` tenants are shed before
#: ``latency-target`` tenants lose anything.
SLO_LATENCY_TARGET = "latency-target"
SLO_BEST_EFFORT = "best-effort"
SLO_CLASSES = (SLO_LATENCY_TARGET, SLO_BEST_EFFORT)


class _GemmOperandsMixin:
    """The scheduler-facing interface shared by every job kind.

    Every job kind has a ``shape`` — the ``(M, K, N)`` GEMM it runs, set at
    construction and the batching key — and ``(M, K)`` / ``(K, N)``
    operands ``a`` / ``b``: stored (:class:`Job`), lowered from a
    convolution (:class:`ConvJob`) or drawn from a seed recipe
    (:class:`SeededJob`).  The mixin derives the properties the queues, the
    admission pricer and the batch packer consume from ``shape`` alone, so
    none of them ever touches operand data, plus the operand write of the
    stacked batch path and the default no-op result post-processing.
    Keeping this in one place means a new scheduler-facing property is
    added once and every job kind grows it together.
    """

    shape: tuple[int, int, int]

    if TYPE_CHECKING:

        @property
        def a(self) -> np.ndarray: ...

        @property
        def b(self) -> np.ndarray: ...

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def k(self) -> int:
        return self.shape[1]

    @property
    def n(self) -> int:
        return self.shape[2]

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n

    def write_operands(self, a_out: np.ndarray, b_out: np.ndarray) -> None:
        """Write ``a`` and ``b`` into preallocated ``(M, K)`` / ``(K, N)`` slots.

        The stacked batch path (:func:`repro.serve.scheduler.run_batch`)
        hands every job its slots of the ``(B, M, K)`` / ``(B, K, N)``
        stacks; stored operands are copied in.
        """
        a_out[...] = self.a
        b_out[...] = self.b

    def finalize_result(
        self, run: RunResult, accelerator: _AcceleratorBase
    ) -> RunResult:
        """Post-process one executed :class:`RunResult` for this job.

        The scheduler calls this once per served job, right after the
        (possibly batched) GEMM execution, on the thread that ran it.  Plain
        GEMM jobs pass the result through untouched; :class:`ConvJob`
        overrides it to fold the flat GEMM output back into the OFMAP and
        attach the conv traffic accounting.  Must never change ``cycles``
        (the scheduler pins executed cycles against the plan).
        """
        return run


@dataclass(frozen=True, eq=False)
class Job(_GemmOperandsMixin):
    """One GEMM awaiting execution on behalf of a tenant.

    Attributes
    ----------
    job_id:
        Unique identifier (unique across the trace; used for stable
        ordering and result lookup).
    tenant:
        Owning tenant; selects the FIFO queue and fair-share weight.
    a, b:
        The ``(M, K)`` and ``(K, N)`` operands, exactly as they would be
        passed to :meth:`repro.api._AcceleratorBase.run_gemm`.
    name:
        Workload label carried through to the :class:`RunResult`.
    priority:
        Jobs with a higher priority are served before older jobs of the
        *same tenant* (cross-tenant ordering stays with the weighted-fair
        scheduler, so one tenant's priorities cannot starve another).
    deadline_hint_cycles:
        Optional latency target relative to arrival.  Advisory by default
        (recorded as ``deadline_met`` on the result); with the
        scheduler's ``enforce_deadlines=True`` it becomes binding —
        queued jobs whose laxity has run out expire instead of wasting
        fleet cycles on work nobody is waiting for.
    arrival_cycle:
        Simulated-clock arrival time; the job is invisible to the
        scheduler before this instant.

    >>> import numpy as np
    >>> job = Job(job_id="j0", tenant="acme", a=np.ones((4, 8)), b=np.ones((8, 2)))
    >>> job.shape, job.macs
    ((4, 8, 2), 64)
    """

    job_id: str
    tenant: str
    a: np.ndarray
    b: np.ndarray
    name: str = "gemm"
    priority: int = 0
    deadline_hint_cycles: int | None = None
    arrival_cycle: int = 0
    shape: tuple[int, int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(
                f"job {self.job_id!r}: operands must be 2-D with agreeing "
                f"inner dimensions, got {a.shape} x {b.shape}"
            )
        if a.shape[0] == 0 or a.shape[1] == 0 or b.shape[1] == 0:
            # Caught here, at the per-job boundary, so one tenant's
            # malformed job cannot abort a whole multi-tenant serve() run
            # deep inside planning.
            raise ValueError(
                f"job {self.job_id!r}: GEMM dimensions must be positive, "
                f"got {a.shape} x {b.shape}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "shape", (a.shape[0], a.shape[1], b.shape[1]))
        if self.arrival_cycle < 0:
            raise ValueError(f"job {self.job_id!r}: arrival_cycle must be >= 0")


def draw_operand(
    seed: int, spawn_key: tuple[int, ...], operand: int, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with one operand of a seeded job and return it.

    The only place a seeded operand is drawn.  The values come from the
    child ``spawn_key + (operand,)`` of ``seed``, so every operand of every
    job has its own stream and drawing one never advances another.  They
    are integers in ``[-128, 127]``, cast into ``out`` (float64 in every
    caller): products and sums of such operands are exact in float64
    (``|sum| <= K * 2**14``, far below ``2**53``), so a GEMM over them
    gives the same bits in any accumulation order and on any BLAS thread
    count.

    The values are exactly ``default_rng(child).integers(-128, 128,
    size=out.shape, dtype=np.int8)``, read straight off the PCG64 raw
    stream instead: that draw takes the little-endian bytes of
    ``random_raw`` words in order and subtracts 128, and NEP 19 keeps the
    raw stream of a seeded bit generator stable across NumPy releases.
    Skipping the ``Generator`` makes the draw cheaper.

    >>> x = draw_operand(7, (0, 3), 0, np.empty(4))
    >>> bool((x == draw_operand(7, (0, 3), 0, np.empty(4))).all())
    True
    >>> bool((x == np.round(x)).all() and -128 <= x.min() and x.max() <= 127)
    True
    """
    bits = np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(*spawn_key, operand))
    )
    words = bits.random_raw(-(-out.size // 8))
    octets = words.astype("<u8", copy=False).view(np.uint8)[: out.size]
    # Without dtype=, NEP 50 keeps uint8 - 128 in uint8, and it wraps.
    np.subtract(octets.reshape(out.shape), 128, out=out, dtype=np.float64)
    return out


@dataclass(frozen=True, eq=False)
class SeededJob(_GemmOperandsMixin):
    """One GEMM whose operands are a seed recipe instead of arrays.

    ``a`` and ``b`` are integer-valued float64 draws in ``[-128, 127]``
    (:func:`draw_operand`), each from its own child of the job's seed:
    ``SeedSequence(seed, spawn_key=spawn_key + (0,))`` for ``a`` and
    ``(... + (1,))`` for ``b``, so reading one never draws the other.
    They are drawn afresh on every read and never cached on the job;
    ``shape`` (and ``m``/``k``/``n``/``macs``) never draw.  The stacked
    batch path draws them straight into its buffers
    (:meth:`write_operands`) while the batch runs, and a served
    :class:`SeededJob` is bit-exact against ``run_gemm(job.a, job.b)``
    like any :class:`Job`.  Their GEMM sums are exact, so that holds on
    any BLAS thread count; explicit :class:`Job` operands still rely on
    the process-wide one-thread BLAS (:mod:`repro.engine.blas`).

    Attributes
    ----------
    job_id, tenant, name, priority, deadline_hint_cycles, arrival_cycle:
        As on :class:`Job`.
    shape:
        The ``(M, K, N)`` GEMM shape.
    seed, spawn_key:
        The recipe: entropy and spawn key of the job's
        :class:`numpy.random.SeedSequence`.

    >>> job = SeededJob(job_id="j0", tenant="acme", shape=(4, 8, 2), seed=7,
    ...                 spawn_key=(0, 3))
    >>> job.shape, job.macs, job.a.shape, job.b.shape
    ((4, 8, 2), 64, (4, 8), (8, 2))
    >>> bool((job.a == job.a).all())
    True
    """

    job_id: str
    tenant: str
    shape: tuple[int, int, int]
    seed: int
    # No default: an empty key would give the operands the keys (0,) and
    # (1,) of SeedSequence(seed).spawn()'s first children.
    spawn_key: tuple[int, ...]
    name: str = "gemm"
    priority: int = 0
    deadline_hint_cycles: int | None = None
    arrival_cycle: int = 0

    def __post_init__(self) -> None:
        shape = tuple(int(dim) for dim in self.shape)
        if len(shape) != 3 or min(shape) < 1:
            raise ValueError(
                f"job {self.job_id!r}: GEMM dimensions must be three positive "
                f"integers, got {self.shape}"
            )
        object.__setattr__(self, "shape", shape)
        if self.arrival_cycle < 0:
            raise ValueError(f"job {self.job_id!r}: arrival_cycle must be >= 0")

    @property
    def a(self) -> np.ndarray:
        """The ``(M, K)`` operand, drawn afresh on every read."""
        return draw_operand(self.seed, self.spawn_key, 0, np.empty((self.m, self.k)))

    @property
    def b(self) -> np.ndarray:
        """The ``(K, N)`` operand, drawn afresh on every read."""
        return draw_operand(self.seed, self.spawn_key, 1, np.empty((self.k, self.n)))

    def write_operands(self, a_out: np.ndarray, b_out: np.ndarray) -> None:
        """Draw ``a`` and ``b`` straight into the stacked batch slots."""
        draw_operand(self.seed, self.spawn_key, 0, a_out)
        draw_operand(self.seed, self.spawn_key, 1, b_out)


@dataclass(frozen=True, eq=False)
class ConvJob(_GemmOperandsMixin):
    """One convolution layer awaiting execution on behalf of a tenant.

    The job keeps only its tensors and geometry, so the scheduler sees
    exactly the :class:`Job` interface: the lowered GEMM ``shape`` as the
    batching key and ``m``/``k``/``n`` for admission pricing ("price the
    conv as its lowered GEMM").  Its operands exist only where its batch
    runs: :meth:`write_operands` writes the filter rows and the IFMAP's
    window view (:func:`repro.im2col.software.conv_windows`) straight into
    the stacked batch slots, and ``a``/``b`` are derived on every read.
    :meth:`finalize_result` then folds the GEMM result into the
    ``(F, P, Q)`` OFMAP with the fold ``run_conv`` uses, so the completed
    :class:`JobResult` is bit-exact against
    :meth:`repro.api._AcceleratorBase.run_conv`.

    Attributes
    ----------
    job_id, tenant, name, priority, deadline_hint_cycles, arrival_cycle:
        As on :class:`Job`.
    ifmap:
        Input feature map ``(C, H, W)``.
    filters:
        Filter bank ``(F, C, R, S)``.
    stride, padding:
        Convolution hyper-parameters (same along both spatial axes).
    conv_shape:
        The layer geometry the tensors describe (derived, not an argument).
    """

    job_id: str
    tenant: str
    ifmap: np.ndarray
    filters: np.ndarray
    stride: int = 1
    padding: int = 0
    name: str = "conv"
    priority: int = 0
    deadline_hint_cycles: int | None = None
    arrival_cycle: int = 0
    conv_shape: ConvShape = field(init=False, repr=False)
    shape: tuple[int, int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ifmap = np.asarray(self.ifmap, dtype=np.float64)
        filters = np.asarray(self.filters, dtype=np.float64)
        try:
            layer = conv_shape_from_tensors(
                ifmap, filters, self.stride, self.padding, name=self.name
            )
        except ValueError as error:
            # Per-job boundary, like Job: one tenant's malformed layer must
            # not abort a whole multi-tenant serve() run deep in planning.
            raise ValueError(f"job {self.job_id!r}: {error}") from None
        gemm = lower_conv_to_gemm(layer)
        object.__setattr__(self, "ifmap", ifmap)
        object.__setattr__(self, "filters", filters)
        object.__setattr__(self, "conv_shape", layer)
        object.__setattr__(self, "shape", (gemm.m, gemm.k, gemm.n))
        if self.arrival_cycle < 0:
            raise ValueError(f"job {self.job_id!r}: arrival_cycle must be >= 0")

    @property
    def a(self) -> np.ndarray:
        """The ``(F, C*R*S)`` filter rows, a view of ``filters``."""
        return self.filters.reshape(self.m, self.k)

    @property
    def b(self) -> np.ndarray:
        """The ``(C*R*S, P*Q)`` window matrix, lowered afresh on every read."""
        return lower_conv_operands(
            self.ifmap, self.filters, self.stride, self.padding
        )[1]

    def write_operands(self, a_out: np.ndarray, b_out: np.ndarray) -> None:
        """Write the filter rows and the window view straight into the slots."""
        layer = self.conv_shape
        windows = conv_windows(
            self.ifmap, (layer.kernel_h, layer.kernel_w), self.stride, self.padding
        )
        a_out[...] = self.a
        # The slots are C-contiguous, so the reshape is a view of b_out.
        b_out.reshape(windows.shape)[...] = windows

    def finalize_result(
        self, run: RunResult, accelerator: _AcceleratorBase
    ) -> RunResult:
        """Fold the GEMM result into the OFMAP and attach conv traffic.

        Produces exactly what ``accelerator.run_conv(ifmap, filters, ...)``
        returns for this layer, through the same
        :meth:`repro.api._AcceleratorBase.fold_conv`.
        """
        return accelerator.fold_conv(run, self.conv_shape)


#: The job kinds the scheduler accepts: stored and seeded GEMMs and lowered
#: convs share the :class:`_GemmOperandsMixin` interface but are otherwise
#: unrelated classes, so annotations spell the union out rather than
#: pretending everything is a :class:`Job`.
AnyJob = Job | SeededJob | ConvJob


@dataclass(frozen=True)
class JobResult:
    """Outcome of one served (or rejected) job.

    ``result`` is the exact :class:`RunResult` a direct ``run_gemm`` call
    *on the worker that hosted the job* would have produced — bit-exact
    output, identical counters — and is ``None`` for every non-completed
    status (rejected, failed, cancelled, expired, shed).  On a
    heterogeneous fleet ``worker_class`` records that worker's
    configuration label (:meth:`repro.api._AcceleratorBase.describe`).
    The cycle fields are simulated-clock instants: ``latency_cycles`` is
    arrival-to-finish (queueing included), ``queue_cycles`` the portion
    spent waiting for a worker.  ``attempts`` counts dispatches — 1 for a
    first-try completion, more when worker faults forced retries, 0 for
    jobs resolved without ever dispatching; ``preemptions`` counts how
    many times a tighter-deadline arrival cut the job out of a
    not-yet-executed batch (never folded into ``attempts`` — preemption
    is not a retry); ``slo`` is the owning tenant's SLO class;
    ``resolved_cycle`` is the simulated instant a non-completed job left
    the system.
    """

    job_id: str
    tenant: str
    name: str
    status: str
    priced_cycles: int
    arrival_cycle: int
    result: RunResult | None = None
    start_cycle: int | None = None
    finish_cycle: int | None = None
    worker_id: int | None = None
    worker_class: str | None = None
    batch_id: int | None = None
    batch_size: int = 0
    deadline_hint_cycles: int | None = None
    deprioritized: bool = field(default=False)
    attempts: int = 0
    preemptions: int = 0
    slo: str = SLO_BEST_EFFORT
    resolved_cycle: int | None = None

    @property
    def completed(self) -> bool:
        return self.status == STATUS_COMPLETED

    @property
    def queue_cycles(self) -> int | None:
        """Simulated cycles spent queued before execution began."""
        if self.start_cycle is None:
            return None
        return self.start_cycle - self.arrival_cycle

    @property
    def latency_cycles(self) -> int | None:
        """Simulated arrival-to-completion latency."""
        if self.finish_cycle is None:
            return None
        return self.finish_cycle - self.arrival_cycle

    @property
    def deadline_met(self) -> bool | None:
        """Whether the deadline hint was met (None without a hint).

        Only completed jobs can meet a deadline: expired, failed, shed or
        cancelled jobs report ``False`` when they carried a hint, so the
        metric never counts abandoned work as on-time (report-level
        statistics additionally expose the completed-jobs denominator as
        ``deadline_eligible``).
        """
        if self.deadline_hint_cycles is None:
            return None
        if not self.completed or self.latency_cycles is None:
            return False
        return self.latency_cycles <= self.deadline_hint_cycles

    def trace_event(self, *, pid: int = 0, tid: int = 0) -> TraceEvent:
        """Render this terminal outcome as its single trace record.

        The only place a job outcome is rendered into trace form, so the
        scheduler's emission sites (terminal resolution on the scheduler
        track, completion on the hosting worker's track) cannot drift from
        each other.  A completed job is a ``job.completed`` span covering
        ``[start_cycle, finish_cycle)`` whose args carry the latency split
        the trace summarizer consumes; every other status is a
        ``job.<status>`` instant at its ``resolved_cycle``.  All payloads
        are simulated-clock quantities only — never wall time.

        >>> done = JobResult(job_id="j0", tenant="t0", name="gemm",
        ...                  status=STATUS_COMPLETED, priced_cycles=90,
        ...                  arrival_cycle=0, start_cycle=10, finish_cycle=100)
        >>> event = done.trace_event(pid=1, tid=0)
        >>> event.name, event.phase, event.cycle, event.duration
        ('job.completed', 'X', 10, 90)
        >>> shed = JobResult(job_id="j1", tenant="t0", name="gemm",
        ...                  status=STATUS_SHED, priced_cycles=90,
        ...                  arrival_cycle=5, resolved_cycle=5)
        >>> shed.trace_event().name, shed.trace_event().cycle
        ('job.shed', 5)
        """
        if self.completed and self.start_cycle is not None:
            finish = self.finish_cycle if self.finish_cycle is not None else 0
            name, phase, cycle = "job.completed", "X", self.start_cycle
            duration = finish - self.start_cycle
            args = {
                "job_id": self.job_id,
                "tenant": self.tenant,
                "arrival_cycle": self.arrival_cycle,
                "latency_cycles": self.latency_cycles,
                "queue_cycles": self.queue_cycles,
                "batch_id": self.batch_id,
                "attempts": self.attempts,
                "preemptions": self.preemptions,
                "slo": self.slo,
                "deadline_met": self.deadline_met,
            }
        else:
            name, phase, duration = f"job.{self.status}", "i", 0
            cycle = (
                self.resolved_cycle
                if self.resolved_cycle is not None
                else self.arrival_cycle
            )
            args = {
                "job_id": self.job_id,
                "tenant": self.tenant,
                "attempts": self.attempts,
                "preemptions": self.preemptions,
                "slo": self.slo,
                "priced_cycles": self.priced_cycles,
            }
        return TraceEvent(
            name, phase, cycle, duration, pid, tid, "serve", tuple(sorted(args.items()))
        )

    def to_dict(self, include_output: bool = False) -> dict:
        """JSON-serializable view (``repro serve --json``)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "name": self.name,
            "status": self.status,
            "priced_cycles": int(self.priced_cycles),
            "arrival_cycle": int(self.arrival_cycle),
            "start_cycle": None if self.start_cycle is None else int(self.start_cycle),
            "finish_cycle": (
                None if self.finish_cycle is None else int(self.finish_cycle)
            ),
            "queue_cycles": (
                None if self.queue_cycles is None else int(self.queue_cycles)
            ),
            "latency_cycles": (
                None if self.latency_cycles is None else int(self.latency_cycles)
            ),
            "worker_id": self.worker_id,
            "worker_class": self.worker_class,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
            "deadline_hint_cycles": self.deadline_hint_cycles,
            "deadline_met": self.deadline_met,
            "deprioritized": self.deprioritized,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "slo": self.slo,
            "resolved_cycle": (
                None if self.resolved_cycle is None else int(self.resolved_cycle)
            ),
            "result": (
                None if self.result is None else self.result.to_dict(include_output)
            ),
        }
