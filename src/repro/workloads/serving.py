"""Synthetic multi-tenant serving traces over the Table 3 workload mix.

``repro serve`` and the serving-throughput benchmarks replay traces built
here: each tenant offers a Poisson stream of jobs drawn from the Table 3
GEMM shapes (dimension-capped so functional execution stays fast) —
optionally mixed with convolution layers (``conv_fraction`` > 0 turns that
share of each tenant's jobs into :class:`repro.serve.job.ConvJob` instances
drawn from a CNN layer pool) — with arrival rates calibrated in *offered
load*: multiples of one worker's service capacity (the fleet's mean worker,
when a possibly heterogeneous fleet is passed) rather than raw QPS, so a
trace saturates a fleet the same way regardless of the array configuration
it targets.  A worker's capacity comes from
:meth:`~repro.api._AcceleratorBase.planned_gemm_cycles`, the tile-exact
cycles the scheduler plans with.

The construction is fully deterministic for a given seed: per-tenant
substreams and per-job operand seeds come from ``numpy``'s seed-sequence
spawning, so adding a tenant never perturbs another tenant's arrivals or
operands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.golden.conv import conv_output_shape
from repro.im2col.lowering import ConvShape, GemmShape, lower_conv_to_gemm
from repro.serve.job import (
    SLO_BEST_EFFORT,
    SLO_CLASSES,
    AnyJob,
    ConvJob,
    SeededJob,
    draw_operand,
)
from repro.workloads.gemm_workloads import TABLE3_WORKLOADS
from repro.workloads.resnet50 import RESNET50_CONV_LAYERS


@dataclass(frozen=True)
class TenantTrafficSpec:
    """One tenant's offered traffic in a synthetic trace.

    ``load_share`` scales the tenant's arrival rate relative to the other
    tenants (the trace's total offered load is fixed; shares apportion it).
    ``weight`` (fair share) and ``budget_cycles`` (admission allowance) are
    carried on the spec so one object describes the tenant end to end, but
    the scheduler does not read specs — hand them over explicitly::

        scheduler = AsyncGemmScheduler(
            fleet,
            weights=tenant_weights(specs),
            budgets=tenant_budgets(specs),
        )
    """

    name: str
    weight: float = 1.0
    load_share: float = 1.0
    budget_cycles: int | None = None
    slo: str = SLO_BEST_EFFORT

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be > 0")
        if self.load_share <= 0:
            raise ValueError(f"tenant {self.name!r}: load_share must be > 0")
        if self.slo not in SLO_CLASSES:
            raise ValueError(
                f"tenant {self.name!r}: slo must be one of {SLO_CLASSES}, "
                f"got {self.slo!r}"
            )


def equal_tenants(count: int, prefix: str = "tenant") -> tuple[TenantTrafficSpec, ...]:
    """``count`` tenants with identical weights and offered-load shares."""
    if count < 1:
        raise ValueError(f"tenant count must be >= 1, got {count}")
    return tuple(TenantTrafficSpec(f"{prefix}-{idx}") for idx in range(count))


def tenant_weights(tenants: Sequence[TenantTrafficSpec]) -> dict[str, float]:
    """Fair-share weights keyed by tenant, for ``AsyncGemmScheduler(weights=...)``."""
    return {spec.name: spec.weight for spec in tenants}


def tenant_budgets(tenants: Sequence[TenantTrafficSpec]) -> dict[str, int]:
    """Admission budgets keyed by tenant (budget-less tenants omitted, i.e.
    unmetered), for ``AsyncGemmScheduler(budgets=...)``."""
    return {
        spec.name: spec.budget_cycles
        for spec in tenants
        if spec.budget_cycles is not None
    }


def tenant_slo_classes(tenants: Sequence[TenantTrafficSpec]) -> dict[str, str]:
    """SLO classes keyed by tenant, for ``AsyncGemmScheduler(slo_classes=...)``.

    Best-effort tenants are omitted (it is the scheduler's default class),
    so the mapping only names the tenants shedding must protect.

    >>> specs = (TenantTrafficSpec("a", slo="latency-target"),
    ...          TenantTrafficSpec("b"))
    >>> tenant_slo_classes(specs)
    {'a': 'latency-target'}
    """
    return {
        spec.name: spec.slo for spec in tenants if spec.slo != SLO_BEST_EFFORT
    }


def scaled_workload(shape: GemmShape, max_dim: int) -> GemmShape:
    """Cap a workload's dimensions so functional serving stays cheap.

    Table 3 includes production shapes (e.g. the GPT-3 LM head's
    ``N = 50257``) that are impractical to execute functionally thousands
    of times in a trace; clamping each dimension preserves the mix's shape
    diversity — tall, wide and square problems remain distinct — while
    bounding per-job cost.
    """
    if max_dim < 1:
        raise ValueError(f"max_dim must be >= 1, got {max_dim}")
    return GemmShape(
        shape.name,
        m=min(shape.m, max_dim),
        k=min(shape.k, max_dim),
        n=min(shape.n, max_dim),
    )


def scaled_conv_workload(conv: ConvShape, max_dim: int) -> ConvShape:
    """Cap a conv layer so its lowered GEMM dimensions stay near ``max_dim``.

    The conv analogue of :func:`scaled_workload`: filters are clamped to
    ``max_dim`` (lowered ``M``), channels so that ``C*R*S <= max_dim``
    (lowered ``K``), and the IFMAP is shrunk so the layer produces at most
    ``~max_dim`` output pixels (lowered ``N``) — kernel, stride and padding
    are preserved, so the lowered shapes keep the network's geometric
    diversity while staying cheap to execute functionally thousands of
    times.
    """
    if max_dim < 1:
        raise ValueError(f"max_dim must be >= 1, got {max_dim}")
    window = conv.kernel_h * conv.kernel_w
    channels = min(conv.in_channels, max(1, max_dim // window))
    out_target = max(1, int(max_dim**0.5))
    # Smallest IFMAP whose output is out_target (capped by the original).
    def capped(in_size: int, kernel: int) -> int:
        current_out = conv_output_shape(in_size, kernel, conv.stride, conv.padding)
        target = min(current_out, out_target)
        return max(1, (target - 1) * conv.stride + kernel - 2 * conv.padding)

    return ConvShape(
        name=conv.name,
        in_channels=channels,
        ifmap_h=capped(conv.ifmap_h, conv.kernel_h),
        ifmap_w=capped(conv.ifmap_w, conv.kernel_w),
        kernel_h=conv.kernel_h,
        kernel_w=conv.kernel_w,
        num_filters=min(conv.num_filters, max_dim),
        stride=conv.stride,
        padding=conv.padding,
        depthwise=conv.depthwise,
    )


#: Default conv-layer pool for mixed traces: a geometrically diverse slice
#: of ResNet-50 (the 7x7/stride-2 stem, an early 3x3, a 1x1 expansion and a
#: deep stride-2 3x3), scaled per-trace by ``scaled_conv_workload``.
DEFAULT_CONV_WORKLOADS: tuple[ConvShape, ...] = (
    RESNET50_CONV_LAYERS[0],   # stem 7x7 s2
    RESNET50_CONV_LAYERS[2],   # conv2 block0 3x3
    RESNET50_CONV_LAYERS[3],   # conv2 block0 1x1 expand
    RESNET50_CONV_LAYERS[24],  # a deeper 3x3
)


def synthetic_trace(
    accelerator,
    tenants: Sequence[TenantTrafficSpec] | int = 4,
    *,
    jobs_per_tenant: int = 12,
    offered_load: float = 4.0,
    max_dim: int = 128,
    workloads: Sequence[GemmShape] = TABLE3_WORKLOADS,
    conv_fraction: float = 0.0,
    conv_workloads: Sequence[ConvShape] = DEFAULT_CONV_WORKLOADS,
    seed: int = 0,
    deadline_slack: float | None = None,
) -> list[AnyJob]:
    """Build a deterministic mixed-workload trace for a serving run.

    Each tenant's stream draws only the trace's structure: per job, the
    inter-arrival gap, the job kind (when ``conv_fraction`` > 0) and the
    shape.  Operands never come from it.  Every operand is drawn from the
    job's own child seed, ``SeedSequence(seed, spawn_key=(tenant, job,
    operand))``, by :func:`repro.serve.job.draw_operand`: integer-valued
    float64 in ``[-128, 127]``, so every product and sum over them is exact
    and a job's output bits depend neither on the accumulation order nor on
    the BLAS thread count.  GEMM jobs are :class:`repro.serve.job.SeededJob`
    recipes whose operands are drawn only when the job's batch runs —
    straight into the stacked buffers.  Building the trace therefore costs
    a few hundred bytes per GEMM job whatever the shapes.  Large batches
    run on a pool of ``min(fleet size, CPUs)`` threads on one-thread BLAS
    (:mod:`repro.engine.blas`), so a fleet at least as large as the CPU
    count spreads their draws and matmuls over every core.  Conv jobs
    draw their IFMAP and filters from the same per-job children here; a
    :class:`repro.serve.job.ConvJob` keeps only them and their geometry,
    and is im2col-lowered where its batch runs.

    Parameters
    ----------
    accelerator:
        Calibration target: the tile-exact cycles the pool's shapes occupy
        it for (:meth:`~repro.api._AcceleratorBase.planned_gemm_cycles`) set the
        mean service time that ``offered_load`` is expressed against.  A
        *sequence* of accelerators calibrates against a (possibly
        heterogeneous) fleet instead: the mean service time averages over
        every worker, so ``offered_load`` keeps meaning multiples of one
        average worker's capacity.  Deadline hints, by contrast, are priced
        with the same analytical estimates admission uses
        (:meth:`estimate_gemm_cycles` — the best class on a fleet,
        matching :meth:`repro.serve.scheduler.AsyncGemmScheduler.price_job`).
    tenants:
        Tenant specs, or an integer for that many identical tenants.
    jobs_per_tenant:
        Jobs each tenant submits.
    offered_load:
        Aggregate arrival rate as a multiple of one worker's service rate
        (finite, > 0): 1.0 keeps a single accelerator exactly busy on
        average, 4.0 saturates a fleet of four.  A load so small that an
        arrival gap overflows a float raises ``ValueError``.
    max_dim:
        Dimension cap applied to every workload shape
        (:func:`scaled_workload` / :func:`scaled_conv_workload`).
    workloads:
        GEMM shape pool to sample uniformly per job (default: all of
        Table 3).
    conv_fraction:
        Probability in ``[0, 1]`` that a job is a convolution layer
        (:class:`repro.serve.job.ConvJob`) instead of a plain GEMM.  0
        (default) reproduces the pure-GEMM traces bit-for-bit.
    conv_workloads:
        Conv layer pool sampled for conv jobs (default: a diverse
        ResNet-50 slice), each scaled by :func:`scaled_conv_workload`.
    seed:
        Root seed; tenant substreams are spawned from it.
    deadline_slack:
        When set (finite, > 0), each job carries ``deadline_hint_cycles =
        slack x`` its priced cycles (advisory; lets reports count deadline
        misses).  A slack whose product overflows a float raises
        ``ValueError``.
    """
    if isinstance(accelerator, (list, tuple)):
        calibration = list(accelerator)
        if not calibration:
            raise ValueError("calibration fleet must not be empty")
    else:
        calibration = [accelerator]
    if isinstance(tenants, int):
        tenants = equal_tenants(tenants)
    tenants = tuple(tenants)
    if not tenants:
        raise ValueError("trace needs at least one tenant")
    if jobs_per_tenant < 1:
        raise ValueError(f"jobs_per_tenant must be >= 1, got {jobs_per_tenant}")
    if not (math.isfinite(offered_load) and offered_load > 0):
        raise ValueError(f"offered_load must be finite and > 0, got {offered_load}")
    if deadline_slack is not None and not (
        math.isfinite(deadline_slack) and deadline_slack > 0
    ):
        raise ValueError(
            f"deadline_slack must be finite and > 0, got {deadline_slack}"
        )
    if not 0.0 <= conv_fraction <= 1.0:
        raise ValueError(f"conv_fraction must be in [0, 1], got {conv_fraction}")

    pool = tuple(scaled_workload(shape, max_dim) for shape in workloads)
    if not pool:
        raise ValueError("workload pool is empty")
    conv_pool: tuple[ConvShape, ...] = ()
    if conv_fraction > 0:
        conv_pool = tuple(
            scaled_conv_workload(shape, max_dim) for shape in conv_workloads
        )
        if not conv_pool:
            raise ValueError("conv_fraction > 0 needs a non-empty conv pool")
    # Calibrate against the tile-exact cycles jobs will actually occupy a
    # worker for (the padded Eq. 2/3 estimates used for admission pricing
    # overprice ragged shapes, which would silently deflate the real load).
    # Fleet calibration averages the per-worker costs, so a heterogeneous
    # fleet is offered the load its *mean* worker sustains.
    def fleet_mean_cycles(m: int, k: int, n: int) -> float:
        return sum(
            worker.planned_gemm_cycles(m, k, n) for worker in calibration
        ) / len(calibration)

    mean_cost = sum(
        fleet_mean_cycles(shape.m, shape.k, shape.n) for shape in pool
    ) / len(pool)
    if conv_pool:
        lowered = tuple(lower_conv_to_gemm(shape) for shape in conv_pool)
        conv_mean = sum(
            fleet_mean_cycles(g.m, g.k, g.n) for g in lowered
        ) / len(lowered)
        mean_cost = (1.0 - conv_fraction) * mean_cost + conv_fraction * conv_mean

    # offered_load jobs-in-service on average across the whole trace;
    # apportion the aggregate rate by each tenant's load share.
    total_share = sum(spec.load_share for spec in tenants)
    aggregate_rate = offered_load / mean_cost  # jobs per cycle

    # Deadline pricing is a pure function of the shape: price each one once.
    @functools.cache
    def deadline_price(m: int, k: int, n: int) -> int:
        return min(worker.estimate_gemm_cycles(m, k, n) for worker in calibration)

    jobs: list[AnyJob] = []
    streams = np.random.SeedSequence(seed).spawn(len(tenants))
    for tenant_index, (spec, stream) in enumerate(zip(tenants, streams)):
        rng = np.random.default_rng(stream)
        rate = aggregate_rate * spec.load_share / total_share
        # A rate that underflows to 0 has an infinite mean gap.
        mean_gap = 1.0 / rate if rate > 0 else math.inf
        arrival = 0.0
        for index in range(jobs_per_tenant):
            arrival += rng.exponential(mean_gap)
            if not math.isfinite(arrival):
                raise ValueError(
                    f"offered_load {offered_load} gives tenant {spec.name!r} "
                    "an arrival gap that is not finite"
                )
            is_conv = conv_pool and rng.random() < conv_fraction
            if is_conv:
                conv = conv_pool[int(rng.integers(len(conv_pool)))]
                gemm = lower_conv_to_gemm(conv)
            else:
                gemm = pool[int(rng.integers(len(pool)))]
            deadline = None
            if deadline_slack is not None:
                priced = deadline_price(gemm.m, gemm.k, gemm.n)
                hint = deadline_slack * priced
                if not math.isfinite(hint):
                    raise ValueError(
                        f"deadline_slack {deadline_slack} times {priced} "
                        "priced cycles is not finite"
                    )
                deadline = int(round(hint))
            job_id = f"{spec.name}-{index:04d}"
            operands_key = (tenant_index, index)
            if is_conv:
                ifmap = np.empty((conv.in_channels, conv.ifmap_h, conv.ifmap_w))
                filters = np.empty(
                    (conv.num_filters, conv.in_channels, conv.kernel_h, conv.kernel_w)
                )
                jobs.append(
                    ConvJob(
                        job_id=job_id,
                        tenant=spec.name,
                        ifmap=draw_operand(seed, operands_key, 0, ifmap),
                        filters=draw_operand(seed, operands_key, 1, filters),
                        stride=conv.stride,
                        padding=conv.padding,
                        name=conv.name,
                        deadline_hint_cycles=deadline,
                        arrival_cycle=int(round(arrival)),
                    )
                )
                continue
            jobs.append(
                SeededJob(
                    job_id=job_id,
                    tenant=spec.name,
                    shape=(gemm.m, gemm.k, gemm.n),
                    seed=seed,
                    spawn_key=operands_key,
                    name=gemm.name,
                    deadline_hint_cycles=deadline,
                    arrival_cycle=int(round(arrival)),
                )
            )
    jobs.sort(key=lambda job: (job.arrival_cycle, job.job_id))
    return jobs
