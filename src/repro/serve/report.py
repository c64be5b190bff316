"""Metrics surface of the batch-serving subsystem.

A :class:`ServeReport` condenses one serving run into the numbers an
operator actually watches: per-tenant p50/p95 simulated latency and
throughput, per-worker utilization over the makespan, batching efficiency
and admission outcomes.  On heterogeneous fleets the same
latency/utilization breakdown is additionally rolled up per *worker
class* (:class:`WorkerClassStats`), and the report records the fleet
description, the batching-window setting and the placement policy so a
``--json`` artifact is self-describing.  Everything is JSON-serializable
(``repro serve --json``) and printable (:func:`format_serve_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.analysis.latency import LatencySummary, summarize_latencies
from repro.analysis.reports import format_table
from repro.obs.summary import fold_slo_classes
from repro.serve.job import (
    SLO_CLASSES,
    STATUS_CANCELLED,
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_REJECTED,
    STATUS_SHED,
    JobResult,
)


@dataclass(frozen=True)
class WorkerStats:
    """One fleet member's share of the run.

    ``worker_class`` is the worker's configuration label
    (:meth:`repro.api._AcceleratorBase.describe`); on a homogeneous fleet
    every worker carries the same one.

    >>> stats = WorkerStats(worker_id=0, jobs=3, batches=2,
    ...                     busy_cycles=1200, utilization=0.75)
    >>> stats.to_dict()["utilization"]
    0.75
    """

    worker_id: int
    jobs: int
    batches: int
    busy_cycles: int
    utilization: float
    worker_class: str = ""
    #: Fault-plan interruptions this worker suffered (batches cut short).
    failures: int = 0
    #: False once the worker permanently died mid-run.
    alive: bool = True

    def to_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "jobs": self.jobs,
            "batches": self.batches,
            "busy_cycles": int(self.busy_cycles),
            "utilization": self.utilization,
            "worker_class": self.worker_class,
            "failures": self.failures,
            "alive": self.alive,
        }


@dataclass(frozen=True)
class WorkerClassStats:
    """One worker class's share of the run (heterogeneous-fleet rollup).

    Aggregates every fleet member of the class: ``utilization`` is the
    class's mean per-worker utilization over the makespan, ``latency``
    summarizes the simulated arrival-to-finish cycles of the jobs the
    class completed (None when it ran nothing).
    """

    worker_class: str
    workers: int
    jobs: int
    batches: int
    busy_cycles: int
    utilization: float
    latency: LatencySummary | None

    def to_dict(self) -> dict:
        return {
            "worker_class": self.worker_class,
            "workers": self.workers,
            "jobs": self.jobs,
            "batches": self.batches,
            "busy_cycles": int(self.busy_cycles),
            "utilization": self.utilization,
            "latency_cycles": None if self.latency is None else self.latency.to_dict(),
        }


@dataclass(frozen=True)
class SloClassStats:
    """One SLO class's deadline outcome over the run.

    Jobs are grouped by the SLO class of their tenant
    (:data:`repro.serve.job.SLO_CLASSES`); ``deadline_met`` out of
    ``deadline_eligible`` counts *completed* jobs that carried a deadline
    hint, mirroring the report-level statistic, and ``preemptions``
    totals how many times the class's jobs were displaced by preemption.

    >>> stats = SloClassStats("latency-target", submitted=4, completed=3,
    ...                       deadline_met=2, deadline_eligible=3)
    >>> round(stats.deadline_hit_rate, 3)
    0.667
    """

    slo: str
    submitted: int
    completed: int
    deadline_met: int = 0
    deadline_eligible: int = 0
    preemptions: int = 0

    @property
    def deadline_hit_rate(self) -> float:
        """Met share of the class's eligible jobs (0.0 when none)."""
        if not self.deadline_eligible:
            return 0.0
        return self.deadline_met / self.deadline_eligible

    def to_dict(self) -> dict:
        return {
            "slo": self.slo,
            "submitted": self.submitted,
            "completed": self.completed,
            "deadline_met": self.deadline_met,
            "deadline_eligible": self.deadline_eligible,
            "deadline_hit_rate": self.deadline_hit_rate,
            "preemptions": self.preemptions,
        }


@dataclass(frozen=True)
class TenantServeStats:
    """One tenant's service quality over the run.

    ``latency`` summarizes simulated arrival-to-finish cycles of the
    tenant's completed jobs (None when nothing completed);
    ``throughput_jobs_per_sec`` is completed jobs over the run's simulated
    makespan at the configured clock.  Every terminal status is counted
    separately (``rejected`` is admission rejections only — failed,
    cancelled, expired and shed jobs each have their own counter), and
    the deadline statistics carry an explicit denominator:
    ``deadline_met`` out of ``deadline_eligible`` *completed* jobs that
    carried a hint, so abandoned work never inflates the met rate.
    """

    tenant: str
    submitted: int
    completed: int
    rejected: int
    deprioritized: int
    priced_cycles: int
    budget_cycles: int | None
    latency: LatencySummary | None
    mean_queue_cycles: float | None
    throughput_jobs_per_sec: float
    deadline_misses: int
    failed: int = 0
    cancelled: int = 0
    expired: int = 0
    shed: int = 0
    retries: int = 0
    deadline_met: int = 0
    deadline_eligible: int = 0
    preemptions: int = 0

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "deprioritized": self.deprioritized,
            "priced_cycles": int(self.priced_cycles),
            "budget_cycles": self.budget_cycles,
            "latency_cycles": None if self.latency is None else self.latency.to_dict(),
            "mean_queue_cycles": self.mean_queue_cycles,
            "throughput_jobs_per_sec": self.throughput_jobs_per_sec,
            "deadline_misses": self.deadline_misses,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "expired": self.expired,
            "shed": self.shed,
            "retries": self.retries,
            "deadline_met": self.deadline_met,
            "deadline_eligible": self.deadline_eligible,
            "preemptions": self.preemptions,
        }


@dataclass(frozen=True)
class ServeReport:
    """Aggregate outcome of one serving run.

    ``fleet`` lists each worker's class label in fleet order,
    ``batch_window_cycles`` / ``placement`` echo the scheduler's batching
    window and placement policy, and ``worker_class_stats`` breaks
    utilization and latency down per worker class — together they make a
    serialized report self-describing.  The robustness block counts every
    terminal status separately (``jobs_rejected`` is admission rejections
    only), ``retries`` totals the extra dispatches worker faults forced,
    ``deadline_met`` / ``deadline_eligible`` make the deadline statistic's
    denominator explicit (completed jobs that carried a hint), and
    ``enforce_deadlines`` / ``max_retries`` / ``ordering`` /
    ``max_preemptions`` / ``faults`` echo the fault and SLO configuration
    the run executed under.  ``preemptions`` totals job displacements by
    preemption and ``slo_class_stats`` breaks the deadline outcome down
    per SLO class (the fold ``repro trace summarize`` shares).
    """

    jobs_submitted: int
    jobs_completed: int
    jobs_rejected: int
    batches: int
    batched_jobs: int
    max_batch: int
    fleet_size: int
    makespan_cycles: int
    clock_hz: float
    wall_seconds: float
    tenants: tuple[TenantServeStats, ...]
    workers: tuple[WorkerStats, ...]
    fleet: tuple[str, ...] = ()
    batch_window_cycles: int | None = None
    placement: str = "priced"
    worker_class_stats: tuple[WorkerClassStats, ...] = ()
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    jobs_expired: int = 0
    jobs_shed: int = 0
    retries: int = 0
    deadline_met: int = 0
    deadline_eligible: int = 0
    enforce_deadlines: bool = False
    max_retries: int = 0
    ordering: str = "fair"
    max_preemptions: int = 0
    #: Total job displacements by preemption (a job displaced twice counts twice).
    preemptions: int = 0
    slo_class_stats: tuple[SloClassStats, ...] = ()
    faults: str | None = None
    #: ``(batch_size, count)`` pairs, ascending by size.
    batch_occupancy: tuple[tuple[int, int], ...] = ()

    @property
    def simulated_seconds(self) -> float:
        """Makespan converted to seconds at the configured clock."""
        return self.makespan_cycles / self.clock_hz

    @property
    def jobs_per_second(self) -> float:
        """Simulated sustained throughput: completed jobs over the makespan."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.jobs_completed / self.simulated_seconds

    @property
    def mean_worker_utilization(self) -> float:
        if not self.workers:
            return 0.0
        return sum(w.utilization for w in self.workers) / len(self.workers)

    @property
    def deadline_met_rate(self) -> float | None:
        """Share of deadline-eligible completed jobs that met their hint.

        None when no completed job carried a hint — the statistic is
        undefined rather than vacuously perfect.
        """
        if not self.deadline_eligible:
            return None
        return self.deadline_met / self.deadline_eligible

    @property
    def deadline_hit_rate(self) -> float:
        """Always-defined deadline-met share (0.0 when nothing was eligible).

        The gauge form of :attr:`deadline_met_rate` — regression gates
        need a number for every run, so the undefined case collapses to
        0.0 instead of None.
        """
        if not self.deadline_eligible:
            return 0.0
        return self.deadline_met / self.deadline_eligible

    def to_dict(self) -> dict:
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_rejected": self.jobs_rejected,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "jobs_expired": self.jobs_expired,
            "jobs_shed": self.jobs_shed,
            "retries": self.retries,
            "deadline_met": self.deadline_met,
            "deadline_eligible": self.deadline_eligible,
            "deadline_met_rate": self.deadline_met_rate,
            "deadline_hit_rate": self.deadline_hit_rate,
            "enforce_deadlines": self.enforce_deadlines,
            "max_retries": self.max_retries,
            "ordering": self.ordering,
            "max_preemptions": self.max_preemptions,
            "preemptions": self.preemptions,
            "faults": self.faults,
            "batches": self.batches,
            "batched_jobs": self.batched_jobs,
            "max_batch": self.max_batch,
            "fleet_size": self.fleet_size,
            "fleet": list(self.fleet),
            "batch_window_cycles": self.batch_window_cycles,
            "placement": self.placement,
            "makespan_cycles": int(self.makespan_cycles),
            "clock_hz": self.clock_hz,
            "simulated_seconds": self.simulated_seconds,
            "jobs_per_second": self.jobs_per_second,
            "wall_seconds": self.wall_seconds,
            "mean_worker_utilization": self.mean_worker_utilization,
            "batch_occupancy": {
                str(size): count for size, count in self.batch_occupancy
            },
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "workers": [worker.to_dict() for worker in self.workers],
            "worker_classes": [
                stats.to_dict() for stats in self.worker_class_stats
            ],
            "slo_classes": [stats.to_dict() for stats in self.slo_class_stats],
        }


def _compile_class_stats(
    results: Sequence[JobResult],
    workers: Sequence[WorkerStats],
    makespan: int,
) -> tuple[WorkerClassStats, ...]:
    """Roll per-worker counters and per-job latencies up to worker classes."""
    class_order: list[str] = []
    members: dict[str, list[WorkerStats]] = {}
    for worker in workers:
        if worker.worker_class not in members:
            class_order.append(worker.worker_class)
            members[worker.worker_class] = []
        members[worker.worker_class].append(worker)
    by_worker_id = {worker.worker_id: worker.worker_class for worker in workers}

    latencies: dict[str, list[int]] = {label: [] for label in class_order}
    for result in results:
        if result.completed and result.worker_id in by_worker_id:
            latencies[by_worker_id[result.worker_id]].append(result.latency_cycles)

    stats = []
    for label in class_order:
        group = members[label]
        busy = sum(worker.busy_cycles for worker in group)
        population = latencies[label]
        stats.append(
            WorkerClassStats(
                worker_class=label,
                workers=len(group),
                jobs=sum(worker.jobs for worker in group),
                batches=sum(worker.batches for worker in group),
                busy_cycles=busy,
                utilization=(
                    busy / (len(group) * makespan) if makespan else 0.0
                ),
                latency=summarize_latencies(population) if population else None,
            )
        )
    return tuple(stats)


def _compile_slo_stats(results: Sequence[JobResult]) -> tuple[SloClassStats, ...]:
    """Group the deadline outcome by the jobs' SLO class (stable order)."""
    views = fold_slo_classes(
        (r.slo, r.completed, r.deadline_met, r.preemptions) for r in results
    )
    order = [slo for slo in SLO_CLASSES if slo in views]
    order += sorted(slo for slo in views if slo not in SLO_CLASSES)
    return tuple(SloClassStats(slo=slo, **views[slo]) for slo in order)


def compile_serve_report(
    job_results: Iterable[JobResult],
    *,
    workers: Iterable[WorkerStats],
    budgets: Mapping[str, int | None],
    max_batch: int,
    clock_hz: float,
    wall_seconds: float,
    makespan_cycles: int,
    fleet: Sequence[str] = (),
    batch_window_cycles: int | None = None,
    placement: str = "priced",
    enforce_deadlines: bool = False,
    max_retries: int = 0,
    ordering: str = "fair",
    max_preemptions: int = 0,
    faults: str | None = None,
) -> ServeReport:
    """Fold per-job results and worker counters into a :class:`ServeReport`.

    ``makespan_cycles`` is the run's last busy cycle on any worker — the
    end of its last batch, fault- or preemption-cut ones included — so
    the report's throughput and every utilization share one denominator.
    """
    results = sorted(job_results, key=lambda r: r.job_id)

    def count(entries: Sequence[JobResult], status: str) -> int:
        return sum(1 for r in entries if r.status == status)

    workers = tuple(sorted(workers, key=lambda w: w.worker_id))
    simulated_seconds = makespan_cycles / clock_hz if makespan_cycles else 0.0

    by_tenant: dict[str, list[JobResult]] = {}
    for result in results:
        by_tenant.setdefault(result.tenant, []).append(result)

    tenants = []
    for tenant in sorted(by_tenant):
        entries = by_tenant[tenant]
        done = [r for r in entries if r.completed]
        latencies = [r.latency_cycles for r in done]
        queues = [r.queue_cycles for r in done]
        eligible = [r for r in done if r.deadline_hint_cycles is not None]
        tenants.append(
            TenantServeStats(
                tenant=tenant,
                submitted=len(entries),
                completed=len(done),
                rejected=count(entries, STATUS_REJECTED),
                deprioritized=sum(1 for r in entries if r.deprioritized),
                priced_cycles=sum(r.priced_cycles for r in done),
                budget_cycles=budgets.get(tenant),
                latency=summarize_latencies(latencies) if latencies else None,
                mean_queue_cycles=(
                    sum(queues) / len(queues) if queues else None
                ),
                throughput_jobs_per_sec=(
                    len(done) / simulated_seconds if simulated_seconds else 0.0
                ),
                deadline_misses=sum(1 for r in done if r.deadline_met is False),
                failed=count(entries, STATUS_FAILED),
                cancelled=count(entries, STATUS_CANCELLED),
                expired=count(entries, STATUS_EXPIRED),
                shed=count(entries, STATUS_SHED),
                retries=sum(max(0, r.attempts - 1) for r in entries),
                deadline_met=sum(1 for r in eligible if r.deadline_met),
                deadline_eligible=len(eligible),
                preemptions=sum(r.preemptions for r in entries),
            )
        )

    batch_sizes: dict[tuple[int, int], int] = {}
    for result in results:
        if result.completed and result.batch_id is not None:
            key = (result.worker_id, result.batch_id)
            batch_sizes[key] = batch_sizes.get(key, 0) + 1
    occupancy: dict[int, int] = {}
    for size in batch_sizes.values():
        occupancy[size] = occupancy.get(size, 0) + 1

    eligible_results = [
        r for r in results if r.completed and r.deadline_hint_cycles is not None
    ]
    return ServeReport(
        jobs_submitted=len(results),
        jobs_completed=sum(1 for r in results if r.completed),
        jobs_rejected=count(results, STATUS_REJECTED),
        jobs_failed=count(results, STATUS_FAILED),
        jobs_cancelled=count(results, STATUS_CANCELLED),
        jobs_expired=count(results, STATUS_EXPIRED),
        jobs_shed=count(results, STATUS_SHED),
        retries=sum(max(0, r.attempts - 1) for r in results),
        deadline_met=sum(1 for r in eligible_results if r.deadline_met),
        deadline_eligible=len(eligible_results),
        enforce_deadlines=enforce_deadlines,
        max_retries=max_retries,
        ordering=ordering,
        max_preemptions=max_preemptions,
        preemptions=sum(r.preemptions for r in results),
        slo_class_stats=_compile_slo_stats(results),
        faults=faults,
        batch_occupancy=tuple(sorted(occupancy.items())),
        batches=len(batch_sizes),
        batched_jobs=sum(size for size in batch_sizes.values() if size > 1),
        max_batch=max_batch,
        fleet_size=len(workers),
        makespan_cycles=makespan_cycles,
        clock_hz=clock_hz,
        wall_seconds=wall_seconds,
        tenants=tuple(tenants),
        workers=workers,
        fleet=tuple(fleet),
        batch_window_cycles=batch_window_cycles,
        placement=placement,
        worker_class_stats=_compile_class_stats(results, workers, makespan_cycles),
    )


def format_serve_report(report: ServeReport) -> str:
    """Operator-readable tables: run summary, per-tenant SLOs, per-worker.

    Heterogeneous fleets (more than one worker class) get an additional
    per-class rollup table between the tenant and worker tables.
    """
    resolved = [
        ("jobs failed", report.jobs_failed),
        ("jobs cancelled", report.jobs_cancelled),
        ("jobs expired", report.jobs_expired),
        ("jobs shed", report.jobs_shed),
        ("fault retries", report.retries),
        ("preemptions", report.preemptions),
    ]
    summary = format_table(
        ("metric", "value"),
        [
            ("jobs submitted", report.jobs_submitted),
            ("jobs completed", report.jobs_completed),
            ("jobs rejected", report.jobs_rejected),
        ]
        # Unhappy-path rows appear only when the run had any, so the
        # fault-free report stays as compact as before.
        + [(label, value) for label, value in resolved if value]
        + (
            [
                (
                    "deadlines met",
                    f"{report.deadline_met}/{report.deadline_eligible}"
                    + (" (enforced)" if report.enforce_deadlines else ""),
                )
            ]
            if report.deadline_eligible or report.enforce_deadlines
            else []
        )
        + ([("fault plan", report.faults)] if report.faults else [])
        # The deadline-policy row appears only when the run deviates from
        # the fair/no-preemption default, like the unhappy-path rows.
        + (
            [
                (
                    "ordering",
                    report.ordering
                    + (
                        f" (max {report.max_preemptions} preemptions/job)"
                        if report.max_preemptions
                        else ""
                    ),
                )
            ]
            if report.ordering != "fair" or report.max_preemptions
            else []
        )
        + [
            ("batches", report.batches),
            ("jobs sharing a batch", report.batched_jobs),
            ("fleet size", report.fleet_size),
            ("worker classes", max(len(report.worker_class_stats), 1)),
            (
                "batching window (cycles)",
                "-" if not report.batch_window_cycles else report.batch_window_cycles,
            ),
            ("placement", report.placement),
            ("makespan (cycles)", report.makespan_cycles),
            ("simulated throughput (jobs/s)", round(report.jobs_per_second, 2)),
            ("mean worker utilization", round(report.mean_worker_utilization, 4)),
            ("wall time (s)", round(report.wall_seconds, 3)),
        ],
    )
    tenant_rows = [
        (
            t.tenant,
            t.completed,
            t.rejected,
            # Jobs the robustness layer resolved without completing them.
            t.failed + t.cancelled + t.expired + t.shed,
            t.deprioritized,
            "-" if t.latency is None else int(t.latency.p50),
            "-" if t.latency is None else int(t.latency.p95),
            "-" if t.mean_queue_cycles is None else int(t.mean_queue_cycles),
            round(t.throughput_jobs_per_sec, 2),
        )
        for t in report.tenants
    ]
    tenants = format_table(
        (
            "tenant",
            "done",
            "rejected",
            "lost",
            "deprio",
            "p50 latency",
            "p95 latency",
            "mean queue",
            "jobs/s",
        ),
        tenant_rows,
    )
    sections = [summary, tenants]
    # Per-SLO-class deadline rollup: shown once any class beyond plain
    # best-effort is in play, so the default report stays as compact as
    # before.
    if any(stats.slo != "best-effort" for stats in report.slo_class_stats):
        slo_rows = [
            (
                stats.slo,
                stats.submitted,
                stats.completed,
                f"{stats.deadline_met}/{stats.deadline_eligible}",
                round(stats.deadline_hit_rate, 4),
                stats.preemptions,
            )
            for stats in report.slo_class_stats
        ]
        sections.append(
            format_table(
                (
                    "slo class",
                    "submitted",
                    "done",
                    "deadlines met",
                    "hit rate",
                    "preempted",
                ),
                slo_rows,
            )
        )
    if len(report.worker_class_stats) > 1:
        class_rows = [
            (
                c.worker_class,
                c.workers,
                c.jobs,
                c.batches,
                "-" if c.latency is None else int(c.latency.p50),
                "-" if c.latency is None else int(c.latency.p95),
                round(c.utilization, 4),
            )
            for c in report.worker_class_stats
        ]
        sections.append(
            format_table(
                (
                    "worker class",
                    "workers",
                    "jobs",
                    "batches",
                    "p50 latency",
                    "p95 latency",
                    "utilization",
                ),
                class_rows,
            )
        )
    worker_rows = [
        (
            w.worker_id,
            w.worker_class or "-",
            w.jobs,
            w.batches,
            w.busy_cycles,
            round(w.utilization, 4),
            w.failures,
            "yes" if w.alive else "DEAD",
        )
        for w in report.workers
    ]
    sections.append(
        format_table(
            (
                "worker",
                "class",
                "jobs",
                "batches",
                "busy cycles",
                "utilization",
                "failures",
                "alive",
            ),
            worker_rows,
        )
    )
    return "\n\n".join(sections)
