"""Serving throughput — batched async scheduler vs naive serial dispatch.

Replays a mixed Table 3 trace (4 tenants, equal offered load, Poisson
arrivals at 8x one worker's capacity, dimensions capped at 128) through two
dispatch strategies:

* **naive serial** — one worker, no batching: every job runs alone in
  queue order (the pre-serving status quo: a loop over ``run_gemm``);
* **batched async** — the :class:`repro.serve.AsyncGemmScheduler` packing
  same-shape jobs into stacked batches across a 4-worker fleet with
  weighted-fair queues and estimate-priced admission.

The acceptance floor this PR is built to clear: the batched async
scheduler must sustain **>= 3x** the simulated jobs/sec of serial dispatch,
with every JobResult bit-exact against a direct ``run_gemm`` call and no
tenant starved (max/min completed-job ratio <= 2 under equal offered
load).  The run also writes a JSON artifact (``SERVE_BENCH_JSON``, default
``.bench_artifacts/serve_throughput.json``) that CI uploads.

Run explicitly (tier 2)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_throughput.py -s
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import emit, engine_lookups, write_artifact
from repro.analysis.reports import format_table
from repro.api import SystolicAccelerator
from repro.arch.array_config import ArrayConfig
from repro.obs import Tracer
from repro.serve import AsyncGemmScheduler, serial_baseline
from repro.workloads import synthetic_trace

ARRAY = ArrayConfig(32, 32)
FLEET_SIZE = 4
TENANTS = 4
JOBS_PER_TENANT = 15
OFFERED_LOAD = 8.0
MAX_DIM = 128
MAX_BATCH = 8
SEED = 0
THROUGHPUT_FLOOR = 3.0
FAIRNESS_CEILING = 2.0


def _trace():
    return synthetic_trace(
        SystolicAccelerator(ARRAY),
        tenants=TENANTS,
        jobs_per_tenant=JOBS_PER_TENANT,
        offered_load=OFFERED_LOAD,
        max_dim=MAX_DIM,
        seed=SEED,
    )


def test_serve_throughput(benchmark):
    jobs = _trace()

    serial_start = time.perf_counter()
    serial_report, serial_results = serial_baseline(SystolicAccelerator(ARRAY), jobs)
    serial_wall = time.perf_counter() - serial_start

    fleet = [SystolicAccelerator(ARRAY) for _ in range(FLEET_SIZE)]
    scheduler = AsyncGemmScheduler(fleet, max_batch=MAX_BATCH)
    lookups = engine_lookups()
    batched_start = time.perf_counter()
    batched_report, batched_results = scheduler.serve(jobs)
    batched_wall = time.perf_counter() - batched_start
    lookups = engine_lookups() - lookups

    ratio = batched_report.jobs_per_second / serial_report.jobs_per_second

    # Every output bit-exact vs a direct run_gemm call on the same config.
    reference = SystolicAccelerator(ARRAY)
    by_id = {job.job_id: job for job in jobs}
    for result in batched_results + serial_results:
        job = by_id[result.job_id]
        direct = reference.run_gemm(job.a, job.b, name=job.name)
        assert np.array_equal(result.result.output, direct.output), result.job_id
        assert result.result.cycles == direct.cycles
        assert result.result.utilization == direct.utilization

    # Fairness under equal offered load: no tenant starved.
    completed = {t.tenant: t.completed for t in batched_report.tenants}
    fairness = max(completed.values()) / min(completed.values())

    # Steady-state timing of the batched hot path under the harness.
    benchmark(lambda: AsyncGemmScheduler(fleet, max_batch=MAX_BATCH).serve(jobs))

    rows = [
        (
            "serial (1 worker, batch=1)",
            serial_report.makespan_cycles,
            round(serial_report.jobs_per_second),
            1.0,
            serial_report.batched_jobs,
            round(serial_report.mean_worker_utilization, 3),
            round(serial_wall, 3),
        ),
        (
            f"batched async ({FLEET_SIZE} workers, batch<={MAX_BATCH})",
            batched_report.makespan_cycles,
            round(batched_report.jobs_per_second),
            round(ratio, 2),
            batched_report.batched_jobs,
            round(batched_report.mean_worker_utilization, 3),
            round(batched_wall, 3),
        ),
    ]
    emit(
        f"Serving throughput — {len(jobs)} Table 3 jobs, {TENANTS} tenants, "
        f"offered load {OFFERED_LOAD}x, {ARRAY.rows}x{ARRAY.cols} arrays",
        format_table(
            (
                "dispatch",
                "makespan (cycles)",
                "jobs/s (simulated)",
                "speedup",
                "batched jobs",
                "utilization",
                "wall (s)",
            ),
            rows,
        ),
    )

    write_artifact(
        "serve_throughput",
        "SERVE_BENCH_JSON",
        "serve_throughput.json",
        {
            "array": [ARRAY.rows, ARRAY.cols],
            "fleet_size": FLEET_SIZE,
            "tenants": TENANTS,
            "jobs_per_tenant": JOBS_PER_TENANT,
            "offered_load": OFFERED_LOAD,
            "max_dim": MAX_DIM,
            "max_batch": MAX_BATCH,
            "seed": SEED,
        },
        {
            "serial": serial_report.to_dict(),
            "batched": batched_report.to_dict(),
            "throughput_ratio": ratio,
            "fairness_max_min_ratio": fairness,
            "bit_exact_jobs": len(batched_results) + len(serial_results),
        },
    )

    assert ratio >= THROUGHPUT_FLOOR, (
        f"batched async scheduler only {ratio:.2f}x the serial jobs/sec "
        f"(floor: {THROUGHPUT_FLOOR}x)"
    )
    assert fairness <= FAIRNESS_CEILING, (
        f"tenant completed-job ratio {fairness:.2f} exceeds the "
        f"{FAIRNESS_CEILING} fairness ceiling: {completed}"
    )
    assert batched_report.jobs_completed == len(jobs)
    # Admission and placement price each (shape, worker class) pair once.
    shapes = len({job.shape for job in jobs})
    assert lookups <= shapes * len(scheduler.worker_classes)


#: Tracing must stay cheap enough to leave on in CI: full instrumentation
#: within 5% of the untraced wall time, plus a grace for timer noise.
TRACING_OVERHEAD_CEILING = 0.05
TRACING_OVERHEAD_GRACE_SECONDS = 0.05
TRACING_TIMING_RUNS = 3


def test_tracing_overhead_smoke():
    """Full tracing adds bounded overhead to the batched serving hot path.

    min-of-N wall timing, traced vs untraced, on the same trace and fleet
    as the throughput benchmark.  The tracer-disabled path is the default
    (``tracer=None`` turns every hook into an attribute check), so this
    guards the *enabled* cost — the observability layer's low-overhead
    claim — rather than a micro-benchmark of the no-op path.
    """
    jobs = _trace()
    fleet = [SystolicAccelerator(ARRAY) for _ in range(FLEET_SIZE)]

    def timed(tracer: Tracer | None) -> float:
        start = time.perf_counter()
        AsyncGemmScheduler(fleet, max_batch=MAX_BATCH, tracer=tracer).serve(jobs)
        return time.perf_counter() - start

    timed(None)  # warm the estimate cache and code paths out of the timing
    untraced = min(timed(None) for _ in range(TRACING_TIMING_RUNS))
    traced = min(timed(Tracer()) for _ in range(TRACING_TIMING_RUNS))
    budget = (
        untraced * (1.0 + TRACING_OVERHEAD_CEILING)
        + TRACING_OVERHEAD_GRACE_SECONDS
    )
    emit(
        "Tracing overhead (min-of-%d wall seconds)" % TRACING_TIMING_RUNS,
        format_table(
            ("mode", "wall (s)"),
            [
                ("tracer disabled", round(untraced, 4)),
                ("tracer enabled", round(traced, 4)),
                ("budget", round(budget, 4)),
            ],
        ),
    )
    assert traced <= budget, (
        f"traced serve took {traced:.4f}s vs untraced {untraced:.4f}s "
        f"(budget {budget:.4f}s = +{TRACING_OVERHEAD_CEILING:.0%} "
        f"+ {TRACING_OVERHEAD_GRACE_SECONDS}s grace)"
    )
