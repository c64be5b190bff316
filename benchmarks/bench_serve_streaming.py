"""Online serving — serve() vs hand-driven submit()/drain(), heterogeneous fleets.

Replays a Table 3 trace (4 tenants, Poisson arrivals at 8x one worker's
capacity, dimensions capped at 128) through four dispatch strategies:

* **naive serial** — one worker, no batching, strict arrival order (the
  reference the serving layer has been benchmarked against since it was
  introduced);
* **one-shot** — the whole trace handed to ``serve()`` (sorted submit +
  drain) on a heterogeneous 4-worker fleet (two 32x32 arrays + two 2x2
  grids of 16x16 arrays) with priced placement;
* **streaming** — the same trace fed job-by-job through ``submit()`` by
  hand and closed with ``drain()``: it must sustain throughput no worse
  than ``serve()`` (the schedules are bit-identical by construction, and
  this pins it);
* **random placement** — the same heterogeneous fleet with batches
  assigned to uniformly random workers: the baseline the priced
  (Eq. 2/3 estimate) placement must beat.

Floors this PR is built to clear: streaming >= 3x serial simulated
jobs/sec on the heterogeneous fleet, streaming >= one-shot, priced
placement > random placement, every completed JobResult bit-exact against
a direct ``run_gemm`` on the worker class that hosted it.  The run also
writes a JSON artifact (``STREAM_BENCH_JSON``, default
``.bench_artifacts/serve_streaming.json``) that CI uploads.

Run explicitly (tier 2)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_streaming.py -s
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import emit, engine_lookups, write_artifact
from repro.analysis.reports import format_table
from repro.api import SystolicAccelerator
from repro.arch.array_config import ArrayConfig
from repro.serve import AsyncGemmScheduler, build_fleet, parse_fleet_spec, serial_baseline
from repro.workloads import synthetic_trace

#: Heterogeneous 4-worker fleet: two classes with distinct per-shape costs.
FLEET_SPEC = "2*systolic:32x32,2*systolic:16x16@2x2"
SERIAL_ARRAY = ArrayConfig(32, 32)
TENANTS = 4
JOBS_PER_TENANT = 15
OFFERED_LOAD = 8.0
MAX_DIM = 128
MAX_BATCH = 8
SEED = 0
SERIAL_FLOOR = 3.0
STREAMING_VS_ONESHOT_FLOOR = 1.0


def _fleet():
    return build_fleet(parse_fleet_spec(FLEET_SPEC))


def _trace():
    return synthetic_trace(
        _fleet(),
        tenants=TENANTS,
        jobs_per_tenant=JOBS_PER_TENANT,
        offered_load=OFFERED_LOAD,
        max_dim=MAX_DIM,
        seed=SEED,
    )


def test_serve_streaming(benchmark):
    jobs = _trace()

    serial_start = time.perf_counter()
    serial_report, _ = serial_baseline(SystolicAccelerator(SERIAL_ARRAY), jobs)
    serial_wall = time.perf_counter() - serial_start

    one_shot = AsyncGemmScheduler(_fleet(), max_batch=MAX_BATCH)
    oneshot_start = time.perf_counter()
    oneshot_report, oneshot_results = one_shot.serve(jobs)
    oneshot_wall = time.perf_counter() - oneshot_start

    streaming = AsyncGemmScheduler(_fleet(), max_batch=MAX_BATCH)
    lookups = engine_lookups()
    streaming_start = time.perf_counter()
    for job in jobs:  # synthetic_trace yields arrival order
        streaming.submit(job)
    streaming_report, streaming_results = streaming.drain()
    streaming_wall = time.perf_counter() - streaming_start
    lookups = engine_lookups() - lookups

    random_scheduler = AsyncGemmScheduler(
        _fleet(), max_batch=MAX_BATCH, placement="random"
    )
    random_report, _ = random_scheduler.serve(jobs)

    serial_rate = serial_report.jobs_per_second
    streaming_vs_serial = streaming_report.jobs_per_second / serial_rate
    streaming_vs_oneshot = (
        streaming_report.jobs_per_second / oneshot_report.jobs_per_second
    )
    priced_vs_random = (
        streaming_report.jobs_per_second / random_report.jobs_per_second
    )

    # Streaming and one-shot schedules are bit-identical, and every result
    # is bit-exact against a direct run on the class that hosted it.
    fleet_reference = {worker.describe(): worker for worker in _fleet()}
    by_id = {job.job_id: job for job in jobs}
    for one, stream in zip(oneshot_results, streaming_results):
        assert one.to_dict(include_output=True) == stream.to_dict(
            include_output=True
        ), one.job_id
    for result in streaming_results:
        job = by_id[result.job_id]
        direct = fleet_reference[result.worker_class].run_gemm(
            job.a, job.b, name=job.name
        )
        assert np.array_equal(result.result.output, direct.output), result.job_id
        assert result.result.cycles == direct.cycles

    # Steady-state timing of the streaming hot path under the harness.
    def replay():
        scheduler = AsyncGemmScheduler(_fleet(), max_batch=MAX_BATCH)
        for job in jobs:
            scheduler.submit(job)
        return scheduler.drain()

    benchmark(replay)

    rows = [
        (
            "naive serial (1x32x32, batch=1)",
            serial_report.makespan_cycles,
            round(serial_report.jobs_per_second),
            1.0,
            serial_report.batched_jobs,
            round(serial_wall, 3),
        ),
        (
            "one-shot serve(), priced placement",
            oneshot_report.makespan_cycles,
            round(oneshot_report.jobs_per_second),
            round(oneshot_report.jobs_per_second / serial_rate, 2),
            oneshot_report.batched_jobs,
            round(oneshot_wall, 3),
        ),
        (
            "streaming submit()/drain(), priced",
            streaming_report.makespan_cycles,
            round(streaming_report.jobs_per_second),
            round(streaming_vs_serial, 2),
            streaming_report.batched_jobs,
            round(streaming_wall, 3),
        ),
        (
            "streaming fleet, random placement",
            random_report.makespan_cycles,
            round(random_report.jobs_per_second),
            round(random_report.jobs_per_second / serial_rate, 2),
            random_report.batched_jobs,
            None,
        ),
    ]
    emit(
        f"Streaming serving — {len(jobs)} Table 3 jobs, {TENANTS} tenants, "
        f"offered load {OFFERED_LOAD}x, heterogeneous fleet {FLEET_SPEC}",
        format_table(
            (
                "dispatch",
                "makespan (cycles)",
                "jobs/s (simulated)",
                "vs serial",
                "batched jobs",
                "wall (s)",
            ),
            rows,
        ),
    )
    emit(
        "Per-class utilization (streaming, priced placement)",
        format_table(
            ("worker class", "workers", "jobs", "utilization"),
            [
                (c.worker_class, c.workers, c.jobs, round(c.utilization, 3))
                for c in streaming_report.worker_class_stats
            ],
        ),
    )

    write_artifact(
        "serve_streaming",
        "STREAM_BENCH_JSON",
        "serve_streaming.json",
        {
            "fleet": FLEET_SPEC,
            "serial_array": [SERIAL_ARRAY.rows, SERIAL_ARRAY.cols],
            "tenants": TENANTS,
            "jobs_per_tenant": JOBS_PER_TENANT,
            "offered_load": OFFERED_LOAD,
            "max_dim": MAX_DIM,
            "max_batch": MAX_BATCH,
            "seed": SEED,
        },
        {
            "serial": serial_report.to_dict(),
            "one_shot": oneshot_report.to_dict(),
            "streaming": streaming_report.to_dict(),
            "random_placement": random_report.to_dict(),
            "streaming_vs_serial": streaming_vs_serial,
            "streaming_vs_oneshot": streaming_vs_oneshot,
            "priced_vs_random": priced_vs_random,
            "bit_exact_jobs": len(streaming_results),
        },
    )

    assert streaming_vs_serial >= SERIAL_FLOOR, (
        f"streaming heterogeneous fleet only {streaming_vs_serial:.2f}x the "
        f"serial jobs/sec (floor: {SERIAL_FLOOR}x)"
    )
    assert streaming_vs_oneshot >= STREAMING_VS_ONESHOT_FLOOR, (
        f"streaming throughput {streaming_vs_oneshot:.3f}x one-shot "
        f"(floor: {STREAMING_VS_ONESHOT_FLOOR}x)"
    )
    assert priced_vs_random > 1.0, (
        f"priced placement only {priced_vs_random:.2f}x random assignment "
        "on the heterogeneous fleet"
    )
    assert streaming_report.jobs_completed == len(jobs)
    # Admission and placement price each (shape, worker class) pair once.
    shapes = len({job.shape for job in jobs})
    assert lookups <= shapes * len(streaming.worker_classes)
