"""Thread-safety pins for the scheduler's cross-thread state.

``AsyncGemmScheduler`` may see ``submit()`` on one thread and ``drain()``
on another (``drain_async`` runs the drain on an executor thread), and
``planned_job_cycles`` is consulted from wherever the planner fires.  The
lock added for the ``reprolint`` lock-discipline rule (RPL101) guards the
open stream and the planning memo; these tests pin the behaviour the lock
exists to protect — identical results regardless of which thread touches
the scheduler.
"""

from __future__ import annotations

import asyncio
import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.api import SystolicAccelerator
from repro.serve import AsyncGemmScheduler, Job
from repro.workloads import synthetic_trace


def _fleet(config, count=2):
    return [SystolicAccelerator(config) for _ in range(count)]


def _trace(config, seed):
    return synthetic_trace(
        SystolicAccelerator(config), tenants=3, jobs_per_tenant=4,
        offered_load=6.0, max_dim=48, seed=seed,
    )


def _comparable(report):
    payload = report.to_dict()
    payload.pop("wall_seconds")
    return payload


def test_planned_job_cycles_consistent_under_concurrency(rng, small_array):
    scheduler = AsyncGemmScheduler(_fleet(small_array))
    jobs = [
        Job(
            job_id=f"j{i}",
            tenant="t",
            a=rng.standard_normal((8 + i % 5, 8)),
            b=rng.standard_normal((8, 8 + i % 3)),
        )
        for i in range(40)
    ]
    sequential = [scheduler.planned_job_cycles(job, 0) for job in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(3):  # repeat so warm and cold memo paths both race
            concurrent = list(
                pool.map(lambda job: scheduler.planned_job_cycles(job, 0), jobs)
            )
            assert concurrent == sequential


def test_submit_from_worker_thread_drain_from_main(small_array):
    jobs = _trace(small_array, seed=31)
    report_a, results_a = AsyncGemmScheduler(
        _fleet(small_array), max_batch=4
    ).serve(jobs)

    scheduler = AsyncGemmScheduler(_fleet(small_array), max_batch=4)
    ordered = sorted(jobs, key=lambda job: (job.arrival_cycle, job.job_id))
    worker = threading.Thread(
        target=lambda: [scheduler.submit(job) for job in ordered]
    )
    worker.start()
    worker.join()
    report_b, results_b = scheduler.drain()

    assert _comparable(report_a) == _comparable(report_b)
    for a, b in zip(results_a, results_b):
        assert a.to_dict(include_output=True) == b.to_dict(include_output=True)


def test_drain_async_runs_off_loop_and_matches_serve(small_array):
    jobs = _trace(small_array, seed=47)
    report_a, results_a = AsyncGemmScheduler(
        _fleet(small_array), max_batch=4
    ).serve(jobs)

    async def streamed():
        scheduler = AsyncGemmScheduler(_fleet(small_array), max_batch=4)
        for job in sorted(jobs, key=lambda job: (job.arrival_cycle, job.job_id)):
            scheduler.submit(job)
        return await scheduler.drain_async()

    report_b, results_b = asyncio.run(streamed())
    assert _comparable(report_a) == _comparable(report_b)
    for a, b in zip(results_a, results_b):
        assert a.to_dict(include_output=True) == b.to_dict(include_output=True)


def test_interleaved_streams_reuse_scheduler_across_threads(rng, small_array):
    scheduler = AsyncGemmScheduler(_fleet(small_array, 1))
    outputs = []
    for round_id in range(3):
        a = rng.standard_normal((8, 8))
        job = Job(job_id=f"r{round_id}", tenant="t", a=a, b=np.eye(8))
        thread = threading.Thread(target=lambda j=job: scheduler.submit(j))
        thread.start()
        thread.join()
        report, (result,) = scheduler.drain()
        assert report.jobs_completed == 1
        outputs.append((a, result.result.output))
    for a, out in outputs:
        assert np.array_equal(out, SystolicAccelerator(small_array).run_gemm(
            a, np.eye(8)
        ).output)


def test_output_digest_read_from_many_threads_at_once(rng, small_array):
    """Pool threads hash results while other threads may read them: every
    reader of one result sees the digest of its own output."""
    accelerator = SystolicAccelerator(small_array)
    runs = [
        accelerator.run_gemm(
            rng.standard_normal((40, 8)), rng.standard_normal((8, 40))
        )
        for _ in range(30)
    ]
    expected = [hashlib.sha256(run.output).hexdigest() for run in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            readers = pool.map(
                lambda _: [run.output_sha256 for run in runs], range(8), timeout=60
            )
            seen = list(readers)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [expected] * 8
    assert [run.to_dict()["output_sha256"] for run in runs] == expected
