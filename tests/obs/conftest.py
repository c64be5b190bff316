"""Shared fixtures for the observability test-suite.

A traced run depends only on its jobs, fleet and policies, never on the
process-wide estimate cache, so the fixtures run on whatever cache state
earlier tests left.
"""

from __future__ import annotations

import pytest

from repro.api import SystolicAccelerator
from repro.arch.array_config import ArrayConfig
from repro.obs import Tracer
from repro.serve import AsyncGemmScheduler
from repro.workloads import synthetic_trace

ARRAY = ArrayConfig(16, 16)
FLEET_SIZE = 2
TENANTS = 3
JOBS_PER_TENANT = 5
OFFERED_LOAD = 6.0
MAX_DIM = 48
MAX_BATCH = 4
SEED = 11


@pytest.fixture
def jobs():
    """A small deterministic multi-tenant trace (15 jobs, 3 tenants)."""
    return synthetic_trace(
        SystolicAccelerator(ARRAY),
        tenants=TENANTS,
        jobs_per_tenant=JOBS_PER_TENANT,
        offered_load=OFFERED_LOAD,
        max_dim=MAX_DIM,
        seed=SEED,
    )


@pytest.fixture
def traced_serve():
    """Run ``jobs`` through a traced scheduler.

    Returns ``(tracer, report, results)``; ``streaming=True`` feeds the
    trace through ``submit()``/``drain()`` by hand instead of ``serve()``.
    """

    def run(jobs, *, streaming: bool = False):
        tracer = Tracer()
        fleet = [SystolicAccelerator(ARRAY) for _ in range(FLEET_SIZE)]
        scheduler = AsyncGemmScheduler(fleet, max_batch=MAX_BATCH, tracer=tracer)
        if streaming:
            for job in jobs:
                scheduler.submit(job)
            report, results = scheduler.drain()
        else:
            report, results = scheduler.serve(jobs)
        return tracer, report, results

    return run
