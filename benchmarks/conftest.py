"""Shared helpers for the benchmark harness.

Every benchmark regenerates the rows/series of one table or figure of the
paper and prints them (run pytest with ``-s`` to see the tables); the
``benchmark`` fixture times the regeneration itself so the harness doubles as
a performance regression check for the models.

Benchmarks that persist results write them through :func:`write_artifact`,
which wraps the payload in the shared schema-v1 envelope
(:func:`repro.obs.bench.bench_artifact`: ``schema_version`` / ``bench`` /
``config`` / ``metrics``) so ``repro bench compare`` can diff any two
artifacts — including against the committed baselines under
``benchmarks/baselines/`` that the CI observability job gates on.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.engine import estimate_cache_info
from repro.obs import bench_artifact


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for benchmark inputs."""
    return np.random.default_rng(7)


def engine_lookups() -> int:
    """Estimate-cache lookups (hits + misses) the process has made so far."""
    info = estimate_cache_info()
    return info.hits + info.misses


def emit(title: str, body: str) -> None:
    """Print a paper-style table with a header line."""
    print(f"\n=== {title} ===")
    print(body)


#: Git-ignored directory local bench runs write their artifacts into.
ARTIFACT_DIR = ".bench_artifacts"


def artifact_path(env_var: str, filename: str) -> str:
    """Where a bench artifact goes: ``$env_var`` if set (the CI hook),
    else ``filename`` inside :data:`ARTIFACT_DIR`."""
    return os.environ.get(env_var) or os.path.join(ARTIFACT_DIR, filename)


def write_artifact(
    bench: str,
    env_var: str,
    filename: str,
    config: dict,
    payload: dict,
) -> str:
    """Write one schema-v1 benchmark artifact and return its path.

    The destination is :func:`artifact_path`; the payload's numeric leaves
    become the artifact's flat ``metrics`` section.
    """
    path = artifact_path(env_var, filename)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(bench_artifact(bench, config, payload), handle, indent=2)
        handle.write("\n")
    emit(f"{bench} artifact", f"wrote {path}")
    return path
