"""Host-time benchmark of ``repro serve`` and the estimate sweep.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-dense --seed 0 --seconds 20 --trace 0

Each repetition runs in a fresh process (``worker.py``) with
``REPRO_ESTIMATE_STORE`` and ``REPRO_ESTIMATE_CACHE_CAPACITY`` removed from
its environment; BLAS threading is left as inherited.  Repetitions run back
to back until ``--seconds`` have passed (at least ``--min-reps`` of them).

``--trace 0`` reports the end-to-end metrics, as medians over untraced
repetitions.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer split from the traced ones, the tracing overhead, and
fails the correctness verdict unless both kinds agree exactly on simulated
outcomes, counts and output digests.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-dense", "serve-mixed", "price-sweep")

#: Environment variables that would change what the program does (a store
#: turns serve pricing into disk hits); removed for every repetition.
SCRUBBED_ENV = ("REPRO_ESTIMATE_STORE", "REPRO_ESTIMATE_CACHE_CAPACITY")
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_us": "us",
    "call_p90_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.trace_build_s": "s",
    "workloads.operand_bytes": "bytes",
    "serve.submit_s": "s",
    "serve.submit_calls": "count",
    "serve.submit_p99_us": "us",
    "serve.price_job_s": "s",
    "serve.price_job_calls": "count",
    "serve.placement_cost_s": "s",
    "serve.placement_cost_calls": "count",
    "serve.planner_self_s": "s",
    "serve.drain_s": "s",
    "serve.compile_report_s": "s",
    "serve.batches": "count",
    "serve.batched_jobs": "count",
    "serve.preemptions": "count",
    "serve.retries": "count",
    "serve.expired": "count",
    "serve.shed": "count",
    "engine.run_batch_s": "s",
    "engine.run_batch_calls": "count",
    "engine.run_batch_jobs": "count",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "engine.cache_evictions": "count",
    "engine.cache_lookups": "count",
    "engine.cache_hit_ratio": "ratio",
    "engine.price_cold_s": "s",
    "engine.price_warm_s": "s",
    "engine.price_cold_calls": "count",
    "engine.price_warm_calls": "count",
    "engine.store_appends": "count",
    "engine.store_disk_hits": "count",
    "engine.store_bytes": "bytes",
    "engine.priced_cycles_total": "cycles",
    "engine.sweep_cold_pass_s": "s",
    "engine.sweep_warm_pass_s": "s",
    "im2col.finalize_s": "s",
    "im2col.finalize_calls": "count",
    "obs.write_trace_s": "s",
    "obs.trace_events": "count",
    "obs.trace_bytes": "bytes",
    "cli.encode_s": "s",
    "cli.result_to_dict_s": "s",
    "cli.output_bytes": "bytes",
    "bench.trace_overhead_ratio": "ratio",
    "bench.traced_run_s": "s",
    "bench.untraced_run_s": "s",
    "sim_makespan_cycles": "cycles",
    "sim_lost_ratio": "ratio",
    "error_ratio": "ratio",
}

#: No repetition starts unless twice the longest one so far still fits in
#: this many seconds, so the whole command stays inside its time limit.
BUDGET_S = 150.0
WORKER_TIMEOUT_S = 170.0


def environment_header() -> list[str]:
    """Machine, interpreter, NumPy/BLAS and thread settings of the run."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_ENV)
    scrubbed = " ".join(
        f"{name}={'removed' if name in os.environ else 'unset'}" for name in SCRUBBED_ENV
    )
    return [
        f"# nproc={affinity} cpu_count={os.cpu_count()} "
        f"python={platform.python_version()} numpy={np.__version__} blas={blas}",
        f"# threads: {threads}",
        f"# program env: {scrubbed}",
    ]


def worker_env() -> dict[str, str]:
    return {name: value for name, value in os.environ.items() if name not in SCRUBBED_ENV}


def run_rep(args: argparse.Namespace, traced: bool, workdir: Path) -> dict:
    """Start one worker, time it to ``ready``, and return its measurements."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", str(workdir),
        "--size", args.size,
    ]
    if traced:
        command.append("--traced")
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or code != 0 or not lines:
        raise RuntimeError(f"worker failed (exit {code}): {command}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = ready - started
    rep["wall_s"] = time.perf_counter() - started
    return rep


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def fingerprint(rep: dict) -> tuple:
    """What must repeat exactly across repetitions of one seed."""
    return (
        rep["sim_makespan_cycles"],
        rep["sim_lost_ratio"],
        tuple(sorted(rep["counts"].items())),
        rep["digest"],
    )


def end_to_end(reps: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median([rep["setup_s"] for rep in reps]),
        "items_per_s": median([rep["items"] / rep["timed_s"] for rep in reps]),
        "call_p50_us": median([rep["latency_us"]["p50"] for rep in reps]),
        "call_p90_us": median([rep["latency_us"]["p90"] for rep in reps]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
    }


def per_layer(plain: list[dict], traced: list[dict], attempted: int, failed: int) -> dict:
    layers = {
        name: median([rep["layers"].get(name, 0) for rep in traced])
        for name in PER_LAYER
    }
    hits, misses = layers["engine.cache_hits"], layers["engine.cache_misses"]
    layers["engine.cache_lookups"] = hits + misses
    layers["engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    is_serve = traced[0]["workload"].startswith("serve")
    layers["serve.submit_p99_us"] = (
        median([rep["latency_us"]["p99"] for rep in plain]) if is_serve else 0.0
    )
    traced_s = median([rep["timed_s"] for rep in traced])
    untraced_s = median([rep["timed_s"] for rep in plain])
    layers["bench.traced_run_s"] = traced_s
    layers["bench.untraced_run_s"] = untraced_s
    layers["bench.trace_overhead_ratio"] = traced_s / untraced_s - 1.0
    layers["sim_makespan_cycles"] = plain[0]["sim_makespan_cycles"]
    layers["sim_lost_ratio"] = plain[0]["sim_lost_ratio"]
    layers["error_ratio"] = failed / attempted
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-reps", type=int, default=3)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke shrinks every workload (self-tests only)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    for line in environment_header():
        print(line)
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}"
    )
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - start
            pairs = min(len(plain), len(traced)) if args.trace else len(plain)
            if pairs >= args.min_reps and elapsed >= args.seconds:
                break
            longest = max((rep["wall_s"] for rep in plain + traced), default=0.0)
            if pairs >= 1 and elapsed + 2 * longest > BUDGET_S:
                break
            want_traced = bool(args.trace) and len(traced) < len(plain)
            rep = run_rep(args, want_traced, workdir)
            (traced if want_traced else plain).append(rep)
            print(
                f"# rep traced={int(want_traced)} setup_s={rep['setup_s']:.4f} "
                f"timed_s={rep['timed_s']:.4f} items={rep['items']} "
                f"p50_us={rep['latency_us']['p50']:.2f} "
                f"rss_mb={rep['peak_rss_mb']:.1f} errors={rep['errors']}"
            )
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    reps = plain + traced
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["errors"] for rep in reps)
    consistent = len({fingerprint(rep) for rep in reps}) == 1
    if not consistent:
        print("# repetitions disagree on simulated outcomes, counts or digests")
    if args.trace:
        values = per_layer(plain, traced, attempted, failed)
        units = PER_LAYER
    else:
        values = end_to_end(plain)
        units = END_TO_END
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
