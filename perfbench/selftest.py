"""Self-tests of the benchmark itself, on shrunken workloads.

Run from the root of a checkout (a few seconds)::

    python3 perfbench/selftest.py

It checks that

* every workload, untraced and traced, emits exactly the metric names and
  units that ``BENCHMARK.json`` declares, with a correct verdict;
* two seeds produce the same metric set from different inputs;
* the correctness checks fire on a corrupted output;
* the traced run's wrappers restore every attribute they replaced.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

WORKLOADS = tuple(worker.WORKLOADS)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run_bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
            "--min-reps", "1", "--size", "smoke",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_worker(workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        out = subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--workdir", workdir, "--size", "smoke",
            ],
            capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_metric_names_and_units() -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        expected = declared(kind)
        for workload in WORKLOADS:
            result = run_bench(workload, 1, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace)
            assert result["failed"] == 0 and result["attempted"] >= 1
            emitted = {name: item["unit"] for name, item in result["metrics"].items()}
            assert emitted == expected, (workload, trace, set(emitted) ^ set(expected))
            if kind == "end_to_end":
                assert all(item["value"] > 0 for item in result["metrics"].values())


def test_seeds_change_inputs_not_metric_set() -> None:
    for workload in WORKLOADS:
        first, second = run_worker(workload, 1), run_worker(workload, 2)
        assert first["digest"] != second["digest"], workload
        assert set(first["layers"]) == set(second["layers"]), workload
        assert first["errors"] == second["errors"] == 0, workload


def test_checks_fire_on_corrupted_output() -> None:
    worker._import_program()
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        serve = worker.ServeRun(
            worker.smoke(worker.SERVE_MIXED), 3, Path(workdir)
        )
        serve.timed()
        assert serve.check() == 0
        index = next(i for i, r in enumerate(serve.results) if r.result is not None)
        result = serve.results[index]
        output = result.result.output.copy()
        output.flat[0] += 1.0
        serve.results[index] = dataclasses.replace(
            result, result=dataclasses.replace(result.result, output=output)
        )
        assert serve.check() == 1
        serve.results[index] = result
        serve.results.append(result)  # one job with two terminal statuses
        assert serve.check() >= 1

        sweep = worker.SweepRun(worker.smoke(worker.PRICE_SWEEP), 3, Path(workdir))
        sweep.timed()
        assert sweep.check() == 0
        sweep.warm[0] += 1
        assert sweep.check() == 1


def test_wrappers_restore_attributes() -> None:
    worker._import_program()
    import spans

    before = spans.original_attributes()
    recorder = spans.Spans()
    try:
        with recorder.installed():
            during = spans.original_attributes()
            assert all(during[key] is not before[key] for key in before)
            raise KeyboardInterrupt  # an exit that is not an Exception
    except KeyboardInterrupt:
        pass
    after = spans.original_attributes()
    assert all(after[key] is before[key] for key in before)


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
