"""Benchmark-artifact schema and the cross-PR regression comparator."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    SCHEMA_KEYS,
    SCHEMA_VERSION,
    bench_artifact,
    compare_metrics,
    flatten_metrics,
    format_compare,
    infer_direction,
    load_artifact,
    normalize_artifact,
    parse_fail_on,
)

PAYLOAD = {
    "serial": {"jobs_per_second": 100.0, "wall_seconds": 0.8},
    "batched": {"jobs_per_second": 400.0, "p95_latency_cycles": 5000},
    "throughput_ratio": 4.0,
}


class TestArtifactSchema:
    def test_envelope_is_the_schema_keys_only(self):
        artifact = bench_artifact("demo", {"seed": 0}, PAYLOAD)
        assert artifact["schema_version"] == SCHEMA_VERSION
        # The payload survives only as the flat metrics section.
        assert set(artifact) == set(SCHEMA_KEYS)
        assert artifact["config"] == {"seed": 0}

    def test_metrics_section_is_flat_numeric(self):
        artifact = bench_artifact("demo", {"seed": 0}, PAYLOAD)
        assert artifact["metrics"]["batched.jobs_per_second"] == 400.0
        assert artifact["metrics"]["throughput_ratio"] == 4.0

    def test_flatten_drops_non_numeric_leaves(self):
        flat = flatten_metrics(
            {"a": {"b": 2, "name": "x"}, "ok": True, "list": [1, None]}
        )
        assert flat == {"a.b": 2, "list.0": 1}

    def test_normalize_refuses_a_bare_payload(self):
        with pytest.raises(ValueError, match="not a schema-v1") as error:
            normalize_artifact(dict(PAYLOAD))
        assert "schema_version" in str(error.value)

    def test_load_artifact_refuses_a_payload_file(self, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"params": {"seed": 0}, "speedup": 3.0}))
        with pytest.raises(ValueError, match="payload.json: not a schema-v1"):
            load_artifact(path)

    def test_load_artifact_round_trip(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(bench_artifact("demo", {"seed": 0}, PAYLOAD)))
        name, metrics = load_artifact(path)
        assert name == "demo"
        assert metrics["serial.wall_seconds"] == 0.8

    def test_load_artifact_rejects_garbage(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        with pytest.raises(ValueError, match="cannot load"):
            load_artifact(path)


class TestFailOnParsing:
    def test_percent_and_absolute_tolerances(self):
        assert parse_fail_on("*jobs_per_second:5%").tolerance == 0.05
        assert parse_fail_on("*.wall_seconds:0.5").tolerance == 0.5

    def test_explicit_direction(self):
        assert parse_fail_on("*p95*:10%:lower").direction == "lower"

    @pytest.mark.parametrize(
        "spec",
        ["no-tolerance", "x:abc", "x:5%:sideways", ":5%", "x:-1"],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_fail_on(spec)


class TestCompare:
    def test_injected_regression_is_flagged(self):
        old = normalize_artifact(bench_artifact("demo", {}, PAYLOAD))
        regressed_payload = json.loads(json.dumps(PAYLOAD))
        regressed_payload["batched"]["jobs_per_second"] = 320.0  # -20%
        new = normalize_artifact(bench_artifact("demo", {}, regressed_payload))
        deltas = compare_metrics(old, new, [parse_fail_on("*jobs_per_second:5%")])
        flagged = [d.metric for d in deltas if d.regressed]
        assert flagged == ["batched.jobs_per_second"]

    def test_within_tolerance_passes(self):
        deltas = compare_metrics(
            {"x.jobs_per_second": 100.0},
            {"x.jobs_per_second": 97.0},
            [parse_fail_on("*jobs_per_second:5%")],
        )
        assert not any(d.regressed for d in deltas)

    def test_improvement_never_regresses_directional_metric(self):
        deltas = compare_metrics(
            {"x.jobs_per_second": 100.0, "x.p95": 1000.0},
            {"x.jobs_per_second": 150.0, "x.p95": 500.0},
            [parse_fail_on("*:1%")],
        )
        assert not any(d.regressed for d in deltas)

    def test_lower_better_metric_regresses_upward(self):
        deltas = compare_metrics(
            {"x.p95": 1000.0}, {"x.p95": 1200.0}, [parse_fail_on("*p95*:10%")]
        )
        assert deltas[0].direction == "lower" and deltas[0].regressed

    def test_either_direction_gates_both_ways(self):
        rule = parse_fail_on("x.mystery_number:5%:either")
        worse = compare_metrics(
            {"x.mystery_number": 100.0}, {"x.mystery_number": 110.0}, [rule]
        )
        better = compare_metrics(
            {"x.mystery_number": 100.0}, {"x.mystery_number": 90.0}, [rule]
        )
        assert worse[0].regressed and better[0].regressed

    def test_one_sided_metric_is_informational(self):
        deltas = compare_metrics(
            {"gone.jobs_per_second": 10.0}, {"new.jobs_per_second": 10.0},
            [parse_fail_on("*:0%")],
        )
        assert not any(d.regressed for d in deltas)
        assert {d.metric for d in deltas} == {
            "gone.jobs_per_second", "new.jobs_per_second"
        }

    def test_ungated_rows_never_regress(self):
        deltas = compare_metrics({"x.p95": 100.0}, {"x.p95": 10_000.0})
        assert not any(d.regressed for d in deltas)
        assert deltas[0].tolerance is None

    def test_format_compare_marks_regressions(self):
        deltas = compare_metrics(
            {"x.jobs_per_second": 100.0, "x.seed": 7.0},
            {"x.jobs_per_second": 50.0, "x.seed": 7.0},
            [parse_fail_on("*jobs_per_second:5%")],
        )
        text = format_compare(deltas)
        assert "!" in text and "x.jobs_per_second" in text
        gated_only = format_compare(deltas, only_gated=True)
        assert "x.seed" not in gated_only

    def test_direction_inference(self):
        assert infer_direction("batched.jobs_per_second") == "higher"
        assert infer_direction("tenants.t0.p95_latency_cycles") == "lower"
        assert infer_direction("config.seed") == "either"


class TestCommittedBaselines:
    """The artifacts CI gates against must stay loadable and gateable."""

    BASELINES = (
        "benchmarks/baselines/conv_functional.json",
        "benchmarks/baselines/serve_streaming.json",
        "benchmarks/baselines/serve_throughput.json",
    )

    @pytest.mark.parametrize("relpath", BASELINES)
    def test_baseline_is_schema_v1(self, relpath):
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[2] / relpath
        data = json.loads(path.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        assert all(key in data for key in SCHEMA_KEYS)
        name, metrics = load_artifact(path)
        assert name == data["bench"]
        assert metrics, "baseline artifact has no metrics to gate on"
        # Self-compare is the degenerate gate: nothing may regress.
        deltas = compare_metrics(metrics, metrics, [parse_fail_on("*:0%")])
        assert not any(d.regressed for d in deltas)
