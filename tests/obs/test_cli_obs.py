"""CLI surface of the observability layer: serve --trace, trace, bench."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import bench_artifact

SERVE_ARGS = [
    "serve", "--tenants", "2", "--jobs-per-tenant", "4", "--workers", "2",
    "--rows", "16", "--cols", "16", "--max-dim", "48", "--max-batch", "4",
    "--seed", "3",
]


def _serve_trace(path, *extra):
    return main(SERVE_ARGS + ["--trace", str(path)] + list(extra))


class TestServeTrace:
    def test_trace_files_are_byte_identical_across_runs(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert _serve_trace(first) == 0
        assert _serve_trace(second) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert first.stat().st_size > 0

    def test_streaming_flag_is_gone(self, tmp_path, capsys):
        # serve() is the one serving path, so there is nothing to select.
        with pytest.raises(SystemExit) as exit_info:
            _serve_trace(tmp_path / "trace.json", "--streaming")
        assert exit_info.value.code == 2
        assert "--streaming" in capsys.readouterr().err

    def test_report_mentions_trace_destination(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert _serve_trace(path) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and str(path) in out

    def test_json_output_carries_trace_note(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert _serve_trace(path, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["format"] == "jsonl"
        assert payload["trace"]["path"] == str(path)
        assert payload["trace"]["events"] > 0
        # The report is the one record of the run: no metrics copy.
        assert "metrics" not in payload["report"]

    def test_unwritable_trace_path_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent-dir" / "trace.json"
        assert _serve_trace(path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro serve: cannot write --trace file: ")
        assert "trace.json" in captured.err
        assert not path.exists()


#: Trace files ``trace summarize`` must refuse with exit 2: each maps to
#: the file's text and a fragment the one-line error must carry.
MALFORMED_TRACES = {
    "array.json": ("[1,2]\n", "array.json:1: not a JSON object"),
    "scalar_line.jsonl": (
        '{"name":"scheduler","pid":0,"type":"process_label"}\n7\n',
        "scalar_line.jsonl:2: not a JSON object",
    ),
    "scalar_event.json": (
        '{"traceEvents":[1]}\n',
        "scalar_event.json: traceEvents[0] is not a JSON object",
    ),
    "bad_latency.jsonl": (
        '{"name":"scheduler","pid":0,"type":"process_label"}\n'
        '{"args":{"job_id":"t0-j0","latency_cycles":"x","tenant":"t0"},'
        '"dur":1,"name":"job.completed","ph":"X","pid":1,"tid":0,"ts":0,'
        '"type":"event"}\n',
        "'x'",
    ),
    "null_latency.jsonl": (
        '{"name":"scheduler","pid":0,"type":"process_label"}\n'
        '{"args":{"job_id":"t0-j0","latency_cycles":null,"tenant":"t0"},'
        '"dur":1,"name":"job.completed","ph":"X","pid":1,"tid":0,"ts":0,'
        '"type":"event"}\n',
        "'job.completed': latency_cycles is None",
    ),
    "missing_ts.jsonl": (
        '{"name":"scheduler","pid":0,"type":"process_label"}\n'
        '{"args":{"depth":1},"cat":"serve","name":"queue.depth","ph":"C",'
        '"pid":0,"tid":0,"type":"event"}\n',
        "'queue.depth': ts is None",
    ),
}


class TestTraceSummarize:
    def test_summarize_both_formats(self, tmp_path, capsys):
        for suffix in (".json", ".jsonl"):
            path = tmp_path / f"trace{suffix}"
            assert _serve_trace(path) == 0
            capsys.readouterr()
            assert main(["trace", "summarize", str(path)]) == 0
            out = capsys.readouterr().out
            assert "queue depth" in out
            assert "cache:" not in out

    def test_summarize_json_matches_text_counts(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert _serve_trace(path) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] > 0
        assert set(summary) >= {
            "events", "queue_depth", "batch_occupancy", "tenants",
        }
        assert "cache" not in summary

    def test_one_event_jsonl_summarizes(self, tmp_path, capsys):
        # A single JSONL record parses as one whole-file object; its
        # ``type`` key marks it JSONL, not a Chrome trace.
        path = tmp_path / "one.jsonl"
        path.write_text(
            '{"args":{"depth":3},"cat":"serve","name":"queue.depth","ph":"C",'
            '"pid":0,"tid":0,"ts":5,"type":"event"}\n'
        )
        assert main(["trace", "summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 1
        assert summary["queue_depth"]["max"] == 3

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "absent.json")]) == 2
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(MALFORMED_TRACES))
    def test_malformed_trace_exits_2(self, name, tmp_path, capsys):
        text, fragment = MALFORMED_TRACES[name]
        path = tmp_path / name
        path.write_text(text)
        assert main(["trace", "summarize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro trace summarize: ")
        assert fragment in captured.err


class TestBenchCompare:
    def _write(self, path, payload, bench="demo"):
        path.write_text(json.dumps(bench_artifact(bench, {"seed": 0}, payload)))
        return str(path)

    def test_clean_compare_exits_0(self, tmp_path, capsys):
        payload = {"batched": {"jobs_per_second": 400.0}}
        old = self._write(tmp_path / "old.json", payload)
        new = self._write(tmp_path / "new.json", payload)
        code = main(["bench", "compare", old, new,
                     "--fail-on", "*jobs_per_second:5%"])
        assert code == 0
        assert "jobs_per_second" in capsys.readouterr().out

    def test_injected_regression_exits_1(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json", {"batched": {"jobs_per_second": 400.0}}
        )
        new = self._write(
            tmp_path / "new.json", {"batched": {"jobs_per_second": 320.0}}
        )
        code = main(["bench", "compare", old, new,
                     "--fail-on", "*jobs_per_second:5%"])
        assert code == 1
        out = capsys.readouterr().out
        assert "!" in out

    def test_no_gates_is_informational(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json", {"batched": {"jobs_per_second": 400.0}}
        )
        new = self._write(
            tmp_path / "new.json", {"batched": {"jobs_per_second": 10.0}}
        )
        assert main(["bench", "compare", old, new]) == 0
        capsys.readouterr()

    def test_json_output_lists_regressions(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"x": {"p95": 100.0}})
        new = self._write(tmp_path / "new.json", {"x": {"p95": 200.0}})
        code = main(["bench", "compare", old, new,
                     "--fail-on", "*p95:10%", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == ["x.p95"]

    def test_bad_fail_on_spec_exits_2(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"x": 1.0})
        assert main(["bench", "compare", old, old,
                     "--fail-on", "nonsense"]) == 2
        assert "fail-on" in capsys.readouterr().err

    def test_bench_name_mismatch_exits_2(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"x": 1.0}, bench="alpha")
        new = self._write(tmp_path / "new.json", {"x": 1.0}, bench="beta")
        assert main(["bench", "compare", old, new]) == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "beta" in err

    def test_unreadable_artifact_exits_2(self, tmp_path, capsys):
        good = self._write(tmp_path / "old.json", {"x": 1.0})
        bad = tmp_path / "broken.json"
        bad.write_text("{ nope")
        assert main(["bench", "compare", good, str(bad)]) == 2
        assert "broken.json" in capsys.readouterr().err

    def test_non_schema_artifact_exits_2(self, tmp_path, capsys):
        payload = tmp_path / "payload.json"
        payload.write_text(json.dumps({"batched": {"jobs_per_second": 400.0}}))
        new = self._write(
            tmp_path / "new.json", {"batched": {"jobs_per_second": 100.0}}
        )
        code = main(["bench", "compare", str(payload), new,
                     "--fail-on", "*jobs_per_second:5%"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # One line, naming the refused file.
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro bench compare: ")
        assert "payload.json: not a schema-v1 benchmark artifact" in captured.err


@pytest.mark.parametrize("command", [["trace"], ["bench"]])
def test_subcommand_requires_action(command, capsys):
    with pytest.raises(SystemExit):
        main(command)
    capsys.readouterr()
