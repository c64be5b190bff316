"""End-to-end tests of the ``repro lint`` CLI subcommand."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def test_lint_clean_tree_exits_zero():
    proc = run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_lint_json_schema():
    proc = run_cli("--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is True
    assert payload["findings"] == []
    assert payload["checked_files"] > 50
    rule_ids = {rule["id"] for rule in payload["rules"]}
    assert rule_ids == {
        "RPL101", "RPL102", "RPL103", "RPL104", "RPL105", "RPL106", "RPL107",
    }
    assert all(rule["description"] for rule in payload["rules"])


def test_lint_path_failure_exits_one():
    # The cache-key rule is unscoped, so a hand-built key fails wherever
    # the file lives — including an explicitly passed fixture.
    proc = run_cli("--path", str(FIXTURES / "cachekey_bad.py"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "RPL103" in proc.stdout


def test_lint_path_failure_json():
    proc = run_cli("--json", "--path", str(FIXTURES / "cachekey_bad.py"))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["clean"] is False
    assert payload["counts"] == {"RPL103": 2}


def test_doctest_modules_listing():
    proc = run_cli("--doctest-modules")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = proc.stdout.split()
    assert "src/repro/api.py" in listed
    assert "src/repro/engine/__init__.py" in listed
    assert "src/repro/serve/__init__.py" in listed
    assert "src/repro/im2col/lowering.py" in listed
    # The list feeds `python -m doctest` in CI: every entry must exist.
    for rel in listed:
        assert (REPO_ROOT / rel).is_file(), rel


def _assert_one_line_exit_two(proc: subprocess.CompletedProcess, named: str) -> None:
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("repro lint: ")
    assert named in proc.stderr and "Traceback" not in proc.stderr


def test_lint_missing_path_exits_two_with_one_line(tmp_path):
    # A file that was asked for and not checked must not read as clean.
    missing = tmp_path / "missing.py"
    _assert_one_line_exit_two(run_cli("--path", str(missing)), str(missing))


def test_lint_unparsable_file_exits_two_with_one_line(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    _assert_one_line_exit_two(run_cli("--path", str(broken)), str(broken))


def test_lint_root_without_sources_exits_two_with_one_line(tmp_path):
    _assert_one_line_exit_two(run_cli("--root", str(tmp_path)), str(tmp_path))
