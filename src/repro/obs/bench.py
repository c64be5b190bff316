"""Versioned benchmark artifacts and the cross-PR regression comparator.

Every ``benchmarks/bench_*.py`` JSON artifact shares one schema
(:data:`SCHEMA_VERSION`): the ``schema_version``, ``bench``, ``config``
and ``metrics`` keys, and nothing else.  ``metrics`` is a flat
``dotted.path → number`` mapping produced by :func:`flatten_metrics`, which
is what makes any two artifacts diffable.

``repro bench compare OLD.json NEW.json`` loads both (a file without the
schema keys is refused), joins their metric namespaces, and — when given
``--fail-on`` thresholds — exits non-zero on a regression.  Direction is
inferred from the metric name (throughput-like metrics regress downward,
latency-like metrics upward) unless the threshold spec pins it.

>>> old = {"jobs_per_second": 100.0, "p95": 2000.0}
>>> new = {"jobs_per_second": 75.0, "p95": 2000.0}
>>> rule = parse_fail_on("jobs_per_second:5%")
>>> deltas = compare_metrics(old, new, [rule])
>>> [d.metric for d in deltas if d.regressed]
['jobs_per_second']
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Any

from repro.analysis.reports import format_table

#: Version stamp written into every benchmark artifact.
SCHEMA_VERSION = 1

#: Keys that identify an artifact already on the shared schema.
SCHEMA_KEYS = ("schema_version", "bench", "config", "metrics")

#: Name fragments marking metrics where *larger* is better.
HIGHER_BETTER = (
    "jobs_per_second",
    "throughput",
    "speedup",
    "ratio",
    "hit_rate",
    "utilization",
    "completed",
    "bit_exact",
    "deadline_met",
)

#: Name fragments marking metrics where *smaller* is better.
LOWER_BETTER = (
    "wall_seconds",
    "wall",
    "makespan",
    "latency",
    "p50",
    "p95",
    "mean",
    "max",
    "cycles",
    "misses",
    "expired",
    "failed",
    "shed",
    "retries",
)


def flatten_metrics(payload: Any, prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts/lists into ``dotted.path → float`` leaves.

    Only numeric leaves survive (bools, strings, and ``None`` are
    configuration, not metrics).

    >>> flatten_metrics({"a": {"b": 2}, "c": [1.5, "x"], "d": True})
    {'a.b': 2, 'c.0': 1.5}
    """
    flat: dict[str, float] = {}
    if isinstance(payload, dict):
        for key in payload:
            flat.update(flatten_metrics(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)):
        for index, item in enumerate(payload):
            flat.update(flatten_metrics(item, f"{prefix}{index}."))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        flat[prefix[:-1]] = payload
    return flat


def bench_artifact(
    bench: str, config: dict[str, Any], payload: dict[str, Any]
) -> dict[str, Any]:
    """Wrap a bench's payload in the shared, versioned schema.

    The ``metrics`` section is the flattened numeric view of the payload;
    the payload itself is not kept.

    >>> artifact = bench_artifact("demo", {"seed": 0}, {"speedup": 3.5})
    >>> artifact["schema_version"], artifact["metrics"]["speedup"]
    (1, 3.5)
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "config": dict(config),
        "metrics": flatten_metrics(payload),
    }


def normalize_artifact(data: dict[str, Any]) -> dict[str, float]:
    """Extract the flat metrics mapping of a schema-v1 artifact.

    >>> normalize_artifact({"schema_version": 1, "bench": "b",
    ...                     "config": {}, "metrics": {"x": 1.0}})
    {'x': 1.0}
    """
    missing = [key for key in SCHEMA_KEYS if key not in data]
    if missing:
        raise ValueError(
            f"not a schema-v{SCHEMA_VERSION} benchmark artifact "
            f"(missing {', '.join(missing)})"
        )
    metrics = data["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("schema artifact has a non-mapping metrics section")
    return {str(key): float(value) for key, value in metrics.items()}


def load_artifact(path: str | Path) -> tuple[str, dict[str, float]]:
    """Load one artifact; returns ``(bench_name, flat_metrics)``."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"cannot load benchmark artifact {path}: {error}")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: artifact must be a JSON object")
    try:
        metrics = normalize_artifact(data)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    return str(data["bench"]), metrics


def infer_direction(metric: str) -> str:
    """Guess whether ``metric`` is better higher or lower (or unknown).

    >>> infer_direction("batched.jobs_per_second")
    'higher'
    >>> infer_direction("serial.wall_seconds")
    'lower'
    >>> infer_direction("config.seed")
    'either'
    """
    lowered = metric.lower()
    for fragment in HIGHER_BETTER:
        if fragment in lowered:
            return "higher"
    for fragment in LOWER_BETTER:
        if fragment in lowered:
            return "lower"
    return "either"


@dataclass(frozen=True)
class FailOn:
    """One ``--fail-on`` threshold: glob pattern, tolerance, direction."""

    pattern: str
    tolerance: float
    direction: str = "auto"

    def matches(self, metric: str) -> bool:
        """True when this rule's glob covers ``metric``."""
        return fnmatch(metric, self.pattern)


def parse_fail_on(spec: str) -> FailOn:
    """Parse ``PATTERN:TOLERANCE[%][:higher|lower|either]``.

    >>> parse_fail_on("*jobs_per_second:5%")
    FailOn(pattern='*jobs_per_second', tolerance=0.05, direction='auto')
    >>> parse_fail_on("*.wall_seconds:0.5:lower").direction
    'lower'
    """
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"bad --fail-on spec {spec!r}; expected PATTERN:TOL[%][:direction]"
        )
    pattern, raw_tolerance = parts[0], parts[1]
    direction = parts[2] if len(parts) == 3 else "auto"
    if direction not in ("auto", "higher", "lower", "either"):
        raise ValueError(
            f"bad --fail-on direction {direction!r}; "
            "expected higher, lower, or either"
        )
    try:
        if raw_tolerance.endswith("%"):
            tolerance = float(raw_tolerance[:-1]) / 100.0
        else:
            tolerance = float(raw_tolerance)
    except ValueError:
        raise ValueError(f"bad --fail-on tolerance {raw_tolerance!r} in {spec!r}")
    if tolerance < 0:
        raise ValueError(f"--fail-on tolerance must be >= 0, got {tolerance}")
    if not pattern:
        raise ValueError(f"empty pattern in --fail-on spec {spec!r}")
    return FailOn(pattern, tolerance, direction)


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric: old/new values, relative change, verdict."""

    metric: str
    old: float | None
    new: float | None
    rel_change: float | None
    direction: str
    tolerance: float | None
    regressed: bool

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view of this row."""
        return {
            "metric": self.metric,
            "old": self.old,
            "new": self.new,
            "rel_change": self.rel_change,
            "direction": self.direction,
            "tolerance": self.tolerance,
            "regressed": self.regressed,
        }


def _relative_change(old: float, new: float) -> float | None:
    if old == 0:
        return None if new == 0 else float("inf") * (1 if new > 0 else -1)
    return (new - old) / abs(old)


def _is_regression(rel: float | None, direction: str, tolerance: float) -> bool:
    if rel is None:
        return False
    if direction == "higher":
        return rel < -tolerance
    if direction == "lower":
        return rel > tolerance
    return abs(rel) > tolerance


def compare_metrics(
    old: dict[str, float],
    new: dict[str, float],
    fail_on: list[FailOn] | None = None,
) -> list[MetricDelta]:
    """Join two flat metric mappings and apply the fail-on thresholds.

    Metrics present on only one side get a row with ``None`` on the other
    (never a regression by themselves).  Without any matching fail-on rule
    a row is informational only.
    """
    rules = list(fail_on or ())
    deltas: list[MetricDelta] = []
    for metric in sorted(set(old) | set(new)):
        old_value = old.get(metric)
        new_value = new.get(metric)
        rule = next((r for r in rules if r.matches(metric)), None)
        direction = (
            rule.direction
            if rule is not None and rule.direction != "auto"
            else infer_direction(metric)
        )
        rel = (
            _relative_change(old_value, new_value)
            if old_value is not None and new_value is not None
            else None
        )
        regressed = (
            _is_regression(rel, direction, rule.tolerance)
            if rule is not None
            else False
        )
        deltas.append(
            MetricDelta(
                metric=metric,
                old=old_value,
                new=new_value,
                rel_change=rel,
                direction=direction,
                tolerance=rule.tolerance if rule is not None else None,
                regressed=regressed,
            )
        )
    return deltas


def format_compare(
    deltas: list[MetricDelta], *, only_gated: bool = False
) -> str:
    """Render comparison rows as a text table (regressions marked ``!``).

    >>> rows = compare_metrics({"x.p95": 10.0}, {"x.p95": 10.0})
    >>> "x.p95" in format_compare(rows)
    True
    """
    rows = []
    for delta in deltas:
        if only_gated and delta.tolerance is None:
            continue
        rel = (
            f"{delta.rel_change * 100:+.2f}%"
            if delta.rel_change is not None
            else "-"
        )
        rows.append(
            (
                "!" if delta.regressed else "",
                delta.metric,
                "-" if delta.old is None else f"{delta.old:g}",
                "-" if delta.new is None else f"{delta.new:g}",
                rel,
                delta.direction,
                "-" if delta.tolerance is None else f"{delta.tolerance * 100:g}%",
            )
        )
    return format_table(
        ("", "metric", "old", "new", "change", "direction", "tolerance"), rows
    )


__all__ = [
    "FailOn",
    "HIGHER_BETTER",
    "LOWER_BETTER",
    "MetricDelta",
    "SCHEMA_KEYS",
    "SCHEMA_VERSION",
    "bench_artifact",
    "compare_metrics",
    "flatten_metrics",
    "format_compare",
    "infer_direction",
    "load_artifact",
    "normalize_artifact",
    "parse_fail_on",
]
