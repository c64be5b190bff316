"""Post-hoc analysis of exported serving traces.

:func:`summarize_trace` reduces the raw event stream (as loaded by
:func:`repro.obs.export.load_trace_events`) into the views the
``repro trace summarize`` subcommand prints:

* **queue-depth time series** — from the ``queue.depth`` counter samples;
* **batch-occupancy histogram** — executed members per batch, from the
  ``completed`` count on ``batch.execute`` spans (batches a fault or a
  preemption cut before any member ran are skipped);
* **per-tenant latency breakdown** — from ``job.completed`` args, with
  each completed job's latency split into *queue-wait* (before first
  dispatch, excluding retry waits), *execute* (dispatch → finish), and
  *retry-wait* (queueing re-accumulated after a fault requeue, located via
  ``job.requeued`` instants);
* **per-SLO-class deadline view** — from the ``slo`` / ``deadline_met`` /
  ``preemptions`` args on terminal job events, folded by
  :func:`fold_slo_classes`, the same fold
  :func:`repro.serve.report.compile_serve_report` feeds its job results;
* **per-worker activity** — batches and busy cycles per ``pid:tid`` track,
  from the ``batch.execute`` spans.

Every number it reads goes through one check: a missing ``ts``, or a
numeric field that is null or not a number, raises ``ValueError`` naming
the event and the field.  A ``cache`` record in a trace written by an
older version is ignored.

The per-tenant p50/p95 use :func:`repro.analysis.latency.summarize_latencies`
— the identical percentile definition ``ServeReport`` quotes — so numbers
derived from a trace match the report **exactly**, which the test-suite
pins.

>>> events = [
...     {"name": "queue.depth", "ph": "C", "ts": 0, "args": {"depth": 2}},
...     {"name": "batch.execute", "ph": "X", "ts": 0, "dur": 9,
...      "args": {"completed": 2}},
...     {"name": "job.completed", "ph": "X", "ts": 5, "dur": 4,
...      "args": {"job_id": "t0-j0", "tenant": "t0", "arrival_cycle": 0,
...               "latency_cycles": 9, "queue_cycles": 5, "attempts": 1}},
... ]
>>> summary = summarize_trace(events)
>>> summary["batch_occupancy"]["2"]
1
>>> summary["tenants"]["t0"]["latency"]["p95"]
9.0
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from repro.analysis.latency import summarize_latencies
from repro.analysis.reports import format_table

#: Terminal job event names (``job.<status>``) tallied per tenant.
TERMINAL_EVENTS = (
    "job.completed",
    "job.rejected",
    "job.failed",
    "job.cancelled",
    "job.expired",
    "job.shed",
)

#: The counters :func:`fold_slo_classes` keeps per SLO class.
_SLO_COUNTERS = (
    "submitted",
    "completed",
    "deadline_met",
    "deadline_eligible",
    "preemptions",
)


#: Numeric fields read from the event itself; every other one is an arg.
_TOP_LEVEL = ("ts", "dur", "pid", "tid")


def _arg(event: dict[str, Any], key: str, default: Any = None) -> Any:
    args = event.get("args")
    if isinstance(args, dict):
        return args.get(key, default)
    return default


def _number(event: dict[str, Any], field: str, default: Any = None) -> int:
    """``field`` of ``event`` as an int, ``default`` when it is absent.

    ``ts``/``dur``/``pid``/``tid`` are read from the event, anything else
    from its ``args``.  Raises ``ValueError`` naming the event and the
    field when the value (or the missing field's ``None`` default) is not
    a number.
    """
    if field in _TOP_LEVEL:
        value = event.get(field, default)
    else:
        value = _arg(event, field, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"event {event.get('name')!r}: {field} is {value!r}, not a number"
        ) from None


def _queue_depth_view(events: list[dict[str, Any]]) -> dict[str, Any]:
    series = [
        (_number(event, "ts"), _number(event, "depth", 0))
        for event in events
        if event.get("ph") == "C" and event.get("name") == "queue.depth"
    ]
    if not series:
        return {"samples": 0, "max": 0, "mean": 0.0, "final": 0}
    depths = [depth for _, depth in series]
    return {
        "samples": len(series),
        "max": max(depths),
        "mean": sum(depths) / len(depths),
        "final": depths[-1],
    }


def _batch_occupancy_view(events: list[dict[str, Any]]) -> dict[str, int]:
    occupancy: dict[int, int] = defaultdict(int)
    for event in events:
        if event.get("name") == "batch.execute":
            completed = _number(event, "completed", 0)
            if completed:
                occupancy[completed] += 1
    return {str(size): occupancy[size] for size in sorted(occupancy)}


def _tenant_views(events: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    first_requeue: dict[str, int] = {}
    for event in events:
        if event.get("name") == "job.requeued":
            job_id = str(_arg(event, "job_id"))
            cycle = _number(event, "ts")
            first_requeue[job_id] = min(
                cycle, first_requeue.get(job_id, cycle)
            )

    tenants: dict[str, dict[str, Any]] = {}
    latencies: dict[str, list[int]] = defaultdict(list)
    for event in events:
        name = str(event.get("name", ""))
        if name not in TERMINAL_EVENTS:
            continue
        tenant = str(_arg(event, "tenant", "?"))
        view = tenants.setdefault(
            tenant,
            {
                "completed": 0,
                "terminal": defaultdict(int),
                "queue_wait_cycles": 0,
                "execute_cycles": 0,
                "retry_wait_cycles": 0,
            },
        )
        status = name.removeprefix("job.")
        view["terminal"][status] += 1
        if status != "completed":
            continue
        view["completed"] += 1
        job_id = str(_arg(event, "job_id"))
        arrival = _number(event, "arrival_cycle", 0)
        latency = _number(event, "latency_cycles", 0)
        queued = _number(event, "queue_cycles", 0)
        start = arrival + queued
        retry_wait = 0
        if job_id in first_requeue:
            retry_wait = max(0, start - first_requeue[job_id])
        latencies[tenant].append(latency)
        view["queue_wait_cycles"] += queued - retry_wait
        view["retry_wait_cycles"] += retry_wait
        view["execute_cycles"] += latency - queued

    for tenant, view in tenants.items():
        view["terminal"] = dict(sorted(view["terminal"].items()))
        view["latency"] = (
            summarize_latencies(latencies[tenant]).to_dict()
            if latencies[tenant]
            else None
        )
    return dict(sorted(tenants.items()))


def fold_slo_classes(
    outcomes: Iterable[tuple[str, bool, bool | None, int]],
) -> dict[str, dict[str, int]]:
    """Per-SLO-class deadline counters, classes in first-seen order.

    Each outcome is one terminal job's ``(slo, completed, deadline_met,
    preemptions)``; ``deadline_met`` out of ``deadline_eligible`` counts
    completed jobs that carried a hint (``deadline_met`` not None).
    ``compile_serve_report`` folds its job results here and
    :func:`summarize_trace` its terminal events' args, so the report's and
    the trace's SLO tables are one computation.

    >>> fold_slo_classes([("best-effort", True, None, 0),
    ...                   ("latency-target", True, True, 1),
    ...                   ("latency-target", False, False, 0)])["latency-target"]
    {'submitted': 2, 'completed': 1, 'deadline_met': 1, 'deadline_eligible': 1, 'preemptions': 1}
    """
    classes: dict[str, dict[str, int]] = {}
    for slo, completed, deadline_met, preemptions in outcomes:
        view = classes.setdefault(slo, dict.fromkeys(_SLO_COUNTERS, 0))
        view["submitted"] += 1
        view["completed"] += completed
        view["preemptions"] += preemptions
        if completed and deadline_met is not None:
            view["deadline_eligible"] += 1
            view["deadline_met"] += deadline_met
    return classes


def _slo_views(events: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per-SLO-class deadline outcome (SLO-less traces: all best-effort)."""
    classes: dict[str, dict[str, Any]] = fold_slo_classes(
        (
            str(_arg(event, "slo", "best-effort")),
            event.get("name") == "job.completed",
            _arg(event, "deadline_met"),
            _number(event, "preemptions", 0),
        )
        for event in events
        if event.get("name") in TERMINAL_EVENTS
    )
    for view in classes.values():
        view["deadline_hit_rate"] = (
            view["deadline_met"] / view["deadline_eligible"]
            if view["deadline_eligible"]
            else 0.0
        )
    return dict(sorted(classes.items()))


def _worker_views(events: list[dict[str, Any]]) -> dict[str, dict[str, int]]:
    workers: dict[str, dict[str, int]] = {}
    for event in events:
        if event.get("name") != "batch.execute" or event.get("ph") != "X":
            continue
        track = f"{_number(event, 'pid', 0)}:{_number(event, 'tid', 0)}"
        view = workers.setdefault(track, {"batches": 0, "busy_cycles": 0})
        view["batches"] += 1
        view["busy_cycles"] += _number(event, "dur", 0)
    return dict(sorted(workers.items()))


def summarize_trace(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Reduce exported trace events into the summary mapping.

    Accepts the event dicts returned by
    :func:`repro.obs.export.load_trace_events` (either export format).
    """
    return {
        "events": len(events),
        "queue_depth": _queue_depth_view(events),
        "batch_occupancy": _batch_occupancy_view(events),
        "tenants": _tenant_views(events),
        "slo": _slo_views(events),
        "workers": _worker_views(events),
    }


def format_trace_summary(summary: dict[str, Any]) -> str:
    """Render :func:`summarize_trace` output as fixed-width text tables.

    >>> text = format_trace_summary(summarize_trace([]))
    >>> "queue depth" in text
    True
    """
    depth = summary["queue_depth"]
    lines = [
        f"events: {summary['events']}",
        "",
        f"queue depth: samples={depth['samples']} max={depth['max']} "
        f"mean={depth['mean']:.2f} final={depth['final']}",
    ]
    occupancy = summary["batch_occupancy"]
    if occupancy:
        lines += [
            "",
            "batch occupancy:",
            format_table(
                ("batch size", "batches"),
                [(size, count) for size, count in occupancy.items()],
            ),
        ]
    tenants = summary["tenants"]
    if tenants:
        rows = []
        for tenant, view in tenants.items():
            latency = view["latency"] or {"p50": 0.0, "p95": 0.0}
            rows.append(
                (
                    tenant,
                    view["completed"],
                    round(latency["p50"]),
                    round(latency["p95"]),
                    view["queue_wait_cycles"],
                    view["execute_cycles"],
                    view["retry_wait_cycles"],
                )
            )
        lines += [
            "",
            "per-tenant latency breakdown (cycles):",
            format_table(
                ("tenant", "completed", "p50", "p95", "queue-wait",
                 "execute", "retry-wait"),
                rows,
            ),
        ]
    slo = summary.get("slo", {})
    # The deadline-hit view appears only once an SLO class beyond plain
    # best-effort (or a deadline/preemption outcome) is in the trace, so
    # summaries of older or SLO-free traces render exactly as before.
    if any(
        name != "best-effort" or view["deadline_eligible"] or view["preemptions"]
        for name, view in slo.items()
    ):
        lines += [
            "",
            "per-SLO-class deadlines:",
            format_table(
                ("slo class", "submitted", "completed", "deadlines met",
                 "hit rate", "preempted"),
                [
                    (
                        name,
                        view["submitted"],
                        view["completed"],
                        f"{view['deadline_met']}/{view['deadline_eligible']}",
                        round(view["deadline_hit_rate"], 4),
                        view["preemptions"],
                    )
                    for name, view in slo.items()
                ],
            ),
        ]
    workers = summary["workers"]
    if workers:
        lines += [
            "",
            "worker activity:",
            format_table(
                ("track (pid:tid)", "batches", "busy cycles"),
                [
                    (track, view["batches"], view["busy_cycles"])
                    for track, view in workers.items()
                ],
            ),
        ]
    return "\n".join(lines)


__all__ = [
    "TERMINAL_EVENTS",
    "fold_slo_classes",
    "format_trace_summary",
    "summarize_trace",
]
