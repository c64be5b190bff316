"""Trace export: Chrome-trace/Perfetto JSON and a JSONL event stream.

Two interchangeable on-disk formats for a :class:`~repro.obs.tracer.Tracer`:

* **Chrome trace** (``.json``) — the ``trace_events`` array format that
  ``chrome://tracing`` and https://ui.perfetto.dev load directly.  Track
  labels become ``process_name``/``thread_name`` metadata events, so the
  timeline shows one process per worker class and one named thread per
  worker.  Simulated cycles map 1:1 onto the viewer's microsecond axis.
* **JSONL** (``.jsonl``) — one JSON object per line (label records first,
  then events in emission order), convenient for streaming and ``diff``.

Both writers serialize with sorted keys and fixed separators, so a
deterministic tracer produces **byte-identical** files across runs —
that property is CI-enforced.  :func:`load_trace_events` reads either
format back into plain event dicts for :mod:`repro.obs.summary`.

>>> from repro.obs.tracer import Tracer
>>> tracer = Tracer()
>>> tracer.set_process_label(0, "scheduler")
>>> tracer.instant("job.arrival", 0, job_id="t0-j0")
>>> payload = chrome_trace(tracer)
>>> [event["ph"] for event in payload["traceEvents"]]
['M', 'i']
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from repro.obs.tracer import TraceEvent, Tracer

# ``json.dump`` always runs the pure-Python encoder; ``encode`` on a
# one-shot encoder takes the C path and yields the same bytes.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _metadata_events(tracer: Tracer) -> list[dict[str, object]]:
    records: list[dict[str, object]] = []
    for pid, label in sorted(tracer.process_labels.items()):
        records.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for (pid, tid), label in sorted(tracer.thread_labels.items()):
        records.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )
    return records


def _chrome_records(tracer: Tracer) -> Iterator[dict[str, object]]:
    """The ``traceEvents`` array's items, one at a time: labels, then events."""
    yield from _metadata_events(tracer)
    for event in tracer.events:
        yield event.to_dict()


def chrome_trace(tracer: Tracer) -> dict[str, object]:
    """Build the Chrome ``trace_events`` payload for ``tracer``.

    >>> from repro.obs.tracer import Tracer
    >>> tracer = Tracer()
    >>> tracer.complete("batch.execute", 5, 10, pid=1, tid=2)
    >>> chrome_trace(tracer)["traceEvents"][0]["dur"]
    10
    """
    return {"traceEvents": list(_chrome_records(tracer)), "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, tracer: Tracer) -> None:
    """Write the Chrome-trace JSON for ``tracer`` to ``path``.

    Streams one record at a time: the bytes equal
    ``json.dump(chrome_trace(tracer), sort_keys=True, separators=(",", ":"))``
    plus a newline, without building the list of event dicts first.
    """
    with open(path, "w") as handle:
        handle.write('{"displayTimeUnit":"ms","traceEvents":[')
        separator = ""
        for record in _chrome_records(tracer):
            handle.write(separator + _ENCODE(record))
            separator = ","
        handle.write("]}\n")


def write_jsonl_trace(path: str | Path, tracer: Tracer) -> None:
    """Write ``tracer`` as a JSONL stream (labels first, then events)."""
    with open(path, "w") as handle:
        for pid, label in sorted(tracer.process_labels.items()):
            record = {"type": "process_label", "pid": pid, "name": label}
            handle.write(_ENCODE(record) + "\n")
        for (pid, tid), label in sorted(tracer.thread_labels.items()):
            record = {"type": "thread_label", "pid": pid, "tid": tid, "name": label}
            handle.write(_ENCODE(record) + "\n")
        for event in tracer.events:
            record = event.to_dict()
            record["type"] = "event"
            handle.write(_ENCODE(record) + "\n")


def write_trace(path: str | Path, tracer: Tracer) -> str:
    """Write ``tracer`` to ``path``, picking the format by extension.

    ``.jsonl`` selects the JSONL stream; anything else gets Chrome-trace
    JSON.  Returns the format name written (``"jsonl"`` or ``"chrome"``).
    """
    if str(path).endswith(".jsonl"):
        write_jsonl_trace(path, tracer)
        return "jsonl"
    write_chrome_trace(path, tracer)
    return "chrome"


def load_trace_events(path: str | Path) -> list[dict[str, object]]:
    """Load event dicts (Chrome-trace keys) from either export format.

    Metadata/label records are dropped; each returned dict has at least
    ``name``/``ph``/``ts``/``pid``/``tid``/``args`` keys.  Raises
    ``ValueError`` if the file is neither format or holds a record that
    is not a JSON object, naming the file and the line or
    ``traceEvents`` index.
    """
    text = Path(path).read_text()
    # Chrome traces are one JSON object spanning the whole file; JSONL
    # lines are each an object, so a whole-file parse fails with extra
    # data after line one and we fall through to line-by-line parsing.
    # A one-line JSONL file parses whole, but every JSONL record carries
    # a ``type`` and a Chrome trace does not.
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "type" not in payload:
        raw = payload.get("traceEvents")
        if not isinstance(raw, list):
            raise ValueError(f"{path}: no traceEvents array")
        for index, event in enumerate(raw):
            if not isinstance(event, dict):
                raise ValueError(f"{path}: traceEvents[{index}] is not a JSON object")
        return [event for event in raw if event.get("ph") != "M"]
    events: list[dict[str, object]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{line_number}: not JSONL ({error})")
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{line_number}: not a JSON object")
        if record.get("type") == "event":
            events.append(record)
    return events


def events_from_dicts(records: list[dict[str, object]]) -> list[TraceEvent]:
    """Rehydrate :class:`TraceEvent` records from exported event dicts.

    >>> from repro.obs.tracer import Tracer
    >>> tracer = Tracer()
    >>> tracer.instant("x", 3, k=1)
    >>> events_from_dicts([tracer.events[0].to_dict()]) == [tracer.events[0]]
    True
    """
    events = []
    for record in records:
        args = record.get("args") or {}
        if not isinstance(args, dict):
            raise ValueError(f"bad args payload in event {record!r}")
        events.append(
            TraceEvent(
                name=str(record["name"]),
                phase=str(record["ph"]),
                cycle=int(record["ts"]),  # type: ignore[call-overload]
                duration=int(record.get("dur", 0)),  # type: ignore[call-overload]
                pid=int(record.get("pid", 0)),  # type: ignore[call-overload]
                tid=int(record.get("tid", 0)),  # type: ignore[call-overload]
                category=str(record.get("cat", "serve")),
                args=tuple(sorted(args.items())),
            )
        )
    return events


__all__ = [
    "chrome_trace",
    "events_from_dicts",
    "load_trace_events",
    "write_chrome_trace",
    "write_jsonl_trace",
    "write_trace",
]
