"""Trace determinism — the acceptance criteria of the observability layer.

Same seed, same trace: byte-identical Chrome exports; a hand-driven
``submit()``/``drain()`` stream replays ``serve()`` event for event; two
traced streams interleaved in one thread each record and report only their
own run; and every number derived from a trace (per-tenant p95, terminal
accounting) matches the ``ServeReport`` of the run that produced it
exactly.
"""

from __future__ import annotations

import json

from repro.api import SystolicAccelerator
from repro.arch.array_config import ArrayConfig
from repro.arch.dataflow import Dataflow
from repro.engine.cache import cached_gemm_cycles
from repro.obs import Tracer, chrome_trace, summarize_trace
from repro.serve import AsyncGemmScheduler


def _chrome_bytes(tracer) -> str:
    return json.dumps(chrome_trace(tracer), sort_keys=True, separators=(",", ":"))


def _summary(tracer):
    return summarize_trace([event.to_dict() for event in tracer.events])


def _comparable(report) -> dict:
    payload = report.to_dict()
    payload.pop("wall_seconds")  # the one host-dependent field
    return payload


class TestTraceDeterminism:
    def test_same_seed_twice_is_byte_identical(self, jobs, traced_serve):
        first, _, _ = traced_serve(jobs)
        second, _, _ = traced_serve(jobs)
        assert len(first.events) > 0
        assert first.events == second.events
        assert _chrome_bytes(first) == _chrome_bytes(second)

    def test_streaming_matches_oneshot_event_for_event(self, jobs, traced_serve):
        oneshot, oneshot_report, _ = traced_serve(jobs)
        streaming, streaming_report, _ = traced_serve(jobs, streaming=True)
        assert len(oneshot.events) == len(streaming.events)
        for index, (one, stream) in enumerate(
            zip(oneshot.events, streaming.events)
        ):
            assert one == stream, f"event {index} diverged: {one} != {stream}"
        assert _chrome_bytes(oneshot) == _chrome_bytes(streaming)
        assert oneshot_report.makespan_cycles == streaming_report.makespan_cycles

    def test_chrome_export_has_labelled_tracks(self, jobs, traced_serve):
        tracer, _, _ = traced_serve(jobs)
        payload = chrome_trace(tracer)
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metadata)
        assert any(e["name"] == "thread_name" for e in metadata)
        # Perfetto/chrome://tracing require a traceEvents array of objects
        # with name/ph/ts — pin the contract the viewer depends on.
        for event in payload["traceEvents"]:
            assert "name" in event and "ph" in event
            if event["ph"] != "M":
                assert isinstance(event["ts"], int)


class TestTraceMatchesReport:
    def test_per_tenant_latency_matches_report_exactly(self, jobs, traced_serve):
        tracer, report, _ = traced_serve(jobs)
        summary = _summary(tracer)
        by_tenant = {stat.tenant: stat for stat in report.tenants}
        assert set(summary["tenants"]) == set(by_tenant)
        for tenant, view in summary["tenants"].items():
            stat = by_tenant[tenant]
            assert view["completed"] == stat.completed
            assert stat.latency is not None
            assert view["latency"]["p50"] == stat.latency.p50
            assert view["latency"]["p95"] == stat.latency.p95
            assert view["latency"]["mean"] == stat.latency.mean

    def test_terminal_events_match_job_accounting(self, jobs, traced_serve):
        tracer, report, results = traced_serve(jobs)
        completed = [e for e in tracer.events if e.name == "job.completed"]
        assert len(completed) == report.jobs_completed == len(jobs)
        traced_ids = {dict(e.args)["job_id"] for e in completed}
        assert traced_ids == {result.job_id for result in results}

    def test_report_is_stable_across_runs(self, jobs, traced_serve):
        _, first_report, _ = traced_serve(jobs)
        _, second_report, _ = traced_serve(jobs)
        first = first_report.to_dict()
        second = second_report.to_dict()
        # Everything but the host wall time rides the simulated clock, so
        # identical runs serialize identically.
        first.pop("wall_seconds")
        second.pop("wall_seconds")
        assert first == second

    def test_tracer_absent_leaves_report_unchanged(self, jobs, traced_serve):
        from repro.api import SystolicAccelerator
        from repro.arch.array_config import ArrayConfig
        from repro.serve import AsyncGemmScheduler

        tracer, traced_report, _ = traced_serve(jobs)
        fleet = [SystolicAccelerator(ArrayConfig(16, 16)) for _ in range(2)]
        untraced_report, _ = AsyncGemmScheduler(fleet, max_batch=4).serve(jobs)
        assert traced_report.makespan_cycles == untraced_report.makespan_cycles
        assert traced_report.jobs_completed == untraced_report.jobs_completed


class TestInterleavedStreams:
    """Two traced schedulers whose ``submit()`` streams interleave in one
    thread: each trace and each report equal the scheduler's solo run, and
    neither trace keeps recording once drained."""

    @staticmethod
    def _scheduler(rows: int) -> AsyncGemmScheduler:
        fleet = [SystolicAccelerator(ArrayConfig(rows, rows)) for _ in range(2)]
        return AsyncGemmScheduler(fleet, max_batch=4, tracer=Tracer())

    def test_each_trace_records_only_its_own_run(self, jobs):
        ordered = sorted(jobs, key=lambda job: (job.arrival_cycle, job.job_id))
        sizes = (16, 8)
        solo = {}
        for rows in sizes:
            scheduler = self._scheduler(rows)
            report, _ = scheduler.serve(ordered)
            solo[rows] = (scheduler.tracer.events, _comparable(report))

        streams = {rows: self._scheduler(rows) for rows in sizes}
        for job in ordered:
            for scheduler in streams.values():
                scheduler.submit(job)
        reports = {rows: scheduler.drain()[0] for rows, scheduler in streams.items()}

        for rows, scheduler in streams.items():
            events, report = solo[rows]
            assert scheduler.tracer.events == events
            assert _comparable(reports[rows]) == report

        counts = [len(s.tracer.events) for s in streams.values()]
        for _ in range(2):
            cached_gemm_cycles(24, 24, 24, 16, 16, Dataflow.OUTPUT_STATIONARY, False)
        assert [len(s.tracer.events) for s in streams.values()] == counts
