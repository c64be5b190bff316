"""Property-based scheduler-invariant harness (seeded, no hypothesis).

Rather than pinning hand-built scenarios, this suite draws hundreds of
random serving runs — fleets x traces x orderings x fault plans, from
:mod:`serve_strategies` — and asserts the invariants the scheduler must
hold for *every* configuration:

1. **One terminal status per job** — every submitted job resolves exactly
   once, to a legal status, with a result iff it completed.
2. **Bit-exact execution** — every completed output matches a direct
   ``run_gemm`` on an identically configured worker, faults, retries and
   preemptions notwithstanding.
3. **No late completions under enforcement** — with
   ``enforce_deadlines=True`` a hinted job either completes inside its
   deadline or expires; it never completes late.
4. **Order independence and determinism** — a second ``serve()`` of the
   *reversed* job list, on whatever estimate-cache state the earlier
   runs left, reproduces the first run result-for-result,
   report-for-report and trace event-for-event.
5. **Preemption budget** — no job is displaced more than
   ``max_preemptions`` times.
6. **Monotone simulated clock** — per-worker ``batch.execute`` spans
   never overlap or run backwards, and no job resolves before it arrives.
7. **Trace summary equals report** — ``summarize_trace`` over the run's
   events reproduces the report's batch occupancy, per-tenant terminal
   counts and p50/p95, SLO table, and per-worker batches and busy
   cycles.
8. **One record per decision** — every submitted job has exactly one
   ``job.arrival`` (carrying its price and admission decision) and exactly
   one terminal record, ``job.<status>``; a completed job's record is an
   ``X`` span from its start to its finish on its worker's track, and
   every event name belongs to the trace vocabulary.
9. **One makespan** — the report's ``makespan_cycles`` is the end of the
   last ``batch.execute`` span (0 with none), fault- and preemption-cut
   batches included, so throughput and utilizations share it.

Cases are addressed by ``(seed, case)``; the harness appends each case's
reproduction line to a seed log (``SERVE_INVARIANTS_LOG``, default
``test-results/serve-invariants-seeds.log``) *before* running it, so on a
failure the log's last line names the offending scenario and CI can
upload the file as an artifact.  The three published seeds below are the
tier-1 contract: they must stay green, and regressions reproduce from
the two integers alone.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.obs import Tracer, summarize_trace
from repro.obs.summary import TERMINAL_EVENTS
from repro.serve import JOB_STATUSES
from serve_strategies import ServeScenario, random_scenario

#: The three published harness seeds CI pins (regenerate nothing to
#: reproduce a failure — ``random_scenario(seed, case)`` rebuilds it).
PUBLISHED_SEEDS = (20250807, 1337, 9001)

#: Scenarios drawn per published seed (3 x 70 = 210 total).
CASES_PER_SEED = 70

#: Every event name a serving trace may carry: the vocabulary table in
#: ``docs/observability.md``.
TRACE_VOCABULARY = frozenset({
    "job.arrival", "job.requeued", "job.preempted", *TERMINAL_EVENTS,
    "batch.window_open", "batch.execute", "batch.cut",
    "worker.fault", "worker.recover", "queue.depth",
})

_LOG_PATH = Path(
    os.environ.get(
        "SERVE_INVARIANTS_LOG", "test-results/serve-invariants-seeds.log"
    )
)


@pytest.fixture(scope="module")
def seed_log():
    """Append-mode seed log, truncated once per harness run."""
    _LOG_PATH.parent.mkdir(parents=True, exist_ok=True)
    with _LOG_PATH.open("w", encoding="utf-8") as handle:

        def log(line: str) -> None:
            handle.write(line + "\n")
            handle.flush()

        yield log


def _run(scenario: ServeScenario, jobs):
    """One traced ``serve()`` of ``jobs``."""
    tracer = Tracer()
    report, results = scenario.build_scheduler(tracer=tracer).serve(jobs)
    return tracer, report, results


def _comparable_report(report) -> dict:
    payload = report.to_dict()
    payload.pop("wall_seconds")
    return payload


def _comparable_events(tracer: Tracer) -> list[tuple]:
    return [
        (e.name, e.phase, e.cycle, e.duration, e.pid, e.tid, e.category,
         e.args)
        for e in tracer.events
    ]


def _check_one_terminal_status(scenario: ServeScenario, results) -> None:
    ids = [r.job_id for r in results]
    assert sorted(ids) == sorted(j.job_id for j in scenario.jobs), (
        "job set mismatch"
    )
    assert len(set(ids)) == len(ids), "a job resolved more than once"
    for r in results:
        assert r.status in JOB_STATUSES
        assert (r.result is not None) == r.completed, (
            f"{r.job_id}: result/{r.status} disagree"
        )


def _check_bitexact(scenario: ServeScenario, results) -> None:
    by_class = {w.describe(): w for w in scenario.build_fleet()}
    by_id = {j.job_id: j for j in scenario.jobs}
    for r in results:
        if not r.completed:
            continue
        job = by_id[r.job_id]
        direct = by_class[r.worker_class].run_gemm(job.a, job.b)
        assert np.array_equal(r.result.output, direct.output), (
            f"{r.job_id}: output not bit-exact"
        )
        # Every other field too: cycles, counters, utilization, scale_out
        # and the output digest.  Only the workload label may differ.
        served, reference = r.result.to_dict(), direct.to_dict()
        del served["name"], reference["name"]
        assert served == reference, f"{r.job_id}: served result differs"


def _check_no_late_completions(scenario: ServeScenario, results) -> None:
    if not scenario.enforce_deadlines:
        return
    for r in results:
        if r.completed and r.deadline_hint_cycles is not None:
            assert r.deadline_met is True, (
                f"{r.job_id} completed late under enforce_deadlines: "
                f"finish={r.finish_cycle} "
                f"deadline={r.arrival_cycle + r.deadline_hint_cycles}"
            )


def _check_preemption_budget(scenario: ServeScenario, results) -> None:
    for r in results:
        assert r.preemptions <= scenario.max_preemptions, (
            f"{r.job_id}: {r.preemptions} preemptions "
            f"> budget {scenario.max_preemptions}"
        )


def _check_monotone_clock(tracer: Tracer, results) -> None:
    spans: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for e in tracer.events:
        assert e.cycle >= 0 and e.duration >= 0
        if e.name == "batch.execute" and e.phase == "X":
            spans[(e.pid, e.tid)].append((e.cycle, e.cycle + e.duration))
    # Emission order is seal order (fault/preempt-cut batches seal at the
    # cut; healthy ones at the horizon or drain), so sort spans onto the
    # simulated clock: a worker must run one batch at a time.
    for track, intervals in spans.items():
        previous_end = 0
        for start, end in sorted(intervals):
            assert start >= previous_end, (
                f"worker track {track}: batch at {start} overlaps "
                f"one ending at {previous_end}"
            )
            previous_end = end
    for r in results:
        if r.resolved_cycle is not None:
            assert r.resolved_cycle >= r.arrival_cycle
        if r.finish_cycle is not None:
            assert r.start_cycle is not None
            assert r.arrival_cycle <= r.start_cycle <= r.finish_cycle


def _check_summary_equals_report(tracer: Tracer, report) -> None:
    summary = summarize_trace([e.to_dict() for e in tracer.events])
    payload = report.to_dict()
    assert summary["batch_occupancy"] == payload["batch_occupancy"]
    tenants = {t.tenant: t for t in report.tenants}
    assert set(summary["tenants"]) == set(tenants)
    for name, view in summary["tenants"].items():
        stats = tenants[name]
        assert view["terminal"] == {
            status: getattr(stats, status)
            for status in JOB_STATUSES
            if getattr(stats, status)
        }, f"{name}: terminal counts differ"
        if stats.latency is None:
            assert view["latency"] is None
        else:
            assert view["latency"]["p50"] == stats.latency.p50
            assert view["latency"]["p95"] == stats.latency.p95
    slo = {view.pop("slo"): view for view in payload["slo_classes"]}
    assert summary["slo"] == slo
    class_ids = list(dict.fromkeys(report.fleet))
    assert summary["workers"] == {
        f"{class_ids.index(w.worker_class) + 1}:{w.worker_id}": {
            "batches": w.batches,
            "busy_cycles": w.busy_cycles,
        }
        for w in report.workers
        if w.batches
    }


def _check_makespan_is_last_batch_end(tracer: Tracer, report) -> None:
    last_end = max(
        (e.cycle + e.duration for e in tracer.events if e.name == "batch.execute"),
        default=0,
    )
    assert report.makespan_cycles == last_end, (
        f"makespan {report.makespan_cycles} != last batch end {last_end}"
    )


def _check_one_record_per_decision(
    scenario: ServeScenario, tracer: Tracer, report, results
) -> None:
    arrivals: dict[str, list[dict]] = defaultdict(list)
    terminals: dict[str, list] = defaultdict(list)
    for e in tracer.events:
        assert e.name in TRACE_VOCABULARY, f"unknown trace event {e.name!r}"
        if e.name == "job.arrival":
            arrivals[dict(e.args)["job_id"]].append(dict(e.args))
        elif e.name in TERMINAL_EVENTS:
            terminals[dict(e.args)["job_id"]].append(e)
    assert set(arrivals) == {j.job_id for j in scenario.jobs}
    assert set(terminals) == set(arrivals)
    class_ids = list(dict.fromkeys(report.fleet))
    for r in results:
        assert len(arrivals[r.job_id]) == 1, f"{r.job_id}: arrival repeated"
        arrival = arrivals[r.job_id][0]
        assert arrival["priced_cycles"] == r.priced_cycles
        assert arrival["deprioritized"] == r.deprioritized
        assert arrival["admitted"] == (r.status != "rejected")
        assert len(terminals[r.job_id]) == 1, f"{r.job_id}: terminal repeated"
        terminal = terminals[r.job_id][0]
        assert terminal.name == f"job.{r.status}"
        if r.completed:
            assert terminal.phase == "X"
            assert (terminal.cycle, terminal.cycle + terminal.duration) == (
                r.start_cycle, r.finish_cycle
            )
            assert (terminal.pid, terminal.tid) == (
                class_ids.index(r.worker_class) + 1, r.worker_id
            )


@pytest.mark.parametrize("seed", PUBLISHED_SEEDS)
def test_scheduler_invariants(seed, seed_log):
    observed = {"preemptions": 0, "failed": 0, "expired": 0}
    for case in range(CASES_PER_SEED):
        scenario = random_scenario(seed, case)
        seed_log(scenario.describe())

        tracer, report, results = _run(scenario, list(scenario.jobs))
        _check_one_terminal_status(scenario, results)
        _check_bitexact(scenario, results)
        _check_no_late_completions(scenario, results)
        _check_preemption_budget(scenario, results)
        _check_monotone_clock(tracer, results)
        _check_summary_equals_report(tracer, report)
        _check_one_record_per_decision(scenario, tracer, report, results)
        _check_makespan_is_last_batch_end(tracer, report)
        observed["preemptions"] += sum(r.preemptions for r in results)
        observed["failed"] += sum(r.status == "failed" for r in results)
        observed["expired"] += sum(r.status == "expired" for r in results)

        again_tracer, again_report, again = _run(
            scenario, list(reversed(scenario.jobs))
        )
        assert [r.to_dict() for r in again] == [
            r.to_dict() for r in results
        ], "serving the reversed trace changed the results"
        assert _comparable_report(again_report) == _comparable_report(report)
        assert _comparable_events(again_tracer) == _comparable_events(tracer)

    # Observed-outcome coverage: the seed's draw must actually reach the
    # machinery the invariants guard, else this test proves nothing.
    assert all(count > 0 for count in observed.values()), (
        f"seed {seed} never exercised: "
        f"{[k for k, v in observed.items() if not v]}"
    )


def test_scenarios_are_seed_deterministic():
    one = random_scenario(PUBLISHED_SEEDS[0], 5)
    two = random_scenario(PUBLISHED_SEEDS[0], 5)
    assert one.describe() == two.describe()
    assert all(
        np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)
        for a, b in zip(one.jobs, two.jobs)
    )
    assert (
        random_scenario(PUBLISHED_SEEDS[0], 6).describe() != one.describe()
    )


def test_harness_covers_every_axis():
    """The published draw actually exercises each ordering, faults and
    preemption — otherwise the invariants above would be vacuous."""
    scenarios = [
        random_scenario(seed, case)
        for seed in PUBLISHED_SEEDS
        for case in range(CASES_PER_SEED)
    ]
    assert {s.ordering for s in scenarios} == {"fair", "edf", "least-laxity"}
    assert any(s.fault_plan is not None for s in scenarios)
    assert any(s.fault_plan is None for s in scenarios)
    assert any(s.enforce_deadlines for s in scenarios)
    assert any(s.max_preemptions > 0 for s in scenarios)
    assert any(s.max_batch > 1 for s in scenarios)
