"""Per-tenant FIFO queues, weighted-fair dequeue and priced admission.

Two policies live here, deliberately separated from the dispatcher:

* :class:`AdmissionController` — prices every incoming job through the
  pricer callable the scheduler provides (the Eq. 2/3 estimate, computed
  once per job shape and worker class) and holds each tenant to an
  optional cycle budget.  Over-budget tenants are either rejected outright
  or *deprioritized* — their jobs drop to a background backlog that only
  runs when every in-budget queue is empty.
* :class:`WeightedFairQueue` — per-tenant FIFO queues drained by
  start-time-fair virtual-time scheduling (stride scheduling): each tenant
  accrues virtual time at ``priced_cycles / weight`` per served job, and
  the non-empty tenant with the smallest virtual time is served next, so a
  tenant with weight 2 receives twice the service cycles of a tenant with
  weight 1 under backlog, and no tenant is ever starved.

Within a tenant the queue is FIFO except for the job ``priority`` field:
higher-priority jobs of the *same* tenant are served first (cross-tenant
ordering always stays with the fair scheduler, so priorities cannot be used
to steal another tenant's share).

Deadline-aware orderings (``ordering="edf"`` / ``"least-laxity"``) layer a
*deadline pool* on top: urgent entries (:attr:`QueuedJob.urgent`: hinted
jobs of latency-target tenants, within budget) are pulled out of the fair
rotation and served strictly first, ordered by absolute deadline (EDF) or
by laxity — ``deadline - now - priced_cycles``, re-evaluated at each
dequeue on the simulated clock.  Every other entry keeps weighted-fair
sharing, so deadline ordering never reshuffles the best-effort service
order.  Pool dequeues still charge the owning tenant's virtual time, so a
latency-target tenant's deadline-served cycles count against its fair
share wherever it also competes in the fair rotation.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Mapping

from repro.serve.job import SLO_BEST_EFFORT, SLO_LATENCY_TARGET, AnyJob

#: Admission policies for over-budget tenants.
POLICY_REJECT = "reject"
POLICY_DEPRIORITIZE = "deprioritize"
ADMISSION_POLICIES = (POLICY_REJECT, POLICY_DEPRIORITIZE)

#: Queue orderings.  ``fair`` is pure weighted-fair stride scheduling;
#: ``edf`` serves hinted latency-target jobs earliest-absolute-deadline
#: first; ``least-laxity`` serves them by remaining slack
#: (``deadline - now - priced_cycles``) instead.
ORDERING_FAIR = "fair"
ORDERING_EDF = "edf"
ORDERING_LEAST_LAXITY = "least-laxity"
ORDERINGS = (ORDERING_FAIR, ORDERING_EDF, ORDERING_LEAST_LAXITY)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of pricing one job against its tenant's budget."""

    admitted: bool
    deprioritized: bool
    priced_cycles: int


class AdmissionController:
    """Estimate-priced admission: price first, then run (or not).

    ``pricer`` maps a job to its estimated cycles — the scheduler wires it
    to :meth:`repro.serve.scheduler.AsyncGemmScheduler.price_job`, which
    computes each shape's estimate once, so an admission decision costs a
    lookup in the scheduler's memo rather than an execution.  ``budgets``
    maps tenants to total priced-cycle allowances; tenants absent from the
    mapping are unmetered.
    """

    def __init__(
        self,
        pricer: Callable[[AnyJob], int],
        budgets: Mapping[str, int] | None = None,
        policy: str = POLICY_DEPRIORITIZE,
    ) -> None:
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"expected one of {', '.join(ADMISSION_POLICIES)}"
            )
        self._pricer = pricer
        self._budgets = dict(budgets or {})
        self.policy = policy
        #: Priced cycles each tenant's admitted jobs have spent so far.
        self._spent: dict[str, int] = {}

    def admit(self, job: AnyJob) -> AdmissionDecision:
        """Price ``job`` and decide whether (and how) it may run.

        Admitted jobs — deprioritized ones included, since they do
        eventually execute — accrue against the tenant's budget; rejected
        jobs do not.
        """
        cost = int(self._pricer(job))
        spent = self._spent.get(job.tenant, 0)
        budget = self._budgets.get(job.tenant)
        over_budget = budget is not None and spent + cost > budget
        if over_budget and self.policy == POLICY_REJECT:
            return AdmissionDecision(False, False, cost)
        self._spent[job.tenant] = spent + cost
        return AdmissionDecision(True, over_budget, cost)


@dataclass(frozen=True)
class QueuedJob:
    """A job waiting in the fair queue, with its admission pricing.

    ``enqueued_cycle`` is the simulated instant the job entered the queue —
    its arrival cycle, the stream planner's horizon for jobs submitted
    late (:meth:`repro.serve.scheduler.AsyncGemmScheduler.submit`), or the
    failure cycle for a job requeued after a worker fault.  The batching
    window measures its deadline from this instant.  ``attempts`` counts
    dispatches that already failed under a fault plan (0 for a job that
    has never been dispatched); ``preemptions`` counts how many times the
    job was cut out of a not-yet-executed batch by a tighter-deadline
    arrival — preemption is not a retry, so the two never mix.  ``slo`` is
    the owning tenant's SLO class, looked up once at admission; shedding
    and the job's result read it, and :attr:`urgent` derives from it.
    """

    job: AnyJob
    priced_cycles: int
    deprioritized: bool = False
    enqueued_cycle: int = 0
    attempts: int = 0
    preemptions: int = 0
    slo: str = SLO_BEST_EFFORT

    @property
    def urgent(self) -> bool:
        """Whether the entry gets deadline service.

        The one urgency rule: a latency-target tenant's job with a
        deadline hint that is not deprioritized — blowing the admission
        budget forfeits deadline service.  Under a deadline ordering it
        decides who enters the queue's deadline pool and who places by
        laxity; with preemption on, it decides who may cut a batch.
        """
        return (
            self.slo == SLO_LATENCY_TARGET
            and self.job.deadline_hint_cycles is not None
            and not self.deprioritized
        )

    @property
    def deadline_cycle(self) -> int | None:
        """Absolute deadline on the simulated clock (None without a hint)."""
        hint = self.job.deadline_hint_cycles
        if hint is None:
            return None
        return self.job.arrival_cycle + hint

    def laxity(self, now: int) -> int | None:
        """Remaining slack at ``now``: deadline minus now minus priced work."""
        deadline = self.deadline_cycle
        if deadline is None:
            return None
        return deadline - now - self.priced_cycles

    @property
    def latest_start(self) -> int | None:
        """Last cycle a start still meets the deadline (None without a hint)."""
        deadline = self.deadline_cycle
        if deadline is None:
            return None
        return deadline - self.priced_cycles

    def lapsed(self, now: int) -> bool:
        """Whether the entry can no longer meet its deadline, even started now."""
        latest = self.latest_start
        return latest is not None and latest < now


@dataclass
class _TenantQueue:
    """One tenant's FIFO backlog plus its fair-share bookkeeping."""

    name: str
    weight: float
    jobs: deque[QueuedJob] = field(default_factory=deque)
    virtual_time: float = 0.0

    def push(self, entry: QueuedJob) -> None:
        """Append FIFO, but let higher-priority jobs of this tenant jump."""
        if entry.job.priority == 0 or not self.jobs:
            self.jobs.append(entry)
            return
        items = list(self.jobs)
        position = len(items)
        while position > 0 and items[position - 1].job.priority < entry.job.priority:
            position -= 1
        items.insert(position, entry)
        self.jobs = deque(items)

    def charge(self, priced_cycles: int) -> None:
        self.virtual_time += priced_cycles / self.weight


class WeightedFairQueue:
    """Weighted-fair multi-tenant queue with a deprioritized backlog.

    ``weights`` fixes each tenant's fair share (default 1.0; tenants appear
    lazily on first push).  Deprioritized jobs, regardless of tenant, go to
    a global FIFO backlog that is only served — and only batched from —
    once every in-budget queue is empty.

    With ``ordering="edf"`` or ``"least-laxity"``, urgent entries
    (:attr:`QueuedJob.urgent`) enter a *deadline pool* instead of their
    tenant's FIFO.  The pool is served with strict priority over the fair
    rotation, ordered by absolute deadline (EDF) or by laxity at the
    dequeue instant (least-laxity); within a common ``now`` the two differ
    only when priced costs differ.

    >>> import numpy as np
    >>> from repro.serve.job import Job
    >>> queue = WeightedFairQueue(weights={"acme": 2.0, "bob": 1.0})
    >>> for tenant in ("acme", "bob"):
    ...     queue.push(QueuedJob(
    ...         job=Job(job_id=tenant + "-0", tenant=tenant,
    ...                 a=np.eye(4), b=np.eye(4)),
    ...         priced_cycles=100))
    >>> len(queue)
    2
    >>> [entry.job.tenant for entry in queue.next_batch()]
    ['acme']

    EDF pulls a hinted latency-target job ahead of the fair rotation:

    >>> edf = WeightedFairQueue(ordering=ORDERING_EDF)
    >>> edf.push(QueuedJob(
    ...     job=Job(job_id="be-0", tenant="bulk", a=np.eye(4), b=np.eye(4)),
    ...     priced_cycles=100))
    >>> edf.push(QueuedJob(
    ...     job=Job(job_id="rt-0", tenant="rt", a=np.eye(4), b=np.eye(4),
    ...             deadline_hint_cycles=500),
    ...     priced_cycles=100, slo="latency-target"))
    >>> [entry.job.job_id for entry in edf.next_batch(max_batch=2)]
    ['rt-0', 'be-0']
    """

    def __init__(
        self,
        weights: Mapping[str, float] | None = None,
        *,
        ordering: str = ORDERING_FAIR,
    ) -> None:
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; "
                f"expected one of {', '.join(ORDERINGS)}"
            )
        self._weights = dict(weights or {})
        for tenant, weight in self._weights.items():
            if weight <= 0:
                raise ValueError(f"tenant {tenant!r} weight must be > 0, got {weight}")
        self.ordering = ordering
        self._tenants: dict[str, _TenantQueue] = {}
        self._backlog: deque[QueuedJob] = deque()
        self._deadline_pool: list[QueuedJob] = []
        self._virtual_clock = 0.0
        self._queued_priced_cycles = 0
        # Lapse index over hinted entries: a min-heap of (latest start,
        # job id) and the ids still queued.  Entries that left the queue
        # are dropped lazily once they reach the top (:meth:`any_lapsed`).
        self._lapse_heap: list[tuple[int, str]] = []
        self._hinted_ids: set[str] = set()

    def _tenant(self, name: str) -> _TenantQueue:
        queue = self._tenants.get(name)
        if queue is None:
            queue = _TenantQueue(name=name, weight=self._weights.get(name, 1.0))
            self._tenants[name] = queue
        return queue

    def _pool_key(
        self, entry: QueuedJob, now: int
    ) -> tuple[int, int, int, str]:
        """Deadline-pool service order under the configured ordering.

        EDF keys on the absolute deadline; least-laxity on the remaining
        slack at ``now``.  Since every candidate shares the same ``now`` at
        a given dequeue, the two differ exactly when priced costs differ.
        Deadline, enqueue cycle and job id break ties deterministically.
        """
        deadline = entry.deadline_cycle
        assert deadline is not None  # only urgent entries enter the pool
        if self.ordering == ORDERING_LEAST_LAXITY:
            laxity = entry.laxity(now)
            assert laxity is not None
            primary = laxity
        else:
            primary = deadline
        return (primary, deadline, entry.enqueued_cycle, entry.job.job_id)

    def _pool_pop(self, now: int) -> QueuedJob:
        """Remove and return the tightest pool entry, charging its tenant."""
        index = min(
            range(len(self._deadline_pool)),
            key=lambda i: self._pool_key(self._deadline_pool[i], now),
        )
        entry = self._deadline_pool.pop(index)
        # Deadline service still accrues against the tenant's fair share,
        # but never advances the global virtual clock: best-effort tenants'
        # relative order must not depend on how much pool traffic passed.
        self._tenant(entry.job.tenant).charge(entry.priced_cycles)
        return entry

    def push(self, entry: QueuedJob) -> None:
        """Enqueue an admitted job."""
        self._queued_priced_cycles += entry.priced_cycles
        latest = entry.latest_start
        if latest is not None:
            heapq.heappush(self._lapse_heap, (latest, entry.job.job_id))
            self._hinted_ids.add(entry.job.job_id)
            if len(self._lapse_heap) > 2 * len(self._hinted_ids) + 64:
                # Entries that left the queue linger until they reach the
                # top, and without deadline enforcement nothing reads the
                # top: compact so the heap stays the size of the queue.
                self._lapse_heap = sorted(
                    {item for item in self._lapse_heap if item[1] in self._hinted_ids}
                )
        if self.ordering != ORDERING_FAIR and entry.urgent:
            self._deadline_pool.append(entry)
        elif entry.deprioritized:
            self._backlog.append(entry)
        else:
            queue = self._tenant(entry.job.tenant)
            if not queue.jobs:
                # A tenant returning from idle resumes at the current virtual
                # clock instead of its stale lag, so it cannot monopolize the
                # fleet to "catch up" on time it spent offering no load.
                queue.virtual_time = max(queue.virtual_time, self._virtual_clock)
            queue.push(entry)

    def __len__(self) -> int:
        return (
            sum(len(q.jobs) for q in self._tenants.values())
            + len(self._deadline_pool)
            + len(self._backlog)
        )

    def _active_tenants(self) -> list[_TenantQueue]:
        return [queue for queue in self._tenants.values() if queue.jobs]

    def _select_tenant(self) -> _TenantQueue | None:
        active = self._active_tenants()
        if not active:
            return None
        return min(active, key=lambda queue: (queue.virtual_time, queue.name))

    def total_priced_cycles(self) -> int:
        """Sum of priced cycles currently queued (backlog included).

        Maintained incrementally on push/dequeue so the dispatcher can
        consult it per batch without rescanning the backlog.
        """
        return self._queued_priced_cycles

    def peek_head(self, *, now: int = 0) -> QueuedJob | None:
        """The entry :meth:`next_batch` would serve next, without dequeuing.

        Follows the same selection rule — the deadline pool first (tightest
        entry at ``now``), then the non-empty in-budget tenant with the
        least virtual time, the deprioritized backlog otherwise — but
        charges nothing, so the dispatcher can inspect the head job's
        shape and queue-entry cycle (for batching-window deadlines and
        placement pricing) before committing to a dispatch.  Returns None
        on an empty queue.
        """
        if self._deadline_pool:
            return min(
                self._deadline_pool,
                key=lambda entry: self._pool_key(entry, now),
            )
        tenant = self._select_tenant()
        if tenant is not None:
            return tenant.jobs[0]
        if self._backlog:
            return self._backlog[0]
        return None

    def count_shape(self, shape: tuple[int, int, int]) -> int:
        """Queued jobs of the given GEMM shape that could share a batch now.

        An O(queue) scan the dispatcher uses to close a batching window
        early: once a full batch of the head's shape is waiting, there is
        nothing left to wait for.  Deprioritized backlog jobs only count
        when every in-budget queue is empty — :meth:`next_batch` cannot
        batch them otherwise, so counting them would close windows on
        mates the dispatch could not actually gather.
        """
        pooled = sum(
            1 for entry in self._deadline_pool if entry.job.shape == shape
        )
        active = self._active_tenants()
        if active:
            return pooled + sum(
                1
                for queue in active
                for entry in queue.jobs
                if entry.job.shape == shape
            )
        if pooled:
            return pooled
        return sum(1 for entry in self._backlog if entry.job.shape == shape)

    def any_lapsed(self, now: int) -> bool:
        """Whether some queued entry has lapsed at ``now``.

        The same rule as :meth:`QueuedJob.lapsed`, read off the lapse
        heap's top after popping entries that already left the queue:
        amortized O(log n) per pushed entry, where a :meth:`remove_matching`
        sweep walks the whole queue.
        """
        heap = self._lapse_heap
        while heap and heap[0][1] not in self._hinted_ids:
            heapq.heappop(heap)
        return bool(heap) and heap[0][0] < now

    def remove_matching(
        self, predicate: Callable[[QueuedJob], bool]
    ) -> list[QueuedJob]:
        """Remove and return every queued entry the predicate selects.

        Used by deadline enforcement (expire every lapsed job in one
        sweep) and by stream teardown.  Removal charges no virtual time —
        the work never ran — and the order of the returned list is
        deterministic: the deadline pool first (enqueue order, then id),
        tenants in name order, FIFO within each, the deprioritized backlog
        last.
        """
        removed: list[QueuedJob] = []
        kept_pool: list[QueuedJob] = []
        for entry in sorted(
            self._deadline_pool,
            key=lambda entry: (entry.enqueued_cycle, entry.job.job_id),
        ):
            (removed if predicate(entry) else kept_pool).append(entry)
        self._deadline_pool = kept_pool
        for name in sorted(self._tenants):
            queue = self._tenants[name]
            kept: deque[QueuedJob] = deque()
            for entry in queue.jobs:
                (removed if predicate(entry) else kept).append(entry)
            queue.jobs = kept
        kept_backlog: deque[QueuedJob] = deque()
        for entry in self._backlog:
            (removed if predicate(entry) else kept_backlog).append(entry)
        self._backlog = kept_backlog
        self._queued_priced_cycles -= sum(entry.priced_cycles for entry in removed)
        self._hinted_ids.difference_update(entry.job.job_id for entry in removed)
        return removed

    def pop_job(self, job_id: str) -> QueuedJob | None:
        """Remove one queued entry by job id (None when not queued).

        The cancellation primitive: a job that is still queued (or
        requeued after a fault) can be withdrawn; a job already inside a
        dispatched batch cannot.
        """
        removed = self.remove_matching(lambda entry: entry.job.job_id == job_id)
        return removed[0] if removed else None

    def pop_oldest(
        self, predicate: Callable[[QueuedJob], bool]
    ) -> QueuedJob | None:
        """Remove the oldest matching entry (by enqueue cycle, then id).

        The shedding victim selector: under overload the policy drops the
        longest-waiting entry of the sheddable class, which both frees
        the most-stale work and keeps the choice deterministic.
        """
        oldest = min(
            (
                entry
                for entry in chain(
                    self._deadline_pool,
                    self._backlog,
                    *(queue.jobs for queue in self._tenants.values()),
                )
                if predicate(entry)
            ),
            key=lambda entry: (entry.enqueued_cycle, entry.job.job_id),
            default=None,
        )
        if oldest is None:
            return None
        return self.pop_job(oldest.job.job_id)

    def next_batch(
        self,
        max_batch: int = 1,
        cycle_budget: int | None = None,
        *,
        now: int = 0,
    ) -> list[QueuedJob]:
        """Dequeue the next head-of-line job plus same-shape batch mates.

        The head job comes from the deadline pool when one is waiting
        (tightest entry at ``now`` under the configured ordering), else
        from the tenant with the least virtual time (or the backlog when
        every in-budget queue is empty).  Up to ``max_batch - 1`` further
        jobs of the *same GEMM shape* are then pulled — pool entries first
        in deadline order, then FIFO within each tenant, tenants visited in
        ascending virtual-time order, backlog last — and every tenant is
        charged virtual time for its own jobs, so batching never distorts
        the fair shares.  ``cycle_budget`` additionally stops the batch
        once its summed priced cycles reach the budget (the head job is
        always taken), letting the dispatcher keep one worker from
        hoarding work that siblings could start sooner.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if self._deadline_pool:
            head = self._pool_pop(now)
        else:
            head_tenant = self._select_tenant()
            if head_tenant is not None:
                head = head_tenant.jobs.popleft()
                head_tenant.charge(head.priced_cycles)
                self._virtual_clock = head_tenant.virtual_time
            elif self._backlog:
                head = self._backlog.popleft()
            else:
                raise IndexError("next_batch() on an empty queue")

        batch = [head]
        shape = head.job.shape
        spent = head.priced_cycles

        def room() -> bool:
            if len(batch) >= max_batch:
                return False
            return cycle_budget is None or spent < cycle_budget

        if max_batch > 1:
            mates = [
                entry
                for entry in sorted(
                    self._deadline_pool,
                    key=lambda entry: self._pool_key(entry, now),
                )
                if entry.job.shape == shape
            ]
            for entry in mates:
                if not room():
                    break
                self._deadline_pool.remove(entry)
                self._tenant(entry.job.tenant).charge(entry.priced_cycles)
                batch.append(entry)
                spent += entry.priced_cycles
            order = sorted(
                self._active_tenants(),
                key=lambda queue: (queue.virtual_time, queue.name),
            )
            for queue in order:
                if not room():
                    break
                kept: deque[QueuedJob] = deque()
                while queue.jobs and room():
                    entry = queue.jobs.popleft()
                    if entry.job.shape == shape:
                        batch.append(entry)
                        spent += entry.priced_cycles
                        queue.charge(entry.priced_cycles)
                    else:
                        kept.append(entry)
                kept.extend(queue.jobs)
                queue.jobs = kept
            if room() and not self._active_tenants() and not self._deadline_pool:
                kept_backlog: deque[QueuedJob] = deque()
                while self._backlog and room():
                    entry = self._backlog.popleft()
                    if entry.job.shape == shape:
                        batch.append(entry)
                        spent += entry.priced_cycles
                    else:
                        kept_backlog.append(entry)
                kept_backlog.extend(self._backlog)
                self._backlog = kept_backlog
        self._queued_priced_cycles -= sum(entry.priced_cycles for entry in batch)
        self._hinted_ids.difference_update(entry.job.job_id for entry in batch)
        return batch
