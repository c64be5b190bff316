"""Scale-out (multi-array) partitioning — Eq. 3's ``P_R x P_C`` grid.

Scale-out execution replaces one monolithic array with a grid of ``P_R x
P_C`` smaller arrays working on disjoint shares of the mapped spatial
dimensions (Eq. 3 of the paper): each array receives ``ceil(S_R / P_R) x
ceil(S_C / P_C)`` of the spatial extent and processes its share exactly like
a scale-up array.  :func:`scale_out_reduce` runs each share through a
caller-supplied share runner — the accelerator façades
(:meth:`repro.api._AcceleratorBase._execute`) pass
:func:`repro.engine.batched.execute_gemm` or the cycle-engine tile loop —
and reduces the shares into one :class:`~repro.engine.batched.GemmExecution`.

What the spatial shares mean depends on the dataflow (Table 1):

* **OS** (``S_R = M``, ``S_C = N``): the grid partitions the *output*; each
  array produces a disjoint output block and no cross-array reduction is
  needed.
* **WS** (``S_R = K``, ``S_C = M``) / **IS** (``S_R = K``, ``S_C = N``): the
  grid rows partition the *reduction* dimension, so the ``P_R`` arrays of a
  grid column produce partial sums for the same output band that are
  reduced in ascending grid-row order (matching the ascending-``K``
  accumulation contract of the scale-up engines, so ``exact=True`` remains
  bit-stable and ``P_R = P_C = 1`` is bit-identical to scale-up execution).

The arrays run in parallel, so the aggregate ``total_cycles`` is the
*makespan* — the maximum share runtime — while the work counters (MACs,
zero-gated MACs, active PE-cycles, tiles) sum over the grid.  When the
extent does not fill the grid, trailing arrays receive empty shares and sit
idle, contributing zero cycles and zero work.

Operands may carry leading batch axes (``(..., M, K)`` and ``(..., K, N)``,
the same leading shape on both): every GEMM of the batch has the same
shape, so the shares, the cycles and the counters are those of one GEMM,
and only the output keeps the batch axes.  The serving layer's stacked
batches (:func:`repro.serve.scheduler.run_batch`) run through the same
reduction as a single ``run_gemm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.arch.dataflow import Dataflow
from repro.arch.tiling import partition_spans
from repro.engine.batched import GemmExecution, TileGroup, _check_operands


@dataclass(frozen=True)
class PartitionShare:
    """One array's share of a scale-out GEMM.

    ``out_rows`` / ``out_cols`` are ``(start, size)`` spans locating the
    share's partial result in the full output (its last two axes);
    ``reduces`` is True when the share produces partial sums that must be
    accumulated (WS/IS grid rows) rather than a disjoint output block (OS).
    ``a`` and ``b`` are views of the operands, leading batch axes included.
    """

    grid_row: int
    grid_col: int
    a: np.ndarray
    b: np.ndarray
    out_rows: tuple[int, int]
    out_cols: tuple[int, int]
    reduces: bool


def iter_partition_share_shapes(
    m: int, k: int, n: int, dataflow: Dataflow, p_r: int, p_c: int
) -> Iterator[tuple[int, int, int]]:
    """Yield each non-empty share's ``(M, K, N)`` GEMM shape, no operands.

    The shape-only twin of :func:`iter_partition_shares` (same spans, same
    skip rule, same order) for callers that need Eq. 3 geometry without
    data — e.g. the serving scheduler's makespan planning
    (:func:`repro.serve.scheduler.planned_gemm_cycles`).  Keeping it next
    to the operand iterator is what stops the two from drifting apart.

    >>> from repro.arch.dataflow import Dataflow
    >>> list(iter_partition_share_shapes(
    ...     6, 4, 6, Dataflow.OUTPUT_STATIONARY, 2, 2))
    [(3, 4, 3), (3, 4, 3), (3, 4, 3), (3, 4, 3)]
    """
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        row_spans, col_spans = partition_spans(m, p_r), partition_spans(n, p_c)
    elif dataflow is Dataflow.WEIGHT_STATIONARY:
        row_spans, col_spans = partition_spans(k, p_r), partition_spans(m, p_c)
    else:
        row_spans, col_spans = partition_spans(k, p_r), partition_spans(n, p_c)
    for _, rs in row_spans:
        for _, cs in col_spans:
            if rs == 0 or cs == 0:
                continue
            if dataflow is Dataflow.OUTPUT_STATIONARY:
                yield (rs, k, cs)
            elif dataflow is Dataflow.WEIGHT_STATIONARY:
                yield (cs, rs, n)
            else:
                yield (m, rs, cs)


def iter_partition_shares(
    a: np.ndarray, b: np.ndarray, dataflow: Dataflow, p_r: int, p_c: int
) -> Iterator[PartitionShare]:
    """Yield each array's operand share of an Eq. 3 scale-out partitioning.

    Shares are yielded in grid-row-major order with ascending grid rows, so
    accumulating the reducing shares (WS/IS) in iteration order reproduces
    the ascending-``K`` accumulation contract.  Empty shares (grids larger
    than the spatial extent) are skipped.  Leading batch axes of ``a`` and
    ``b`` pass through to every share's views.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    _check_operands(a, b)
    m, k = a.shape[-2:]
    n = b.shape[-1]
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        row_spans, col_spans = partition_spans(m, p_r), partition_spans(n, p_c)
    elif dataflow is Dataflow.WEIGHT_STATIONARY:
        row_spans, col_spans = partition_spans(k, p_r), partition_spans(m, p_c)
    else:
        row_spans, col_spans = partition_spans(k, p_r), partition_spans(n, p_c)
    for grid_row, (r0, rs) in enumerate(row_spans):
        for grid_col, (c0, cs) in enumerate(col_spans):
            if rs == 0 or cs == 0:
                continue
            if dataflow is Dataflow.OUTPUT_STATIONARY:
                yield PartitionShare(
                    grid_row, grid_col,
                    a[..., r0 : r0 + rs, :], b[..., :, c0 : c0 + cs],
                    (r0, rs), (c0, cs), reduces=False,
                )
            elif dataflow is Dataflow.WEIGHT_STATIONARY:
                yield PartitionShare(
                    grid_row, grid_col,
                    a[..., c0 : c0 + cs, r0 : r0 + rs], b[..., r0 : r0 + rs, :],
                    (c0, cs), (0, n), reduces=True,
                )
            else:
                yield PartitionShare(
                    grid_row, grid_col,
                    a[..., :, r0 : r0 + rs], b[..., r0 : r0 + rs, c0 : c0 + cs],
                    (0, m), (c0, cs), reduces=True,
                )


def scale_out_reduce(
    a: np.ndarray,
    b: np.ndarray,
    dataflow: Dataflow,
    partitions_rows: int,
    partitions_cols: int,
    run_share: Callable[[np.ndarray, np.ndarray], GemmExecution],
) -> GemmExecution:
    """Partition a GEMM per Eq. 3, run each share, reduce the results.

    ``run_share(a_share, b_share) -> GemmExecution`` executes one array's
    work; this function owns the Eq. 3 aggregation contract shared by every
    engine and by the serving layer's stacked batches — output
    scatter/accumulation (``+=`` per share, in iteration order), makespan
    cycles, summed work counters, the shares' tile groups concatenated in
    grid-row-major order — so none of them can drift apart.  With a
    ``1 x 1`` grid the single share's execution passes through untouched
    (bit-identical to scale-up execution, including the last-ulp bits of
    the fast path).  With leading batch axes on the operands,
    ``run_share`` receives the batched share views and returns the
    batched output with the counters of one GEMM.

    >>> import numpy as np
    >>> from repro.engine.batched import execute_gemm
    >>> def run_share(a_share, b_share):
    ...     return execute_gemm(a_share, b_share, 8, 8)
    >>> a, b = np.ones((12, 5)), np.ones((5, 10))
    >>> grid = scale_out_reduce(a, b, Dataflow.OUTPUT_STATIONARY, 2, 2, run_share)
    >>> bool(np.array_equal(grid.output, a @ b)), grid.tile_count, len(grid.groups)
    (True, 4, 4)
    """
    if partitions_rows <= 0 or partitions_cols <= 0:
        raise ValueError("partition counts must be positive")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_operands(a, b)
    m, k = a.shape[-2:]
    n = b.shape[-1]
    if m == 0 or k == 0 or n == 0:
        raise ValueError(f"GEMM dimensions must be positive, got M={m}, K={k}, N={n}")

    if partitions_rows == 1 and partitions_cols == 1:
        return run_share(a, b)

    output = np.zeros((*a.shape[:-2], m, n), dtype=np.float64)
    total_cycles = mac_count = gated_macs = active_pe_cycles = tile_count = 0
    groups: tuple[TileGroup, ...] = ()
    for share in iter_partition_shares(a, b, dataflow, partitions_rows, partitions_cols):
        execution = run_share(share.a, share.b)
        r0, rs = share.out_rows
        c0, cs = share.out_cols
        output[..., r0 : r0 + rs, c0 : c0 + cs] += execution.output
        total_cycles = max(total_cycles, execution.total_cycles)
        mac_count += execution.mac_count
        gated_macs += execution.gated_macs
        active_pe_cycles += execution.active_pe_cycles
        tile_count += execution.tile_count
        groups += execution.groups
    return GemmExecution(
        output=output,
        total_cycles=total_cycles,
        macs=m * n * k,
        mac_count=mac_count,
        gated_macs=gated_macs,
        active_pe_cycles=active_pe_cycles,
        tile_count=tile_count,
        groups=groups,
        dataflow=dataflow,
    )
