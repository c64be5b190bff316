"""Scale-out (multi-array) partitioning — Eq. 3's ``P_R x P_C`` grid.

Scale-out execution replaces one monolithic array with a grid of ``P_R x
P_C`` smaller arrays working on disjoint shares of the mapped spatial
dimensions (Eq. 3 of the paper): each array receives ``ceil(S_R / P_R) x
ceil(S_C / P_C)`` of the spatial extent and processes its share exactly like
a scale-up array.  :func:`iter_share_spans` is the one walk over the
shares: it yields each share's spans of M, K and N.
:func:`scale_out_reduce` slices the operands from those spans, runs each
share through a caller-supplied share runner — the accelerator façades
(:meth:`repro.api._AcceleratorBase._execute`) pass
:func:`repro.engine.batched.execute_gemm` or the cycle-engine tile loop —
and reduces the shares into one :class:`~repro.engine.batched.GemmExecution`.
Planning (:meth:`repro.api._AcceleratorBase.planned_gemm_cycles`) takes
the makespan over the same spans without touching operands.

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

from typing import Callable, Iterator

import numpy as np

from repro.arch.dataflow import Dataflow
from repro.arch.tiling import partition_spans
from repro.engine.batched import GemmExecution, TileGroup, _check_operands


#: A ``(start, size)`` span of one GEMM axis.
Span = tuple[int, int]

#: The two GEMM axes (0 = M, 1 = K, 2 = N) that Table 1 maps onto the array
#: rows (``S_R``) and columns (``S_C``) for each dataflow; Eq. 3 splits them
#: across the grid rows and columns.
_GRID_AXES = {
    Dataflow.OUTPUT_STATIONARY: (0, 2),
    Dataflow.WEIGHT_STATIONARY: (1, 0),
    Dataflow.INPUT_STATIONARY: (1, 2),
}


def iter_share_spans(
    m: int, k: int, n: int, dataflow: Dataflow, p_r: int, p_c: int
) -> Iterator[tuple[Span, Span, Span]]:
    """Yield each non-empty Eq. 3 share's ``(start, size)`` spans of M, K, N.

    The dataflow only picks which two axes the grid splits (Table 1's
    ``S_R`` and ``S_C``): OS splits M x N, WS splits K x M and IS splits
    K x N; the third axis stays whole.  Shares come in grid-row-major
    order with ascending grid rows, so accumulating the WS/IS shares
    (which split the reduction axis K) in iteration order reproduces the
    ascending-``K`` accumulation contract.  Arrays left idle by a grid
    larger than the extent get empty spans and are skipped.  Execution
    (:func:`scale_out_reduce`) slices operands from these spans and
    planning (:meth:`repro.api._AcceleratorBase.planned_gemm_cycles`)
    prices their shapes, so the two cannot drift apart.

    >>> from repro.arch.dataflow import Dataflow
    >>> list(iter_share_spans(6, 4, 5, Dataflow.WEIGHT_STATIONARY, 2, 1))
    [((0, 6), (0, 2), (0, 5)), ((0, 6), (2, 2), (0, 5))]
    """
    row_axis, col_axis = _GRID_AXES[dataflow]
    extents = (m, k, n)
    for row_span in partition_spans(extents[row_axis], p_r):
        for col_span in partition_spans(extents[col_axis], p_c):
            if row_span[1] == 0 or col_span[1] == 0:
                continue
            spans = [(0, m), (0, k), (0, n)]
            spans[row_axis], spans[col_axis] = row_span, col_span
            yield spans[0], spans[1], spans[2]


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
    for (m0, ms), (k0, ks), (n0, ns) in iter_share_spans(
        m, k, n, dataflow, partitions_rows, partitions_cols
    ):
        execution = run_share(
            a[..., m0 : m0 + ms, k0 : k0 + ks], b[..., k0 : k0 + ks, n0 : n0 + ns]
        )
        output[..., m0 : m0 + ms, n0 : n0 + ns] += execution.output
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
