"""Cycle-accurate conventional systolic array, weight- and input-stationary.

In the stationary dataflows one operand is pre-loaded into the PE grid and
held there; the other operand streams through the array while partial sums
propagate down the columns and leave from the bottom row.

Mapping convention (matching Table 1 of the paper)
--------------------------------------------------
For a GEMM ``(M, K) x (K, N)``:

* **Weight stationary (WS)** — the ``K x N`` weight matrix is *held*; but the
  paper maps the array's spatial dimensions as ``S_R = K``, ``S_C = M`` and
  streams over ``T = N``.  Functionally this corresponds to holding the
  *transposed input* ``A^T`` (``K x M``) and streaming weight columns; the
  runtime is symmetric in ``M`` and ``N`` so both interpretations produce the
  same cycle count ``2K + M + N - 2``, and the simulator always produces the
  numerically correct ``A @ B``.
* **Input stationary (IS)** — ``S_R = K``, ``S_C = N``, ``T = M``.

The simulator models the three phases explicitly:

1. *Preload*: ``S_R`` cycles to shift the stationary operand into the array.
2. *Stream*: the moving operand enters the left edge skewed by its row index;
   partial sums move down one row per cycle and exit at the bottom.
3. The drain of the final skewed outputs is part of the streaming tail, so the
   total is ``S_R (preload) + (S_R + S_C + T - 2) (stream+drain)``
   ``= 2*S_R + S_C + T - 2`` — identical to Eq. 1 with the Table 1 mapping.

Accumulation-order contract
---------------------------
Partial sums enter each array column at row 0 and move down one row per
cycle, so every output element is accumulated in **ascending stationary-row
order** (``r = 0 .. S_R-1``).  The simulator performs the additions in
exactly that order; it is part of the golden contract that the
``"wavefront-exact"`` engine (:func:`repro.engine.batched.execute_gemm`
with ``exact=True``, accumulating through
:func:`repro.engine.wavefront.sequential_matmul`) reproduces bit-for-bit.
This simulator is the cycle-level reference the engine test-suite
cross-validates against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.array_config import ArrayConfig
from repro.arch.dataflow import Dataflow


@dataclass
class StationaryRunResult:
    """Result of one WS/IS tile execution.

    Attributes
    ----------
    output:
        The ``(M, N)`` result matrix.
    total_cycles:
        Preload + stream + drain cycles.
    preload_cycles:
        Cycles spent loading the stationary operand.
    stream_cycles:
        Cycles from the first moving-operand injection until the last output
        element leaves the array.
    mac_count:
        Total multiply-accumulates performed.
    active_pe_cycles:
        Sum over stream cycles of the number of PEs doing useful work.
    """

    output: np.ndarray
    total_cycles: int
    preload_cycles: int
    stream_cycles: int
    mac_count: int
    active_pe_cycles: int

    def utilization(self, num_pes: int) -> float:
        """Fraction of PE-cycles performing useful MACs over the whole run."""
        if num_pes <= 0 or self.total_cycles <= 0:
            return 0.0
        return self.active_pe_cycles / (num_pes * self.total_cycles)


class ConventionalStationaryArray:
    """Cycle-level simulator for the WS and IS dataflows."""

    def __init__(self, config: ArrayConfig, dataflow: Dataflow):
        if dataflow is Dataflow.OUTPUT_STATIONARY:
            raise ValueError(
                "use ConventionalOSArray for the output-stationary dataflow"
            )
        self.config = config
        self.dataflow = dataflow

    def run_tile(self, a: np.ndarray, b: np.ndarray) -> StationaryRunResult:
        """Run one GEMM tile ``a @ b`` under the configured dataflow."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError("operands must be 2-D with agreeing inner dimensions")
        m, k = a.shape
        _, n = b.shape
        rows, cols = self.config.rows, self.config.cols

        if self.dataflow is Dataflow.WEIGHT_STATIONARY:
            # Stationary: A^T laid out K x M; moving: columns of B over T = N.
            stationary = a.T  # (K, M)
            moving = b  # (K, N) streamed column by column
            s_r, s_c, temporal = k, m, n
        else:  # INPUT_STATIONARY
            # Stationary: B laid out K x N; moving: rows of A over T = M.
            stationary = b  # (K, N)
            moving = a.T  # (K, M) streamed column by column
            s_r, s_c, temporal = k, n, m

        if s_r > rows or s_c > cols:
            raise ValueError(
                f"tile with spatial footprint {s_r}x{s_c} does not fit a "
                f"{rows}x{cols} array; use repro.arch.tiling"
            )

        preload_cycles = s_r

        # Streaming phase.  The moving operand's element for temporal index t
        # and stationary row r enters edge PE(r, 0)... in hardware; here we
        # simulate the per-column accumulation wavefront.  PE(r, c) computes
        # moving[r, t] * stationary[r, c] at stream cycle t + r + c and adds
        # the partial sum arriving from PE(r-1, c), so each output element is
        # accumulated in ascending row order (the accumulation-order contract
        # of the module docstring).  The output for temporal index t and
        # column c leaves the bottom of column c at stream cycle
        # t + (s_r - 1) + c, one cycle after the last MAC of that column.
        out_temporal_major = np.zeros((temporal, s_c))
        mac_count = 0
        active_pe_cycles = 0
        for t in range(temporal):
            acc = np.zeros(s_c)
            for r in range(s_r):
                acc = acc + moving[r, t] * stationary[r]
            out_temporal_major[t] = acc
            mac_count += s_r * s_c
            active_pe_cycles += s_r * s_c

        # Stream cycles: the last output element (t = T-1, c = S_C-1) leaves at
        # stream cycle (T - 1) + (S_R - 1) + (S_C - 1), i.e. after
        # S_R + S_C + T - 2 cycles.
        stream_cycles = s_r + s_c + temporal - 2
        total_cycles = preload_cycles + stream_cycles

        if self.dataflow is Dataflow.WEIGHT_STATIONARY:
            # out_temporal_major is (N, M): output column n over temporal t.
            output = out_temporal_major.T  # (M, N)
        else:
            # IS: temporal is M, columns are N.
            output = out_temporal_major  # (M, N)

        return StationaryRunResult(
            output=output,
            total_cycles=total_cycles,
            preload_cycles=preload_cycles,
            stream_cycles=stream_cycles,
            mac_count=mac_count,
            active_pe_cycles=active_pe_cycles,
        )

    def expected_cycles(self, m: int, k: int, n: int) -> int:
        """Analytical cycle count (Eq. 1 with the Table 1 mapping)."""
        if self.dataflow is Dataflow.WEIGHT_STATIONARY:
            return 2 * k + m + n - 2
        return 2 * k + n + m - 2
