"""The simulator's hot array kernels — one numpy kernel module.

Every hot numpy idiom of the array core, the batched routers and the CC
column kernels (scatter-adds, segment reductions, the path-signal walk,
weighted choice, row gathers/scatters, masked selects and divides) is a
named kernel on :class:`NumpyBackend`.  The call sites hold the one shared
instance returned by :func:`get_backend` and look each kernel up at call
time, so an instance-level wrapper (a tracer, a profiler) sees every call.

Path geometry: the per-path kernels take one ``(rows, width)`` grid, row
``i`` holding path ``i``'s lanes in hop order (see
:mod:`repro.simulator.incidence`, whose padded hop matrix builds it).  A
path shorter than ``width`` is padded after its last real hop with a lane
that holds the reduction's identity, so every geometry, uniform or
ragged, reduces the same way: column by column, one whole-array ufunc per
hop position.  Column order is hop order, so ``sum`` and ``prod``
accumulate strictly left to right inside each row (the bit-identity
contract of the fluid feedback path); ``min`` and ``max`` are order-exact.

:meth:`NumpyBackend._segment_reduce_loop` is the parity oracle: a naive
per-segment loop over the CSR layout ``(values, starts, lengths)``
(segment ``i`` is ``values[starts[i] : starts[i] + lengths[i]]``) that the
kernel-parity tests compare every grid kernel against.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["NumpyBackend", "get_backend"]

#: op name -> (numpy ufunc, identity) for :meth:`NumpyBackend.segment_reduce`
_REDUCE_OPS: Dict[str, Tuple[np.ufunc, float]] = {
    "sum": (np.add, 0.0),
    "prod": (np.multiply, 1.0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


class NumpyBackend:
    """The simulator's nine hot kernels over numpy arrays.

    Kernels are pure: they never mutate their inputs (``scatter_rows``
    mutates its explicitly-named output column, nothing else).  Values are
    ``float64``, indices ``intp``/``int64``.
    """

    def scatter_add(self, size: int, idx, values) -> np.ndarray:
        """Dense float64 accumulation: ``out[idx[k]] += values[k]``.

        ``np.bincount`` accumulates duplicate indices sequentially in input
        order (the per-link offered-load contract: lane order == scalar
        dict order), exactly like ``np.add.at``, and is faster.
        """
        if not len(idx):
            return np.zeros(size)
        return np.bincount(idx, weights=values, minlength=size)

    def segment_reduce(self, grid, op: str) -> np.ndarray:
        """Reduce each row of a ``(rows, width)`` lane grid with ``op``.

        Runs column by column from the op identity, as the loop oracle
        does (a first-column copy would diverge on signed zeros).  Numpy's
        strided axis-1 reduce (``grid.min(axis=1)``) is ~20x slower at
        hop-count-sized rows.

        A short row's padding lanes must leave its result unchanged: the op
        identity, or for ``min``/``max`` any value on the far side of every
        real lane (1.0 pads a minimum of scale factors in ``[0, 1]``).
        For ``sum`` a +0.0 padding lane is exact even after a -0.0 real
        lane: the accumulator starts at +0.0, and under round-to-nearest
        ``x + y`` is -0.0 only when both are -0.0, so it never holds -0.0
        and ``acc + 0.0 == acc`` bit for bit.

        Args:
            grid: float64 lanes, one row per path in hop order.
            op: ``"sum"`` | ``"prod"`` | ``"min"`` | ``"max"``.

        Returns:
            One reduced float64 value per row; a width-0 grid yields the
            op identity.
        """
        if op not in _REDUCE_OPS:
            raise ValueError(f"unknown segment_reduce op {op!r}")
        ufunc, identity = _REDUCE_OPS[op]
        out = np.full(grid.shape[0], identity)
        for k in range(grid.shape[1]):
            ufunc(out, grid[:, k], out=out)
        return out

    @staticmethod
    def _segment_reduce_loop(values, starts, lengths, op: str) -> np.ndarray:
        """Naive per-segment loop over a CSR layout — the parity oracle."""
        ufunc, identity = _REDUCE_OPS[op]
        values = np.asarray(values, dtype=np.float64)
        starts = np.asarray(starts)
        lengths = np.asarray(lengths)
        out = np.full(len(starts), identity, dtype=np.float64)
        for i in range(len(starts)):
            acc = identity
            for k in range(int(lengths[i])):
                acc = ufunc(acc, values[starts[i] + k])
            out[i] = acc
        return out

    def expand_segments(self, values, lengths) -> np.ndarray:
        """Expand one value per segment into its lanes (``np.repeat``).

        ``lengths`` is a lane count per segment, or one count for every
        segment (a grid's width).
        """
        return np.repeat(values, lengths)

    def path_signals(
        self, grid, not_marked_links, delay_links
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-path ECN-survival product and queue-delay sum.

        Equivalent to ``segment_reduce(not_marked_links[grid], "prod")``
        and ``segment_reduce(delay_links[grid], "sum")`` fused into one
        column walk, so each path's product and sum associate strictly
        left to right, exactly like the scalar loop of
        :meth:`~repro.simulator.fluid.FluidSimulation._feedback_for` (the
        bit-identity contract).  ``np.multiply.reduceat`` /
        ``np.add.reduceat`` are *not* usable here: their intra-segment
        association is unspecified (numpy may block the reduction), which
        lands one ulp away from the scalar result on some queue patterns.

        Args:
            grid: ``(rows, width)`` link indices, one path per row in hop
                order; a short path is padded after its last hop with a
                link whose not-marked value is 1.0 and delay +0.0 (exact,
                signed zeros included — see :meth:`segment_reduce`).
            not_marked_links: per-link ECN survival probability.
            delay_links: per-link queueing delay.

        Returns:
            ``(not_marked, queue_delay)`` float64 arrays, one entry per row.
        """
        rows, width = grid.shape
        not_marked = np.ones(rows)
        queue_delay = np.zeros(rows)
        for k in range(width):
            hop = grid[:, k]
            not_marked *= not_marked_links[hop]
            queue_delay += delay_links[hop]
        return not_marked, queue_delay

    def weighted_choice_searchsorted(self, cumulative, points) -> np.ndarray:
        """Map uniform draws to weighted candidate indices.

        ``cumulative`` is the inclusive cumulative weight table of the
        candidates; each point lands in the first bucket whose cumulative
        weight reaches it (``side="left"``), clamped to the last candidate
        so cumulative-rounding at the top of the table cannot fall off the
        end.  Returns ``intp`` indices.
        """
        idx = np.searchsorted(cumulative, points, side="left")
        return np.minimum(idx, len(cumulative) - 1).astype(np.intp)

    def gather_rows(self, column, rows) -> np.ndarray:
        """Fancy-indexed gather ``column[rows]``."""
        return column[rows]

    def scatter_rows(self, column, rows, values) -> None:
        """Fancy-indexed scatter ``column[rows] = values`` (in place)."""
        column[rows] = values

    def masked_where(self, cond, a, b) -> np.ndarray:
        """Element-wise select ``where(cond, a, b)``."""
        return np.where(cond, a, b)

    def masked_divide(self, num, den, mask) -> np.ndarray:
        """``num / den`` where ``mask``, exactly 0.0 elsewhere.

        The masked lanes never execute the division (the
        ``np.divide(out=, where=)`` idiom), so zero or dead denominators
        raise no warnings and contribute exact zeros.
        """
        out = np.zeros(np.broadcast(num, den).shape)
        np.divide(num, den, out=out, where=mask)
        return out


_NUMPY = NumpyBackend()


def get_backend(name: str) -> NumpyBackend:
    """The shared kernel instance every call site uses.

    Raises:
        ValueError: for any name but ``"numpy"``.
    """
    if name != "numpy":
        raise ValueError(f"unknown array backend {name!r} (only 'numpy' exists)")
    return _NUMPY
