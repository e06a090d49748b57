"""The simulator's hot array kernels — one numpy kernel module.

Every hot numpy idiom of the array core, the batched routers and the CC
column kernels (scatter-adds, segment reductions, the path-signal walk,
weighted choice, row gathers/scatters, masked selects and divides) is a
named kernel on :class:`NumpyBackend`.  The call sites hold the one shared
instance returned by :func:`get_backend` and look each kernel up at call
time, so an instance-level wrapper (a tracer, a profiler) sees every call.

Segment layout: ``(values, starts, lengths)`` is the CSR layout of
:mod:`repro.simulator.incidence` — segment ``i`` is
``values[starts[i] : starts[i] + lengths[i]]``.  Empty segments reduce to
the op identity (``sum`` → 0, ``prod`` → 1, ``min`` → +inf, ``max`` →
-inf).  ``sum`` and ``prod`` accumulate strictly left to right inside each
segment (the bit-identity contract of the fluid feedback path); ``min``
and ``max`` are order-exact, so they may associate freely.

Three geometry tiers, each bit-identical to the next:

* **uniform-length fast path** — every segment has the same length ``L``
  and segment ``i`` starts at ``i * L`` (the testbed geometry, where all
  candidate paths have equal hop count): the lane array reshapes to
  ``(segments, L)`` and the reductions run column by column over
  contiguous strides.  Column order equals hop order, so the left-to-right
  association is preserved;
* **masked-walk fallback** — ragged lengths (bso13, generated fabrics):
  one masked gather per hop position, same association order;
* **loop oracle** — :meth:`NumpyBackend._segment_reduce_loop`, a naive
  per-segment loop that handles any CSR geometry (permuted or overlapping
  starts); it is the degenerate-geometry fallback and the reference the
  kernel-parity tests compare every kernel against.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["NumpyBackend", "get_backend"]

#: op name -> (numpy ufunc, identity) for :meth:`NumpyBackend.segment_reduce`
_REDUCE_OPS: Dict[str, Tuple[np.ufunc, float]] = {
    "sum": (np.add, 0.0),
    "prod": (np.multiply, 1.0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


def _csr_contiguous(n_lanes: int, starts, lengths) -> bool:
    """True when segments tile ``[0, n_lanes)`` back to back in order."""
    if len(starts) == 0:
        return n_lanes == 0
    if starts[0] != 0 or starts[-1] + lengths[-1] != n_lanes:
        return False
    return bool(np.array_equal(starts[1:], starts[:-1] + lengths[:-1]))


def _uniform_length(n_lanes: int, starts, lengths) -> Optional[int]:
    """The common segment length, if all segments tile the lanes uniformly.

    Returns:
        The shared positive length ``L`` when every segment has length
        ``L`` and segment ``i`` starts at ``i * L`` (so the lane array
        reshapes to ``(len(starts), L)``); None otherwise.
    """
    n = len(starts)
    if n == 0 or not len(lengths):
        return None
    first = int(lengths[0])
    if first <= 0 or n * first != n_lanes:
        return None
    if not (lengths == first).all():
        return None
    # uniform lengths + matching total size still allows permuted starts;
    # the tiled layout additionally needs starts[i] == i * first
    if starts[0] != 0 or starts[-1] != (n - 1) * first:
        return None
    if not np.array_equal(starts, np.arange(n, dtype=starts.dtype) * first):
        return None
    return first


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

    def segment_reduce(self, values, starts, lengths, op: str) -> np.ndarray:
        """Reduce each CSR segment of ``values`` with ``op``.

        Uniform geometry takes the reshape fast path.  Otherwise ``min`` /
        ``max`` use ``reduceat`` when the CSR is contiguous with no empty
        segments (the incidence structure's geometry), and ``sum`` /
        ``prod`` use the masked walk (``reduceat``'s intra-segment
        association is unspecified).  Anything else goes to the loop.

        Args:
            values: lane array (float64).
            starts: segment start offsets into ``values``.
            lengths: segment lengths (empty segments allowed).
            op: ``"sum"`` | ``"prod"`` | ``"min"`` | ``"max"``.

        Returns:
            One reduced float64 value per segment; empty segments yield
            the op identity.
        """
        values = np.asarray(values)
        starts = np.asarray(starts)
        lengths = np.asarray(lengths)
        if op not in _REDUCE_OPS:
            raise ValueError(f"unknown segment_reduce op {op!r}")
        if len(starts) == 0:
            return np.empty(0, dtype=np.float64)
        width = _uniform_length(len(values), starts, lengths)
        if width is not None:
            return self._reduce_columns(values.reshape(len(starts), width), op)
        if op in ("sum", "prod"):
            return self._segment_walk(values, starts, lengths, op)
        if (lengths > 0).all() and _csr_contiguous(len(values), starts, lengths):
            return _REDUCE_OPS[op][0].reduceat(values, starts)
        return self._segment_reduce_loop(values, starts, lengths, op)

    @staticmethod
    def _reduce_columns(grid: np.ndarray, op: str) -> np.ndarray:
        """Row-wise reduction of a ``(segments, L)`` grid, column by column.

        Starts from the op identity, as the walk does (a first-column copy
        would diverge on signed zeros).  Numpy's strided axis-1 reduce
        (``grid.min(axis=1)``) is ~20x slower at hop-count-sized rows.
        """
        ufunc, identity = _REDUCE_OPS[op]
        out = np.full(grid.shape[0], identity)
        for k in range(grid.shape[1]):
            ufunc(out, grid[:, k], out=out)
        return out

    @staticmethod
    def _segment_walk(values, starts, lengths, op: str) -> np.ndarray:
        """Masked positional walk: exact left-to-right association."""
        n = len(starts)
        out = np.zeros(n) if op == "sum" else np.ones(n)
        if n == 0 or not lengths.size or int(lengths.max()) == 0:
            return out
        for k in range(int(lengths.max())):
            sel = np.flatnonzero(lengths > k)
            lane = values[starts[sel] + k]
            if op == "sum":
                out[sel] += lane
            else:
                out[sel] *= lane
        return out

    @staticmethod
    def _segment_reduce_loop(values, starts, lengths, op: str) -> np.ndarray:
        """Naive per-segment loop — well-defined for any CSR geometry."""
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
        """Expand one value per segment into its lanes (``np.repeat``)."""
        return np.repeat(values, lengths)

    def path_signals(
        self, idx, starts, lengths, not_marked_links, delay_links
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-segment ECN-survival product and queue-delay sum.

        Equivalent to ``segment_reduce(not_marked_links[idx], …, "prod")``
        and ``segment_reduce(delay_links[idx], …, "sum")`` fused into one
        pass, preserving the strict left-to-right accumulation order of
        the scalar feedback loop (the bit-identity contract — see
        :meth:`~repro.simulator.fluid.FluidSimulation._update_step_scalar`).

        Returns:
            ``(not_marked, queue_delay)`` float64 arrays, one entry per
            segment (identity 1.0 / 0.0 for empty segments).
        """
        num_flows = len(starts)
        not_marked = np.ones(num_flows)
        queue_delay = np.zeros(num_flows)
        if not num_flows or not len(lengths):
            return not_marked, queue_delay
        width = _uniform_length(len(idx), starts, lengths)
        if width is not None:
            grid = idx.reshape(num_flows, width)
            for k in range(width):
                hop = grid[:, k]
                not_marked *= not_marked_links[hop]
                queue_delay += delay_links[hop]
            return not_marked, queue_delay
        for k in range(int(np.max(lengths))):
            sel = np.flatnonzero(lengths > k)
            link = idx[starts[sel] + k]
            not_marked[sel] *= not_marked_links[link]
            queue_delay[sel] += delay_links[link]
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
