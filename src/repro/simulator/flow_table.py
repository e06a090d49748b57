"""Structure-of-arrays FlowTable — array-resident per-flow state.

The array core runs every per-step operation as numpy math; to keep each
step from crossing the Python↔numpy boundary O(flows) times (per-object
gathers and writebacks), the :class:`FlowTable` makes contiguous numpy
columns the authoritative home of all mutable per-flow state while an
array run is in flight:

* **rows are stable slots** — a flow keeps its row for its whole lifetime;
  finished/failed flows return their slot to a free list for reuse and the
  column arrays double in capacity when the free list runs dry;
* **core columns** hold the state every flow has (``remaining_bytes``,
  ``base_rtt_s``, ``achieved_bps``, the disruption stamp and re-route
  wait state, feedback-line bookkeeping, the congestion controller's
  sending rate and feedback count, and the id of its congestion-control
  class);
* **per-CC-class column blocks** hold algorithm state: a congestion-control
  class that declares :attr:`~repro.congestion_control.base.CongestionControl
  .cc_columns` gets its own block of columns (state plus replicated static
  parameters), letting its feedback/advance kernels run as in-place masked
  array operations with no per-object gather/scatter;
* **one congestion-control dispatch** — :meth:`FlowTable.advance_cc` and
  :meth:`FlowTable.deliver_feedback` make one class-kernel call per class
  present in a row batch, grouped by the ``cc_class_id`` column; a table
  that has only ever held one class skips the grouping;
* **epochs guard slot reuse** — the feedback delay line stores slot indices,
  so each acquire bumps the row's epoch and delivery drops lanes whose
  epoch no longer matches (a signal headed to a finished flow must never
  reach the slot's next tenant).

One feedback delivery is one lane batch: the delay line merges the due
lanes of every generation, and :meth:`FlowTable.deliver_feedback` makes one
class-kernel call per class present — more only for the rare rows with
several signals due at once (per-row rank waves).

Ownership contract (see DESIGN.md, "Flow table"): :meth:`FlowTable.acquire`
copies a controller's rate, feedback count, state and parameters into the
row, and :meth:`FlowTable.release` copies the state back; no controller
method is called while its flow holds a row.  The
:class:`~repro.simulator.flow.Flow` itself stays a view while bound — its
properties read and write the row, because re-validation, re-routing,
failure handling and the scenario injector use them on both cores — and
release copies its final values back too.  The scalar reference path never
binds anything and keeps plain-attribute behaviour, bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

import numpy as np

from ..backend import get_backend
from .flow import Flow

__all__ = ["ColumnBlock", "FlowTable"]

#: canonical dtype of every core column — enforced once at construction
#: and growth time, so kernels (CC column blocks, the backend layer) can
#: rely on the dtypes without per-call ``np.asarray`` casts
_CORE_DTYPES: Dict[str, str] = {
    "remaining_bytes": "f8",
    "base_rtt_s": "f8",
    "achieved_bps": "f8",
    "disrupted_s": "f8",
    "feedback_live": "?",
    "feedback_lane": "i8",
    "cc_rate_bps": "f8",
    "feedback_count": "i8",
    "epoch": "i8",
    "path_id": "i8",
    "cc_class_id": "i8",
    "wait_version": "i8",
    "wait_epoch": "i8",
}

#: fill value of never-used rows, where it is not zero
_CORE_FILL = {
    "disrupted_s": np.nan,
    "path_id": -1,
    "cc_class_id": -1,
    "wait_version": -1,
    "wait_epoch": -1,
}


class ColumnBlock:
    """A named set of parallel columns owned by one congestion-control class.

    Column arrays are exposed as attributes (``block.alpha`` …) and always
    share the owning table's capacity; :class:`FlowTable` grows them in
    lockstep with the core columns.
    """

    def __init__(self, spec: Dict[str, str], capacity: int) -> None:
        self._spec = {
            name: np.dtype(dtype).str for name, dtype in spec.items()
        }
        for name, dtype in self._spec.items():
            if np.dtype(dtype) not in (
                np.dtype(np.float64),
                np.dtype(np.int64),
                np.dtype(bool),
            ):
                raise TypeError(
                    f"CC column {name!r} must be float64/int64/bool, "
                    f"got {dtype!r} — kernels rely on canonical dtypes "
                    "(no per-call casts)"
                )
            setattr(self, name, np.zeros(capacity, dtype=dtype))

    def _grow(self, capacity: int) -> None:
        for name, dtype in self._spec.items():
            grown = np.zeros(capacity, dtype=dtype)
            old = getattr(self, name)
            grown[: len(old)] = old
            setattr(self, name, grown)


def _delivery_ranks(rows: np.ndarray, deliver_s: np.ndarray) -> np.ndarray:
    """Each lane's delivery rank among the lanes addressed to its row.

    Lanes of one row are ordered by deliver time, ties by lane position
    (``np.lexsort`` is stable) — the scalar core's per-flow delivery order
    when lanes are laid out in enqueue order.
    """
    order = np.lexsort((deliver_s, rows))
    sorted_rows = rows[order]
    first = np.flatnonzero(np.r_[True, sorted_rows[1:] != sorted_rows[:-1]])
    group_start = np.repeat(first, np.diff(np.r_[first, len(order)]))
    ranks = np.empty(len(order), dtype=np.intp)
    ranks[order] = np.arange(len(order)) - group_start
    return ranks


class FlowTable:
    """Structure-of-arrays table of per-flow simulation state.

    Args:
        capacity: initial number of row slots (grows by doubling).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        #: the shared kernels the table's consumers (CC column kernels)
        #: dispatch through
        self.backend = get_backend("numpy")
        self._capacity = int(capacity)
        #: flow object occupying each slot (None = free)
        self._flows: List[Optional[object]] = [None] * self._capacity
        #: free slots, reused LIFO
        self._free: List[int] = []
        #: next never-used slot
        self._high_water = 0

        # --- core columns ---
        self.remaining_bytes = np.zeros(self._capacity)
        self.base_rtt_s = np.zeros(self._capacity)
        self.achieved_bps = np.zeros(self._capacity)
        #: NaN while the path is healthy, else the disruption timestamp —
        #: lets the re-validation sweep find previously disrupted flows
        #: with one ``isnan`` instead of a Python walk
        self.disrupted_s = np.full(self._capacity, np.nan)
        #: False once the flow left the active set; in-flight feedback
        #: addressed to the slot is dropped (mirrors the scalar path
        #: abandoning the flow's pending deque)
        self.feedback_live = np.zeros(self._capacity, dtype=bool)
        #: scratch for :meth:`repeated_rows`: the last lane index written
        #: to the row (meaningless between calls, so never reset)
        self.feedback_lane = np.zeros(self._capacity, dtype=np.int64)
        #: congestion-controller sending rate (every CC class has
        #: ``rate_bps``; keeping it core makes the step-1 gather one take)
        self.cc_rate_bps = np.zeros(self._capacity)
        #: feedback signals delivered to the row's controller
        self.feedback_count = np.zeros(self._capacity, dtype=np.int64)
        #: bumped on every acquire; feedback lanes whose recorded epoch
        #: no longer matches are dropped (slot-reuse guard)
        self.epoch = np.zeros(self._capacity, dtype=np.int64)
        #: interned id of the flow's current DC-level route (the batched
        #: control plane writes routing decisions straight into this
        #: column at arrival / re-route time; -1 = unset)
        self.path_id = np.full(self._capacity, -1, dtype=np.int64)
        #: id of the occupying flow's CC class (-1 = free); the CC
        #: dispatch splits row batches by this column
        self.cc_class_id = np.full(self._capacity, -1, dtype=np.int64)
        #: the re-route wait list (see FluidSimulation._park): link-state
        #: version and routers' epoch of a parked flow's failed attempt;
        #: -1 = not parked / no epoch wake
        self.wait_version = np.full(self._capacity, -1, dtype=np.int64)
        self.wait_epoch = np.full(self._capacity, -1, dtype=np.int64)

        #: per-CC-class column blocks, keyed by the CC class
        self._blocks: Dict[Type, ColumnBlock] = {}
        #: CC classes in first-acquire order; the index is the class id
        self._classes: List[Type] = []
        self._class_ids: Dict[Type, int] = {}
        self._check_dtypes()

    def _check_dtypes(self) -> None:
        """Assert every core column holds its canonical dtype.

        Runs at construction and after every growth, so dtype drift is
        caught once at the allocation site instead of being papered over
        by per-call ``np.asarray`` casts in the step and CC kernels (which
        this check makes safely removable).
        """
        for name, dtype in _CORE_DTYPES.items():
            col = getattr(self, name)
            if col.dtype != np.dtype(dtype):
                raise TypeError(
                    f"FlowTable column {name!r} drifted to dtype "
                    f"{col.dtype}, expected {np.dtype(dtype)}"
                )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Current number of allocated row slots."""
        return self._capacity

    def __len__(self) -> int:
        """Number of occupied rows."""
        return self._high_water - len(self._free)

    def flow_at(self, slot: int):
        """The flow occupying ``slot`` (None when the slot is free)."""
        return self._flows[slot]

    def cc_block(self, cc_cls: Type) -> ColumnBlock:
        """The column block of ``cc_cls`` (created when its first flow arrived).

        The block's columns come from the class's ``table_block_spec``
        (mapping column name to numpy dtype string, derived from the
        declarative ``cc_columns`` spec).
        """
        return self._blocks[cc_cls]

    def _register_class(self, cc_cls: Type) -> int:
        """Give a newly seen CC class its id and column block."""
        if cc_cls.advance_batch_slots is None or cc_cls.feedback_batch_slots is None:
            raise TypeError(
                f"congestion control {cc_cls.__name__} has no "
                "advance_batch_slots / feedback_batch_slots column kernels, "
                "so the array core cannot run it; run it on the scalar core "
                "with SimulationConfig(vectorized=False)"
            )
        cid = len(self._classes)
        self._classes.append(cc_cls)
        self._class_ids[cc_cls] = cid
        self._blocks[cc_cls] = ColumnBlock(cc_cls.table_block_spec, self._capacity)
        return cid

    # ------------------------------------------------------------------ #
    # slot lifecycle
    # ------------------------------------------------------------------ #
    def acquire(self, flow) -> int:
        """Give ``flow`` a row slot: :meth:`acquire_batch` of one flow."""
        return self.acquire_batch([flow])[0]

    def acquire_batch(self, flows: Sequence) -> List[int]:
        """Give each of ``flows`` a row slot and copy its state into it.

        Slots are handed out in order, as one acquire per flow would: the
        most recently freed slot first, then never-used ones (the columns
        double when those run out).  Every column is written once for the
        whole batch.  Each flow becomes a view onto its row; its controller
        (``flow.cc``) has its rate, feedback count, state and parameters
        copied into the row and is not read or called again until
        :meth:`release`.

        Returns:
            The row slots, aligned with ``flows`` (stable for each flow's
            lifetime).

        Raises:
            TypeError: when a controller's class has no column kernels.
        """
        ccs = [flow.cc for flow in flows]
        class_ids = self._class_ids
        cids = []
        for cc in ccs:
            cid = class_ids.get(type(cc))
            if cid is None:
                cid = self._register_class(type(cc))
            cids.append(cid)

        free = self._free
        reused = min(len(flows), len(free))
        slots = free[len(free) - reused :][::-1]
        del free[len(free) - reused :]
        fresh = len(flows) - reused
        if fresh:
            while self._high_water + fresh > self._capacity:
                self._grow()
            slots.extend(range(self._high_water, self._high_water + fresh))
            self._high_water += fresh

        rows = np.array(slots, dtype=np.intp)
        for flow, slot in zip(flows, slots):
            self._flows[slot] = flow
        self.cc_class_id[rows] = cids
        self.epoch[rows] += 1
        self.feedback_live[rows] = True
        Flow.bind_rows(flows, self, rows)
        self.cc_rate_bps[rows] = [cc.rate_bps for cc in ccs]
        self.feedback_count[rows] = [cc.feedback_count for cc in ccs]
        for cid in set(cids):
            pick = [k for k, c in enumerate(cids) if c == cid]
            cc_cls = self._classes[cid]
            block = self._blocks[cc_cls]
            sel = rows[pick]
            for name, col in cc_cls.cc_columns.items():
                getattr(block, name)[sel] = [getattr(ccs[k], col.attr) for k in pick]
        return slots

    def copy_params(self, flow) -> None:
        """Re-copy the parameter columns of a bound flow's controller.

        For a parameter change that follows a re-route
        (:meth:`~repro.congestion_control.base.CongestionControl.rebase_rtt`
        touches parameters only, never the row-resident state).
        """
        cc = flow.cc
        block = self._blocks[type(cc)]
        slot = flow._slot
        for name, col in type(cc).cc_columns.items():
            if col.kind == "param":
                getattr(block, name)[slot] = getattr(cc, col.attr)

    def release(self, flow) -> None:
        """Copy the row back into the flow and its controller; free the slot.

        The row's ``feedback_live`` flag is cleared so in-flight feedback
        lanes addressed to it are dropped.
        """
        slot = flow._slot
        if slot < 0 or self._flows[slot] is not flow:
            raise ValueError(f"flow {flow!r} does not occupy a table slot")
        cc = flow.cc
        cc.rate_bps = float(self.cc_rate_bps[slot])
        cc.feedback_count = int(self.feedback_count[slot])
        block = self._blocks[type(cc)]
        for name, col in type(cc).cc_columns.items():
            if col.kind == "state":
                setattr(cc, col.attr, col.py(getattr(block, name)[slot]))
        flow.unbind_table()
        self.feedback_live[slot] = False
        self.cc_class_id[slot] = -1
        self._flows[slot] = None
        self._free.append(slot)
        flow._slot = -1

    # ------------------------------------------------------------------ #
    # congestion-control dispatch
    # ------------------------------------------------------------------ #
    def _class_groups(self, rows: np.ndarray):
        """``(cc_cls, sel)`` per CC class present in ``rows``, by class id.

        ``sel`` indexes ``rows``; it is None when the table has only ever
        held one class (every row is of that class, no grouping needed).
        """
        classes = self._classes
        if len(classes) == 1:
            return ((classes[0], None),)
        cids = self.cc_class_id[rows]
        return [
            (classes[cid], np.flatnonzero(cids == cid))
            for cid in np.unique(cids).tolist()
        ]

    def advance_cc(self, rows: np.ndarray, dt: float, now: float) -> int:
        """Run :meth:`on_interval` for the controllers of ``rows``.

        Returns:
            The number of class-kernel calls made (one per class present).
        """
        groups = self._class_groups(rows)
        for cc_cls, sel in groups:
            cc_cls.advance_batch_slots(self, rows if sel is None else rows[sel], dt, now)
        return len(groups)

    def repeated_rows(self, rows: np.ndarray) -> bool:
        """Whether some row appears more than once in ``rows``.

        A readback through the ``feedback_lane`` scratch column: each lane
        writes its index to its row, and with a repeated row the last
        write wins, so an earlier lane of that row reads another index.
        O(lanes), no sort.
        """
        lanes = np.arange(len(rows))
        self.feedback_lane[rows] = lanes
        return bool((self.feedback_lane[rows] != lanes).any())

    def deliver_feedback(
        self,
        rows: np.ndarray,
        signals: Sequence[np.ndarray],
        now: float,
        deliver_s: Optional[np.ndarray] = None,
    ) -> int:
        """Run :meth:`on_feedback` for one batch of due feedback lanes.

        Args:
            rows: the FlowTable row of each lane.
            signals: the lane arrays ``(generated_s, ecn, util, rtt, qd)``;
                element ``i`` of each goes to ``rows[i]``.
            now: delivery time.
            deliver_s: the lanes' deliver times, needed only when a row
                appears more than once (``None`` = rows are distinct).
                Such a row's signals are then applied in deliver-time
                order, ties in lane order: waves of equal per-row rank,
                one call per class present per wave.

        Returns:
            The number of class-kernel calls made.
        """
        if deliver_s is None:
            return self._feedback_lanes(rows, signals, now)
        ranks = _delivery_ranks(rows, deliver_s)
        calls = 0
        for wave in range(int(ranks.max()) + 1):
            sel = np.flatnonzero(ranks == wave)
            calls += self._feedback_lanes(rows[sel], [s[sel] for s in signals], now)
        return calls

    def _feedback_lanes(self, rows: np.ndarray, signals, now: float) -> int:
        """Deliver lanes addressed to distinct ``rows``: one call per class."""
        groups = self._class_groups(rows)
        for cc_cls, g in groups:
            if g is None:
                cc_cls.feedback_batch_slots(self, rows, *signals, now)
            else:
                cc_cls.feedback_batch_slots(self, rows[g], *[s[g] for s in signals], now)
        return len(groups)

    # ------------------------------------------------------------------ #
    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        for name in _CORE_DTYPES:
            old = getattr(self, name)
            grown = np.full(new_capacity, _CORE_FILL.get(name, 0), dtype=old.dtype)
            grown[: self._capacity] = old
            setattr(self, name, grown)
        for block in self._blocks.values():
            block._grow(new_capacity)
        self._flows.extend([None] * (new_capacity - self._capacity))
        self._capacity = new_capacity
        self._check_dtypes()
