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
  ``base_rtt_s``, ``achieved_bps``, the disruption stamp, feedback-line
  bookkeeping, the congestion controller's sending rate);
* **per-CC-class column blocks** hold algorithm state: a congestion-control
  class that declares :attr:`~repro.congestion_control.base.CongestionControl
  .cc_columns` gets its own block of columns (state plus replicated static
  parameters), letting its batched feedback/advance run as in-place masked
  array operations with no per-object gather/scatter;
* **per-class row registries** track which rows each congestion-control
  class occupies (append on acquire, O(1) swap-remove on release) alongside
  a per-row class-id column, so mixed-CC fleets dispatch grouped column
  kernels with no per-step groupby or sort;
* **epochs guard slot reuse** — the feedback delay line stores slot indices,
  so each acquire bumps the row's epoch and delivery drops lanes whose
  epoch no longer matches (a signal headed to a finished flow must never
  reach the slot's next tenant).

Ownership contract (see DESIGN.md, "Flow table"): while a
:class:`~repro.simulator.flow.Flow` and its controller are *bound* to a row,
the columns are authoritative and the objects are thin views — their
properties read and write the row.  :meth:`release` copies the final column
values back into the objects (unbinding them), so records, failure entries
and tests keep reading correct values after the flow leaves the table.  The
scalar reference path never binds anything and keeps its original plain-
attribute behaviour, bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

import numpy as np

from ..backend import get_backend

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
    "feedback_tick": "i8",
    "cc_rate_bps": "f8",
    "feedback_count": "i8",
    "epoch": "i8",
    "path_id": "i8",
    "cc_class_id": "i8",
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
        #: live rows, per congestion-control class (uniform-fleet dispatch)
        self.class_counts: Dict[Type, int] = {}

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
        #: stamp of the last update tick that delivered feedback to the
        #: row (detects several signals due in one step)
        self.feedback_tick = np.full(self._capacity, -1, dtype=np.int64)
        #: congestion-controller sending rate (every CC class exposes
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
        #: id of the occupying flow's CC class (-1 = free); grouped CC
        #: dispatch splits row batches by this column
        self.cc_class_id = np.full(self._capacity, -1, dtype=np.int64)

        #: per-CC-class column blocks, keyed by the CC class
        self._blocks: Dict[Type, ColumnBlock] = {}

        #: CC classes in first-acquire order; the index is the class id
        self._classes: List[Type] = []
        self._class_ids: Dict[Type, int] = {}
        #: per-class live-row registries: a grown-by-doubling slot array
        #: and its live prefix length, indexed by class id
        self._class_rows: List[np.ndarray] = []
        self._class_n: List[int] = []
        #: position of each slot inside its class registry (-1 = none)
        self._class_pos = np.full(self._capacity, -1, dtype=np.intp)
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

    # ------------------------------------------------------------------ #
    # CC column blocks
    # ------------------------------------------------------------------ #
    def cc_block(self, cc_cls: Type) -> ColumnBlock:
        """The column block of ``cc_cls``, created on first request.

        The block's columns come from the class's ``table_block_spec``
        (mapping column name to numpy dtype string, derived from the
        declarative ``cc_columns`` spec).
        """
        block = self._blocks.get(cc_cls)
        if block is None:
            block = ColumnBlock(cc_cls.table_block_spec, self._capacity)
            self._blocks[cc_cls] = block
        return block

    # ------------------------------------------------------------------ #
    # per-class row registries (grouped CC dispatch)
    # ------------------------------------------------------------------ #
    def cc_class_at(self, class_id: int) -> Type:
        """The CC class registered under ``class_id``."""
        return self._classes[class_id]

    def class_rows(self, cc_cls: Type) -> np.ndarray:
        """Live rows occupied by flows of ``cc_cls`` (registry order).

        A view of the cached registry — maintained on acquire/release, so
        reading it costs nothing per step.
        """
        cid = self._class_ids.get(cc_cls)
        if cid is None:
            return np.empty(0, dtype=np.intp)
        return self._class_rows[cid][: self._class_n[cid]]

    def rows_by_class(self):
        """Yield ``(cc_cls, live rows)`` per class with occupants.

        Classes come out in first-acquire order (the class-id order), which
        is deterministic for a given demand sequence.
        """
        for cid, cc_cls in enumerate(self._classes):
            n = self._class_n[cid]
            if n:
                yield cc_cls, self._class_rows[cid][:n]

    # ------------------------------------------------------------------ #
    # slot lifecycle
    # ------------------------------------------------------------------ #
    def acquire(self, flow) -> int:
        """Give ``flow`` a row slot and bind it there.

        The flow and its controller (reached through ``flow.cc``) become
        views onto the row — the columns are authoritative until
        :meth:`release`.

        Returns:
            The row slot (stable for the flow's lifetime).
        """
        if self._free:
            slot = self._free.pop()
        else:
            if self._high_water == self._capacity:
                self._grow()
            slot = self._high_water
            self._high_water += 1

        self._flows[slot] = flow
        cc_cls = type(flow.cc)
        self.class_counts[cc_cls] = self.class_counts.get(cc_cls, 0) + 1
        self._class_add(cc_cls, slot)
        self.epoch[slot] += 1
        self.feedback_live[slot] = True
        self.feedback_tick[slot] = -1
        flow.bind_table(self, slot)
        flow.cc.bind_table(self, slot)
        return slot

    def release(self, flow) -> None:
        """Return the flow's slot to the free list.

        Bound views are unbound first (final column values are copied back
        into the objects), and the row's ``feedback_live`` flag is cleared
        so in-flight feedback lanes addressed to it are dropped.
        """
        slot = flow._slot
        if slot < 0 or self._flows[slot] is not flow:
            raise ValueError(f"flow {flow!r} does not occupy a table slot")
        flow.cc.unbind_table()
        flow.unbind_table()
        self.feedback_live[slot] = False
        self._flows[slot] = None
        cc_cls = type(flow.cc)
        count = self.class_counts[cc_cls] - 1
        if count:
            self.class_counts[cc_cls] = count
        else:
            del self.class_counts[cc_cls]
        self._class_remove(slot)
        self._free.append(slot)
        flow._slot = -1

    # ------------------------------------------------------------------ #
    def _class_add(self, cc_cls: Type, slot: int) -> None:
        """Register ``slot`` in its class's row registry (O(1) append)."""
        cid = self._class_ids.get(cc_cls)
        if cid is None:
            cid = len(self._classes)
            self._class_ids[cc_cls] = cid
            self._classes.append(cc_cls)
            self._class_rows.append(np.empty(64, dtype=np.intp))
            self._class_n.append(0)
        rows = self._class_rows[cid]
        n = self._class_n[cid]
        if n == len(rows):
            grown = np.empty(2 * len(rows), dtype=np.intp)
            grown[:n] = rows
            self._class_rows[cid] = rows = grown
        rows[n] = slot
        self._class_pos[slot] = n
        self._class_n[cid] = n + 1
        self.cc_class_id[slot] = cid

    def _class_remove(self, slot: int) -> None:
        """Drop ``slot`` from its class registry (O(1) swap-remove)."""
        cid = int(self.cc_class_id[slot])
        rows = self._class_rows[cid]
        n = self._class_n[cid] - 1
        pos = self._class_pos[slot]
        last = rows[n]
        rows[pos] = last
        self._class_pos[last] = pos
        self._class_n[cid] = n
        self._class_pos[slot] = -1
        self.cc_class_id[slot] = -1

    # ------------------------------------------------------------------ #
    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        for name in (
            "remaining_bytes",
            "base_rtt_s",
            "achieved_bps",
            "disrupted_s",
            "feedback_live",
            "feedback_tick",
            "cc_rate_bps",
            "feedback_count",
            "epoch",
            "path_id",
            "cc_class_id",
            "_class_pos",
        ):
            old = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=old.dtype)
            grown[: self._capacity] = old
            if name == "disrupted_s":
                grown[self._capacity:] = np.nan
            elif name in ("feedback_tick", "path_id", "cc_class_id", "_class_pos"):
                grown[self._capacity:] = -1
            setattr(self, name, grown)
        for block in self._blocks.values():
            block._grow(new_capacity)
        self._flows.extend([None] * (new_capacity - self._capacity))
        self._capacity = new_capacity
        self._check_dtypes()
