"""Congestion-control interface.

LCMP is a routing scheme and is explicitly orthogonal to end-host congestion
control (paper §5, §6.3.2); the evaluation exercises DCQCN, HPCC, TIMELY and
DCTCP underneath every routing algorithm.  Each controller here is a
rate-based model of the corresponding algorithm: it exposes a sending rate,
reacts to the delayed :class:`~repro.simulator.flow.FeedbackSignal` the fluid
simulation delivers one path-RTT after congestion occurred, and performs its
periodic rate-recovery behaviour in :meth:`CongestionControl.on_interval`.

Array residency (the array simulator core): a congestion-control class
declares its per-flow state and its static parameters as a **declarative
column-block spec** (:attr:`CongestionControl.cc_columns`, built from
:func:`cc_state` / :func:`cc_param` entries).  From that spec the base class
derives everything the simulation's
:class:`~repro.simulator.flow_table.FlowTable` needs:

* the block layout (``table_block_spec``: column name -> numpy dtype),
* bound-view properties — while an instance is bound to a table row, each
  spec'd state attribute reads and writes its block column, so scalar
  methods called on bound instances (the repeated-feedback slow path,
  tests) observe exactly the table-resident state,
* :meth:`CongestionControl._push_state` / ``_pull_state`` — state moves
  into the columns at bind time and back into the instance at release.

Each class then supplies in-place :meth:`advance_batch_slots` /
:meth:`feedback_batch_slots` kernels operating on its block columns; the
fluid simulation dispatches the whole fleet through them, grouped per class,
so no per-flow Python loop survives on the hot step.  Kernels must stay
bit-for-bit identical to the scalar :meth:`on_interval` / :meth:`on_feedback`
per row (the equivalence-suite contract; see DESIGN.md, "Congestion control
(arrays)").  A class that declares no block (a third-party controller) still
runs on the array core: the base slot hooks loop its :meth:`on_interval` /
:meth:`on_feedback` over the bound instances.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Type

from ..simulator.flow import FeedbackSignal

__all__ = [
    "CCColumn",
    "cc_state",
    "cc_param",
    "CongestionControl",
    "CCFactory",
    "register_cc",
    "make_cc_factory",
    "available_ccs",
]


@dataclass(frozen=True)
class CCColumn:
    """One column of a congestion-control class's FlowTable block.

    Attributes:
        attr: instance attribute the column mirrors.
        dtype: numpy dtype string of the column.
        kind: ``"state"`` (mutable per-flow algorithm state, moved back into
            the instance at release) or ``"param"`` (static per-flow
            parameter, replicated into the row at bind so kernels never
            gather objects; never pulled back).
        py: Python type a bound read converts to (``float``/``int``/``bool``).
    """

    attr: str
    dtype: str = "f8"
    kind: str = "state"
    py: type = float


def cc_state(attr: str, dtype: str = "f8", py: type = float) -> CCColumn:
    """Declare a mutable state column mirroring instance attribute ``attr``."""
    return CCColumn(attr, dtype, "state", py)


def cc_param(attr: str, dtype: str = "f8") -> CCColumn:
    """Declare a static parameter column filled from attribute ``attr``."""
    return CCColumn(attr, dtype, "param", float)


def _install_state_property(cls: type, column: str, col: CCColumn) -> None:
    """Give ``cls`` a bound-view property for one spec'd state attribute.

    Unbound instances keep the value in a shadow attribute (plain Python
    state, the scalar reference path); bound instances read and write the
    row of their class's column block, converting reads back through
    ``col.py`` so scalar arithmetic on bound state stays plain-float.
    """
    shadow = "_cc_" + column
    py = col.py

    def getter(self):
        t = self._table
        if t is None:
            return getattr(self, shadow)
        return py(getattr(t.cc_block(type(self)), column)[self._slot])

    def setter(self, value):
        t = self._table
        if t is None:
            setattr(self, shadow, value)
        else:
            getattr(t.cc_block(type(self)), column)[self._slot] = value

    setattr(
        cls,
        col.attr,
        property(getter, setter, doc=f"Spec'd CC state (block column {column!r})."),
    )


class CongestionControl(abc.ABC):
    """Base class for rate-based congestion-control models.

    Subclasses must set :attr:`name` and implement :meth:`on_feedback` and
    :meth:`on_interval`; they adjust :attr:`rate_bps` in place.
    """

    #: registry name, e.g. ``"dcqcn"``
    name: str = "base"

    #: declarative block spec: column name -> :class:`CCColumn` (built with
    #: :func:`cc_state` / :func:`cc_param`).  Declaring it in a subclass
    #: derives :attr:`table_block_spec`, the bound-view properties and the
    #: generic push/pull; empty = the class keeps no block and the
    #: slot-batch hooks loop the scalar methods
    cc_columns: Dict[str, CCColumn] = {}

    #: column name -> numpy dtype string of the per-class state this
    #: algorithm keeps in the simulation's FlowTable block (see
    #: :mod:`repro.simulator.flow_table`); derived from :attr:`cc_columns`
    table_block_spec: Dict[str, str] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        columns = cls.__dict__.get("cc_columns")
        if not columns:
            return
        cls.table_block_spec = {name: col.dtype for name, col in columns.items()}
        for name, col in columns.items():
            if col.kind == "state":
                _install_state_property(cls, name, col)

    def __init__(self, line_rate_bps: float, base_rtt_s: float, min_rate_bps: float = 1e6):
        """Create a controller.

        Args:
            line_rate_bps: the sender's line rate (initial sending rate).
            base_rtt_s: propagation-only RTT of the flow's path.
            min_rate_bps: floor below which the rate never drops.
        """
        if line_rate_bps <= 0:
            raise ValueError("line rate must be positive")
        if base_rtt_s < 0:
            raise ValueError("base RTT must be non-negative")
        self.line_rate_bps = float(line_rate_bps)
        self.base_rtt_s = float(base_rtt_s)
        self.min_rate_bps = float(min_rate_bps)
        #: owning FlowTable / row slot while bound (array core), else None/-1
        self._table = None
        self._slot = -1
        self._rate_bps = float(line_rate_bps)
        self._fb_count = 0

    # ------------------------------------------------------------------ #
    # FlowTable binding (see repro.simulator.flow_table)
    # ------------------------------------------------------------------ #
    @property
    def rate_bps(self) -> float:
        """Current sending rate; table-resident while bound to a FlowTable."""
        t = self._table
        if t is None:
            return self._rate_bps
        return t.cc_rate_bps[self._slot]

    @rate_bps.setter
    def rate_bps(self, value: float) -> None:
        t = self._table
        if t is None:
            self._rate_bps = value
        else:
            t.cc_rate_bps[self._slot] = value

    @property
    def feedback_count(self) -> int:
        """Count of feedback signals processed (useful in tests)."""
        t = self._table
        if t is None:
            return self._fb_count
        return int(t.feedback_count[self._slot])

    @feedback_count.setter
    def feedback_count(self, value: int) -> None:
        t = self._table
        if t is None:
            self._fb_count = value
        else:
            t.feedback_count[self._slot] = value

    def bind_table(self, table, slot: int) -> None:
        """Move this controller's mutable state into ``table`` row ``slot``.

        The base class moves the sending rate and feedback count; the
        spec-derived :meth:`_push_state` / :meth:`_pull_state` move the
        class's :attr:`cc_columns` block.
        """
        table.cc_rate_bps[slot] = self._rate_bps
        table.feedback_count[slot] = self._fb_count
        self._push_state(table, slot)
        self._table = table
        self._slot = slot

    def unbind_table(self) -> None:
        """Copy the row's final values back and detach from the table."""
        table = self._table
        if table is None:
            return
        slot = self._slot
        self._table = None
        self._slot = -1
        self._rate_bps = float(table.cc_rate_bps[slot])
        self._fb_count = int(table.feedback_count[slot])
        self._pull_state(table, slot)

    def _push_state(self, table, slot: int) -> None:
        """Write spec'd state and parameters into the class's block columns.

        Derived from :attr:`cc_columns`; runs before the instance is marked
        bound, so state attributes still read their unbound shadow values.
        """
        columns = type(self).cc_columns
        if not columns:
            return
        block = table.cc_block(type(self))
        for name, col in columns.items():
            getattr(block, name)[slot] = getattr(self, col.attr)

    def _pull_state(self, table, slot: int) -> None:
        """Read spec'd state back from the block columns (params stay).

        Runs after the instance is marked unbound, so assigning the state
        attributes lands in the shadow storage.
        """
        columns = type(self).cc_columns
        if not columns:
            return
        block = table.cc_block(type(self))
        for name, col in columns.items():
            if col.kind == "state":
                setattr(self, col.attr, col.py(getattr(block, name)[slot]))

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def on_feedback(self, signal: FeedbackSignal, now: float) -> None:
        """React to one delayed congestion-feedback signal."""

    @abc.abstractmethod
    def on_interval(self, dt: float, now: float) -> None:
        """Periodic behaviour (rate recovery / increase), every update step."""

    # ------------------------------------------------------------------ #
    # FlowTable slot batches (the array core's dispatch points)
    # ------------------------------------------------------------------ #
    @classmethod
    def advance_batch_slots(cls, table, slots, dt: float, now: float) -> None:
        """Advance the controllers occupying ``slots`` of ``table``.

        The base implementation calls :meth:`on_interval` on each bound
        controller; classes that keep their state in a table block
        override this with in-place masked column operations, which must
        stay bit-for-bit identical to :meth:`on_interval` per row.
        """
        for slot in slots.tolist():
            table.flow_at(slot).cc.on_interval(dt, now)

    @classmethod
    def feedback_batch_slots(
        cls, table, slots, generated_s: float, ecn, util, rtt, qd, now: float
    ) -> None:
        """Deliver one feedback signal to each controller in ``slots``.

        The signal fields arrive as parallel arrays (element ``i`` goes to
        ``slots[i]``).  Same contract as :meth:`advance_batch_slots`: the
        base builds one :class:`FeedbackSignal` per controller and calls
        :meth:`on_feedback`; block-resident classes override with in-place
        column operations.
        """
        ecn, util, rtt, qd = ecn.tolist(), util.tolist(), rtt.tolist(), qd.tolist()
        for i, slot in enumerate(slots.tolist()):
            table.flow_at(slot).cc.on_feedback(
                FeedbackSignal(generated_s, ecn[i], util[i], rtt[i], qd[i]), now
            )

    # ------------------------------------------------------------------ #
    def _clamp(self) -> None:
        """Keep the rate within [min_rate, line_rate]."""
        self.rate_bps = min(self.line_rate_bps, max(self.min_rate_bps, self.rate_bps))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rate={self.rate_bps / 1e9:.2f} Gbps)"


#: a congestion-control factory: (line_rate_bps, base_rtt_s) -> controller
CCFactory = Callable[[float, float], CongestionControl]

_REGISTRY: Dict[str, Type[CongestionControl]] = {}


def register_cc(cls: Type[CongestionControl]) -> Type[CongestionControl]:
    """Class decorator registering a congestion-control implementation."""
    if not cls.name or cls.name == "base":
        raise ValueError("congestion control classes must define a unique name")
    _REGISTRY[cls.name] = cls
    return cls


def available_ccs() -> list:
    """Names of all registered congestion-control algorithms."""
    return sorted(_REGISTRY)


def make_cc_factory(name: str, **params) -> CCFactory:
    """Build a factory for the named congestion control.

    Args:
        name: registry name (``"dcqcn"``, ``"hpcc"``, ``"timely"``,
            ``"dctcp"``, ``"ideal"``).
        **params: extra keyword arguments forwarded to the constructor.

    Raises:
        KeyError: for unknown names.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown congestion control {name!r}; available: {available_ccs()}"
        ) from None

    def factory(line_rate_bps: float, base_rtt_s: float) -> CongestionControl:
        return cls(line_rate_bps, base_rtt_s, **params)

    return factory
