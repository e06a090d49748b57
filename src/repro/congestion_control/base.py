"""Congestion-control interface.

LCMP is a routing scheme and is explicitly orthogonal to end-host congestion
control (paper §5, §6.3.2); the evaluation exercises DCQCN, HPCC, TIMELY and
DCTCP underneath every routing algorithm.  Each controller here is a
rate-based model of the corresponding algorithm: it exposes a sending rate,
reacts to the delayed :class:`~repro.simulator.flow.FeedbackSignal` the fluid
simulation delivers one path-RTT after congestion occurred, and performs its
periodic rate-recovery behaviour in :meth:`CongestionControl.on_interval`.

The scalar simulator core calls those two methods on each flow's
controller object.  The array core never does: a congestion-control class
declares its per-flow state and its static parameters as a **declarative
column-block spec** (:attr:`CongestionControl.cc_columns`, built from
:func:`cc_state` / :func:`cc_param` entries) and supplies two in-place
class kernels, :meth:`~CongestionControl.advance_batch_slots` and
:meth:`~CongestionControl.feedback_batch_slots`, over the rows of the
simulation's :class:`~repro.simulator.flow_table.FlowTable`.  From the spec
the base class derives the block layout (:attr:`table_block_spec`, column
name -> numpy dtype).  The table copies a controller's sending rate,
feedback count, state and parameters into its row when the flow is
admitted and copies the state back when the flow leaves; in between the
row is authoritative and the object is neither read nor called.  Kernels
must stay bit-for-bit identical to the scalar :meth:`on_interval` /
:meth:`on_feedback` per row (the equivalence-suite contract; see
DESIGN.md, "Congestion control (arrays)").  A class without kernels runs
on the scalar core only; the array core rejects it when its first flow is
admitted.
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
        kind: ``"state"`` (mutable per-flow algorithm state, copied back
            into the instance at release) or ``"param"`` (static per-flow
            parameter, replicated into the row at admission so kernels
            never gather objects; never copied back).
        py: Python type the copy back at release converts to
            (``float``/``int``/``bool``).
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


class CongestionControl(abc.ABC):
    """Base class for rate-based congestion-control models.

    Subclasses must set :attr:`name` and implement :meth:`on_feedback` and
    :meth:`on_interval`; they adjust :attr:`rate_bps` in place.  To run on
    the array core they also define the classmethod kernels
    :meth:`advance_batch_slots` and :meth:`feedback_batch_slots`.
    """

    #: registry name, e.g. ``"dcqcn"``
    name: str = "base"

    #: declarative block spec: column name -> :class:`CCColumn` (built with
    #: :func:`cc_state` / :func:`cc_param`).  Declaring it in a subclass
    #: derives :attr:`table_block_spec`; empty = the class keeps only the
    #: core ``cc_rate_bps`` / ``feedback_count`` columns
    cc_columns: Dict[str, CCColumn] = {}

    #: column name -> numpy dtype string of the per-class state this
    #: algorithm keeps in the simulation's FlowTable block (see
    #: :mod:`repro.simulator.flow_table`); derived from :attr:`cc_columns`
    table_block_spec: Dict[str, str] = {}

    #: ``advance_batch_slots(table, slots, dt, now)`` — :meth:`on_interval`
    #: as an in-place classmethod kernel over FlowTable rows ``slots``
    #: (``None`` = the class has no kernels and runs on the scalar core only)
    advance_batch_slots = None

    #: ``feedback_batch_slots(table, slots, generated_s, ecn, util, rtt, qd,
    #: now)`` — :meth:`on_feedback` as an in-place classmethod kernel; the
    #: signal fields arrive as float64 arrays, element ``i`` for
    #: ``slots[i]``.  One call may carry lanes of many feedback generations
    #: (the delay line merges every lane due in a step), so ``generated_s``
    #: is per lane too; no shipped kernel reads it.  ``slots`` are distinct
    #: within a call (``None`` = no kernels)
    feedback_batch_slots = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        columns = cls.__dict__.get("cc_columns")
        if columns:
            cls.table_block_spec = {name: col.dtype for name, col in columns.items()}

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
        #: current sending rate
        self.rate_bps = float(line_rate_bps)
        #: count of feedback signals processed (useful in tests)
        self.feedback_count = 0

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def on_feedback(self, signal: FeedbackSignal, now: float) -> None:
        """React to one delayed congestion-feedback signal."""

    @abc.abstractmethod
    def on_interval(self, dt: float, now: float) -> None:
        """Periodic behaviour (rate recovery / increase), every update step."""

    def rebase_rtt(self, base_rtt_s: float) -> None:
        """Move the controller onto a path with base RTT ``base_rtt_s``.

        The one rule for how base RTT maps to parameters: the constructor
        applies it and a re-route applies it again, so a moved flow's
        controller holds exactly what a fresh one on the new path would.
        It sets parameters only, never algorithm state, so the array core
        re-copies the row's parameter columns after it
        (:meth:`~repro.simulator.flow_table.FlowTable.copy_params`).
        Subclasses whose parameters derive from the base RTT extend it.
        """
        self.base_rtt_s = float(base_rtt_s)

    # ------------------------------------------------------------------ #
    def _clamp(self) -> None:
        """Keep the rate within [min_rate, line_rate]."""
        self.rate_bps = min(self.line_rate_bps, max(self.min_rate_bps, self.rate_bps))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rate={self.rate_bps / 1e9:.2f} Gbps)"


#: a congestion-control factory:
#: ``(line_rate_bps, base_rtt_s, flow_id) -> controller``
CCFactory = Callable[[float, float, int], CongestionControl]

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

    Returns:
        ``factory(line_rate_bps, base_rtt_s, flow_id)``; every flow gets
        the same class, so ``flow_id`` is ignored.

    Raises:
        KeyError: for unknown names.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown congestion control {name!r}; available: {available_ccs()}"
        ) from None

    def factory(line_rate_bps: float, base_rtt_s: float, flow_id: int = 0) -> CongestionControl:
        return cls(line_rate_bps, base_rtt_s, **params)

    return factory
