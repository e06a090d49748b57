"""Routing-algorithm interface and registry.

Every routing scheme in the evaluation — ECMP, WCMP, UCMP, RedTE and LCMP —
implements the same switch-local interface: it is attached to one DCI switch,
receives periodic queue-monitor telemetry of that switch's egress ports, and
is asked to pick one candidate route when the first packet of a new flow
arrives.  The interface mirrors what the paper's data-plane prototype can do:
decisions use only locally available state (precomputed path attributes plus
the switch's own port telemetry).

:meth:`Router.select_batch` routes many simultaneous arrivals in one call.
The base implementation loops :meth:`Router.select` (so batch decisions are
identical to sequential ones by construction); every shipped router
overrides it.  The baselines use array operations over the candidate
table — :func:`flow_hash_array` is the vectorized twin of :func:`flow_hash`
and produces bit-identical hashes — while LCMP, whose calls carry about
one flow at paper scale, hashes each flow with :func:`flow_hash` against a
memoised per-candidate-set plan.

Telemetry arrives through one hook, :meth:`Router.on_telemetry`: one
queue-monitor sweep of the attached switch's egress ports as a
:class:`~repro.simulator.telemetry.TelemetryView`.  A telemetry plane
delivers each sweep through :meth:`Router.telemetry_feed`, once per router
class, so a class can update all of its switches at once (LCMP does).
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence, Type

import numpy as np

from ..backend import get_backend
from ..simulator.flow import FlowDemand
from ..topology.paths import CandidatePath

__all__ = [
    "Router",
    "RouterFactory",
    "register_router",
    "make_router_factory",
    "available_routers",
    "flow_hash",
    "flow_hash_array",
]


def flow_hash(flow_id: int, salt: int = 0x9E3779B1) -> int:
    """Deterministic 32-bit hash of a flow identifier.

    Stands in for the five-tuple hash a switch ASIC computes; a simple
    multiplicative (Fibonacci) hash gives good dispersion for consecutive
    flow ids, which is what the traffic generator produces.
    """
    x = (flow_id * salt) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x85EBCA6B) & 0xFFFFFFFF
    x ^= x >> 13
    return x


_HASH_MASK = np.uint64(0xFFFFFFFF)
_HASH_MUL2 = np.uint64(0x85EBCA6B)
_SHIFT_16 = np.uint64(16)
_SHIFT_13 = np.uint64(13)


def flow_hash_array(flow_ids: np.ndarray, salt: int = 0x9E3779B1) -> np.ndarray:
    """Vectorized :func:`flow_hash` over an array of flow identifiers.

    Performs the same 32-bit arithmetic in ``uint64`` lanes (the products
    fit, and wrap-then-mask equals Python's mask), so
    ``flow_hash_array(ids)[i] == flow_hash(int(ids[i]))`` for every id —
    the batched routers rely on that exactness.
    """
    x = (np.asarray(flow_ids).astype(np.uint64) * np.uint64(salt)) & _HASH_MASK
    x ^= x >> _SHIFT_16
    x = (x * _HASH_MUL2) & _HASH_MASK
    x ^= x >> _SHIFT_13
    return x


class Router(abc.ABC):
    """Base class for switch-local routing algorithms."""

    #: registry name, e.g. ``"ecmp"``
    name: str = "base"

    #: True when the most recent :meth:`select` followed per-flow state (a
    #: flow-cache pin) instead of choosing among its candidates; routers
    #: without such state leave it False
    last_choice_pinned: bool = False

    def __init__(self) -> None:
        self.switch = None
        #: the shared kernels of the batched selection paths
        #: (:meth:`~repro.backend.NumpyBackend.weighted_choice_searchsorted`)
        self.backend = get_backend("numpy")
        #: number of select() calls served
        self.decisions = 0

    # ------------------------------------------------------------------ #
    def attach(self, switch) -> None:
        """Bind the router to its DCI switch (called by the switch)."""
        self.switch = switch

    @property
    def switch_name(self) -> str:
        """Name of the attached switch (empty before attachment)."""
        return self.switch.dc if self.switch is not None else ""

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def select(
        self,
        dst_dc: str,
        candidates: Sequence[CandidatePath],
        demand: FlowDemand,
        now: float,
    ) -> CandidatePath:
        """Pick one candidate route for a new flow toward ``dst_dc``.

        ``candidates`` is never empty and contains only routes whose first
        hop port is currently alive.
        """

    def select_batch(
        self,
        dst_dc: str,
        candidates: Sequence[CandidatePath],
        demands: Sequence[FlowDemand],
        times: Optional[Sequence[float]] = None,
        now: float = 0.0,
        path_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Pick one candidate per demand for a batch of new flows.

        Semantically equivalent to calling :meth:`select` once per demand in
        order (:meth:`select` is the batch-of-one case); the base
        implementation does exactly that, so any router is batch-capable.
        Overrides replace the per-flow Python work with array operations
        over the candidate table and must keep the decisions *identical*
        to the sequential loop (guarded by
        ``tests/routing/test_select_batch.py``).

        Args:
            dst_dc: destination datacenter.
            candidates: live candidate routes (never empty).
            demands: the arriving flows, in arrival order.
            times: per-demand decision times (each flow is routed at its own
                arrival instant even when a batch is drained early); falls
                back to ``now`` for every demand when omitted.
            now: scalar decision time used when ``times`` is omitted.
            path_ids: global integer path ids aligned with ``candidates``
                (see :meth:`PathSet.candidate_ids`).  Routers that cache
                per-candidate-set state key on these ids when given —
                integer tuples hash far cheaper than per-candidate DC name
                tuples on the arrival hot path.

        Returns:
            Integer index into ``candidates`` per demand.
        """
        positions = {id(c): j for j, c in enumerate(candidates)}
        out = np.empty(len(demands), dtype=np.intp)
        for i, demand in enumerate(demands):
            t = now if times is None else float(times[i])
            chosen = self.select(dst_dc, candidates, demand, t)
            out[i] = positions[id(chosen)]
        return out

    # ------------------------------------------------------------------ #
    # optional hooks
    # ------------------------------------------------------------------ #
    def on_telemetry(self, view, now: float) -> None:
        """Receive one queue-monitor sweep of the attached switch's ports.

        ``view`` is a :class:`~repro.simulator.telemetry.TelemetryView`
        (read-only columns, one row per egress port).  The base router
        ignores telemetry.
        """

    @classmethod
    def telemetry_feed(cls, plane, members):
        """How a telemetry plane delivers each sweep to its routers of this class.

        ``members`` are the plane's ``(dc, router)`` pairs of this class;
        the result is called with the sweep time after every sweep.  The
        default hands each router its switch's view through
        :meth:`on_telemetry`.  A class whose routers can be updated
        together overrides it.
        """

        def feed(now: float) -> None:
            for dc, router in members:
                router.on_telemetry(plane.view(dc), now)

        return feed

    def consumes_telemetry(self) -> bool:
        """True when this router overrides :meth:`on_telemetry`.

        The telemetry plane skips delivery entirely for oblivious routers
        (ECMP/WCMP/UCMP): writing the telemetry columns is enough.
        """
        return type(self).on_telemetry is not Router.on_telemetry

    def on_tick(self, now: float) -> None:
        """Periodic housekeeping (flow-cache GC, control loops)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(switch={self.switch_name!r})"


#: a router factory: (dc name) -> Router instance
RouterFactory = Callable[[str], Router]

_REGISTRY: Dict[str, Type[Router]] = {}


def register_router(cls: Type[Router]) -> Type[Router]:
    """Class decorator registering a routing algorithm by name."""
    if not cls.name or cls.name == "base":
        raise ValueError("router classes must define a unique name")
    _REGISTRY[cls.name] = cls
    return cls


def available_routers() -> List[str]:
    """Names of all registered routing algorithms."""
    return sorted(_REGISTRY)


def make_router_factory(name: str, **params) -> RouterFactory:
    """Build a per-switch router factory for the named algorithm.

    Each DCI switch receives its own router instance (the schemes are
    distributed); ``params`` are forwarded to every instance.

    Raises:
        KeyError: for unknown router names.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown router {name!r}; available: {available_routers()}"
        ) from None

    def factory(dc: str) -> Router:
        return cls(**params)

    return factory
