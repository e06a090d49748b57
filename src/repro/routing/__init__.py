"""Baseline routing algorithms (ECMP, WCMP, UCMP, RedTE) and the router registry.

The LCMP router itself lives in :mod:`repro.core.lcmp_router`; importing
:mod:`repro.core` registers it under the name ``"lcmp"`` so
:func:`make_router_factory` can build any of the evaluated schemes by name.
A factory builds one router per DCI switch; every router routes a batch
of arrivals with ``select_batch``, identical per flow to ``select``::

    from repro.routing import available_routers, make_router_factory
    from repro.simulator import FlowDemand
    from repro.topology import build_testbed8, testbed8_pathset

    available_routers()          # ['ecmp', 'lcmp', 'redte', 'ucmp', 'wcmp']
    router = make_router_factory("ecmp")("DC1")
    candidates = testbed8_pathset(build_testbed8()).candidates("DC1", "DC8")
    flows = [FlowDemand(i, "DC1", "DC8", 0, 0, 10**6, 0.0) for i in range(4)]
    router.select_batch("DC8", candidates, flows)   # one candidate index per flow
"""

from .base import (
    Router,
    RouterFactory,
    available_routers,
    flow_hash,
    make_router_factory,
    register_router,
)
from .ecmp import ECMPRouter
from .redte import RedTERouter
from .ucmp import UCMPRouter
from .wcmp import WCMPRouter

__all__ = [
    "Router",
    "RouterFactory",
    "available_routers",
    "flow_hash",
    "make_router_factory",
    "register_router",
    "ECMPRouter",
    "WCMPRouter",
    "UCMPRouter",
    "RedTERouter",
]
