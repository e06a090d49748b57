"""RDMA congestion-control models (DCQCN, HPCC, TIMELY, DCTCP).

LCMP is orthogonal to end-host congestion control; these rate-based models
let the evaluation exercise every CC the paper tests underneath every
routing algorithm.  Every factory has one signature,
``factory(line_rate_bps, base_rtt_s, flow_id)``: :func:`make_cc_factory`
gives every flow the same class, :func:`make_mixed_cc_factory` picks a
class per flow, deterministically in the seed, for a heterogeneous fleet::

    from repro.congestion_control import make_cc_factory, make_mixed_cc_factory

    dcqcn = make_cc_factory("dcqcn")
    cc = dcqcn(100e9, 0.05, 7)           # line rate, base RTT, flow id
    cc.rate_bps                          # 100e9: starts at line rate

    fleet = make_mixed_cc_factory({"dcqcn": 0.8, "hpcc": 0.2}, seed=1)
    fleet(100e9, 0.05, 7).name           # the same class for flow 7, always

The scalar simulator core calls each controller's ``on_feedback`` /
``on_interval``.  The array core copies the controller's state into
declarative FlowTable column blocks (:attr:`CongestionControl.cc_columns`)
when the flow is admitted, runs the class's in-place slot kernels over
them, and copies the state back when the flow leaves — see DESIGN.md,
"Congestion control (arrays)".
"""

from .base import (
    CCColumn,
    CCFactory,
    CongestionControl,
    available_ccs,
    cc_param,
    cc_state,
    make_cc_factory,
    register_cc,
)
from .dcqcn import DCQCN
from .dctcp import DCTCP
from .hpcc import HPCC
from .ideal import FixedRate, IdealCC
from .mix import MixedCCFactory, make_mixed_cc_factory
from .timely import Timely

__all__ = [
    "CongestionControl",
    "CCColumn",
    "cc_state",
    "cc_param",
    "CCFactory",
    "available_ccs",
    "make_cc_factory",
    "MixedCCFactory",
    "make_mixed_cc_factory",
    "register_cc",
    "DCQCN",
    "HPCC",
    "Timely",
    "DCTCP",
    "FixedRate",
    "IdealCC",
]
