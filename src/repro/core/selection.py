"""Cost fusion and diversity-preserving selection (paper Eq. 1 and §3.4).

LCMP fuses the control-plane path quality C_path (propagation delay +
provisioned capacity) and the switch's own congestion estimate C_cong into
one integer cost per candidate, C(p) = alpha*C_path + beta*C_cong, not
re-normalised: fused costs are only compared with each other.  To avoid
the herd effect (simultaneous arrivals all taking the cheapest path) it
then keeps the low-cost prefix of the candidates and hashes each flow id
inside it, so a burst spreads over all good paths.  When every candidate
is highly congested, randomising is pointless and the cheapest path wins.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .config import LCMPConfig

__all__ = ["reduce_set"]


def reduce_set(
    c_paths: Sequence[int],
    c_congs: Sequence[int],
    dcs: Sequence[tuple],
    config: LCMPConfig,
) -> Tuple[bool, Tuple[int, ...]]:
    """Fuse, herd-check and filter one candidate set.

    ``dcs`` (each candidate's DC sequence) breaks ties between equal fused
    costs, so the reduced set is deterministic.

    Returns:
        ``(herd, positions)``: ``herd`` is True when every C_cong is at or
        above ``config.congested_threshold``; ``positions`` are the
        candidate positions the flow hash picks from, cheapest first —
        the ``max(1, ceil(n * keep_fraction))`` cheapest, or just the
        cheapest under the herd fallback.
    """
    if not c_paths:
        raise ValueError("no candidates to select from")
    alpha, beta = config.alpha, config.beta
    fused = [alpha * c_path + beta * c_cong for c_path, c_cong in zip(c_paths, c_congs)]
    order = [j for _, _, j in sorted(zip(fused, dcs, range(len(fused))))]
    if all(c_cong >= config.congested_threshold for c_cong in c_congs):
        # randomising among uniformly bad choices is pointless: take the
        # minimum-cost path (paper §3.4, fallbacks and corner cases)
        return True, (order[0],)
    keep = max(1, math.ceil(len(order) * config.keep_fraction))
    return False, tuple(order[:keep])
