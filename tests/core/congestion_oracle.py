"""A per-port reference for LCMP's congestion registers (paper §3.3, Eq. 3–5).

:class:`PortEstimator` is the estimator written one port at a time with
Python integers: a dataclass of registers per port, fed one sample at a
time.  The program keeps the same registers as columns of a
:class:`~repro.core.congestion.CongestionRegisters` block and updates many
ports per vector pass; :class:`RegisterOracle` replays every telemetry
sweep of a simulation through a :class:`PortEstimator` per switch and
asserts that every LCMP row's registers and C_cong equal the reference's
after every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import LCMPConfig, LCMPRouter, SwitchTables


@dataclass
class PortState:
    """The registers of one port."""

    queue_cur: int = 0
    queue_prev: int = 0
    trend: int = 0
    dur_cnt: int = 0
    last_sample_s: float = -1.0
    rate_bps: float = 0.0
    observed_interval_s: float = 0.0


class PortEstimator:
    """Per-port congestion state and C_cong scores, one sample at a time."""

    def __init__(self, tables: SwitchTables, config: Optional[LCMPConfig] = None) -> None:
        self.tables = tables
        self.config = config or tables.config
        self.ports: Dict[str, PortState] = {}

    def observe(self, port: str, queue_bytes: float, rate_bps: float, now: float) -> PortState:
        """Feed one monitor sample for ``port``."""
        state = self.ports.setdefault(port, PortState(rate_bps=rate_bps))
        state.rate_bps = rate_bps
        if state.last_sample_s >= 0:
            state.observed_interval_s = max(0.0, now - state.last_sample_s)
        state.last_sample_s = now
        state.queue_prev = state.queue_cur
        state.queue_cur = int(queue_bytes)
        delta = state.queue_cur - state.queue_prev
        k = self.config.trend_ewma_shift
        # Eq. 3: T = T_old - (T_old >> K) + (delta >> K); the delta's
        # magnitude is shifted and its sign restored
        delta_shifted = (abs(delta) >> k) * (1 if delta >= 0 else -1)
        state.trend = state.trend - (state.trend >> k) + delta_shifted
        level = self.tables.queue_level(state.queue_cur)
        if level >= self.config.high_water_level:
            state.dur_cnt += 1
        else:
            state.dur_cnt = max(0, state.dur_cnt - self.config.duration_decay)
        return state

    def queue_score(self, port: str) -> int:
        state = self.ports.get(port)
        if state is None:
            return 0
        return self.tables.level_score(self.tables.queue_level(state.queue_cur))

    def trend_score(self, port: str) -> int:
        state = self.ports.get(port)
        if state is None or state.trend <= 0 or state.rate_bps <= 0:
            return 0
        level = self.tables.trend_level(
            state.trend, state.rate_bps, state.observed_interval_s or None
        )
        return self.tables.level_score(level)

    def duration_score(self, port: str) -> int:
        state = self.ports.get(port)
        if state is None:
            return 0
        return min(255, state.dur_cnt >> self.config.duration_shift)

    def congestion_score(self, port: str) -> int:
        """C_cong (Eq. 4 and Eq. 5)."""
        cfg = self.config
        fused = (
            cfg.w_ql * self.queue_score(port)
            + cfg.w_tl * self.trend_score(port)
            + cfg.w_dp * self.duration_score(port)
        )
        return min(fused >> cfg.cong_shift, 255)


def router_registers(router: LCMPRouter, port: str) -> dict:
    """``port``'s registers and C_cong as the router keeps them."""
    regs, row = router.registers, router.port_rows[port]
    return {
        "queue_cur": int(regs.queue_cur[row]),
        "trend": int(regs.trend[row]),
        "dur_cnt": int(regs.dur_cnt[row]),
        "last_sample_s": float(regs.sample_s[row]),
        "rate_bps": float(regs.rate_bps[row]),
        "observed_interval_s": float(regs.interval_s[row]),
        "c_cong": int(regs.c_cong[row]),
        "c_cong_list": regs.c_cong_list[row],
    }


def oracle_registers(estimator: PortEstimator, port: str) -> dict:
    """``port``'s registers and C_cong as the reference keeps them."""
    state = estimator.ports[port]
    score = estimator.congestion_score(port)
    return {
        "queue_cur": state.queue_cur,
        "trend": state.trend,
        "dur_cnt": state.dur_cnt,
        "last_sample_s": state.last_sample_s,
        "rate_bps": state.rate_bps,
        "observed_interval_s": state.observed_interval_s,
        "c_cong": score,
        "c_cong_list": score,
    }


class RegisterOracle:
    """Checks every LCMP switch's registers against a reference after every sweep.

    :meth:`attach` wraps the simulation's ``telemetry.feed_routers`` (the
    monitor's and the scenario engine's delivery), so each delivered sweep
    is replayed, port by port, through one :class:`PortEstimator` per
    switch.  A reference starts afresh whenever its switch's tables change,
    as the switch's registers do.  Port liveness is checked against the
    sweep's ``up`` column too.
    """

    def __init__(self) -> None:
        self.estimators: Dict[str, PortEstimator] = {}
        self.sweeps = 0
        #: largest C_cong seen, so a test can show its run was congested
        self.max_c_cong = 0
        self.max_trend = 0
        self.max_dur_cnt = 0
        #: port rates seen with a growing trend, and (switch, port) seen down
        self.trending_rates = set()
        self.down_seen = set()

    def attach(self, sim) -> "RegisterOracle":
        plane = sim.telemetry
        feed = plane.feed_routers
        routers = {
            dc: switch.router
            for dc, switch in sim.network.switches.items()
            if isinstance(switch.router, LCMPRouter)
        }

        def checked(now: float) -> None:
            feed(now)
            self.check(plane, routers, now)

        plane.feed_routers = checked
        return self

    def check(self, plane, routers: Dict[str, LCMPRouter], now: float) -> None:
        self.sweeps += 1
        for dc, router in routers.items():
            estimator = self.estimators.get(dc)
            if estimator is None or estimator.tables is not router.tables:
                estimator = self.estimators[dc] = PortEstimator(router.tables, router.config)
            view = plane.view(dc)
            queues, caps, ups = (
                view.queue_bytes.tolist(), view.cap_bps.tolist(), view.up.tolist()
            )
            for i, port in enumerate(view.port_dcs):
                estimator.observe(port, queues[i], caps[i], now)
                expected = oracle_registers(estimator, port)
                actual = router_registers(router, port)
                assert actual == expected, (
                    f"{dc} port {port} after the sweep at {now!r}: "
                    f"registers {actual} != reference {expected}"
                )
                assert router.liveness.is_up(port) == ups[i], (dc, port, now)
                self.max_c_cong = max(self.max_c_cong, expected["c_cong"])
                self.max_trend = max(self.max_trend, expected["trend"])
                self.max_dur_cnt = max(self.max_dur_cnt, expected["dur_cnt"])
                if expected["trend"] > 0:
                    self.trending_rates.add(caps[i])
                if not ups[i]:
                    self.down_seen.add((dc, port))
