"""Monte Carlo companion to the analytic engine, plus plan simulation.

Sampling mirrors the analytic model exactly: one shared Poisson shock
count per system draw, per-component normal shock magnitudes and
damages (damages clipped at zero), and gamma-process wear with shape
growing linearly in elapsed time.

Determinism contract: every sampling entry point takes an RngSeed
(seed, stream).  Identical pairs produce identical draws; replications
of a batch use consecutive stream ids.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import SystemModel, Topology, as_levels
from .optimize import CostParams, _check_pairing


_MAX_VISITS = 100_000  # most visits one simulate_plan run may make
_MAX_SUBGRID_STEPS = 10_000  # an interval draws steps x components wear increments at once


class PolicyError(RuntimeError):
    """An inspection policy returned an unusable interval."""


@dataclass(frozen=True)
class RngSeed:
    """Keyed random stream: (seed, stream) fully determines the draws."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be >= 0")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.stream))


def _component_alive_matrix(
    s: SystemModel, t: float, levels: np.ndarray, rng: np.random.Generator, n_samples: int
) -> np.ndarray:
    """Boolean matrix (n_components, n_samples) of per-component survival."""
    m = rng.poisson(s.shock_rate * t, n_samples) if t > 0 else np.zeros(n_samples, dtype=int)
    m_max = int(m.max(initial=0))
    hit = (
        np.arange(m_max)[None, :] < m[:, None] if m_max > 0 else None
    )
    alive = np.empty((s.n, n_samples), dtype=bool)
    for i, c in enumerate(s.components):
        wear = (
            rng.gamma(c.gamma_shape_rate * t, 1.0 / c.gamma_rate, n_samples)
            if t > 0
            else np.zeros(n_samples)
        )
        total = levels[i] + wear
        hard_ok = np.ones(n_samples, dtype=bool)
        if m_max > 0:
            w = rng.normal(c.shock_magnitude_mean, c.shock_magnitude_sd, (n_samples, m_max))
            y = np.clip(
                rng.normal(c.shock_damage_mean, c.shock_damage_sd, (n_samples, m_max)),
                0.0,
                None,
            )
            hard_ok = ~np.any((w >= c.hard_threshold) & hit, axis=1)
            total = total + np.where(hit, y, 0.0).sum(axis=1)
        alive[i] = hard_ok & (total < c.soft_threshold)
    return alive


def estimate_reliability(
    s: SystemModel, t: float, u=None, n_samples: int = 100_000, seed: RngSeed = RngSeed(0)
) -> tuple[float, float]:
    """MC estimate of system reliability at t; returns (p_hat, std_err)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    levels = as_levels(u, s.n)
    alive = _component_alive_matrix(s, t, levels, seed.generator(), n_samples)
    up = alive.all(axis=0) if s.topology is Topology.SERIES else alive.any(axis=0)
    p = float(up.mean())
    return p, math.sqrt(p * (1.0 - p) / n_samples)


@dataclass
class PlanTrace:
    """Record of one simulated inspection history."""

    horizon: float
    inspection_times: list[float] = field(default_factory=list)
    observed_levels: list[list[float]] = field(default_factory=list)
    replaced: list[list[int]] = field(default_factory=list)
    hard_failed: list[list[int]] = field(default_factory=list)
    interval_downtime: list[float] = field(default_factory=list)
    inspection_cost: float = 0.0
    replacement_cost: float = 0.0
    downtime_cost: float = 0.0

    @property
    def total_cost(self) -> float:
        return self.inspection_cost + self.replacement_cost + self.downtime_cost

    @property
    def downtime(self) -> float:
        return sum(self.interval_downtime)

    @property
    def availability(self) -> float:
        return 1.0 - self.downtime / self.horizon

    def to_dict(self) -> dict:
        return {**asdict(self), "total_cost": self.total_cost, "availability": self.availability}


def _check_run(horizon, subgrid_steps) -> None:
    """Check the settings SimulateConfig and simulate_plan share."""
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be finite and > 0")
    if not 1 <= subgrid_steps <= _MAX_SUBGRID_STEPS:
        raise ValueError(f"subgrid_steps must be in [1, {_MAX_SUBGRID_STEPS}]")


def simulate_plan(
    s: SystemModel,
    costs: CostParams,
    policy,
    horizon: float,
    seed: RngSeed = RngSeed(0),
    u0=None,
    subgrid_steps: int = 32,
) -> PlanTrace:
    """Simulate condition-based inspection up to the horizon.

    At time 0 the levels u0 are known and the policy picks the first
    interval for free; every later visit costs the inspection fee.
    Failures happen silently between visits (the failure clock is
    resolved on a fixed subgrid plus the exact shock instants), the
    system earns downtime cost while the topology predicate is violated
    and every failed component is replaced as good as new at the next
    visit.  Inspections past the horizon are clipped to it.

    Each interval draws its shock count and shock instants, then the
    wear of every step between offsets in one gamma call (step by step,
    component by component), then, if it holds a shock, every shock's
    magnitude and damage in one normal call (shock by shock, component
    by component).  A shock-free interval makes no normal call.  An
    interval that, repeated, would take the run past _MAX_VISITS visits
    raises PolicyError before it is simulated.
    """
    _check_pairing(s, costs)
    _check_run(horizon, subgrid_steps)
    rng = seed.generator()
    levels = as_levels(u0, s.n).copy()
    shapes = np.asarray([c.gamma_shape_rate for c in s.components])
    scales = np.asarray([1.0 / c.gamma_rate for c in s.components])
    soft_limits = np.asarray([c.soft_threshold for c in s.components])
    hard_limits = np.asarray([c.hard_threshold for c in s.components])
    shock_loc = np.asarray([(c.shock_magnitude_mean, c.shock_damage_mean) for c in s.components])
    shock_sd = np.asarray([(c.shock_magnitude_sd, c.shock_damage_sd) for c in s.components])
    trace = PlanTrace(horizon=float(horizon))
    t_now = 0.0
    while t_now < horizon - 1e-12:
        tau = policy(levels.copy())
        try:
            tau = float(tau)
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"policy returned {tau!r}") from exc
        if not 0 < tau < math.inf:
            raise PolicyError(f"policy returned {tau!r}, not a finite interval > 0")
        if len(trace.inspection_times) + (horizon - t_now) / tau > _MAX_VISITS:
            raise PolicyError(f"interval {tau:g} at t={t_now:g} needs over {_MAX_VISITS} visits")
        t_next = min(t_now + tau, horizon)
        dt = t_next - t_now

        n_shocks = rng.poisson(s.shock_rate * dt) if s.shock_rate > 0 else 0
        shock_at = np.sort(rng.uniform(0.0, dt, n_shocks)) if n_shocks else np.empty(0)
        grid = dt * np.arange(1, subgrid_steps + 1) / subgrid_steps
        offsets = np.concatenate([grid, shock_at])
        is_shock = np.arange(offsets.size) >= grid.size
        order = np.argsort(offsets, kind="stable")
        offsets, is_shock = offsets[order], is_shock[order]

        # a zero step (a shock tied with another offset) has shape 0, which
        # yields 0 and consumes no draw
        increments = rng.gamma(shapes * np.diff(offsets, prepend=0.0)[:, None], scales)
        lethal = np.zeros((offsets.size, s.n), dtype=bool)
        if n_shocks:
            w, y = np.moveaxis(rng.normal(shock_loc, shock_sd, (n_shocks, s.n, 2)), -1, 0)
            lethal[is_shock] = w >= hard_limits
            increments[is_shock] += np.maximum(y, 0.0)
        states = np.cumsum(np.concatenate([levels[None, :], increments]), axis=0)
        # each component's first soft crossing and lethal shock; offsets.size if none
        soft_first, hard_first = (
            np.where(m.any(axis=0), m.argmax(axis=0), offsets.size)
            for m in (states[1:] >= soft_limits, lethal)
        )
        fail_at = np.append(t_now + offsets, np.inf)[np.minimum(soft_first, hard_first)]
        failed = np.isfinite(fail_at)
        # at one offset the shock check comes first, so a tie is a hard failure
        hard = np.flatnonzero(failed & (hard_first <= soft_first))
        hard_now = [int(i) for i in hard[np.argsort(hard_first[hard], kind="stable")]]
        levels = states[-1]
        down_from = fail_at.min() if s.topology is Topology.SERIES else fail_at.max()
        downtime = max(t_next - down_from, 0.0)

        replaced_ids = [int(i) for i in np.flatnonzero(failed)]
        trace.inspection_times.append(t_next)
        trace.observed_levels.append([float(v) for v in levels])
        trace.replaced.append(replaced_ids)
        trace.hard_failed.append(hard_now)
        trace.interval_downtime.append(float(downtime))
        trace.inspection_cost += costs.inspection_cost
        trace.replacement_cost += sum(costs.replacement_costs[i] for i in replaced_ids)
        trace.downtime_cost += costs.downtime_rate * downtime
        levels[failed] = 0.0
        t_now = t_next
    return trace
