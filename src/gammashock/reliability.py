"""Analytic reliability under competing gamma wear and random shocks.

Component reliability at time t from a starting level u conditions on
the shock count m, truncated where the Poisson tail drops below a
configurable epsilon:

    R(t; u) = sum_m  pmf(m) * p_nh^m * S_m(t; u)

where p_nh is the per-shock survival probability and S_m is the soft
survival given m shocks: the gamma CDF convolved with the m-fold
damage law over the window [0, H - u].  Series and parallel formulas
apply the same conditioning with a single shared shock count, which is
what couples the components.

Internally the damage windows for every m are stacked so each
component needs one vectorized gamma CDF evaluation per time grid, and
the stacks are memoized per (component, level) pair; the repeated
single-time calls made by the interval optimizer hit that cache.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .core import (
    ComponentParams,
    SystemModel,
    Topology,
    as_levels,
    damage_sum_distribution,
    gamma_cdf,
    prob_no_hard_failure,
)

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_MAX_TRUNCATION = 100_000


@dataclass(frozen=True)
class QuadratureSpec:
    """Numerical policy: damage-integral nodes, Poisson tail cut, window width.

    node_count      Gauss-Legendre nodes for the damage convolution
    tail_epsilon    Poisson mass allowed beyond the truncation level
    domain_sigmas   half-width of the damage window in damage-sd units
    """

    node_count: int = 64
    tail_epsilon: float = 1e-10
    domain_sigmas: float = 8.0

    def __post_init__(self):
        if not self.node_count >= 2:
            raise ValueError("node_count must be >= 2")
        if not 0 < self.tail_epsilon < 1:
            raise ValueError("tail_epsilon must be in (0, 1)")
        if not self.domain_sigmas > 0:
            raise ValueError("domain_sigmas must be > 0")


DEFAULT_QUADRATURE = QuadratureSpec()


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def truncation_level(shock_rate: float, t: float, tail_epsilon: float) -> int:
    """Smallest M with P(N > M) < tail_epsilon for N ~ Poisson(shock_rate * t)."""
    if shock_rate < 0 or t < 0:
        raise ValueError("shock_rate and t must be >= 0")
    if not 0 < tail_epsilon < 1:
        raise ValueError("tail_epsilon must be in (0, 1)")
    mu = shock_rate * t
    if mu == 0:
        return 0
    # Cumulate pmf terms by recurrence until the remaining tail is small.
    term = np.exp(-mu)
    cum = term
    m = 0
    while 1.0 - cum >= tail_epsilon:
        m += 1
        if m > _MAX_TRUNCATION:
            raise RuntimeError("Poisson truncation did not converge")
        term *= mu / m
        cum += term
    return m


def _poisson_pmf_grid(shock_rate: float, t: np.ndarray, max_m: int) -> np.ndarray:
    """pmf matrix of shape (max_m + 1, len(t)), log-space assembly."""
    mu = shock_rate * t
    m = np.arange(max_m + 1, dtype=float)[:, None]
    out = np.zeros((max_m + 1, t.size))
    pos = mu > 0
    if np.any(pos):
        logmu = np.log(np.where(pos, mu, 1.0))
        logp = m * logmu[None, :] - mu[None, :] - gammaln(m + 1.0)
        out = np.where(pos[None, :], np.exp(logp), 0.0)
    if np.any(~pos):
        out[0, ~pos] = 1.0
        out[1:, ~pos] = 0.0
    return out


@lru_cache(maxsize=4096)
def _damage_stack(c: ComponentParams, u: float, max_m: int, q: QuadratureSpec):
    """Stacked damage-convolution nodes for m = 0..max_m at level u.

    Returns (ys, weighted_density, segment_bounds, at_zero) where the
    m-th segment of ys holds that convolution's integration nodes (one
    node carrying weight 1 for a point mass, none when the damage mass
    lies beyond the remaining headroom) and at_zero[m] is the t = 0
    survival, the plain window mass.
    """
    head = c.soft_threshold - u
    nodes, weights = _leggauss(q.node_count)
    ys: list[np.ndarray] = []
    wds: list[np.ndarray] = []
    bounds = [0]
    at_zero = np.zeros(max_m + 1)
    for m in range(max_m + 1):
        law = damage_sum_distribution(c, m)
        if law.degenerate:
            if law.mean < head:
                ys.append(np.asarray([law.mean]))
                wds.append(np.asarray([1.0]))
                at_zero[m] = 1.0
        else:
            sd = np.sqrt(law.variance)
            lo = max(0.0, law.mean - q.domain_sigmas * sd)
            hi = min(head, law.mean + q.domain_sigmas * sd)
            if hi > lo:
                y = 0.5 * (hi - lo) * (nodes + 1.0) + lo
                dens = np.exp(-0.5 * ((y - law.mean) / sd) ** 2) / (sd * _SQRT_2PI)
                wd = 0.5 * (hi - lo) * weights * dens
                ys.append(y)
                wds.append(wd)
                at_zero[m] = wd.sum()
        bounds.append(sum(len(a) for a in ys))
    ys_arr = np.concatenate(ys) if ys else np.empty(0)
    wds_arr = np.concatenate(wds) if wds else np.empty(0)
    return ys_arr, wds_arr, tuple(bounds), at_zero


def _soft_survival_grid(
    c: ComponentParams, t: np.ndarray, u: float, max_m: int, q: QuadratureSpec
) -> np.ndarray:
    """Matrix S[m, j] = P(X(t_j) + damage_m + u < H), shape (max_m + 1, len(t))."""
    if c.soft_threshold - u <= 0:
        return np.zeros((max_m + 1, t.size))
    ys, wds, bounds, at_zero = _damage_stack(c, u, max_m, q)
    out = np.zeros((max_m + 1, t.size))
    zero = t == 0
    out[:, zero] = at_zero[:, None]
    alive = ~zero
    if np.any(alive) and ys.size:
        shape = (c.gamma_shape_rate * t[alive])[:, None]
        g = gamma_cdf((c.soft_threshold - u) - ys[None, :], shape, c.gamma_rate)
        for m in range(max_m + 1):
            s, e = bounds[m], bounds[m + 1]
            if e > s:
                out[m, alive] = g[:, s:e] @ wds[s:e]
    return np.clip(out, 0.0, 1.0)


def soft_survival_given_m(
    c: ComponentParams, t: float, u: float, m: int, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """P(degradation from level u stays below H by t | m shocks hit)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if u < 0:
        raise ValueError("u must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    grid = np.asarray([t], dtype=float)
    return float(_soft_survival_grid(c, grid, u, m, q)[m, 0])


def _alive_factor_grid(
    c: ComponentParams, t: np.ndarray, u: float, max_m: int, q: QuadratureSpec
) -> np.ndarray:
    """Matrix A[m, j] = p_nh^m * S_m(t_j; u), shape (max_m + 1, len(t))."""
    pnh = prob_no_hard_failure(c) ** np.arange(max_m + 1)
    return pnh[:, None] * _soft_survival_grid(c, t, u, max_m, q)


def _as_time_grid(t) -> tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if arr.ndim != 1:
        raise ValueError("t must be a scalar or 1-D array")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite and >= 0")
    return arr, np.isscalar(t) or getattr(t, "ndim", 1) == 0


def component_reliability(
    c: ComponentParams,
    shock_rate: float,
    t,
    u: float = 0.0,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
):
    """Reliability of a single component at time(s) t from level u."""
    if u < 0:
        raise ValueError("u must be >= 0")
    grid, scalar = _as_time_grid(t)
    max_m = truncation_level(shock_rate, float(grid.max(initial=0.0)), q.tail_epsilon)
    pmf = _poisson_pmf_grid(shock_rate, grid, max_m)
    r = np.sum(pmf * _alive_factor_grid(c, grid, float(u), max_m, q), axis=0)
    r = np.clip(r, 0.0, 1.0)
    return float(r[0]) if scalar else r


def _system_grid(
    s: SystemModel, t: np.ndarray, u: np.ndarray, q: QuadratureSpec, topology: Topology
) -> np.ndarray:
    max_m = truncation_level(s.shock_rate, float(t.max(initial=0.0)), q.tail_epsilon)
    pmf = _poisson_pmf_grid(s.shock_rate, t, max_m)
    factors = [
        _alive_factor_grid(c, t, float(ui), max_m, q)
        for c, ui in zip(s.components, u)
    ]
    prod = np.ones_like(pmf)
    if topology is Topology.SERIES:
        for a in factors:
            prod *= a
        r = np.sum(pmf * prod, axis=0)
    else:
        for a in factors:
            prod *= 1.0 - a
        r = 1.0 - np.sum(pmf * prod, axis=0)
    return np.clip(r, 0.0, 1.0)


def series_reliability(s: SystemModel, t, u=None, q: QuadratureSpec = DEFAULT_QUADRATURE):
    """System survives iff every component survives; shared shock count."""
    levels = as_levels(u, s.n)
    grid, scalar = _as_time_grid(t)
    r = _system_grid(s, grid, levels, q, Topology.SERIES)
    return float(r[0]) if scalar else r


def parallel_reliability(s: SystemModel, t, u=None, q: QuadratureSpec = DEFAULT_QUADRATURE):
    """System survives iff at least one component survives."""
    levels = as_levels(u, s.n)
    grid, scalar = _as_time_grid(t)
    r = _system_grid(s, grid, levels, q, Topology.PARALLEL)
    return float(r[0]) if scalar else r


def system_reliability(s: SystemModel, t, u=None, q: QuadratureSpec = DEFAULT_QUADRATURE):
    """Dispatch on the system's topology."""
    if s.topology is Topology.SERIES:
        return series_reliability(s, t, u, q)
    return parallel_reliability(s, t, u, q)
