"""Analytic reliability under competing gamma wear and random shocks.

Component reliability at time t from a starting level u conditions on
the shock count m, truncated where the Poisson tail drops below a
configurable epsilon:

    R(t; u) = sum_m  pmf(m) * p_nh^m * S_m(t; u)

where p_nh is the per-shock survival probability and S_m is the soft
survival given m shocks: the gamma CDF convolved with the m-fold
damage law N(m mu, m sigma^2) over the window [0, H - u], cut to
m mu +- 8 sd.  A window below H - u is integrated by a Gauss rule for
the normal law on its span, with no density to evaluate.  Where the
windows reach the headroom H - u, the integrand behaves like
(H - u - y)^(alpha t): the first such window sets one set of
Gauss-Legendre nodes graded toward that end, and it and every later
window weight those shared nodes by their own density.
Given m shocks, shared by all components, a series system is up if
every component is, a parallel one if any is.  Series books the tail
past M as failure, parallel as survival: the exact value lies within
tail_epsilon above or below R.

Each time t_j is truncated at its own level M_j, and its windows below
the headroom get nodes by the Poisson weight of its own decade band of
shock_rate * t_j (see _row_tiers), so a value does not depend on the
other times in the call.  A component evaluates the gamma CDF on each
block's window nodes, then the shared graded set, in blocks of times
sorted by level and band, sums each window's weighted segment and takes
the graded rows as one product with their weight matrix, skipping times
where a Chernoff bound puts every S_m below 2^-60.  A grid's pmf and
blocks are memoized per grid, and the window nodes per component and
tier pattern, as they do not depend on u.  _reliability_grid returns the
system's and every component's reliability from one set of alive
factors.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
from scipy.special import gammaln, pdtrc, xlogy

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
_WINDOW_SIGMAS = 8.0  # half-width of a damage window, in damage sd
_MAX_WINDOW_NODES = 128  # of one window rule, whose Lanczos basis is (n + 1) x max(256, 4n)
_MAX_NODE_COUNT = 4096  # a kernel call holds columns x node_count elements
_MAX_TRUNCATION = 20_000  # shock counts; a grid holds that many rows per time and component
_BLOCK_COLUMNS = 32  # fewest time columns per gamma-CDF call, when there are that many
_TIER_PMF = (0.1, 1e-3)  # the largest pmf over a band that keeps a row at tier 0, at tier 1


@dataclass(frozen=True)
class QuadratureSpec:
    """Numerical policy: damage-integral nodes and the Poisson tail cut.

    node_count      graded Gauss-Legendre nodes shared by the damage windows
                    that reach the headroom (2 to 4,096); a window below it
                    gets up to 3 * node_count // 8 nodes of a Gauss rule for
                    the normal law on its span, or node_count // 2 if cut at
                    0 (1 to 128 each): all of them where its shock count's
                    largest Poisson weight over the time's decade band
                    exceeds 0.1, half above 1e-3 and a quarter below that;
                    32 keep R within 1e-7 of a 512-node rule
    tail_epsilon    Poisson mass allowed beyond the truncation level
    """

    node_count: int = 32
    tail_epsilon: float = 1e-10

    def __post_init__(self):
        if not 2 <= self.node_count <= _MAX_NODE_COUNT:
            raise ValueError(f"node_count must be in [2, {_MAX_NODE_COUNT}]")
        if not 0 < self.tail_epsilon < 1:
            raise ValueError("tail_epsilon must be in (0, 1)")


DEFAULT_QUADRATURE = QuadratureSpec()


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, marked read-only: a cache hands the same ones to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n > 512:  # 8x faster than numpy's at 4,096 nodes, but it loads scipy.linalg
        from scipy.special import roots_legendre
        return _read_only(*roots_legendre(n))
    return _read_only(*np.polynomial.legendre.leggauss(n))


@lru_cache(maxsize=256)
def _window_gauss(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-node Gauss rule for the standard normal law on [a, 8]: nodes inside
    it, weights summing to its mass there.  Lanczos with full
    reorthogonalization on a Gauss-Legendre discretization of [a, 8], in the
    Legendre variable, gives the Jacobi matrix (Golub & Welsch 1969;
    Gautschi 2004, 2.2)."""
    s, w = _leggauss(max(256, 4 * n))
    half = 0.5 * (_WINDOW_SIGMAS - a)
    w = half * w * _normal_pdf(a + half * (s + 1.0), 0.0, 1.0)
    basis, alpha, beta = np.zeros((n + 1, s.size)), np.empty(n), np.empty(n)
    basis[0] = np.sqrt(w / w.sum())
    for k in range(n):
        v = s * basis[k]
        alpha[k] = basis[k] @ v
        for _ in range(2):  # one pass loses orthogonality on these steeply falling weights
            v -= basis.T @ (basis @ v)
        beta[k] = np.linalg.norm(v)
        basis[k + 1] = v / beta[k]
    nodes, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
    return _read_only(a + half * (nodes + 1.0), w.sum() * vectors[0] ** 2)


def _column_levels(mu: np.ndarray, tail_epsilon: float, top: int) -> np.ndarray:
    """truncation_level for each Poisson mean in mu, given a level `top`
    that meets the tail bound for every mean: the count of levels below
    it whose tail P(N > m) is still at least tail_epsilon."""
    return np.count_nonzero(pdtrc(np.arange(top)[:, None], mu) >= tail_epsilon, axis=0)


def truncation_level(shock_rate: float, t: float, tail_epsilon: float) -> int:
    """Smallest M with P(N > M) < tail_epsilon for N ~ Poisson(shock_rate * t)."""
    if shock_rate < 0 or t < 0:
        raise ValueError("shock_rate and t must be >= 0")
    if not 0 < tail_epsilon < 1:
        raise ValueError("tail_epsilon must be in (0, 1)")
    mu = shock_rate * t
    top = 1
    while top <= _MAX_TRUNCATION and not pdtrc(top, mu) < tail_epsilon:
        top *= 2
    level = int(_column_levels(np.asarray([mu]), tail_epsilon, top)[0])
    if level > _MAX_TRUNCATION or not pdtrc(level, mu) < tail_epsilon:
        raise ValueError(f"Poisson mean {mu:g} needs more than {_MAX_TRUNCATION} shock counts")
    return level


def _poisson_pmf_grid(shock_rate: float, t: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """pmf matrix P[m, j] = P(N(t_j) = m) for m <= levels[j] and 0 beyond,
    shape (levels.max() + 1, len(t)), assembled in log space."""
    mu = shock_rate * t
    m = np.arange(levels.max(initial=0) + 1, dtype=float)[:, None]
    logp = m * np.log(np.where(mu > 0, mu, 1.0)) - mu - gammaln(m + 1.0)
    return np.where((m <= levels) & ((mu > 0) | (m == 0)), np.exp(logp), 0.0)


@lru_cache(maxsize=64)
def _windows(c: ComponentParams, q: QuadratureSpec, tiers: bytes):
    """Read-only (ys, weights, bounds, sums) of the damage windows m < len(tiers)
    that end below H; the first that does not ends them, as every window below
    a headroom H - u <= H comes before it (see _damage_stack).  Segment m,
    ys[bounds[m]:bounds[m + 1]], holds a Gauss rule for the law of window m on
    [max(0, m mu - 8 sd), m mu + 8 sd], of 3 * node_count // 8 nodes
    (node_count // 2 if cut at 0) shifted right by its tier tiers[m], at
    least 1; a point mass is one node of weight 1.  sums[m] is window m's
    weight sum, its t = 0 survival.  The windows do not depend on u, so one
    entry serves every state."""
    uncut_count, cut_count = (
        min(max(k, 1), _MAX_WINDOW_NODES) for k in (3 * q.node_count // 8, q.node_count // 2)
    )
    ys, wds = [], []
    for m, tier in enumerate(tiers):
        law = damage_sum_distribution(c, m)
        sd = np.sqrt(law.variance)
        if not law.mean + _WINDOW_SIGMAS * sd < c.soft_threshold:
            break
        if law.degenerate:
            ys.append(np.asarray([law.mean]))
            wds.append(np.ones(1))
            continue
        n = cut_count if law.mean - _WINDOW_SIGMAS * sd <= 0.0 else uncut_count
        x, w = _window_gauss(max(-law.mean / sd, -_WINDOW_SIGMAS), max(n >> tier, 1))
        ys.append(law.mean + sd * x)
        wds.append(w)
    bounds = np.asarray([0, *accumulate(y.size for y in ys)])
    weights = np.concatenate(wds)
    return _read_only(np.concatenate(ys), weights, bounds, np.add.reduceat(weights, bounds[:-1]))


def _damage_stack(c: ComponentParams, u: float, max_m: int, q: QuadratureSpec):
    """The damage rows for m = 0..max_m at level u.

    Returns (flat, shared, graded, at_zero, reach).  The first `flat` rows
    are windows below the headroom H - u (see _windows).  The first window
    that reaches the headroom sets one set of node_count Gauss-Legendre
    nodes graded toward H - u, `shared` (as H - u - y); it and every later
    window weight the set by their own density, one row of graded each.
    at_zero[m] is the t = 0 survival, row m's weight sum at full node
    counts, and reach bounds H - u - y over every node.  The rows stop
    before the first m whose damage mass lies beyond the headroom H - u > 0
    (the window only moves further out as m grows), so S_m is 0 from there.
    """
    head = c.soft_threshold - u
    m = np.arange(max_m + 1)
    mean, sd = m * c.shock_damage_mean, np.sqrt(m * c.shock_damage_sd ** 2)
    lo, end, point = np.maximum(0.0, mean - _WINDOW_SIGMAS * sd), mean + _WINDOW_SIGMAS * sd, sd == 0.0
    rows = int(np.argmin(np.append(np.where(point, mean < head, np.minimum(head, end) > lo), False)))
    flat = int(np.argmax(np.append(~point[:rows] & (end[:rows] >= head), True)))
    shared, graded = np.empty(0), np.empty((0, q.node_count))
    if rows > flat:  # graded toward the (H - u - y)^(alpha t) end
        nodes, gl_weights = _leggauss(q.node_count)
        s = 0.5 * (nodes + 1.0)
        y = head - (head - lo[flat]) * s ** 2
        graded = (head - lo[flat]) * s * gl_weights * _normal_pdf(y, mean[flat:rows, None], sd[flat:rows, None])
        shared = head - y
    at_zero = np.concatenate([_windows(c, q, bytes(max_m + 1))[3][:flat], graded.sum(axis=1)])
    return flat, shared, graded, at_zero, head - mean[:rows].min(initial=0.0)


def _normal_pdf(y: np.ndarray, mean, sd) -> np.ndarray:
    return np.exp(-0.5 * ((y - mean) / sd) ** 2) / (sd * _SQRT_2PI)


def _bands(mu: np.ndarray) -> np.ndarray:
    """The decade band b, 10^b <= mu < 10^(b + 1), of each Poisson mean; a mean
    of 0 joins the band of 1e-300, where only m = 0 has weight."""
    return np.floor(np.log10(np.maximum(mu, 1e-300))).astype(int)


def _row_tiers(band: int, rows: int) -> np.ndarray:
    """Read-only tier of each shock count m < rows for times in decade `band`:
    0 (every node of a window below the headroom) where the largest pmf(m; mu)
    over the band, pmf(m; clip(m, 10^b, 10^(b + 1))), exceeds 0.1, 1 (half)
    where it exceeds 1e-3 and 2 (a quarter) below that."""
    m = np.arange(rows, dtype=float)
    mu = np.clip(m, 10.0 ** band, 10.0 ** (band + 1))
    peak = np.exp(xlogy(m, mu) - mu - gammaln(m + 1.0))
    return _read_only(((peak <= _TIER_PMF[0]) + (peak <= _TIER_PMF[1]).astype(np.int8)))[0]


def _column_blocks(t: np.ndarray, levels: np.ndarray, bands: np.ndarray):
    """(columns, rows, tiers) blocks of the times t > 0, in order of level and
    band.  A block is evaluated for its highest level, on `rows` = that level
    + 1 shock counts, row m at tier tiers[m] (see _row_tiers).  Blocks are cut
    where the level rises and both sides hold at least _BLOCK_COLUMNS times
    (fewer blocks save calls, smaller ones kernel elements), and wherever the
    next band's tiers differ from the block's on the rows both use, so every
    time's rows take its own band's tiers."""
    alive = np.flatnonzero(t > 0)
    if not alive.size:
        return []
    order = alive[np.lexsort((bands[alive], levels[alive]))]
    ranked, ranked_bands = levels[order], bands[order]
    blocks, first = [], 0
    tiers = _row_tiers(int(ranked_bands[0]), int(ranked[0]) + 1)
    for k in np.flatnonzero(np.diff(ranked) | np.diff(ranked_bands)) + 1:
        nxt = _row_tiers(int(ranked_bands[k]), int(ranked[k]) + 1)
        rise = ranked[k] > ranked[k - 1] and min(k - first, ranked.size - k) >= _BLOCK_COLUMNS
        if rise or not np.array_equal(nxt[:tiers.size], tiers):
            blocks.append((order[first:k], tiers.size, tiers))
            first = k
        tiers = nxt
    blocks.append((order[first:], tiers.size, tiers))
    return blocks


def _soft_survival_grid(
    c: ComponentParams, t: np.ndarray, u: float, top: int, blocks, q: QuadratureSpec
) -> np.ndarray:
    """Matrix S[m, j] = P(X(t_j) + damage_m + u < H), shape (top + 1, len(t)),
    for m below each block's rows; entries past them are left at 0, as are the
    times where, by Chernoff, every S_m <= max(at_zero) exp(-a (r - 1 - ln r))
    < 2^-60 (a = alpha t, r = beta reach / a < 1; a suffix in t)."""
    out = np.zeros((top + 1, t.size))
    head = c.soft_threshold - u
    if head <= 0:
        return out
    n_flat, shared, graded, at_zero, reach = _damage_stack(c, u, top, q)
    out[:at_zero.size, t == 0] = at_zero[:, None]
    reach, shape = c.gamma_rate * reach, c.gamma_shape_rate * t
    r = reach / np.maximum(shape, reach)  # r = 1, no bound, where beta x >= a
    live = shape * (r - 1.0 - np.log(r)) <= np.log(2.0 ** 60 * at_zero.max())
    for cols, rows, tiers in blocks:
        cols = cols[live[cols]]
        if not cols.size:
            continue
        rows = min(rows, at_zero.size)
        flat = min(rows, n_flat)  # the rest weight the shared graded set
        ys, weights, bounds, _ = _windows(c, q, tiers.tobytes())
        e = bounds[flat]
        x = head - ys[:e]
        g = gamma_cdf(np.concatenate((x, shared)) if rows > flat else x, shape[cols, None], c.gamma_rate)
        out[:flat, cols] = np.add.reduceat(g[:, :e] * weights[:e], bounds[:flat], axis=1).T
        if rows > flat:
            out[flat:rows, cols] = graded[:rows - flat] @ g[:, e:].T
    return np.clip(out, 0.0, 1.0)


def soft_survival_given_m(
    c: ComponentParams, t: float, u: float, m: int, q: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """P(degradation from level u stays below H by t | m shocks hit)."""
    if t < 0 or u < 0 or m < 0:
        raise ValueError("t, u and m must be >= 0")
    grid = np.asarray([t], dtype=float)
    blocks = [(np.flatnonzero(grid > 0), m + 1, np.zeros(m + 1, np.int8))]  # every node: no Poisson weight
    return float(_soft_survival_grid(c, grid, u, m, blocks, q)[m, 0])


def _as_time_grid(t) -> tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if arr.ndim != 1:
        raise ValueError("t must be a scalar or 1-D array")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite and >= 0")
    return arr, np.isscalar(t) or getattr(t, "ndim", 1) == 0


@lru_cache(maxsize=4)  # a solve's scan grid repeats; an entry holds a (top + 1) x len(t) pmf
def _grid_plan(shock_rate: float, t_bytes: bytes, tail_epsilon: float, top: int):
    """Read-only (pmf, blocks) for the float64 times in t_bytes, cut at top."""
    t = np.frombuffer(t_bytes)
    levels = _column_levels(shock_rate * t, tail_epsilon, top)
    pmf = _poisson_pmf_grid(shock_rate, t, levels)
    blocks = tuple(_column_blocks(t, levels, _bands(shock_rate * t)))
    _read_only(pmf, *(cols for cols, _, _ in blocks))
    return pmf, blocks


def _reliability_grid(
    s: SystemModel, t: np.ndarray, u: np.ndarray, q: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(R_sys, R) on the time grid t: the system's reliability under its
    topology and each component's, R[i], from one set of alive factors
    p_nh^m * S_m(t_j; u_i) per component."""
    top = truncation_level(s.shock_rate, float(t.max(initial=0.0)), q.tail_epsilon)
    pmf, blocks = _grid_plan(s.shock_rate, t.tobytes(), q.tail_epsilon, top)
    alive = np.stack([
        (prob_no_hard_failure(c) ** np.arange(top + 1))[:, None]
        * _soft_survival_grid(c, t, float(ui), top, blocks, q)
        for c, ui in zip(s.components, u)
    ])
    if s.topology is Topology.SERIES:
        r = np.sum(pmf * np.prod(alive, axis=0), axis=0)
    else:
        r = 1.0 - np.sum(pmf * np.prod(1.0 - alive, axis=0), axis=0)
    return np.clip(r, 0.0, 1.0), np.clip(np.sum(pmf * alive, axis=1), 0.0, 1.0)


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
    s = SystemModel((c,), shock_rate=shock_rate)
    r = _reliability_grid(s, grid, np.asarray([float(u)]), q)[1][0]
    return float(r[0]) if scalar else r


def system_reliability(s: SystemModel, t, u=None, q: QuadratureSpec = DEFAULT_QUADRATURE):
    """Reliability of the system under its topology at time(s) t from levels u."""
    levels = as_levels(u, s.n)
    grid, scalar = _as_time_grid(t)
    r = _reliability_grid(s, grid, levels, q)[0]
    return float(r[0]) if scalar else r
