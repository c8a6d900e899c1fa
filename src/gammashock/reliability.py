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

Each time t_j is truncated at its own level M_j, so a value does not
depend on the other times in the call.  The damage nodes for every m
are stacked, the shared graded set last; a component evaluates the
gamma CDF on each time's prefix of the stack, in blocks of times sorted
by level, sums each window's weighted segment and takes the graded rows
as one product with their weight matrix, skipping times where a Chernoff
bound puts every S_m below 2^-60.  A grid's pmf and blocks are memoized
per grid.  _reliability_grid returns the system's and every component's
reliability from one set of alive factors.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
from scipy.special import gammaln, pdtrc

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Numerical policy: damage-integral nodes and the Poisson tail cut.

    node_count      graded Gauss-Legendre nodes shared by the damage windows
                    that reach the headroom (2 to 4,096); a window below it
                    gets 3 * node_count // 8 nodes of a Gauss rule for the
                    normal law on its span, or node_count // 2 if cut at 0
                    (1 to 128 each); 32 keep R within 1e-7 of a 512-node rule
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


def _damage_stack(c: ComponentParams, u: float, max_m: int, q: QuadratureSpec):
    """Stacked damage-convolution nodes for m = 0..max_m at level u.

    Returns (ys, weights, ends, graded, at_zero).  Up to the first window
    that reaches the headroom H - u, segment m of ys, ending at ends[m],
    holds window m's nodes (one node carrying weight 1 for a point mass),
    with one weight per node in weights.  That window sets one graded
    node set, which ends ys; it and every later window weight the set by
    their own density, one row of graded each.  at_zero[m] is the t = 0
    survival, row m's weight sum.  The stack stops before the first m
    whose damage mass lies beyond the headroom H - u > 0 (the window only
    moves further out as m grows), so S_m is 0 from there.
    """
    head = c.soft_threshold - u
    nodes, gl_weights = _leggauss(q.node_count)
    uncut_count, cut_count = (
        min(max(k, 1), _MAX_WINDOW_NODES) for k in (3 * q.node_count // 8, q.node_count // 2)
    )
    ys, wds, graded = [], [], []  # node arrays, their weights, rows of graded weights
    shared = np.empty(0)
    for m in range(max_m + 1):
        law = damage_sum_distribution(c, m)
        if law.degenerate:
            if not law.mean < head:
                break
            ys.append(np.asarray([law.mean]))
            wds.append(np.ones(1))
            continue
        sd = np.sqrt(law.variance)
        lo, hi = max(0.0, law.mean - _WINDOW_SIGMAS * sd), min(head, law.mean + _WINDOW_SIGMAS * sd)
        if not hi > lo:
            break
        if hi == head:  # graded toward the (H - u - y)^(alpha t) end, set once
            if not shared.size:
                s = 0.5 * (nodes + 1.0)
                shared, shared_w = head - (head - lo) * s ** 2, (head - lo) * s * gl_weights
            graded.append(shared_w * _normal_pdf(shared, law.mean, sd))
            continue
        # below H - u: a rule for the law on [max(0, m mu - 8 sd), m mu + 8 sd]
        n = cut_count if lo == 0.0 else uncut_count
        x, w = _window_gauss(max(-law.mean / sd, -_WINDOW_SIGMAS), n)
        ys.append(law.mean + sd * x)
        wds.append(w)
    ends = list(accumulate(y.size for y in ys))
    weights, graded = np.concatenate(wds), np.reshape(graded, (-1, q.node_count))
    at_zero = np.concatenate([np.add.reduceat(weights, [0, *ends[:-1]]), graded.sum(axis=1)])
    return np.concatenate([*ys, shared]), weights, ends, graded, at_zero


def _normal_pdf(y: np.ndarray, mean: float, sd: float) -> np.ndarray:
    return np.exp(-0.5 * ((y - mean) / sd) ** 2) / (sd * _SQRT_2PI)


def _column_blocks(t: np.ndarray, levels: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(columns, rows) blocks of the times t > 0, grouped in order of level
    into blocks of at least _BLOCK_COLUMNS (fewer only when there are fewer
    times), each cut where the level rises.  A block is evaluated for its
    highest level, on `rows` = that level + 1 shock counts, so small blocks
    save kernel elements and large ones save calls."""
    alive = np.flatnonzero(t > 0)
    order = alive[np.argsort(levels[alive], kind="stable")]
    ranked = levels[order]
    cuts = [0]
    for k in np.flatnonzero(np.diff(ranked)) + 1:
        if k - cuts[-1] >= _BLOCK_COLUMNS and ranked.size - k >= _BLOCK_COLUMNS:
            cuts.append(k)
    cuts.append(ranked.size)
    return [(order[a:b], int(ranked[b - 1]) + 1) for a, b in zip(cuts, cuts[1:]) if b > a]


def _soft_survival_grid(
    c: ComponentParams, t: np.ndarray, u: float, top: int, blocks, q: QuadratureSpec
) -> np.ndarray:
    """Matrix S[m, j] = P(X(t_j) + damage_m + u < H), shape (top + 1, len(t)),
    for m below each block's rows; entries past them are left at 0, as are the
    times where, by Chernoff, every S_m <= max(at_zero) exp(-a (r - 1 - ln r))
    < 2^-60 (a = alpha t, r = beta (H - u - min ys) / a < 1; a suffix in t)."""
    out = np.zeros((top + 1, t.size))
    head = c.soft_threshold - u
    if head <= 0:
        return out
    ys, weights, ends, graded, at_zero = _damage_stack(c, u, top, q)
    out[:at_zero.size, t == 0] = at_zero[:, None]
    reach, floor = c.gamma_rate * (head - ys.min()), np.log(2.0 ** 60 * at_zero.max())
    for cols, rows in blocks:
        a = c.gamma_shape_rate * t[cols]
        r = reach / np.maximum(a, reach)  # r = 1, no bound, where beta x >= a
        live = a * (r - 1.0 - np.log(r)) <= floor
        if not live.any():
            continue
        cols, a = cols[live], a[live]
        rows = min(rows, at_zero.size)
        flat = min(rows, len(ends))  # the rest weight the shared graded set
        e = ends[flat - 1]
        g = gamma_cdf(head - ys[None, :e if rows == flat else None], a[:, None], c.gamma_rate)
        out[:flat, cols] = np.add.reduceat(g[:, :e] * weights[:e], [0, *ends[:flat - 1]], axis=1).T
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
    blocks = _column_blocks(grid, np.asarray([m]))
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
    pmf, blocks = _poisson_pmf_grid(shock_rate, t, levels), tuple(_column_blocks(t, levels))
    _read_only(pmf, *(cols for cols, _ in blocks))
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
