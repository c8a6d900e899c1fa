"""Cost-optimal next-inspection scheduling and scenario datasets.

The planning objective balances three costs over the next interval of
length tau, starting from the currently observed degradation levels u:

    CR(tau; u) = [ C_I
                   + sum_i C_Ri * (1 - R_i(tau; u_i))
                   + C_D * integral_0^tau (1 - R_sys(t; u)) dt ] / tau

Each component pays its replacement cost when it itself fails, so the
replacement term uses per-component reliability; the downtime term uses
the system reliability under the configured topology.  Both come from
one reliability grid per evaluation.  cost_rate integrates with 32
Gauss-Legendre nodes over [0, tau], within 1e-6 relative of 256 nodes.
The solver's one scan prices 100 log-spaced taus from R_sys and R_i at the
taus (and a first-panel midpoint), integrating each later interval in ln t
with 10-point interpolatory weights, within 1e-6 relative of cost_rate.
tau* and CR* come from a degree-9 fit to those cost rates (Brent 1973,
ch. 5; see _fit_minimum), CR* within 1e-7 relative of a 256-node pricing.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .core import SystemModel, as_levels
from .reliability import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    _as_time_grid,
    _leggauss,
    _reliability_grid,
    component_reliability,  # unused here; perfbench/tracing.py wraps both by this path
    system_reliability,
)

COST_INTEGRAL_NODES = 32
_STENCIL = 10  # grid points per interval in the scan's log-time rule
_MAX_GRID_POINTS = 20_000  # a scan's grid holds (top + 1) rows per point and component
DEFAULT_BOUNDS = (0.1, 50.0)

_STREAM_DATASET = 101
_STREAM_SPLIT = 102


class NumericsError(RuntimeError):
    """The planning objective produced a non-finite value."""


@dataclass(frozen=True)
class CostParams:
    """Money amounts: per inspection, per component replacement, per unit downtime."""

    inspection_cost: float
    replacement_costs: tuple[float, ...]
    downtime_rate: float

    def __post_init__(self):
        object.__setattr__(
            self, "replacement_costs", tuple(float(c) for c in self.replacement_costs)
        )
        if not self.inspection_cost > 0:
            raise ValueError("inspection_cost must be > 0")
        if len(self.replacement_costs) == 0 or not all(c > 0 for c in self.replacement_costs):
            raise ValueError("replacement_costs must all be > 0")
        if not self.downtime_rate >= 0:
            raise ValueError("downtime_rate must be >= 0")


def _check_pairing(s: SystemModel, costs: CostParams):
    if len(costs.replacement_costs) != s.n:
        raise ValueError(f"{len(costs.replacement_costs)} costs.replacement_costs for "
                         f"{s.n} system.components")


def _check_bounds(bounds, name: str) -> tuple[float, float]:
    lo, hi = (float(v) for v in bounds)
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"{name} must satisfy 0 < lo < hi < inf, got ({lo:g}, {hi:g})")
    return lo, hi


def _check_solver(bounds, tol, grid_points) -> tuple[float, float]:
    """Check the settings SolverConfig and optimal_inspection_time share."""
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not 3 <= grid_points <= _MAX_GRID_POINTS:
        raise ValueError(f"grid_points must be in [3, {_MAX_GRID_POINTS}]")
    return _check_bounds(bounds, "bounds (tau_min, tau_max)")


def _cost_rate_from(costs, taus, comps, downtime) -> np.ndarray:
    """CR over taus given each R_i at taus and int_0^tau (1 - R_sys) dt."""
    repl = np.zeros_like(taus)
    for cri, r in zip(costs.replacement_costs, comps):
        repl += cri * (1.0 - r)
    return (costs.inspection_cost + repl + costs.downtime_rate * downtime) / taus


def cost_rate_batch(
    s: SystemModel,
    costs: CostParams,
    taus,
    u=None,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """Vector of CR(tau; u) over an array of candidate intervals."""
    _check_pairing(s, costs)
    levels = as_levels(u, s.n)
    grid, _ = _as_time_grid(taus)
    if np.any(grid <= 0):
        raise ValueError("tau must be > 0")
    xi, w = _leggauss(COST_INTEGRAL_NODES)
    half = 0.5 * grid
    nodes = (half[:, None] * (xi[None, :] + 1.0)).ravel()
    rsys, comps = _reliability_grid(s, np.concatenate((nodes, grid)), levels, q)
    downtime = half * ((1.0 - rsys[:nodes.size].reshape(grid.size, -1)) @ w)
    return _cost_rate_from(costs, grid, comps[:, nodes.size:], downtime)


def cost_rate(
    s: SystemModel,
    costs: CostParams,
    tau: float,
    u=None,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Expected cost per unit time if the next inspection happens at tau."""
    return float(cost_rate_batch(s, costs, np.asarray([tau], dtype=float), u, q)[0])


@lru_cache(maxsize=8)
def _log_time_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, w) for integrating over n uniformly spaced nodes: interval j
    (nodes j to j+1) is sum_k w[j, k] * g[idx[j, k]] in units of the
    spacing, from the interpolant through the _STENCIL nearest nodes (all
    n when there are fewer).  Each weight is the integral of a Lagrange
    basis polynomial, formed in integers and rounded once."""
    k = min(_STENCIL, n)
    scale = math.lcm(*range(1, k + 1))
    rows = np.empty((k - 1, k))
    for i in range(k):
        others = [j for j in range(k) if j != i]
        coef = [1]  # coefficients of prod(x - j for j in others), lowest power first
        for j in others:
            coef = [a - j * b for a, b in zip([0] + coef, coef + [0])]
        anti = [0] + [scale // (p + 1) * c for p, c in enumerate(coef)]
        at = [sum(c * x ** p for p, c in enumerate(anti)) for x in range(k)]
        rows[:, i] = np.diff(at) / (scale * math.prod(i - j for j in others))
    start = np.clip(np.arange(n - 1) - (_STENCIL // 2 - 1), 0, n - k)
    return start[:, None] + np.arange(k), rows[np.arange(n - 1) - start]


def _scan(s, costs, grid, levels, q):
    """(cum, cr) at the log-spaced taus in grid: the downtime integrals
    int_0^tau (1 - R_sys) dt and the cost rates.  [0, grid[0]]
    is one Simpson panel; each later interval integrates g = (1 - R_sys) * t
    over s = ln t with _log_time_rule, so the reliability grid holds only
    0, grid[0] / 2 and the taus."""
    _check_pairing(s, costs)
    t = np.concatenate(([0.0, 0.5 * grid[0]], grid))
    rsys, comps = _reliability_grid(s, t, levels, q)
    lost = 1.0 - rsys
    idx, w = _log_time_rule(grid.size)
    g = lost[2:] * grid
    steps = math.log(grid[1] / grid[0]) * np.sum(w * g[idx], axis=1)
    first = grid[0] / 6.0 * (lost[0] + 4.0 * lost[1] + lost[2])
    cum = first + np.concatenate(([0.0], np.cumsum(steps)))
    return cum, _cost_rate_from(costs, grid, comps[:, 2:], cum)


def _fit_minimum(grid, cr, i) -> tuple[float, float]:
    """(tau, value) at the minimum over [grid[i - 1], grid[i + 1]], clipped to the
    grid, of the polynomial in offsets k - i of ln tau through cr on _log_time_rule's
    stencil: tau is a bracket end (as its grid point) or a real critical point."""
    n = grid.size
    idx = _log_time_rule(n)[0][min(i, n - 2)]
    half = (idx.size - 1) / 2  # offsets / half lie in about [-1, 1], where the fit keeps its digits
    c = P.polyfit((idx - i) / half, cr[idx], idx.size - 1)
    ends = np.asarray([max(i - 1, 0), min(i + 1, n - 1)])
    x = half * P.polyroots(P.polyder(c))
    x = x[(x.imag == 0) & (x.real > ends[0] - i) & (x.real < ends[1] - i)].real
    taus = np.concatenate((grid[ends], grid[i] * np.exp(math.log(grid[1] / grid[0]) * x)))
    values = P.polyval(np.concatenate((ends - i, x)) / half, c)
    best = int(np.argmin(values))
    return float(taus[best]), float(values[best])


@dataclass(frozen=True)
class TauSolution:
    """Solver output: the interval, its cost rate, and a boundary flag."""

    tau_star: float
    cost_rate_star: float
    boundary: bool


def optimal_inspection_time(
    s: SystemModel,
    costs: CostParams,
    u=None,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    tol: float = 1e-4,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
    grid_points: int = 100,
) -> TauSolution:
    """Minimize the cost rate over tau in [bounds[0], bounds[1]].

    One pass prices a log-spaced grid from the reliabilities at the grid
    points, 0 and half the first point, summing the downtime integral with
    a 10-point rule in log-time (see _scan).  The degree-9 polynomial in
    ln tau through the scanned cost rates around the argmin is minimized
    over the argmin's two neighbouring intervals (see _fit_minimum): its
    minimizer is tau*, and its value there is CR*, within 1e-7 relative of
    the objective priced on a 256-node cost integral.  tol is only the
    boundary margin: a tau* within tol of either search bound is flagged as
    a boundary solution.
    """
    lo, hi = _check_solver(bounds, tol, grid_points)
    levels = as_levels(u, s.n)
    grid = np.geomspace(lo, hi, grid_points)
    _, scan = _scan(s, costs, grid, levels, q)
    bad = ~np.isfinite(scan)
    if np.any(bad):
        raise NumericsError(f"non-finite cost rate at tau={grid[bad][0]:.6g}")
    tau_star, cr_star = _fit_minimum(grid, scan, int(np.argmin(scan)))
    return TauSolution(tau_star, cr_star, tau_star <= lo + tol or tau_star >= hi - tol)


@lru_cache(maxsize=64)
def system_fingerprint(s: SystemModel, costs: CostParams | None = None) -> str:
    """Stable short hash of the model (and optionally cost) parameters.

    Parameters are hashed as floats, so arguments that compare equal (the
    cache's key) always share a fingerprint.
    """
    payload = {
        "topology": s.topology.value,
        "shock_rate": float(s.shock_rate),
        "components": [[float(v) for v in astuple(c)] for c in s.components],
    }
    if costs is not None:
        payload["costs"] = [
            float(costs.inspection_cost),
            list(costs.replacement_costs),
            float(costs.downtime_rate),
        ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Scenario:
    """One solved planning instance: a state and its optimal interval."""

    scenario_id: int
    u: tuple[float, ...]
    tau_star: float
    cost_rate_star: float
    solve_ms: float = float("nan")
    boundary: bool = False
    split: str = ""  # "", "train" or "test"


@dataclass(frozen=True)
class Dataset:
    """Solved scenarios for one system/cost pairing, with split labels."""

    fingerprint: str
    bounds: tuple[float, float]
    scenarios: tuple[Scenario, ...]

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "bounds", _check_bounds(self.bounds, "bounds"))

    def __len__(self) -> int:
        return len(self.scenarios)

    def rows(self, split: str) -> tuple[Scenario, ...]:
        return tuple(sc for sc in self.scenarios if sc.split == split)

    @property
    def has_split(self) -> bool:
        return all(sc.split in ("train", "test") for sc in self.scenarios)


def _check_regimes(light_fraction, heavy_range) -> tuple[float, float]:
    """Check the fractions DatasetConfig and two_regime_state_sampler share."""
    if not 0 < light_fraction <= 1:
        raise ValueError("light_fraction must be in (0, 1]")
    flo, fhi = (float(v) for v in heavy_range)
    if not 0 < flo < fhi <= 1:
        raise ValueError("heavy_range must satisfy 0 < lo < hi <= 1")
    return flo, fhi


def two_regime_state_sampler(
    s: SystemModel,
    light_fraction: float = 0.2,
    heavy_range: tuple[float, float] = (0.4, 0.8),
) -> Callable[[np.random.Generator], np.ndarray]:
    """States from the two regimes a planner actually faces, in equal shares.

    A lightly worn fleet (u_i up to light_fraction * H_i) has a finite
    cost-optimal interval; a heavily worn one (u_i between the
    heavy_range fractions of H_i) is cheapest to run to failure, so the
    solver pins tau at the search ceiling.  One coin flip per scenario
    picks the regime for all components together.  The band between the
    regimes is deliberately not sampled: there the two candidate optima
    nearly tie and the winning tau flips discontinuously, which makes a
    useless regression target.
    """
    flo, fhi = _check_regimes(light_fraction, heavy_range)
    h = np.asarray([c.soft_threshold for c in s.components])

    def sample(rng: np.random.Generator) -> np.ndarray:
        if rng.random() < 0.5:
            return rng.uniform(0.0, light_fraction * h)
        return rng.uniform(flo * h, fhi * h)

    return sample


def generate_dataset(
    s: SystemModel,
    costs: CostParams,
    n_scenarios: int,
    seed: int,
    u_sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    tol: float = 1e-4,
    q: QuadratureSpec = DEFAULT_QUADRATURE,
    grid_points: int = 100,
) -> Dataset:
    """Sample states, solve each for tau*, and record solve wall times.

    The default sampler draws from the two-regime distribution; pass any
    callable from a Generator to a state for another design.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be >= 1")
    if u_sampler is None:
        u_sampler = two_regime_state_sampler(s)
    rng = np.random.default_rng((seed, _STREAM_DATASET))
    states = [u_sampler(rng) for _ in range(n_scenarios)]
    rows = []
    for k, u in enumerate(states):
        t0 = time.perf_counter()
        sol = optimal_inspection_time(s, costs, u, bounds, tol, q, grid_points)
        ms = (time.perf_counter() - t0) * 1e3
        rows.append(
            Scenario(
                scenario_id=k,
                u=tuple(float(v) for v in u),
                tau_star=sol.tau_star,
                cost_rate_star=sol.cost_rate_star,
                solve_ms=ms,
                boundary=sol.boundary,
            )
        )
    return Dataset(system_fingerprint(s, costs), bounds, rows)


def split_dataset(d: Dataset, train_fraction: float, seed: int) -> Dataset:
    """Random train/test partition with round(n * fraction) training rows."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(d)
    if n < 2:
        raise ValueError("need at least 2 scenarios to split")
    k = int(round(n * train_fraction))
    if k < 1 or k > n - 1:
        raise ValueError("train_fraction leaves an empty split")
    rng = np.random.default_rng((seed, _STREAM_SPLIT))
    order = rng.permutation(n)
    train_ids = set(int(i) for i in order[:k])
    rows = tuple(
        replace(sc, split="train" if sc.scenario_id in train_ids else "test")
        for sc in d.scenarios
    )
    return Dataset(d.fingerprint, d.bounds, rows)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _dump(value):
    """The JSON form of a dataclass, field by field: tuples, lists and arrays
    become lists and enums their values."""
    if is_dataclass(value):
        return {f.name: _dump(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_dump(v) for v in value]
    return value.value if isinstance(value, Enum) else value


@contextmanager
def atomic_open(path, newline=None):
    """Write `path` through a sibling temporary file that replaces it on success.

    A write that fails part-way removes the temporary file and leaves
    the previous `path` as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc, indent: int) -> None:
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


def write_csv(path, header, rows, comments=()) -> None:
    """Write a CSV artifact: `# ` comment lines, the header, then the rows.

    Lines end in LF and floats carry 9 significant digits.
    """
    with atomic_open(path, newline="") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [_fmt(v) if isinstance(v, float) else v for v in row]
            for row in rows
        )


def dataset_to_csv(d: Dataset, path) -> None:
    """Write the dataset artifact; per-row timing stays out on purpose.

    Byte-stable across reruns with the same seeds: wall-clock columns
    would break that, so solve times are reported through run metrics
    instead of the dataset file.
    """
    n = len(d.scenarios[0].u) if d.scenarios else 0
    u_cols = [f"u_{i + 1}" for i in range(n)]
    write_csv(
        path,
        ["scenario_id", *u_cols, "tau_star", "cost_rate_star", "split"],
        ([sc.scenario_id, *sc.u, sc.tau_star, sc.cost_rate_star, sc.split]
         for sc in d.scenarios),
        ("gammashock dataset v1", f"fingerprint={d.fingerprint}",
         f"bounds={_fmt(d.bounds[0])},{_fmt(d.bounds[1])}"),
    )


def _finite_cell(rec: dict, column: str) -> float:
    if not math.isfinite(value := float(rec[column])):
        raise ValueError(f"column {column!r} holds {rec[column]!r}, not a finite number")
    return value


def dataset_from_csv(path) -> Dataset:
    """Read a dataset artifact, with LF or CRLF line ends."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    # comment lines carry key=value pairs; the rest is the table
    meta = dict(line[1:].strip().partition("=")[::2] for line in lines if line.startswith("#"))
    reader = csv.DictReader(line for line in lines if not line.startswith("#"))
    if reader.fieldnames is None:
        raise ValueError(f"{path}: empty dataset file")
    u_cols = [k for k in reader.fieldnames if k.startswith("u_")]
    try:
        rows = tuple(
            Scenario(
                scenario_id=int(rec["scenario_id"]),
                u=tuple(_finite_cell(rec, k) for k in u_cols),
                tau_star=_finite_cell(rec, "tau_star"),
                cost_rate_star=_finite_cell(rec, "cost_rate_star"),
                split=rec.get("split", ""),
            )
            for rec in reader
        )
        bounds = meta["bounds"].split(",") if "bounds" in meta else DEFAULT_BOUNDS
        return Dataset(meta.get("fingerprint", ""), bounds, rows)
    except KeyError as exc:
        raise ValueError(f"{path}: missing column {exc}") from None
    except TypeError:  # csv.DictReader pads a short row with None
        raise ValueError(f"{path}: a row has fewer cells than the header") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
