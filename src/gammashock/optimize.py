"""Cost-optimal next-inspection scheduling and scenario datasets.

The planning objective balances three costs over the next interval of
length tau, starting from the currently observed degradation levels u:

    CR(tau; u) = [ C_I
                   + sum_i C_Ri * (1 - R_i(tau; u_i))
                   + C_D * integral_0^tau (1 - R_sys(t; u)) dt ] / tau

Each component pays its replacement cost when it itself fails, so the
replacement term uses per-component reliability; the downtime term uses
the system reliability under the configured topology.  Both come from
one reliability grid per evaluation.  cost_rate integrates with a
32-node Gauss-Legendre rule over [0, tau]; the solver's scan sums
Simpson panels between its grid points instead, so R_sys at the grid
points serves the downtime integral and R_i the replacement term, and
the tests hold it within 1e-6 relative of cost_rate.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

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
DEFAULT_BOUNDS = (0.1, 50.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

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
        raise ValueError(
            f"{len(costs.replacement_costs)} replacement costs for {s.n} components"
        )


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
    rsys, comps = _reliability_grid(s, np.concatenate((nodes, grid)), levels, q, s.topology)
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
    if not tau > 0:
        raise ValueError("tau must be > 0")
    return float(cost_rate_batch(s, costs, np.asarray([tau], dtype=float), u, q)[0])


def _panels(s, costs, edges, levels, q, start=0.0, lost0=None):
    """(cum, cr, lost) at edges[1:]: the downtime integrals, summed from
    `start` at edges[0] over one Simpson panel per step, the cost rates
    and 1 - R_sys.  lost0 is 1 - R_sys at edges[0] when the caller has it.
    """
    _check_pairing(s, costs)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ends = edges if lost0 is None else edges[1:]
    rsys, comps = _reliability_grid(s, np.concatenate((mids, ends)), levels, q, s.topology)
    lost = 1.0 - rsys[mids.size:]
    if lost0 is None:
        lost0, lost = lost[0], lost[1:]
    left = np.concatenate(([lost0], lost[:-1]))
    panels = np.diff(edges) / 6.0 * (left + 4.0 * (1.0 - rsys[:mids.size]) + lost)
    cum = start + np.cumsum(panels)
    return cum, _cost_rate_from(costs, edges[1:], comps[:, -lost.size:], cum), lost


def _scan(s, costs, edges, levels, q):
    """(cum, cr) of _panels over edges."""
    return _panels(s, costs, edges, levels, q)[:2]


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
    grid_points: int = 200,
) -> TauSolution:
    """Minimize the cost rate over tau in [bounds[0], bounds[1]].

    One pass prices a log-spaced grid, summing the downtime integral over
    Simpson panels between neighbouring grid points.  Golden-section
    refines the argmin's bracket to width tol, each step adding one short
    panel to the sum at the bracket's left grid point, which needs the
    reliabilities at two new times: the panel's midpoint and tau.  The
    refined tau and the best grid point are priced with cost_rate and the
    cheaper one is reported; results at either search bound are flagged as
    boundary solutions.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (0 < lo < hi):
        raise ValueError("bounds must satisfy 0 < tau_min < tau_max")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    levels = as_levels(u, s.n)
    grid = np.geomspace(lo, hi, grid_points)
    cum, scan, lost = _panels(s, costs, np.concatenate(([0.0], grid)), levels, q)
    bad = ~np.isfinite(scan)
    if np.any(bad):
        raise NumericsError(f"non-finite cost rate at tau={grid[bad][0]:.6g}")
    i = int(np.argmin(scan))
    k = max(i - 1, 0)
    a, b = grid[k], grid[min(i + 1, grid_points - 1)]
    f = lambda tau: float(
        _panels(s, costs, np.asarray([grid[k], tau]), levels, q, cum[k], lost[k])[1][0]
    )
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    tau_star = 0.5 * (a + b)
    cr_star = cost_rate(s, costs, tau_star, levels, q)
    cr_grid = cost_rate(s, costs, float(grid[i]), levels, q)
    if cr_grid < cr_star:  # keep the scanned point if refinement did not help
        tau_star, cr_star = float(grid[i]), cr_grid
    boundary = tau_star <= lo + tol or tau_star >= hi - tol
    return TauSolution(float(tau_star), float(cr_star), bool(boundary))


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
        object.__setattr__(
            self, "bounds", (float(self.bounds[0]), float(self.bounds[1]))
        )

    def __len__(self) -> int:
        return len(self.scenarios)

    def rows(self, split: str) -> tuple[Scenario, ...]:
        return tuple(sc for sc in self.scenarios if sc.split == split)

    @property
    def has_split(self) -> bool:
        return all(sc.split in ("train", "test") for sc in self.scenarios)


def uniform_state_sampler(
    s: SystemModel, fraction: float = 0.8
) -> Callable[[np.random.Generator], np.ndarray]:
    """u_i ~ Uniform(0, fraction * H_i), independently per component."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    highs = np.asarray([fraction * c.soft_threshold for c in s.components])

    def sample(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, highs)

    return sample


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
    if not 0 < light_fraction <= 1:
        raise ValueError("light_fraction must be in (0, 1]")
    flo, fhi = float(heavy_range[0]), float(heavy_range[1])
    if not 0 < flo < fhi <= 1:
        raise ValueError("heavy_range must satisfy 0 < lo < hi <= 1")
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
    grid_points: int = 200,
) -> Dataset:
    """Sample states, solve each for tau*, and record solve wall times.

    The default sampler draws from the two-regime distribution; pass
    uniform_state_sampler or any callable for other designs.
    """
    _check_pairing(s, costs)
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
    return Dataset(system_fingerprint(s, costs), (float(bounds[0]), float(bounds[1])), tuple(rows))


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


def dataset_to_csv(d: Dataset, path) -> None:
    """Write the dataset artifact; per-row timing stays out on purpose.

    Byte-stable across reruns with the same seeds: wall-clock columns
    would break that, so solve times are reported through run metrics
    instead of the dataset file.
    """
    n = len(d.scenarios[0].u) if d.scenarios else 0
    with atomic_open(path, newline="") as fh:
        fh.write("# gammashock dataset v1\n")
        fh.write(f"# fingerprint={d.fingerprint}\n")
        fh.write(f"# bounds={_fmt(d.bounds[0])},{_fmt(d.bounds[1])}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario_id"]
            + [f"u_{i + 1}" for i in range(n)]
            + ["tau_star", "cost_rate_star", "split"]
        )
        for sc in d.scenarios:
            writer.writerow(
                [sc.scenario_id]
                + [_fmt(v) for v in sc.u]
                + [_fmt(sc.tau_star), _fmt(sc.cost_rate_star), sc.split]
            )


def dataset_from_csv(path) -> Dataset:
    fingerprint = ""
    bounds = DEFAULT_BOUNDS
    rows = []
    with open(path, newline="") as fh:
        header: list[str] | None = None
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("fingerprint="):
                    fingerprint = body.split("=", 1)[1]
                elif body.startswith("bounds="):
                    parts = body.split("=", 1)[1].split(",")
                    bounds = (float(parts[0]), float(parts[1]))
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
                continue
            rec = dict(zip(header, cells))
            try:
                rows.append(
                    Scenario(
                        scenario_id=int(rec["scenario_id"]),
                        u=tuple(float(rec[k]) for k in header if k.startswith("u_")),
                        tau_star=float(rec["tau_star"]),
                        cost_rate_star=float(rec["cost_rate_star"]),
                        split=rec.get("split", ""),
                    )
                )
            except KeyError as exc:
                raise ValueError(f"{path}: missing column {exc}") from None
    if header is None:
        raise ValueError(f"{path}: empty dataset file")
    return Dataset(fingerprint, bounds, tuple(rows))
