"""Output checks for the benchmark, made apart from the timed calls.

Each check compares a program output either with a computation that does
not go through the code under test (a numpy forward pass written here,
scipy's gamma distribution, Monte Carlo, a denser tau grid) or with a
property the method must have (curves in [0, 1] that do not rise, cost
accounting that adds up).  None compares with stored output.  Every
function returns a list of messages, empty when the output passes.
"""
from __future__ import annotations

import math

import numpy as np

# The solver's tau* may sit above a denser grid's best point by no more
# than this share: the cost rates of one state agree to ~5e-8 between
# scalar and batched evaluation, and the refinement stops at tol 1e-4 in
# tau on a flat minimum.
DENSE_REL_TOL = 1e-6
# Allowed rise of a reliability curve between grid points (rounding only).
MONOTONE_TOL = 1e-12
# An analytic value sits within this many Monte Carlo standard errors.
MC_SIGMAS = 4.0
# With no shocks, the quadrature-free path must match scipy to rounding.
ZERO_SHOCK_TOL = 1e-10
PREDICT_TOL = 1e-9
COST_REL_TOL = 1e-9


def check_solution(sol, bounds, tol) -> list[str]:
    lo, hi = bounds
    errs = []
    if not lo <= sol.tau_star <= hi:
        errs.append(f"tau* {sol.tau_star} outside [{lo}, {hi}]")
    at_bound = sol.tau_star <= lo + tol or sol.tau_star >= hi - tol
    if sol.boundary != at_bound:
        errs.append(f"boundary flag {sol.boundary} but tau* {sol.tau_star} in [{lo}, {hi}]")
    if not math.isfinite(sol.cost_rate_star) or sol.cost_rate_star <= 0:
        errs.append(f"cost rate {sol.cost_rate_star} is not a positive number")
    return errs


def dense_grid(bounds, grid_points: int) -> np.ndarray:
    """A log grid 1.5 times as dense as the solver's (301 points for 200),
    which shares only its end points with the solver's own grid."""
    return np.geomspace(bounds[0], bounds[1], 3 * grid_points // 2 + 1)


def check_optimal(sol, dense_rates: np.ndarray) -> list[str]:
    best = float(np.min(dense_rates))
    if sol.cost_rate_star > best * (1.0 + DENSE_REL_TOL):
        return [f"cost rate {sol.cost_rate_star!r} above the dense-grid minimum {best!r}"]
    return []


def check_curve(r: np.ndarray, levels: np.ndarray, thresholds: np.ndarray) -> list[str]:
    errs = []
    if np.any(r < 0) or np.any(r > 1):
        errs.append("reliability outside [0, 1]")
    rise = float(np.max(np.diff(r), initial=0.0))
    if rise > MONOTONE_TOL:
        errs.append(f"reliability rises by {rise:.3g} between grid points")
    if np.all(levels < thresholds) and r[0] != 1.0:
        errs.append(f"R(0) = {r[0]!r} for a state below every threshold")
    return errs


def check_monte_carlo(analytic: float, estimate: float, std_err: float) -> list[str]:
    if not abs(analytic - estimate) <= MC_SIGMAS * std_err:
        return [
            f"analytic R {analytic:.6f} vs Monte Carlo {estimate:.6f} "
            f"(std err {std_err:.2g})"
        ]
    return []


def zero_shock_reference(c, t: np.ndarray, u: float) -> np.ndarray:
    """P(X(t) < H - u) for gamma wear X(t) ~ Gamma(alpha t, rate beta)."""
    from scipy import stats  # slow to import; only the checks need it

    return stats.gamma.cdf(c.soft_threshold - u, c.gamma_shape_rate * t, scale=1.0 / c.gamma_rate)


def check_zero_shock(r: np.ndarray, reference: np.ndarray) -> list[str]:
    gap = float(np.max(np.abs(r - reference)))
    if gap > ZERO_SHOCK_TOL:
        return [f"zero-shock reliability differs from scipy by {gap:.3g}"]
    return []


def forward_pass(model, thresholds: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The trained network written out in numpy: features u / H, the
    stored scalers, sigmoid hidden layers, a linear output, the clamp."""
    a = (np.atleast_2d(levels) / thresholds - model.input_shift) / model.input_scale
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = 1.0 / (1.0 + np.exp(-(a @ w.T + b)))
    out = (a @ model.weights[-1].T + model.biases[-1])[:, 0]
    out = out * model.output_scale + model.output_shift
    if model.clamp_bounds is not None:
        out = np.clip(out, model.clamp_bounds[0], model.clamp_bounds[1])
    return out


def check_predictions(pred: np.ndarray, reference: np.ndarray, bounds) -> np.ndarray:
    """Boolean mask of predictions that fail: off the forward pass or
    outside the clamp bounds."""
    off = ~np.isclose(pred, reference, rtol=PREDICT_TOL, atol=PREDICT_TOL)
    return off | (pred < bounds[0]) | (pred > bounds[1])


def r_squared(pred: np.ndarray, target: np.ndarray) -> float:
    """Coefficient of determination; nan when the targets do not vary."""
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0:
        return float("nan")
    return 1.0 - float(np.sum((target - pred) ** 2)) / ss_tot


def check_trace(trace, costs, horizon: float) -> list[str]:
    errs = []
    times = np.asarray(trace.inspection_times)
    visits = times.size
    close = lambda a, b: abs(a - b) <= COST_REL_TOL * max(1.0, abs(b))
    if visits == 0 or not np.all(np.diff(times) > 0) or times[0] <= 0:
        errs.append("visit times do not rise strictly from 0")
    elif times[-1] != horizon:
        errs.append(f"last visit at {times[-1]!r}, not at the horizon {horizon!r}")
    if not close(trace.inspection_cost, costs.inspection_cost * visits):
        errs.append("inspection cost is not C_I x visits")
    replaced = sum(costs.replacement_costs[i] for ids in trace.replaced for i in ids)
    if not close(trace.replacement_cost, replaced):
        errs.append("replacement cost is not the sum of C_R over replaced components")
    down = np.asarray(trace.interval_downtime)
    if not close(trace.downtime_cost, costs.downtime_rate * float(np.sum(down))):
        errs.append("downtime cost is not C_D x total downtime")
    intervals = np.diff(np.concatenate([[0.0], times]))
    if down.size != visits or np.any(down < 0) or np.any(down > intervals + 1e-12):
        errs.append("a downtime lies outside [0, interval]")
    return errs
