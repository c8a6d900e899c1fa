"""Analytic reliability: truncation, conditional survival, topologies."""
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, pdtrc, roots_legendre
from scipy.stats import norm, poisson

import gammashock
import gammashock.reliability as grel
from gammashock.core import ComponentParams, SystemModel, Topology, gamma_cdf, prob_no_hard_failure
from gammashock.optimize import DEFAULT_BOUNDS, two_regime_state_sampler
from gammashock.reliability import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    _bands,
    _column_blocks,
    _column_levels,
    _damage_stack,
    _grid_plan,
    _leggauss,
    _poisson_pmf_grid,
    _reliability_grid,
    _row_tiers,
    _soft_survival_grid,
    _window_gauss,
    _windows,
    component_reliability,
    soft_survival_given_m,
    system_reliability,
    truncation_level,
)
from .test_core import make_component


def brute_truncation(mu: float, eps: float) -> int:
    """Smallest M with P(N > M) < eps, by direct pmf accumulation."""
    cum = 0.0
    m = 0
    while True:
        cum += math.exp(-mu) * mu**m / math.factorial(m)
        if 1.0 - cum < eps:
            return m
        m += 1


T_GRID = np.linspace(0.0, 16.0, 9)
SIGMAS = 8.0  # half-width of a damage window, in damage sd


def _full_windows(c, u, max_m, q=DEFAULT_QUADRATURE):
    """The nodes of each window below the headroom at full node counts, in order of m."""
    ys, _, bounds, _ = _windows(c, q, bytes(max_m + 1))
    return np.split(ys, bounds[1:])[:_damage_stack(c, u, max_m, q)[0]]


class TestTruncationLevel:
    def test_no_shocks_or_no_time(self):
        assert truncation_level(0.0, 100.0, 1e-10) == 0
        assert truncation_level(2.5e-3, 0.0, 1e-10) == 0

    def test_frozen_values(self):
        assert truncation_level(2.5e-3, 400.0, 1e-10) == 12
        assert truncation_level(2.5e-3, 5.0, 1e-10) == 4
        # a tolerance of 0.99 is satisfied already by the m = 0 mass
        assert truncation_level(2.5e-3, 400.0, 0.99) == 0

    def test_matches_brute_force(self):
        for mu in (0.0125, 0.3, 1.0, 5.0):
            for eps in (1e-10, 1e-6, 0.99):
                assert truncation_level(1.0, mu, eps) == brute_truncation(mu, eps)

    def test_minimality(self):
        mu, eps = 2.0, 1e-8
        m = truncation_level(1.0, mu, eps)
        tail = lambda k: 1.0 - sum(
            math.exp(-mu) * mu**j / math.factorial(j) for j in range(k + 1)
        )
        assert tail(m) < eps
        assert tail(m - 1) >= eps

    @pytest.mark.parametrize("mu", [700.0, 740.0, 1000.0, 1e4])
    def test_minimal_at_large_means(self, mu):
        # exp(-mu) goes subnormal near mu = 708, so a level cannot come
        # from accumulating pmf terms that start there
        m = truncation_level(1.0, mu, 1e-10)
        assert pdtrc(m, mu) < 1e-10 <= pdtrc(m - 1, mu)

    def test_rejects_means_past_the_level_cap(self):
        with pytest.raises(ValueError, match="shock counts"):
            truncation_level(1.0, 1e5, 1e-10)

    def test_rejects_levels_past_the_cap_that_the_search_overshoots(self):
        # the doubling search meets the tail bound at 32,768, but the
        # level it then finds, 26,012, is still above the 20,000 cap
        with pytest.raises(ValueError, match="shock counts"):
            truncation_level(1.0, 25000.0, 1e-10)
        assert truncation_level(1.0, 19000.0, 1e-10) == 19_883

    def test_rejects_bad_epsilon(self):
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                truncation_level(1.0, 1.0, eps)
        with pytest.raises(ValueError):
            truncation_level(-1.0, 1.0, 0.5)


class TestSoftSurvival:
    def test_no_shocks_reduces_to_pure_wear(self):
        c = make_component()
        for t, u in ((5.0, 0.0), (2.0, 7.5), (12.0, 3.0)):
            got = soft_survival_given_m(c, t, u, 0)
            expect = gamma_cdf(c.soft_threshold - u, c.gamma_shape_rate * t, c.gamma_rate)
            assert abs(got - expect) <= 1e-12

    def test_fresh_at_time_zero(self):
        c = make_component()
        assert soft_survival_given_m(c, 0.0, 0.0, 0) == 1.0
        assert soft_survival_given_m(c, 0.0, 10.0, 0) == 1.0

    def test_dead_on_arrival(self):
        c = make_component()
        for m in (0, 2):
            assert soft_survival_given_m(c, 3.0, c.soft_threshold, m) == 0.0
            assert soft_survival_given_m(c, 3.0, c.soft_threshold + 5.0, m) == 0.0

    def test_monte_carlo_anchor_single_shock(self):
        # frozen 1e6-sample estimate: component 1, t=5, one shock hits
        got = soft_survival_given_m(make_component(), 5.0, 0.0, 1)
        assert abs(got - 0.790832) <= 3.0 * 0.00040671457777660246

    def test_degenerate_damage_shifts_the_gamma(self):
        c = make_component(shock_damage_mean=3.0, shock_damage_sd=0.0)
        for t, u, m in ((4.0, 2.0, 2), (7.0, 0.0, 3), (1.0, 5.0, 1)):
            head = c.soft_threshold - u - m * c.shock_damage_mean
            expect = gamma_cdf(head, c.gamma_shape_rate * t, c.gamma_rate) if head > 0 else 0.0
            assert abs(soft_survival_given_m(c, t, u, m) - expect) <= 1e-10

    def test_degenerate_damage_past_threshold(self):
        c = make_component(shock_damage_mean=11.0, shock_damage_sd=0.0)
        assert soft_survival_given_m(c, 2.0, 0.0, 2) == 0.0  # 22 >= H

    def test_more_shocks_never_help(self):
        c = make_component()
        vals = [soft_survival_given_m(c, 5.0, 2.0, m) for m in range(5)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bounded(self):
        c = make_component()
        for t in (0.5, 3.0, 9.0):
            for m in (0, 1, 4):
                v = soft_survival_given_m(c, t, 1.0, m)
                assert 0.0 <= v <= 1.0

    def test_rejects_bad_arguments(self):
        c = make_component()
        with pytest.raises(ValueError):
            soft_survival_given_m(c, -1.0, 0.0, 0)
        with pytest.raises(ValueError):
            soft_survival_given_m(c, 1.0, -0.5, 0)
        with pytest.raises(ValueError):
            soft_survival_given_m(c, 1.0, 0.0, -1)


class TestComponentReliability:
    def test_certain_at_time_zero(self):
        assert component_reliability(make_component(), 2.5e-3, 0.0, 0.0) == 1.0

    def test_dead_on_arrival(self):
        c = make_component()
        for t in (0.0, 1.0, 10.0):
            assert component_reliability(c, 2.5e-3, t, c.soft_threshold) == 0.0

    def test_monte_carlo_anchor(self, system):
        # frozen 1e6-sample estimate: component 2 at t=10 from u=5
        got = component_reliability(system.components[1], system.shock_rate, 10.0, 5.0)
        assert abs(got - 0.123401) <= 3.0 * 0.00032889693400668847

    def test_no_shocks_is_pure_gamma_wear(self):
        c = make_component()
        for t, u in ((3.0, 0.0), (8.0, 4.0)):
            expect = gamma_cdf(c.soft_threshold - u, c.gamma_shape_rate * t, c.gamma_rate)
            assert abs(component_reliability(c, 0.0, t, u) - expect) <= 1e-12

    def test_nonincreasing_in_time(self):
        c = make_component()
        vals = component_reliability(c, 2.5e-3, T_GRID, 2.0)
        assert np.all(np.diff(vals) <= 1e-9)

    def test_nonincreasing_in_level(self):
        c = make_component()
        vals = [component_reliability(c, 2.5e-3, 5.0, u) for u in np.linspace(0, 20, 11)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_vector_time_matches_scalar(self):
        # each time is truncated at its own Poisson level, so a value does
        # not depend on the other times in the call
        c = make_component()
        vec = component_reliability(c, 2.5e-3, T_GRID, 1.0)
        for t, v in zip(T_GRID, vec):
            assert abs(v - component_reliability(c, 2.5e-3, float(t), 1.0)) <= 1e-14

    def test_rejects_bad_arguments(self):
        c = make_component()
        with pytest.raises(ValueError):
            component_reliability(c, 2.5e-3, -1.0, 0.0)
        with pytest.raises(ValueError):
            component_reliability(c, 2.5e-3, 1.0, -1.0)


class TestSystemReliability:
    def test_single_component_system(self):
        # the parallel form books the truncated shock-count tail on the
        # other side of the complement, so the two topologies agree on
        # one component only to tail_epsilon
        c = make_component()
        s1 = SystemModel(components=(c,), topology=Topology.SERIES, shock_rate=2.5e-3)
        for t in (0.0, 2.0, 6.0):
            r = component_reliability(c, 2.5e-3, t, 1.0)
            for topology in Topology:
                got = system_reliability(replace(s1, topology=topology), t, [1.0])
                assert abs(got - r) <= 1e-10

    def test_no_shock_reduction(self, system):
        s0 = replace(system, shock_rate=0.0)
        u = [2.0, 5.0, 1.0]
        for t in (1.0, 5.0, 12.0):
            g = [
                gamma_cdf(c.soft_threshold - ui, c.gamma_shape_rate * t, c.gamma_rate)
                for c, ui in zip(s0.components, u)
            ]
            assert abs(system_reliability(s0, t, u) - g[0] * g[1] * g[2]) <= 1e-12
            expect_par = 1.0 - (1.0 - g[0]) * (1.0 - g[1]) * (1.0 - g[2])
            par = replace(s0, topology=Topology.PARALLEL)
            assert abs(system_reliability(par, t, u) - expect_par) <= 1e-12

    def test_monte_carlo_anchors(self, system):
        # frozen 1e6-sample estimates at t=5 from fresh state
        got_series = system_reliability(system, 5.0)
        assert abs(got_series - 0.861434) <= 3.0 * 0.00034549307322144675
        par = replace(system, topology=Topology.PARALLEL)
        got_par = system_reliability(par, 5.0)
        assert abs(got_par - 0.999962) <= 3.0 * 6.1642968779888025e-06

    def test_certain_at_time_zero(self, system):
        assert system_reliability(system, 0.0) == 1.0
        assert system_reliability(replace(system, topology=Topology.PARALLEL), 0.0) == 1.0

    def test_ordering(self, system, half_levels):
        for u in (None, half_levels):
            levels = np.zeros(system.n) if u is None else u
            comps = np.vstack(
                [
                    component_reliability(c, system.shock_rate, T_GRID, ui)
                    for c, ui in zip(system.components, levels)
                ]
            )
            ser = system_reliability(system, T_GRID, u)
            par = system_reliability(replace(system, topology=Topology.PARALLEL), T_GRID, u)
            assert np.all(ser <= comps.min(axis=0) + 1e-12)
            assert np.all(comps.max(axis=0) <= par + 1e-12)

    def test_component_permutation_invariance(self, system):
        u = [2.0, 5.0, 1.0]
        perm = replace(system, components=(system.components[1], system.components[0], system.components[2]))
        u_perm = [5.0, 2.0, 1.0]
        for t in (2.0, 7.0):
            assert abs(system_reliability(system, t, u) - system_reliability(perm, t, u_perm)) <= 1e-12
            par, par_perm = (replace(x, topology=Topology.PARALLEL) for x in (system, perm))
            assert abs(system_reliability(par, t, u) - system_reliability(par_perm, t, u_perm)) <= 1e-12

    def test_dead_component_drops_out_of_parallel(self, system):
        # a failed unit contributes nothing; the rest carry the system
        par = replace(system, topology=Topology.PARALLEL)
        rest = replace(par, components=system.components[1:])
        dead = system.components[0].soft_threshold
        for t in (3.0, 9.0):
            full = system_reliability(par, t, [dead, 4.0, 4.0])
            sub = system_reliability(rest, t, [4.0, 4.0])
            assert abs(full - sub) <= 1e-12

    def test_dead_component_kills_series(self, system):
        dead = system.components[0].soft_threshold
        vals = system_reliability(system, T_GRID, [dead, 0.0, 0.0])
        assert np.all(vals == 0.0)

    def test_nonincreasing_in_time(self, system):
        vals = system_reliability(system, T_GRID)
        assert np.all(np.diff(vals) <= 1e-9)

    def test_quadrature_convergence(self, system, half_levels):
        fine = QuadratureSpec(node_count=128)
        for u in (None, half_levels):
            base = system_reliability(system, T_GRID, u, DEFAULT_QUADRATURE)
            ref = system_reliability(system, T_GRID, u, fine)
            assert np.max(np.abs(base - ref)) < 1e-8

    @pytest.mark.parametrize("topology", list(Topology))
    def test_vector_time_matches_scalar(self, system, topology):
        # each time is truncated at its own Poisson level, so a value does
        # not depend on the other times in the call
        s = replace(system, topology=topology, shock_rate=0.1)
        u = [2.0, 5.0, 1.0]
        vec = system_reliability(s, T_GRID, u)
        comps = [component_reliability(c, s.shock_rate, T_GRID, ui) for c, ui in zip(s.components, u)]
        for j, t in enumerate(T_GRID):
            assert abs(vec[j] - system_reliability(s, float(t), u)) <= 1e-14
            for c, ui, r in zip(s.components, u, comps):
                assert abs(r[j] - component_reliability(c, s.shock_rate, float(t), ui)) <= 1e-14

    @pytest.mark.parametrize("topology", list(Topology))
    def test_vector_time_matches_scalar_across_band_edges(self, system, topology):
        # a time's damage nodes follow the decade band of its own Poisson
        # mean, so times just below, at and just above every band edge from
        # 1e-3 to 10, in one call, keep their scalar values
        s = replace(system, topology=topology, shock_rate=0.1)
        edges = 10.0 ** np.arange(-3, 2) / s.shock_rate
        t = np.concatenate(([0.0], edges * (1.0 - 1e-12), edges, edges * (1.0 + 1e-12)))
        assert np.array_equal(_bands(s.shock_rate * t[1:6]) + 1, _bands(s.shock_rate * t[11:]))
        for u in ([0.0, 0.0, 0.0], [2.0, 5.0, 1.0]):
            vec, comps = _reliability_grid(s, t, np.asarray(u), DEFAULT_QUADRATURE)
            for j, tj in enumerate(t):
                assert abs(vec[j] - system_reliability(s, float(tj), u)) <= 1e-14
                for c, ui, r in zip(s.components, u, comps):
                    assert abs(r[j] - component_reliability(c, s.shock_rate, float(tj), ui)) <= 1e-14

    @pytest.mark.parametrize("topology", list(Topology))
    def test_shared_grid_matches_the_public_calls(self, system, topology):
        s = replace(system, topology=topology, shock_rate=0.1)
        u = np.asarray([2.0, 5.0, 1.0])
        r_sys, comps = _reliability_grid(s, T_GRID, u, DEFAULT_QUADRATURE)
        assert np.array_equal(r_sys, system_reliability(s, T_GRID, u))
        for c, ui, r in zip(s.components, u, comps):
            assert np.max(np.abs(r - component_reliability(c, s.shock_rate, T_GRID, ui))) <= 1e-14

    @pytest.mark.parametrize("topology", list(Topology))
    def test_truncation_error_lies_on_one_side(self, system, topology):
        # a looser tail_epsilon drops more shock-count mass: series books
        # it as failure (0 <= R(tight) - R(loose) <= eps_loose), parallel
        # as survival (the same with the sign flipped)
        u = [2.0, 5.0, 1.0]
        tight = QuadratureSpec(tail_epsilon=1e-12)
        sign = 1.0 if topology is Topology.SERIES else -1.0
        for rate in (0.1, 0.5, 2.0):
            s = replace(system, topology=topology, shock_rate=rate)
            ref = system_reliability(s, T_GRID, u, tight)
            for eps in (1e-2, 1e-4, 1e-6):
                loose = system_reliability(s, T_GRID, u, QuadratureSpec(tail_epsilon=eps))
                gap = sign * (ref - loose)
                assert np.all(gap >= 0.0) and np.all(gap <= eps), (rate, eps, gap)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=1)
        for huge in (4097, 10**9):  # rejected before any node array is built
            with pytest.raises(ValueError, match=r"node_count must be in \[2, 4096\]"):
                QuadratureSpec(node_count=huge)
        with pytest.raises(ValueError):
            QuadratureSpec(tail_epsilon=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(tail_epsilon=1.0)


REFERENCE = QuadratureSpec(node_count=512)  # the same rules, far past convergence


def _grid_error(s, t, u, q=DEFAULT_QUADRATURE):
    """Largest |R - R_ref| over the system's and every component's curve."""
    got, ref = (_reliability_grid(s, t, np.asarray(u, dtype=float), x) for x in (q, REFERENCE))
    return max(np.max(np.abs(got[0] - ref[0])), np.max(np.abs(got[1] - ref[1])))


def _plain_rule_parallel(s, t, u, nodes):
    """Parallel R(t) with the damage convolution on ungraded Gauss-Legendre
    nodes over each window, written out term by term (t > 0)."""
    x, w = roots_legendre(nodes)
    out = []
    for tj in t:
        top = truncation_level(s.shock_rate, tj, DEFAULT_QUADRATURE.tail_epsilon)
        dead = np.ones(top + 1)
        for c, ui in zip(s.components, u):
            head = c.soft_threshold - ui
            shape = c.gamma_shape_rate * tj
            for m in range(top + 1):
                mean, sd = m * c.shock_damage_mean, math.sqrt(m) * c.shock_damage_sd
                lo, hi = max(0.0, mean - SIGMAS * sd), min(head, mean + SIGMAS * sd)
                if m == 0:
                    soft = gamma_cdf(head, shape, c.gamma_rate)
                elif hi > lo:
                    y = 0.5 * (hi - lo) * (x + 1.0) + lo
                    dens = np.exp(-0.5 * ((y - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
                    soft = 0.5 * (hi - lo) * np.sum(w * dens * gamma_cdf(head - y, shape, c.gamma_rate))
                else:
                    soft = 0.0
                dead[m] *= 1.0 - prob_no_hard_failure(c) ** m * soft
        pmf = poisson.pmf(np.arange(top + 1), s.shock_rate * tj)
        out.append(1.0 - np.sum(pmf * dead))
    return np.asarray(out)


@st.composite
def _systems(draw):
    """A valid one- or three-component system, its levels and a time grid
    from 0 to twice the longest mean wear life."""
    unit = st.floats(0.0, 1.0)
    comps, levels = [], []
    for _ in range(draw(st.sampled_from([1, 3]))):
        h = draw(st.floats(5.0, 30.0))
        comps.append(ComponentParams(
            soft_threshold=h,
            hard_threshold=draw(st.floats(1.0, 8.0)),
            gamma_shape_rate=draw(st.floats(0.2, 5.0)),
            gamma_rate=draw(st.floats(0.2, 3.0)),
            shock_magnitude_mean=draw(st.floats(0.0, 4.0)),
            shock_magnitude_sd=draw(st.floats(0.0, 1.0)),
            shock_damage_mean=(0.02 + 0.48 * draw(unit)) * h,
            shock_damage_sd=0.3 * draw(unit) * h,
        ))
        levels.append(0.9 * draw(unit) * h)
    s = SystemModel(
        tuple(comps),
        topology=draw(st.sampled_from(list(Topology))),
        shock_rate=draw(st.floats(0.01, 2.0)),
    )
    life = max((c.soft_threshold - ui) * c.gamma_rate / c.gamma_shape_rate for c, ui in zip(comps, levels))
    t = np.concatenate(([0.0], np.geomspace(1e-3, 2.0, 25) * life))
    return s, t, levels


class TestQuadratureBudget:
    """The damage quadrature's error against the reference rule."""

    @settings(max_examples=40)
    @given(case=_systems())
    def test_random_systems_within_1e_7(self, case):
        s, t, u = case
        assert _grid_error(s, t, u) <= 1e-7

    @pytest.mark.parametrize("rate", [2.5e-3, 0.1])
    @pytest.mark.parametrize("topology", list(Topology))
    def test_default_system_on_the_scan_grid_within_1e_10(self, system, topology, rate):
        s = replace(system, topology=topology, shock_rate=rate)
        rng = np.random.default_rng(11)
        sample = two_regime_state_sampler(s)
        grid = np.geomspace(*DEFAULT_BOUNDS, 100)
        for _ in range(4):
            assert _grid_error(s, grid, sample(rng)) <= 1e-10

    def test_reference_matches_a_dense_plain_rule(self, system):
        s = replace(system, topology=Topology.PARALLEL, shock_rate=0.1)
        u = [4.0, 6.0, 7.0]
        ref = _reliability_grid(s, T_GRID[1:], np.asarray(u), REFERENCE)[0]
        assert np.max(np.abs(ref - _plain_rule_parallel(s, T_GRID[1:], u, 4096))) <= 1e-12

    def test_interior_windows_use_the_window_rule(self):
        # a damage law whose +-8 sd span lies inside (0, H - u) is integrated
        # on 3 * node_count // 8 nodes of the Gauss rule for the law on that
        # span, all inside it, and matches a plain 4,096-node Gauss-Legendre
        # rule over that span: 64 panels of 64 nodes, as one 4,096-node rule's
        # weights are good only to about 1e-13 (its mass is off by 1.5e-13 on
        # these windows)
        c = make_component(soft_threshold=30.0, shock_damage_sd=0.3)
        u, q = 1.0, DEFAULT_QUADRATURE
        head = c.soft_threshold - u
        x, w = roots_legendre(64)
        x, w = (np.arange(64)[:, None] + 0.5 * (x + 1.0)).ravel() / 64, np.tile(w, 64) / 128
        windows = _full_windows(c, u, 20)
        interior = 0
        for m in range(1, len(windows)):
            mean, sd = m * c.shock_damage_mean, math.sqrt(m) * c.shock_damage_sd
            lo, hi = mean - SIGMAS * sd, mean + SIGMAS * sd
            if not 0.0 < lo < hi < head:
                continue
            nodes = windows[m]
            assert nodes.size == 3 * q.node_count // 8
            assert lo < nodes.min() and nodes.max() < hi
            y = lo + (hi - lo) * x
            dens = np.exp(-0.5 * ((y - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
            for t in (0.5, 2.0, 6.0):
                g = gamma_cdf(head - y, c.gamma_shape_rate * t, c.gamma_rate)
                expect = (hi - lo) * np.sum(w * dens * g)
                assert abs(soft_survival_given_m(c, t, u, m, q) - expect) <= 1e-13, (m, t)
            interior += 1
        assert interior == 9  # m = 2 to 10

    def test_interior_windows_match_a_plain_rule_on_random_components(self):
        # the same comparison over 300 random components with interior
        # windows (637 windows), at 0.05, 0.5 and 2 wear lives (the time the
        # mean wear takes to cover the headroom); 12 nodes of the window rule
        # err by up to 6.4e-12 here, 16 by 5.2e-15 and 8 by 3.5e-8
        q = DEFAULT_QUADRATURE
        x, w = roots_legendre(64)
        x, w = (np.arange(64)[:, None] + 0.5 * (x + 1.0)).ravel() / 64, np.tile(w, 64) / 128
        rng = np.random.default_rng(3)
        worst, interior, components = 0.0, 0, 0
        while components < 300:
            h, a, b = rng.uniform(5, 30), rng.uniform(0.2, 5), rng.uniform(0.2, 3)
            mu, sd1, u = (0.02 + 0.48 * rng.uniform()) * h, 0.3 * rng.uniform() * h, 0.9 * rng.uniform() * h
            c = make_component(
                soft_threshold=h, gamma_shape_rate=a, gamma_rate=b,
                shock_damage_mean=mu, shock_damage_sd=sd1,
            )
            head = h - u
            t = np.array([0.05, 0.5, 2.0]) * head * b / a
            found = False
            for m in range(1, 200):
                mean, sd = m * mu, math.sqrt(m) * sd1
                lo, hi = mean - SIGMAS * sd, mean + SIGMAS * sd
                if lo >= head:
                    break
                if not 0.0 < lo < hi < head:
                    continue
                y = lo + (hi - lo) * x
                dens = np.exp(-0.5 * ((y - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
                expect = (hi - lo) * (w * dens) @ gamma_cdf(head - y[:, None], a * t, b)
                got = [soft_survival_given_m(c, tk, u, m, q) for tk in t]
                worst = max(worst, np.max(np.abs(got - expect)))
                interior += 1
                found = True
            components += found
        assert interior == 637
        assert worst <= 1e-11

    def test_windows_cut_at_0_match_a_plain_rule_on_random_components(self):
        # a window cut only at 0 (m mu - 8 sd <= 0 < m mu + 8 sd < H - u) takes
        # a node_count // 2-node Gauss rule for the law on [0, m mu + 8 sd].
        # Against a plain 4,096-node rule over that span (64 panels of 64
        # nodes) at 0.05, 0.5 and 2 wear lives, over 608 windows of random
        # components (the property tests' ranges), it errs by up to 4.8e-12
        # (12 and 20 nodes by 1.7e-9 and 8.5e-15)
        q = DEFAULT_QUADRATURE
        x, w = roots_legendre(64)
        x, w = (np.arange(64)[:, None] + 0.5 * (x + 1.0)).ravel() / 64, np.tile(w, 64) / 128
        rng = np.random.default_rng(5)
        worst, windows = 0.0, 0
        while windows < 600:
            h, a, b = rng.uniform(5, 30), rng.uniform(0.2, 5), rng.uniform(0.2, 3)
            mu, sd1, u = (0.02 + 0.48 * rng.uniform()) * h, 0.3 * rng.uniform() * h, 0.9 * rng.uniform() * h
            c = make_component(
                soft_threshold=h, gamma_shape_rate=a, gamma_rate=b,
                shock_damage_mean=mu, shock_damage_sd=sd1,
            )
            head = h - u
            t = np.array([0.05, 0.5, 2.0]) * head * b / a
            for m in range(1, 200):
                mean, sd = m * mu, math.sqrt(m) * sd1
                hi = mean + SIGMAS * sd
                if not mean - SIGMAS * sd <= 0.0 < hi < head:
                    break
                assert _full_windows(c, u, m)[m].size == q.node_count // 2
                y = hi * x
                dens = np.exp(-0.5 * ((y - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
                expect = hi * (w * dens) @ gamma_cdf(head - y[:, None], a * t, b)
                got = [soft_survival_given_m(c, tk, u, m, q) for tk in t]
                worst = max(worst, np.max(np.abs(got - expect)))
                windows += 1
        assert worst <= 1e-11

    @pytest.mark.parametrize("n", [1, 16, 48])
    def test_cut_rule_holds_the_mass_and_mean_above_a(self, n):
        # the rule for N(0, 1) on [a, 8]: positive weights summing to
        # P(a < Z < 8), nodes inside, and the first moment phi(a) - phi(8)
        for a in np.arange(-8.0, 8.0, 0.25):
            x, w = _window_gauss(float(a), n)
            assert x.size == n and np.all(w > 0.0) and np.all((a < x) & (x < SIGMAS))
            assert abs(w.sum() - (ndtr(SIGMAS) - ndtr(a))) <= 1e-14
            assert abs(w @ x - (norm.pdf(a) - norm.pdf(SIGMAS))) <= 1e-14

    @pytest.mark.parametrize("n", [16, 48, 128])
    def test_cut_rule_on_a_span_of_1e_6(self, n):
        a = 7.999999
        x, w = _window_gauss(a, n)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w)) and np.all(w > 0.0)
        assert np.all((a <= x) & (x <= SIGMAS))

    @pytest.mark.parametrize("u", [12.0, 12.4])
    def test_cut_window_keeps_its_nodes_on_its_span(self, u):
        # damage mean -0.5 and sd 1: the one-shock window [-8.5, 7.5] is cut
        # only at 0.  Below H - u = 8 and 7.6 alike, it takes node_count // 2
        # nodes of the rule for the law on [0, 7.5], all inside that span
        c = make_component(shock_damage_mean=-0.5, shock_damage_sd=1.0)
        q = DEFAULT_QUADRATURE
        segment = _full_windows(c, u, 1, q)[1]
        assert segment.size == q.node_count // 2
        assert 0.0 <= segment.min() and segment.max() <= 7.5

    @pytest.mark.parametrize("index, first, shared", [(0, 6, 13), (2, 11, 2)])
    def test_windows_reaching_the_headroom_share_one_graded_set(self, system, index, first, shared):
        # at u = 0 with 25 shock counts, the counts from the first window
        # that reaches H on weight one set of node_count graded nodes; each
        # window before it keeps its own segment
        c, q = system.components[index], DEFAULT_QUADRATURE
        flat, nodes, graded, at_zero, _ = _damage_stack(c, 0.0, 25, q)
        assert flat == len(_full_windows(c, 0.0, 25)) == first
        assert graded.shape == (shared, q.node_count) and nodes.size == q.node_count
        assert at_zero.size == first + shared
        assert np.all(nodes >= 0.0) and np.all(graded >= 0.0)

    def test_a_caller_writing_to_a_stack_changes_no_later_value(self, system):
        # each call builds its own stack, and the windows it shares through a
        # cache are read-only: a writable shared stack let one caller's write
        # turn this S_3 from 0.98757 to 0
        c, q = system.components[0], DEFAULT_QUADRATURE
        before = soft_survival_given_m(c, 2.0, 1.0, 3, q)
        _damage_stack(c, 1.0, 3, q)[3][:] = 0.0
        for arr in _windows(c, q, bytes(4)):
            with pytest.raises(ValueError, match="read-only"):
                arr[:] = 0
        assert soft_survival_given_m(c, 2.0, 1.0, 3, q) == before > 0.98

    def test_a_caller_cannot_write_to_a_cached_rule(self, system):
        # the Gauss rules are cached and shared: zeroing the weights of this
        # window's rule once turned this S_1 from 0.99925 to 0
        c, q = system.components[0], DEFAULT_QUADRATURE
        before = soft_survival_given_m(c, 2.0, 1.0, 1, q)
        for rule in (_window_gauss(-4.0, 16), _leggauss(q.node_count)):
            for arr in rule:
                with pytest.raises(ValueError, match="read-only"):
                    arr[:] = 0.0
        assert soft_survival_given_m(c, 2.0, 1.0, 1, q) == before
        assert round(before, 5) == 0.99925

    @pytest.mark.parametrize("nodes", [2, 3, 512, 4096])
    def test_extreme_node_counts_give_valid_reliability(self, system, nodes):
        # a window rule has at most 128 nodes, which bounds its Lanczos
        # basis; one or two nodes must work as well.  The narrow damage law
        # keeps many windows below the headroom
        q = QuadratureSpec(node_count=nodes)
        narrow = make_component(shock_damage_sd=0.01)
        curves = [component_reliability(narrow, 0.1, T_GRID, 4.0, q)]
        for topology in Topology:
            s = replace(system, topology=topology, shock_rate=0.1)
            r_sys, comps = _reliability_grid(s, T_GRID, np.asarray([4.0, 6.0, 7.0]), q)
            curves += [r_sys, *comps]
        for r in curves:
            assert np.all(np.isfinite(r)) and np.all((r >= 0.0) & (r <= 1.0))

    def test_a_default_solve_leaves_scipy_linalg_unloaded(self):
        # scipy.linalg adds about 6 MB of resident memory; the quadrature
        # rules come from numpy, so a default solve never loads it
        code = (
            "import sys\n"
            "from gammashock import default_config, optimal_inspection_time\n"
            "c = default_config()\n"
            "optimal_inspection_time(c.system, c.costs)\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        assert _fresh_python(code) == "False"

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_stacks_stay_small_when_many_shock_counts_fit(self):
        # small shock damage at a Poisson mean of 50 keeps 102 shock counts
        # inside the headroom of each stack that 25 solves from new states
        # build; a dense (nodes x counts) weight matrix per stack, 64 of them
        # cached, peaked at 154 MB.  The child reads its own peak, VmHWM:
        # ru_maxrss would carry the test runner's across exec
        code = (
            "from dataclasses import replace\n"
            "import numpy as np\n"
            "from gammashock import default_config, optimal_inspection_time\n"
            "c = default_config()\n"
            "parts = tuple(replace(p, shock_damage_mean=0.2, shock_damage_sd=0.05)\n"
            "              for p in c.system.components)\n"
            "s = replace(c.system, components=parts, shock_rate=1.0)\n"
            "h = np.asarray([p.soft_threshold for p in parts])\n"
            "rng = np.random.default_rng(5)\n"
            "for _ in range(25):\n"
            "    optimal_inspection_time(s, c.costs, rng.uniform(0.0, 0.2 * h))\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        )
        assert int(_fresh_python(code)) / 1024 < 100  # kB to MB


def _skipped_times(c, t, u, top, blocks):
    """Mask of the times t > 0 at which _soft_survival_grid evaluated no gamma CDF."""
    shapes = [np.empty(0)]

    def kernel(x, shape, rate):
        shapes.append(np.ravel(shape))
        return gamma_cdf(x, shape, rate)

    with mock.patch.object(grel, "gamma_cdf", kernel):
        _soft_survival_grid(c, t, u, top, blocks, DEFAULT_QUADRATURE)
    return (t > 0) & ~np.isin(c.gamma_shape_rate * t, np.concatenate(shapes))


def _assert_skips_are_negligible_suffixes(s, t, u):
    """Each component's skipped times (t ascending) are a suffix, and there
    the stack's kernel, evaluated here, puts every S_m below 2^-60; returns
    how many times were skipped."""
    eps = DEFAULT_QUADRATURE.tail_epsilon
    top = truncation_level(s.shock_rate, t[-1], eps)
    blocks = _grid_plan(s.shock_rate, t.tobytes(), eps, top)[1]
    skipped_count = 0
    for c, ui in zip(s.components, u):
        skipped = _skipped_times(c, t, ui, top, blocks)
        assert np.all(skipped[np.argmax(skipped):]) or not skipped.any()
        n_flat, shared, graded, _, _ = _damage_stack(c, ui, top, DEFAULT_QUADRATURE)
        for cols, rows, tiers in blocks:  # each skipped time at its own block's nodes
            shape = c.gamma_shape_rate * t[cols[skipped[cols]], None]
            flat = min(rows, n_flat)
            ys, weights, bounds, _ = _windows(c, DEFAULT_QUADRATURE, tiers.tobytes())
            g = gamma_cdf(c.soft_threshold - ui - ys[:bounds[flat]], shape, c.gamma_rate)
            assert np.all(np.add.reduceat(g * weights[:bounds[flat]], bounds[:flat], axis=1) < 2.0 ** -60)
            rest = graded[:rows - flat]
            assert not rest.size or np.all(gamma_cdf(shared, shape, c.gamma_rate) @ rest.T < 2.0 ** -60)
        skipped_count += int(skipped.sum())
    return skipped_count


class TestDeadColumns:
    """Times where a Chernoff bound puts every S_m below 2^-60 are skipped."""

    @given(
        shape=st.floats(1e-3, 1e4),
        rate=st.floats(0.1, 10.0),
        r=st.floats(1e-6, 1.0, exclude_max=True),
    )
    def test_chernoff_bound_is_at_least_the_gamma_cdf(self, shape, rate, r):
        x = r * shape / rate
        assert gamma_cdf(x, shape, rate) <= math.exp(-shape * (r - 1.0 - math.log(r))) * (1.0 + 1e-12)

    @settings(max_examples=30)
    @given(case=_systems())
    def test_skipped_times_are_a_suffix_of_negligible_columns(self, case):
        # out to 40 wear lives, at shock rates up to 0.05 so the Poisson
        # mean stays within the truncation cap
        s, t, u = case
        s = replace(s, shock_rate=min(s.shock_rate, 0.05))
        _assert_skips_are_negligible_suffixes(s, np.concatenate((t, t[-1] * np.geomspace(2, 20, 6))), u)

    @pytest.mark.parametrize("topology, rate", [(Topology.SERIES, 2.5e-3), (Topology.PARALLEL, 0.1)])
    def test_the_default_scan_grid_skips_late_columns(self, system, topology, rate):
        # component 1 wears out (a = 3 t against beta H = 20) within the
        # 50-unit scan, so a new system skips its last columns
        s = replace(system, topology=topology, shock_rate=rate)
        t = np.concatenate(([0.0, 0.05], np.geomspace(*DEFAULT_BOUNDS, 100)))
        assert _assert_skips_are_negligible_suffixes(s, t, [0.0, 0.0, 0.0]) >= 5

    @settings(max_examples=30)
    @given(rate=st.floats(1e-4, 2.0), ts=st.lists(st.floats(0.0, 50.0), max_size=80))
    def test_every_time_takes_its_own_bands_tiers(self, rate, ts):
        # blocks are cut where the tiers of the bands they join differ on
        # the rows both use, so no time's nodes depend on the other times
        t = np.asarray(ts, dtype=float)
        eps = DEFAULT_QUADRATURE.tail_epsilon
        levels = _column_levels(rate * t, eps, truncation_level(rate, t.max(initial=0.0), eps))
        bands = _bands(rate * t)
        blocks = _column_blocks(t, levels, bands)
        cols = np.concatenate([np.empty(0, int), *(cols for cols, _, _ in blocks)])
        assert np.array_equal(np.sort(cols), np.flatnonzero(t > 0))
        for cols, rows, tiers in blocks:
            assert rows == tiers.size == levels[cols].max() + 1
            for j in cols:
                assert np.array_equal(tiers[:levels[j] + 1], _row_tiers(bands[j], levels[j] + 1))

    def test_row_tiers_follow_the_largest_pmf_over_the_band(self):
        # pmf(m; clip(m, 10^b, 10^(b + 1))) above 0.1 keeps every node of a
        # window, above 1e-3 half of them and below that a quarter
        assert _row_tiers(-1, 8).tolist() == [0, 0, 0, 1, 1, 1, 2, 2]
        assert _row_tiers(-4, 3).tolist() == [0, 2, 2]
        assert _row_tiers(1, 3).tolist() == [2, 2, 1]
        assert _bands(np.asarray([0.0, 1e-3, 0.099, 0.1, 5.0])).tolist() == [-300, -3, -2, -1, 0]

    def test_a_tier_keeps_a_share_of_a_windows_nodes(self, system):
        # component 3's windows (damage mean 3, sd 0.1) are cut by neither 0
        # nor H from m = 1: 12 nodes at tier 0, 6 at tier 1, 3 at tier 2, each
        # rule holding the window's mass, 1 - 1.2e-15
        c, q = system.components[2], DEFAULT_QUADRATURE
        for tiers, sizes in (([0, 0, 0, 0], [1, 12, 12, 12]), ([0, 0, 1, 2], [1, 12, 6, 3])):
            ys, weights, bounds, sums = _windows(c, q, bytes(tiers))
            assert np.diff(bounds).tolist() == sizes
            assert np.all(np.abs(sums - 1.0) <= 1e-14)

    def test_grid_plan_is_cached_read_only_and_fresh(self):
        t = np.concatenate(([0.0, 0.05], np.geomspace(*DEFAULT_BOUNDS, 100)))
        eps = DEFAULT_QUADRATURE.tail_epsilon
        for rate in (2.5e-3, 0.1):
            top = truncation_level(rate, t[-1], eps)
            pmf, blocks = _grid_plan(rate, t.tobytes(), eps, top)
            assert _grid_plan(rate, t.copy().tobytes(), eps, top)[0] is pmf
            levels = _column_levels(rate * t, eps, top)
            assert np.array_equal(pmf, _poisson_pmf_grid(rate, t, levels))
            fresh = _column_blocks(t, levels, _bands(rate * t))
            assert len(blocks) == len(fresh)
            for (cols, rows, tiers), (cols1, rows1, tiers1) in zip(blocks, fresh):
                assert rows == rows1 and np.array_equal(cols, cols1) and np.array_equal(tiers, tiers1)
            for arr in (pmf, *(a for cols, _, tiers in blocks for a in (cols, tiers))):
                with pytest.raises(ValueError):
                    arr[...] = 0


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this gammashock."""
    src = str(Path(gammashock.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestRandomSystemProperties:
    """Properties of R over random valid systems (the _systems strategy)."""

    @settings(max_examples=30)
    @given(case=_systems())
    def test_bounded(self, case):
        s, t, u = case
        r_sys, comps = _reliability_grid(s, t, np.asarray(u), DEFAULT_QUADRATURE)
        for r in (r_sys, *comps):
            assert np.all((r >= 0.0) & (r <= 1.0))

    @pytest.mark.xfail(strict=True, reason=(
        "R can rise in t: the kernel drops the damage law's mass below zero, "
        "a share that shrinks as the shock count grows (a component "
        "with damage sd/mean 0.47 rises by 1.3e-3), and parallel books the "
        "Poisson tail as survival (rises of up to 4.6e-11)"))
    @settings(max_examples=30)
    @given(case=_systems())
    def test_nonincreasing_in_time(self, case):
        s, t, u = case
        r_sys, comps = _reliability_grid(s, t, np.asarray(u), DEFAULT_QUADRATURE)
        for r in (r_sys, *comps):
            assert np.all(np.diff(r) <= 1e-12)

    @settings(max_examples=30)
    @given(case=_systems())
    def test_series_never_above_parallel(self, case):
        s, t, u = case
        ser = system_reliability(replace(s, topology=Topology.SERIES), t, u)
        par = system_reliability(replace(s, topology=Topology.PARALLEL), t, u)
        assert np.all(ser <= par + 1e-12)
