"""Sampling oracle and inspection-plan simulation."""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from gammashock import simulate
from gammashock.core import SystemModel, Topology, as_levels
from gammashock.optimize import CostParams
from gammashock.reliability import system_reliability
from gammashock.simulate import (
    PlanTrace,
    PolicyError,
    RngSeed,
    estimate_reliability,
    simulate_plan,
)
from .test_core import make_component
from .test_optimize import nearly_static_system


def _stepwise_simulate_plan(s, costs, policy, horizon, seed, u0=None, subgrid_steps=32):
    """Reference: simulate_plan with one gamma call per subgrid step, then one
    normal call each for magnitude and damage, per shock and per component."""
    rng = seed.generator()
    levels = as_levels(u0, s.n).copy()
    shapes = np.asarray([c.gamma_shape_rate for c in s.components])
    scales = np.asarray([1.0 / c.gamma_rate for c in s.components])
    soft_limits = np.asarray([c.soft_threshold for c in s.components])
    trace = PlanTrace(horizon=float(horizon))
    t_now = 0.0
    while t_now < horizon - 1e-12:
        tau = float(policy(levels.copy()))
        t_next = min(t_now + tau, horizon)
        dt = t_next - t_now

        n_shocks = rng.poisson(s.shock_rate * dt) if s.shock_rate > 0 else 0
        shock_at = np.sort(rng.uniform(0.0, dt, n_shocks)) if n_shocks else np.empty(0)
        grid = dt * np.arange(1, subgrid_steps + 1) / subgrid_steps
        offsets = np.concatenate([grid, shock_at])
        is_shock = np.arange(offsets.size) >= grid.size
        order = np.argsort(offsets, kind="stable")
        offsets, is_shock = offsets[order], is_shock[order]

        wear = [
            rng.gamma(shapes * step, scales) if step > 0 else np.zeros(s.n)
            for step in np.diff(offsets, prepend=0.0)
        ]
        marks = iter([
            [
                (rng.normal(c.shock_magnitude_mean, c.shock_magnitude_sd),
                 rng.normal(c.shock_damage_mean, c.shock_damage_sd))
                for c in s.components
            ]
            for _ in range(n_shocks)
        ])
        fail_at = np.full(s.n, np.inf)
        hard_now = []
        for off, shock, step_wear in zip(offsets, is_shock, wear):
            increment = step_wear.copy()
            if shock:
                for i, (c, (w, y)) in enumerate(zip(s.components, next(marks))):
                    increment[i] += max(y, 0.0)
                    if w >= c.hard_threshold and fail_at[i] == np.inf:
                        fail_at[i] = t_now + off
                        hard_now.append(i)
            levels += increment
            fail_at[(levels >= soft_limits) & (fail_at == np.inf)] = t_now + off

        failed = np.isfinite(fail_at)
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


class _SubgridGenerator(np.random.Generator):
    """Draws the same stream, but puts every shock on a point of a 32-step subgrid.

    Shocks then tie with subgrid points, with each other and with offset 0,
    so some steps between offsets are zero.
    """

    def uniform(self, low=0.0, high=1.0, size=None):
        x = super().uniform(low, high, size)
        return high * np.floor(x / high * 32) / 32


class _SubgridSeed(RngSeed):
    def generator(self):
        return _SubgridGenerator(np.random.PCG64((self.seed, self.stream)))


class TestRngSeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(0, -2)

    def test_keyed_streams(self):
        a = RngSeed(7, 3).generator().uniform(size=4)
        b = RngSeed(7, 3).generator().uniform(size=4)
        c = RngSeed(7, 4).generator().uniform(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestEstimateReliability:
    def test_certain_at_time_zero(self, system):
        assert estimate_reliability(system, 0.0, None, 1000, RngSeed(5)) == (1.0, 0.0)

    def test_dead_on_arrival(self, system):
        dead = [c.soft_threshold for c in system.components]
        p, se = estimate_reliability(system, 1.0, dead, 1000, RngSeed(5))
        assert (p, se) == (0.0, 0.0)

    def test_deterministic(self, system):
        a = estimate_reliability(system, 5.0, None, 5000, RngSeed(6))
        b = estimate_reliability(system, 5.0, None, 5000, RngSeed(6))
        assert a == b

    def test_agrees_with_analytic_series(self, system):
        n = 20_000
        p, se = estimate_reliability(system, 5.0, None, n, RngSeed(7))
        exact = system_reliability(system, 5.0)
        assert abs(p - exact) <= 4.0 * se + 1e-3

    def test_parallel_never_below_series(self, system):
        par = replace(system, topology=Topology.PARALLEL)
        u = [10.0, 15.0, 17.0]
        ps, _ = estimate_reliability(system, 6.0, u, 20_000, RngSeed(8))
        pp, _ = estimate_reliability(par, 6.0, u, 20_000, RngSeed(8))
        assert pp >= ps

    def test_negative_damage_is_clipped(self):
        # damage N(0, 5^2) from 0.5 below H, with negligible wear and no lethal
        # shock: the system is up if every shock's damage is at most 0, and only
        # if every clipped damage stays below 0.5, so with N ~ Poisson(10)
        # E[(1/2)^N] <= R <= E[((1 + q) / 2)^N], q = P(|N(0, 25)| < 0.5).
        # Unclipped damage would cancel out and leave R near 1/2
        c = make_component(
            gamma_shape_rate=0.01, gamma_rate=100.0, shock_magnitude_mean=0.0,
            shock_magnitude_sd=0.0, shock_damage_mean=0.0, shock_damage_sd=5.0,
        )
        s = SystemModel((c,), shock_rate=2.0)
        p, se = estimate_reliability(s, 5.0, [c.soft_threshold - 0.5], 100_000, RngSeed(9))
        q = math.erf(0.1 / math.sqrt(2.0))
        assert math.exp(-5.0) - 4.0 * se <= p <= math.exp(-5.0 * (1.0 - q)) + 4.0 * se

    def test_validation(self, system):
        with pytest.raises(ValueError):
            estimate_reliability(system, -1.0)
        with pytest.raises(ValueError):
            estimate_reliability(system, 1.0, None, 0)


class TestSimulatePlan:
    def test_no_failure_cost_is_inspections_only(self):
        s = nearly_static_system()
        costs = CostParams(50.0, (200.0,), 10.0)
        for tau, visits in ((4.0, 3), (5.0, 3), (12.0, 1), (30.0, 1)):
            trace = simulate_plan(s, costs, lambda u: tau, 12.0, RngSeed(9))
            assert len(trace.inspection_times) == visits == math.ceil(12.0 / tau)
            assert trace.total_cost == visits * 50.0
            assert trace.availability == 1.0
            assert all(not r for r in trace.replaced)

    def test_visits_are_clipped_to_the_horizon(self):
        s = nearly_static_system()
        costs = CostParams(50.0, (200.0,), 10.0)
        trace = simulate_plan(s, costs, lambda u: 5.0, 12.0, RngSeed(10))
        assert trace.inspection_times == [5.0, 10.0, 12.0]

    def test_accounting_identity(self, system, costs):
        trace = simulate_plan(system, costs, lambda u: 5.0, 12.0, RngSeed(11))
        insp = repl = down = 0.0
        for k in range(len(trace.inspection_times)):
            insp += costs.inspection_cost
            repl += sum(costs.replacement_costs[i] for i in trace.replaced[k])
            down += costs.downtime_rate * trace.interval_downtime[k]
        assert trace.inspection_cost == insp
        assert trace.replacement_cost == repl
        assert trace.downtime_cost == down
        assert trace.total_cost == insp + repl + down
        assert abs(trace.availability - (1.0 - trace.downtime / 12.0)) <= 1e-15

    def test_deterministic(self, system, costs):
        a = simulate_plan(system, costs, lambda u: 4.0, 12.0, RngSeed(12))
        b = simulate_plan(system, costs, lambda u: 4.0, 12.0, RngSeed(12))
        assert a.to_dict() == b.to_dict()

    def test_policy_sees_current_levels(self, system, costs):
        seen = []
        def policy(u):
            seen.append(u.copy())
            return 6.0
        simulate_plan(system, costs, policy, 12.0, RngSeed(13), u0=[1.0, 2.0, 3.0])
        assert np.array_equal(seen[0], [1.0, 2.0, 3.0])
        assert len(seen) == 2

    def test_failed_component_is_replaced(self, system, costs):
        # start component 1 a hair under its threshold; mean wear per
        # interval is 3, so it fails in the first interval and the next
        # observation reflects a fresh unit, not the 19.9 it replaced
        quiet = replace(system, shock_rate=0.0)
        trace = simulate_plan(quiet, costs, lambda u: 1.0, 3.0, RngSeed(14), u0=[19.9, 0.0, 0.0])
        assert 0 in trace.replaced[0]
        assert trace.observed_levels[0][0] >= 20.0
        assert trace.observed_levels[1][0] < 15.0
        assert trace.interval_downtime[0] > 0.0
        assert trace.replacement_cost >= costs.replacement_costs[0]

    def test_series_downtime_starts_at_first_failure(self, system, costs):
        quiet = replace(system, shock_rate=0.0)
        dead = [25.0, 0.0, 0.0]  # component 1 already past its threshold
        trace = simulate_plan(quiet, costs, lambda u: 4.0, 4.0, RngSeed(15), u0=dead)
        # failure resolves on the first subgrid step of a 32-step interval
        assert trace.interval_downtime[0] >= 4.0 - 4.0 / 32 - 1e-12
        assert trace.availability < 1.0

    def test_parallel_survives_one_dead_component(self, costs):
        robust = make_component(gamma_shape_rate=1e-12)
        frail = make_component()
        s = SystemModel(
            components=(frail, robust, robust),
            topology=Topology.PARALLEL,
            shock_rate=0.0,
        )
        trace = simulate_plan(s, costs, lambda u: 4.0, 8.0, RngSeed(16), u0=[25.0, 0.0, 0.0])
        assert all(d == 0.0 for d in trace.interval_downtime)
        assert 0 in trace.replaced[0]

    def test_hard_shock_kills_and_is_recorded(self, costs):
        lethal = make_component(
            shock_magnitude_mean=20.0, shock_magnitude_sd=0.1, shock_damage_mean=0.1,
            shock_damage_sd=0.01,
        )
        s = SystemModel(
            components=(lethal, lethal, lethal), topology=Topology.SERIES, shock_rate=3.0
        )
        trace = simulate_plan(s, costs, lambda u: 4.0, 4.0, RngSeed(17))
        assert any(trace.hard_failed)
        hard = set(i for visit in trace.hard_failed for i in visit)
        replaced = set(i for visit in trace.replaced for i in visit)
        assert hard <= replaced

    def test_policy_errors(self, system, costs):
        for bad in (0.0, -1.0, float("nan"), float("inf"), "soon", None):
            with pytest.raises(PolicyError):
                simulate_plan(system, costs, lambda u: bad, 12.0, RngSeed(18))

    def test_validation(self, system, costs):
        with pytest.raises(ValueError):
            simulate_plan(system, costs, lambda u: 1.0, 0.0)
        with pytest.raises(ValueError):
            simulate_plan(system, costs, lambda u: 1.0, 12.0, subgrid_steps=0)
        with pytest.raises(ValueError, match=r"subgrid_steps must be in \[1, 10000\]"):
            simulate_plan(system, costs, lambda u: 1.0, 12.0, subgrid_steps=10_001)
        short = CostParams(50.0, (200.0,), 10.0)
        with pytest.raises(ValueError):
            simulate_plan(system, short, lambda u: 1.0, 12.0)

    def test_infinite_horizon_is_rejected(self, system, costs):
        calls = []

        def policy(u):  # stops an endless run after a few visits
            calls.append(u)
            assert len(calls) < 10, "simulated toward an infinite horizon"
            return 1.0

        with pytest.raises(ValueError, match="horizon must be finite"):
            simulate_plan(system, costs, policy, math.inf)
        assert not calls

    def test_visit_cap_fails_before_simulating_toward_it(self, system, costs):
        calls = []

        def policy(u):  # three ordinary intervals, then one that would never end
            calls.append(u)
            assert len(calls) < 10, "simulated toward the visit cap"
            return 1.0 if len(calls) < 4 else 1e-9

        with pytest.raises(PolicyError, match="needs over 100000 visits"):
            simulate_plan(system, costs, policy, 12.0, RngSeed(19))
        assert len(calls) == 4

    def test_visit_cap_admits_a_run_that_reaches_it(self, system, costs, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_VISITS", 4)
        trace = simulate_plan(system, costs, lambda u: 3.0, 12.0, RngSeed(20))
        assert len(trace.inspection_times) == 4
        with pytest.raises(PolicyError):
            simulate_plan(system, costs, lambda u: 2.9, 12.0, RngSeed(20))


def _oracle_system(system, topology, shock_rate, lethal):
    comps = system.components
    if lethal:  # about one shock in three kills each component outright
        comps = tuple(
            replace(c, hard_threshold=c.shock_magnitude_mean + 0.5 * c.shock_magnitude_sd)
            for c in comps
        )
    return replace(system, topology=topology, shock_rate=shock_rate, components=comps)


class TestBatchedDrawsMatchStepwiseLoop:
    """simulate_plan against _stepwise_simulate_plan, trace for trace."""

    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("shock_rate", [0.0, 0.0025, 0.1, 1.0, 5.0])
    def test_traces_are_identical(self, system, costs, topology, shock_rate):
        dead = [c.soft_threshold for c in system.components]
        dead[2] += 1.0
        starts = [None, dead, [0.0, 0.9 * system.components[1].soft_threshold, 0.0]]
        for tau, lethal, (seed, u0) in itertools.product(
            (0.3, 2.0, 13.0), (False, True), enumerate(starts)
        ):
            s = _oracle_system(system, topology, shock_rate, lethal)
            args = (s, costs, lambda u: tau, 12.0, RngSeed(seed, 7), u0)
            assert simulate_plan(*args).to_dict() == _stepwise_simulate_plan(*args).to_dict()

    def test_shocks_tied_with_subgrid_points(self, system, costs):
        # zero steps between offsets draw no wear in either implementation
        hard = 0
        for topology, seed in itertools.product(Topology, range(4)):
            s = _oracle_system(system, topology, 5.0, True)
            u0 = [c.soft_threshold for c in s.components] if seed == 3 else None
            args = (s, costs, lambda u: 2.0, 12.0, _SubgridSeed(seed), u0)
            new = simulate_plan(*args).to_dict()
            assert new == _stepwise_simulate_plan(*args).to_dict()
            hard += sum(map(len, new["hard_failed"]))
        assert hard > 0

    def test_negative_damage_is_clipped_as_in_the_loop(self, system, costs):
        # a damage law of mean 0.2 and sd 1.0 draws below 0 about 42% of the
        # time; both implementations add 0 for such a draw
        comps = tuple(
            replace(c, shock_damage_mean=0.2, shock_damage_sd=1.0) for c in system.components
        )
        for topology, seed in itertools.product(Topology, range(3)):
            s = replace(system, topology=topology, shock_rate=5.0, components=comps)
            args = (s, costs, lambda u: 2.0, 12.0, RngSeed(seed, 7), None)
            assert simulate_plan(*args).to_dict() == _stepwise_simulate_plan(*args).to_dict()

    def test_cases_cover_both_failure_orders(self, system, costs):
        # the comparisons above see hard failures listed and soft crossings
        # that came before a lethal shock, which must not be listed
        s = _oracle_system(system, Topology.SERIES, 5.0, True)
        dead = [c.soft_threshold for c in system.components]
        trace = simulate_plan(s, costs, lambda u: 2.0, 12.0, RngSeed(1, 7), dead).to_dict()
        assert trace["hard_failed"][0] == [] and trace["replaced"][0] == [0, 1, 2]
        assert any(len(h) > 1 for h in trace["hard_failed"])

