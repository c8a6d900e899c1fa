"""Sampling oracle and inspection-plan simulation."""
import math
from dataclasses import replace

import numpy as np
import pytest

from gammashock.core import SystemModel, Topology
from gammashock.optimize import CostParams
from gammashock.reliability import system_reliability
from gammashock.simulate import (
    PolicyError,
    RngSeed,
    estimate_reliability,
    simulate_plan,
)
from .test_core import make_component
from .test_optimize import nearly_static_system


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
