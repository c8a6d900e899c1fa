"""Cost-rate objective, interval solver, scenario dataset plumbing."""
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import gammashock.optimize as gopt
from gammashock.core import SystemModel, Topology
from gammashock.reliability import DEFAULT_QUADRATURE, system_reliability, truncation_level
from gammashock.optimize import (
    DEFAULT_BOUNDS,
    CostParams,
    NumericsError,
    Scenario,
    Dataset,
    _fit_minimum,
    _log_time_rule,
    _scan,
    cost_rate,
    cost_rate_batch,
    dataset_from_csv,
    dataset_to_csv,
    generate_dataset,
    optimal_inspection_time,
    split_dataset,
    system_fingerprint,
    two_regime_state_sampler,
)
from .test_core import make_component

COSTS_1 = CostParams(50.0, (200.0,), 10.0)
CR_STAR_BUDGET = 1e-7  # solver's CR* against fine_cost_rate, relative
COST_RATE_BUDGET = 1e-6  # cost_rate_batch against fine_cost_rate, relative


def fine_cost_rate(s, costs, taus, u=None) -> np.ndarray:
    """CR at taus with a 256-node cost integral: the reference for the
    budgets of cost_rate_batch and of the solver's CR*."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    with mock.patch.object(gopt, "COST_INTEGRAL_NODES", 256):
        return np.concatenate(  # chunked to bound memory at the parallel truncation level
            [cost_rate_batch(s, costs, taus[k:k + 6], u) for k in range(0, taus.size, 6)]
        )


def nearly_static_system() -> SystemModel:
    """Wear so slow that nothing fails on any horizon under test."""
    c = make_component(gamma_shape_rate=1e-12, gamma_rate=1.0)
    return SystemModel(components=(c,), topology=Topology.SERIES, shock_rate=0.0)


class TestCostParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostParams(0.0, (200.0,), 10.0)
        with pytest.raises(ValueError):
            CostParams(50.0, (), 10.0)
        with pytest.raises(ValueError):
            CostParams(50.0, (200.0, -1.0), 10.0)
        with pytest.raises(ValueError):
            CostParams(50.0, (200.0,), -0.1)

    def test_zero_downtime_rate_allowed(self):
        assert CostParams(50.0, (200.0,), 0.0).downtime_rate == 0.0

    def test_length_pairing_enforced(self, system, costs):
        short = CostParams(50.0, (200.0, 200.0), 10.0)
        with pytest.raises(ValueError):
            cost_rate(system, short, 5.0)


class TestCostRate:
    def test_rejects_nonpositive_tau(self, system, costs):
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError):
                cost_rate(system, costs, tau)
        with pytest.raises(ValueError):
            cost_rate_batch(system, costs, np.asarray([1.0, 0.0]))

    def test_monte_carlo_anchor(self, system, costs):
        # frozen sampled assembly of the same objective at tau=5 from
        # fresh state (2e5 draws per quadrature node, seed 77); the
        # sampling noise of that assembly is well inside 0.05
        assert abs(cost_rate(system, costs, 5.0) - 15.903505734755441) <= 0.05

    def test_matches_batch(self, system, costs):
        # a batch shares its quadrature times' gamma-CDF calls, which can
        # sum the same terms in another order
        taus = np.asarray([0.5, 2.0, 5.0, 17.0, 50.0])
        batch = cost_rate_batch(system, costs, taus, [1.0, 2.0, 3.0])
        for tau, v in zip(taus, batch):
            assert abs(v - cost_rate(system, costs, float(tau), [1.0, 2.0, 3.0])) <= 5e-8

    def test_pure_inspection_limit(self):
        # nothing ever fails, so the rate collapses to C_I / tau
        s = nearly_static_system()
        c = CostParams(50.0, (200.0,), 10.0)
        for tau in (1.0, 5.0, 25.0):
            assert abs(cost_rate(s, c, tau) - 50.0 / tau) <= 1e-6 * 50.0 / tau

    def test_blows_up_as_tau_vanishes(self, system, costs):
        assert cost_rate(system, costs, 1e-3) > cost_rate(system, costs, 1.0)
        assert cost_rate(system, costs, 1e-3) > 1e4

    @pytest.mark.parametrize(
        "topology, rate", [(Topology.SERIES, 2.5e-3), (Topology.PARALLEL, 0.1)], ids=["series", "parallel"]
    )
    def test_within_budget_of_a_256_node_rule(self, system, costs, topology, rate):
        s = replace(system, topology=topology, shock_rate=rate)
        h = np.asarray([c.soft_threshold for c in s.components])
        taus = np.geomspace(*DEFAULT_BOUNDS, 12)  # ends at 50, where the error peaks
        for u in (np.zeros(s.n), 0.1 * h, 0.5 * h):
            got = cost_rate_batch(s, costs, taus, u)
            ref = fine_cost_rate(s, costs, taus, u)
            assert np.max(np.abs(got / ref - 1.0)) <= COST_RATE_BUDGET, f"u={u}"

    def test_finite_on_dense_scan(self, system, costs):
        taus = np.geomspace(*DEFAULT_BOUNDS, 2000)
        vals = cost_rate_batch(system, costs, taus)
        assert np.all(np.isfinite(vals))

    def test_worn_state_costs_more(self, system, costs, half_levels):
        assert cost_rate(system, costs, 5.0, half_levels) > cost_rate(system, costs, 5.0)


class TestSolver:
    def test_fresh_state_beats_its_scan_grid(self, system, costs):
        sol = optimal_inspection_time(system, costs)
        grid = np.geomspace(*DEFAULT_BOUNDS, 100)
        vals = cost_rate_batch(system, costs, grid)
        _, scan = _scan(system, costs, grid, np.zeros(system.n), DEFAULT_QUADRATURE)
        assert np.max(np.abs(scan / vals - 1.0)) <= 1e-6
        assert cost_rate(system, costs, sol.tau_star) <= vals.min() + 1e-12
        ref = fine_cost_rate(system, costs, sol.tau_star)[0]
        assert abs(sol.cost_rate_star / ref - 1.0) <= CR_STAR_BUDGET
        assert not sol.boundary
        assert DEFAULT_BOUNDS[0] < sol.tau_star < DEFAULT_BOUNDS[1]

    @pytest.mark.parametrize("u", [[0.0, 0.0, 0.0], [4.0, 6.0, 7.0]], ids=["fresh", "worn"])
    def test_refined_interval_is_a_local_minimum(self, system, costs, u):
        sol = optimal_inspection_time(system, costs, u)
        assert not sol.boundary
        for step in (-1e-3, 1e-3):  # far beyond the refinement's error in tau
            assert cost_rate(system, costs, sol.tau_star + step, u) > sol.cost_rate_star

    def test_worn_state_runs_to_the_ceiling(self, system, costs, half_levels):
        # heavy wear makes frequent inspection pointless: replacements
        # are near-certain either way, so the long-interval limit (the
        # downtime rate alone) undercuts every interior candidate and
        # the solver pins tau at the search ceiling
        heavy = 1.6 * half_levels  # 0.8 * H
        sol = optimal_inspection_time(system, costs, heavy)
        assert sol.boundary
        assert sol.tau_star >= DEFAULT_BOUNDS[1] - 1e-4
        fresh = optimal_inspection_time(system, costs)
        assert sol.cost_rate_star > fresh.cost_rate_star

    def test_pure_inspection_cost_prefers_ceiling(self):
        s = nearly_static_system()
        sol = optimal_inspection_time(s, COSTS_1)
        assert sol.boundary and sol.tau_star >= DEFAULT_BOUNDS[1] - 1e-4

    def test_deterministic(self, system, costs):
        a = optimal_inspection_time(system, costs, [1.0, 2.0, 3.0])
        b = optimal_inspection_time(system, costs, [1.0, 2.0, 3.0])
        assert a == b

    def test_identical_components_commute(self, system, costs):
        c = system.components[0]
        twin = replace(system, components=(c, c, system.components[2]))
        a = optimal_inspection_time(twin, costs, [2.0, 5.0, 1.0])
        b = optimal_inspection_time(twin, costs, [5.0, 2.0, 1.0])
        assert a == b

    @pytest.mark.parametrize("fraction", [0.1, 0.6], ids=["light", "heavy"])
    def test_parallel_system_under_frequent_shocks(self, system, costs, fraction):
        # the shock-parallel setting, where the shock-count series runs to M=25
        par = replace(system, topology=Topology.PARALLEL, shock_rate=0.1)
        assert truncation_level(par.shock_rate, DEFAULT_BOUNDS[1], 1e-10) == 25
        u = fraction * np.asarray([c.soft_threshold for c in par.components])

        def batch(taus):  # chunked to bound memory at this truncation level
            return np.concatenate(
                [cost_rate_batch(par, costs, taus[k:k + 50], u) for k in range(0, taus.size, 50)]
            )

        grid = np.geomspace(*DEFAULT_BOUNDS, 100)
        on_grid = batch(grid)
        _, scan = _scan(par, costs, grid, u, DEFAULT_QUADRATURE)
        assert np.max(np.abs(scan / on_grid - 1.0)) <= 1e-6
        sol = optimal_inspection_time(par, costs, u)
        best = min(on_grid.min(), batch(np.sqrt(grid[1:] * grid[:-1])).min())
        assert sol.cost_rate_star <= best * (1.0 + 1e-6)
        assert sol.boundary == (fraction > 0.5)

    @pytest.mark.parametrize(
        "topology, shock_rate, u, before",
        [
            (Topology.SERIES, 2.5e-3, [0.0, 0.0, 0.0], 787_833),
            (Topology.SERIES, 2.5e-3, [4.0, 6.0, 7.0], 785_520),
            (Topology.SERIES, 2.5e-3, [10.0, 15.0, 17.0], 848_925),
            (Topology.PARALLEL, 0.1, [0.0, 0.0, 0.0], 1_904_313),
            (Topology.PARALLEL, 0.1, [4.0, 6.0, 7.0], 1_568_880),
            (Topology.PARALLEL, 0.1, [10.0, 15.0, 17.0], 1_131_165),
        ],
    )
    def test_gamma_cdf_budget(self, system, costs, monkeypatch, topology, shock_rate, u, before):
        # `before` is the count of a solver that truncated every time at
        # the level of the largest and priced R_sys and R_i separately
        import gammashock.reliability as grel

        count = [0]
        kernel = grel.gamma_cdf

        def counted(*args):
            out = kernel(*args)
            count[0] += out.size
            return out

        monkeypatch.setattr(grel, "gamma_cdf", counted)
        s = replace(system, topology=topology, shock_rate=shock_rate)
        optimal_inspection_time(s, costs, u)
        assert 0 < count[0] <= 0.0235 * before

    def test_nonfinite_objective_raises(self, system):
        bad = CostParams(float("inf"), (200.0, 200.0, 200.0), 10.0)
        with pytest.raises(NumericsError):
            optimal_inspection_time(system, bad)

    def test_validation(self, system, costs):
        with pytest.raises(ValueError):
            optimal_inspection_time(system, costs, bounds=(5.0, 1.0))
        with pytest.raises(ValueError):
            optimal_inspection_time(system, costs, bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            optimal_inspection_time(system, costs, tol=0.0)
        with pytest.raises(ValueError):
            optimal_inspection_time(system, costs, grid_points=2)
        with pytest.raises(ValueError, match=r"grid_points must be in \[3, 20000\]"):
            optimal_inspection_time(system, costs, grid_points=20_001)


class TestRefinement:
    GRID = np.geomspace(*DEFAULT_BOUNDS, 100)
    H = math.log(GRID[1] / GRID[0])

    @staticmethod
    def quintic(s, s0, h):
        # a degree-5 polynomial in s whose only critical point within
        # two log spacings h of s0 is its minimum at s0; it falls again far
        # below s0, so the tests name the grid point nearest s0 themselves
        d = (s - s0) / h
        return 20.0 + d**2 * (1.0 + d / 3.0 + d**2 / 9.0 + d**3 / 27.0)

    @pytest.mark.parametrize("k, shift", [(50, 0.3), (0, 0.3), (99, -0.3)],
                             ids=["interior", "first", "last"])
    def test_recovers_a_quintic_minimizer(self, k, shift):
        s0 = math.log(self.GRID[k]) + shift * self.H
        cr = self.quintic(np.log(self.GRID), s0, self.H)
        assert cr[k] == cr[max(k - 1, 0):k + 2].min()  # the scan's argmin near s0
        tau, value = _fit_minimum(self.GRID, cr, k)
        assert abs(tau - math.exp(s0)) <= 1e-10
        assert abs(value - 20.0) <= 1e-12

    @pytest.mark.parametrize("k, shift", [(0, -0.5), (99, 0.5)], ids=["first", "last"])
    def test_minimum_past_the_grid_returns_its_end(self, k, shift):
        s0 = math.log(self.GRID[k]) + shift * self.H
        cr = self.quintic(np.log(self.GRID), s0, self.H)
        tau, value = _fit_minimum(self.GRID, cr, k)
        assert tau == self.GRID[k]
        assert abs(value - cr[k]) <= 1e-12

    @pytest.mark.parametrize(
        "topology, rate", [(Topology.SERIES, 2.5e-3), (Topology.PARALLEL, 0.1)], ids=["series", "parallel"]
    )
    def test_no_worse_than_a_dense_sample_of_the_bracket(self, system, costs, topology, rate):
        s = replace(system, topology=topology, shock_rate=rate)
        h = np.asarray([c.soft_threshold for c in s.components])
        rng = np.random.default_rng(12)
        states = [rng.uniform(0.0, 0.2 * h) for _ in range(4)]
        states += [rng.uniform(0.4 * h, 0.8 * h) for _ in range(4)]
        n = self.GRID.size
        for u in states:
            sol = optimal_inspection_time(s, costs, u)
            _, scan = _scan(s, costs, self.GRID, u, DEFAULT_QUADRATURE)
            i = int(np.argmin(scan))
            taus = np.linspace(self.GRID[max(i - 1, 0)], self.GRID[min(i + 1, n - 1)], 201)
            best = min(  # chunked to bound memory at the parallel truncation level
                cost_rate_batch(s, costs, taus[k:k + 50], u).min() for k in range(0, taus.size, 50)
            )
            assert cost_rate(s, costs, sol.tau_star, u) <= best * (1.0 + 1e-10), f"u={np.round(u, 3)}"
            ref = fine_cost_rate(s, costs, sol.tau_star, u)[0]
            assert abs(sol.cost_rate_star / ref - 1.0) <= CR_STAR_BUDGET, f"u={np.round(u, 3)}"

    @pytest.mark.parametrize(
        "topology, rate", [(Topology.SERIES, 2.5e-3), (Topology.PARALLEL, 0.1)], ids=["series", "parallel"]
    )
    def test_places_tau_as_well_as_a_2000_point_solve(self, system, costs, topology, rate):
        s = replace(system, topology=topology, shock_rate=rate)
        h = np.asarray([c.soft_threshold for c in s.components])
        rng = np.random.default_rng(13)
        states = [rng.uniform(0.0, 0.2 * h) for _ in range(3)] + [rng.uniform(0.4 * h, 0.6 * h)]
        for u in states:
            taus = [optimal_inspection_time(s, costs, u, grid_points=n).tau_star for n in (100, 2000)]
            got, best = fine_cost_rate(s, costs, taus, u)
            assert abs(got / best - 1.0) <= 1e-10, f"u={np.round(u, 3)}"

    def test_a_solve_makes_one_scan_and_no_pricing(self, system, costs, half_levels, monkeypatch):
        grids, priced = [], []
        grid, batch = gopt._reliability_grid, gopt.cost_rate_batch

        def counted_grid(*args):
            grids.append(args[1].size)
            return grid(*args)

        def recorded_batch(s, c, taus, *rest):
            priced.append(np.asarray(taus).tolist())
            return batch(s, c, taus, *rest)

        monkeypatch.setattr(gopt, "_reliability_grid", counted_grid)
        monkeypatch.setattr(gopt, "cost_rate_batch", recorded_batch)
        for u, boundary in ((None, False), (1.6 * half_levels, True)):
            grids.clear()
            sol = optimal_inspection_time(system, costs, u)
            assert sol.boundary == boundary
            assert grids == [102]  # 0, grid[0] / 2 and the 100 taus
            assert priced == []


class TestScanRule:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 100, 200])
    def test_rows_integrate_polynomials_exactly(self, n):
        idx, w = _log_time_rule(n)
        k = min(10, n)
        assert idx.shape == w.shape == (n - 1, k)
        half = (k - 1) / 2
        for j in range(n - 1):
            # the stencil's nodes in the offset from interval j's centre,
            # scaled to about [-1, 1] (in raw offsets the float sum for x**9
            # alone errs by 9.4e-10); interval j is [-1/2, 1/2] / half
            s = (idx[j] - j - 0.5) / half
            for p in range(k):
                exact = 0.0 if p % 2 else 0.5 ** p / (p + 1) / half ** p
                assert abs(w[j] @ s ** p - exact) <= 1e-13

    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("u", [[0.0, 0.0, 0.0], [10.0, 15.0, 17.0]], ids=["fresh", "worn"])
    def test_downtime_matches_fine_simpson(self, system, costs, topology, u):
        # reference: 16 Simpson panels on [0, grid[0]] and on every interval
        rate = 0.1 if topology is Topology.PARALLEL else 2.5e-3
        s = replace(system, topology=topology, shock_rate=rate)
        grid = np.geomspace(*DEFAULT_BOUNDS, 100)
        edges = np.concatenate(([0.0], grid))
        x = np.linspace(0.0, 1.0, 33)
        simpson = np.ones(33)
        simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
        ref = np.empty(grid.size)
        for k in range(0, grid.size, 25):  # chunked to bound memory
            a, b = edges[k:k + 25], edges[k + 1:k + 26]
            t = (a[:, None] + (b - a)[:, None] * x).ravel()
            lost = 1.0 - system_reliability(s, t, u).reshape(a.size, -1)
            ref[k:k + 25] = (b - a) / 96.0 * (lost @ simpson)
        cum, cr = _scan(s, costs, grid, np.asarray(u), DEFAULT_QUADRATURE)
        err = costs.downtime_rate * np.abs(cum - np.cumsum(ref)) / (cr * grid)
        assert np.max(err) <= 1e-7


class TestStateSamplers:
    def test_two_regime_draws_stay_in_their_boxes(self, system):
        sample = two_regime_state_sampler(system)
        rng = np.random.default_rng(6)
        h = np.asarray([c.soft_threshold for c in system.components])
        light = heavy = 0
        for _ in range(400):
            u = sample(rng)
            if np.all(u <= 0.2 * h):
                light += 1
            elif np.all((u >= 0.4 * h) & (u <= 0.8 * h)):
                heavy += 1
            else:
                pytest.fail(f"draw {u} mixes regimes")
        assert light > 100 and heavy > 100

    def test_two_regime_validation(self, system):
        with pytest.raises(ValueError):
            two_regime_state_sampler(system, light_fraction=0.0)
        with pytest.raises(ValueError):
            two_regime_state_sampler(system, heavy_range=(0.8, 0.4))
        with pytest.raises(ValueError):
            two_regime_state_sampler(system, heavy_range=(0.4, 1.2))


class TestGenerateDataset:
    def test_rows_and_self_consistency(self, system, costs):
        ds = generate_dataset(system, costs, 4, seed=9)
        assert len(ds) == 4
        assert ds.fingerprint == system_fingerprint(system, costs)
        assert ds.bounds == DEFAULT_BOUNDS
        for k, sc in enumerate(ds.scenarios):
            assert sc.scenario_id == k
            assert len(sc.u) == system.n
            ref = fine_cost_rate(system, costs, sc.tau_star, sc.u)[0]
            assert abs(sc.cost_rate_star / ref - 1.0) <= CR_STAR_BUDGET
            assert sc.solve_ms > 0.0
            assert sc.split == ""

    def test_deterministic_up_to_timing(self, system, costs):
        key = lambda ds: [(sc.u, sc.tau_star, sc.cost_rate_star, sc.boundary) for sc in ds.scenarios]
        a = generate_dataset(system, costs, 3, seed=11)
        b = generate_dataset(system, costs, 3, seed=11)
        assert key(a) == key(b)
        c = generate_dataset(system, costs, 3, seed=12)
        assert key(a) != key(c)

    def test_custom_sampler(self, system, costs):
        fixed = lambda rng: np.zeros(system.n)
        ds = generate_dataset(system, costs, 2, seed=1, u_sampler=fixed)
        assert ds.scenarios[0].tau_star == ds.scenarios[1].tau_star

    def test_rejects_empty(self, system, costs):
        with pytest.raises(ValueError):
            generate_dataset(system, costs, 0, seed=1)


def synthetic_dataset(n: int = 60) -> Dataset:
    rng = np.random.default_rng(3)
    rows = tuple(
        Scenario(
            scenario_id=k,
            u=tuple(rng.uniform(0, 10, 3)),
            tau_star=float(rng.uniform(1, 50)),
            cost_rate_star=float(rng.uniform(10, 60)),
        )
        for k in range(n)
    )
    return Dataset("feedc0ffee123456", (0.1, 50.0), rows)


class TestSplitDataset:
    def test_sizes(self):
        ds = split_dataset(synthetic_dataset(60), 0.7, seed=42)
        assert len(ds.rows("train")) == 42
        assert len(ds.rows("test")) == 18
        assert ds.has_split

    def test_partition_preserves_rows(self):
        base = synthetic_dataset(10)
        ds = split_dataset(base, 0.5, seed=0)
        assert {sc.scenario_id for sc in ds.scenarios} == set(range(10))
        stripped = [(sc.scenario_id, sc.u, sc.tau_star) for sc in ds.scenarios]
        original = [(sc.scenario_id, sc.u, sc.tau_star) for sc in base.scenarios]
        assert stripped == original

    def test_deterministic(self):
        labels = lambda ds: [sc.split for sc in ds.scenarios]
        a = split_dataset(synthetic_dataset(20), 0.7, seed=4)
        b = split_dataset(synthetic_dataset(20), 0.7, seed=4)
        assert labels(a) == labels(b)
        c = split_dataset(synthetic_dataset(20), 0.7, seed=5)
        assert labels(a) != labels(c)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_dataset(synthetic_dataset(10), 0.0, seed=1)
        with pytest.raises(ValueError):
            split_dataset(synthetic_dataset(10), 1.0, seed=1)
        with pytest.raises(ValueError):
            split_dataset(synthetic_dataset(1), 0.5, seed=1)
        with pytest.raises(ValueError):
            split_dataset(synthetic_dataset(2), 0.9, seed=1)  # empty test side


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        ds = split_dataset(synthetic_dataset(12), 0.75, seed=7)
        path = tmp_path / "dataset.csv"
        dataset_to_csv(ds, path)
        back = dataset_from_csv(path)
        assert back.fingerprint == ds.fingerprint
        assert back.bounds == ds.bounds
        assert len(back) == len(ds)
        for a, b in zip(ds.scenarios, back.scenarios):
            assert a.scenario_id == b.scenario_id
            assert a.split == b.split
            assert np.allclose(a.u, b.u, rtol=1e-8, atol=0.0)
            assert math.isclose(a.tau_star, b.tau_star, rel_tol=1e-8)
            assert math.isclose(a.cost_rate_star, b.cost_rate_star, rel_tol=1e-8)
        # files written with CRLF row ends read the same
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert dataset_from_csv(crlf) == back

    def test_byte_stable(self, tmp_path):
        ds = synthetic_dataset(5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dataset_to_csv(ds, p1)
        dataset_to_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_drops_nothing_at_full_precision(self, tmp_path):
        # values that exercise the short-float formatter
        rows = (
            Scenario(0, (1.0 / 3.0, 1e-7, 12345.6789), 4.141543340433395, 14.088053384108028),
        )
        ds = Dataset("abc123", (0.1, 50.0), rows)
        path = tmp_path / "d.csv"
        dataset_to_csv(ds, path)
        back = dataset_from_csv(path).scenarios[0]
        assert math.isclose(back.u[0], 1.0 / 3.0, rel_tol=1e-8)
        assert math.isclose(back.u[1], 1e-7, rel_tol=1e-8)
        assert math.isclose(back.tau_star, 4.141543340433395, rel_tol=1e-8)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            dataset_from_csv(path)

    @pytest.mark.parametrize(
        "text, names",
        [
            ("# gammashock dataset v1\n\n", "empty dataset file"),
            ("scenario_id,u_1,cost_rate_star\n0,1,20\n", "missing column 'tau_star'"),
            ("scenario_id,u_1,tau_star,cost_rate_star\n0,x,4,20\n", "'x'"),
            ("scenario_id,u_1,tau_star,cost_rate_star\n0,1\n", "fewer cells"),
            ("# bounds=1\nscenario_id,u_1,tau_star,cost_rate_star\n0,1,4,20\n", "expected 2"),
            ("# bounds=50,0.1\nscenario_id,u_1,tau_star,cost_rate_star\n0,1,4,20\n", "0 < lo < hi"),
            ("# bounds=0.1,inf\nscenario_id,u_1,tau_star,cost_rate_star\n0,1,4,20\n", "0 < lo < hi"),
            ("scenario_id,u_1,tau_star,cost_rate_star\n0,1,NaN,20\n", "column 'tau_star' holds 'NaN'"),
        ],
        ids=["comments-only", "no-target-column", "non-numeric-cell", "short-row", "one-bound",
             "reversed-bounds", "infinite-bound", "non-finite-cell"],
    )
    def test_malformed_file_is_an_error_naming_it(self, tmp_path, text, names):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            dataset_from_csv(path)
        assert str(path) in str(err.value) and names in str(err.value)


class TestFingerprint:
    def test_shape_and_stability(self, system, costs):
        fp = system_fingerprint(system, costs)
        assert len(fp) == 16 and all(ch in "0123456789abcdef" for ch in fp)
        assert fp == system_fingerprint(system, costs)

    def test_sensitive_to_parameters(self, system, costs):
        assert system_fingerprint(system) != system_fingerprint(system, costs)
        bumped = replace(system, shock_rate=system.shock_rate * 2)
        assert system_fingerprint(bumped, costs) != system_fingerprint(system, costs)
        swapped = replace(
            system, components=(system.components[1], system.components[0], system.components[2])
        )
        assert system_fingerprint(swapped, costs) != system_fingerprint(system, costs)

    def test_equal_arguments_share_a_fingerprint(self, system, costs):
        # the cache keys on equality, so an int and an equal float must
        # hash the same whichever of them reaches the cache first
        cheap = CostParams(1, costs.replacement_costs, costs.downtime_rate)
        pairs = [
            ((replace(system, shock_rate=0), costs), (replace(system, shock_rate=0.0), costs)),
            ((system, cheap), (system, replace(cheap, inspection_cost=1.0))),
        ]
        for a, b in pairs:
            system_fingerprint.cache_clear()
            fp_a = system_fingerprint(*a)
            system_fingerprint.cache_clear()
            assert system_fingerprint(*b) == fp_a
