"""Probability primitives: normal CDF, Poisson pmf, gamma CDF, damage law."""
import math

import numpy as np
import pytest

from gammashock.core import (
    ComponentParams,
    DamageSum,
    SystemModel,
    Topology,
    as_levels,
    damage_sum_distribution,
    gamma_cdf,
    prob_no_hard_failure,
    std_normal_cdf,
)
from gammashock.reliability import _poisson_pmf_grid


def make_component(**overrides) -> ComponentParams:
    base = dict(
        soft_threshold=20.0,
        hard_threshold=7.0,
        gamma_shape_rate=3.0,
        gamma_rate=1.0,
        shock_magnitude_mean=1.5,
        shock_magnitude_sd=0.4,
        shock_damage_mean=2.0,
        shock_damage_sd=0.5,
    )
    base.update(overrides)
    return ComponentParams(**base)


def simpson_normal_cdf(x: float, lo: float = -12.0, n: int = 40001) -> float:
    """Composite-Simpson integral of the standard normal density up to x."""
    grid = np.linspace(lo, x, n)
    pdf = np.exp(-0.5 * grid**2) / math.sqrt(2.0 * math.pi)
    h = (x - lo) / (n - 1)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(h / 3.0 * (w @ pdf))


def gamma_cdf_series(a: float, z: float, terms: int = 400) -> float:
    """Regularized lower incomplete gamma by its power series at z = rate * x."""
    if z <= 0:
        return 0.0
    log_terms = [
        a * math.log(z) - z + k * math.log(z) - math.lgamma(a + k + 1.0)
        for k in range(terms)
    ]
    return float(sum(math.exp(v) for v in log_terms))


class TestStdNormalCdf:
    def test_zero_is_half(self):
        assert abs(std_normal_cdf(0.0) - 0.5) <= 1e-12

    def test_ninety_five_percent_point(self):
        assert abs(std_normal_cdf(1.6449) - 0.95) <= 1e-4

    def test_matches_simpson_integration(self):
        for x in (-2.3, -0.7, 0.31, 1.6449, 2.9):
            assert abs(std_normal_cdf(x) - simpson_normal_cdf(x)) <= 1e-10

    def test_symmetry(self):
        for x in np.linspace(-6, 6, 25):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-12

    def test_monotone(self):
        vals = [std_normal_cdf(x) for x in np.linspace(-8, 8, 81)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestProbNoHardFailure:
    def test_threshold_at_mean_gives_half(self):
        c = make_component(hard_threshold=1.5, shock_magnitude_mean=1.5)
        assert abs(prob_no_hard_failure(c) - 0.5) <= 1e-12

    def test_far_threshold_is_essentially_one(self):
        # reference component 1: (7 - 1.5) / 0.4 = 13.75 sd above the mean
        assert abs(prob_no_hard_failure(make_component()) - 1.0) <= 1e-12

    def test_degenerate_magnitude_is_a_step(self):
        below = make_component(shock_magnitude_sd=0.0, shock_magnitude_mean=6.9)
        at = make_component(shock_magnitude_sd=0.0, shock_magnitude_mean=7.0)
        assert prob_no_hard_failure(below) == 1.0
        assert prob_no_hard_failure(at) == 0.0  # magnitude == D destroys

    def test_matches_normal_cdf(self):
        c = make_component(hard_threshold=2.0, shock_magnitude_mean=1.2, shock_magnitude_sd=0.3)
        expect = std_normal_cdf((2.0 - 1.2) / 0.3)
        assert abs(prob_no_hard_failure(c) - expect) <= 1e-15


def pmf_column(shock_rate: float, t: float, level: int) -> np.ndarray:
    """P(N(t) = m) for m = 0..level, from the grid the reliability kernel uses."""
    return _poisson_pmf_grid(shock_rate, np.asarray([t]), np.asarray([level]))[:, 0]


class TestPoissonPmf:
    def test_zero_time(self):
        assert np.array_equal(pmf_column(2.5e-3, 0.0, 3), [1.0, 0.0, 0.0, 0.0])

    def test_unit_mean_single_count(self):
        # rate * t = 1 so P(N = 1) = exp(-1)
        assert abs(pmf_column(2.5e-3, 400.0, 1)[1] - math.exp(-1.0)) <= 1e-12

    def test_normalization(self):
        assert abs(pmf_column(2.5e-3, 400.0, 50).sum() - 1.0) <= 1e-12

    def test_matches_direct_formula(self):
        mu = 0.7
        pmf = pmf_column(0.07, 10.0, 7)
        for m in range(8):
            expect = math.exp(-mu) * mu**m / math.factorial(m)
            assert abs(pmf[m] - expect) <= 1e-14


class TestGammaCdf:
    def test_zero_and_negative_x(self):
        assert gamma_cdf(0.0, 3.0, 1.0) == 0.0
        assert gamma_cdf(-1.0, 3.0, 1.0) == 0.0

    def test_scalar_returns_float(self):
        assert isinstance(gamma_cdf(2.0, 3.0, 1.0), float)

    def test_exponential_special_case(self):
        # shape 1 collapses to 1 - exp(-rate * x)
        got = gamma_cdf(1.0, 1.0, 0.3)
        assert abs(got - 0.25918177931828207) <= 1e-12
        assert abs(got - (1.0 - math.exp(-0.3))) <= 1e-12

    def test_matches_power_series(self):
        # frozen midpoint value: P(15, 15) = 0.5343462910559905
        assert abs(gamma_cdf(15.0, 15.0, 1.0) - 0.5343462910559905) <= 1e-10
        for a, x, rate in ((2.5, 1.7, 2.0), (0.7, 0.4, 1.3), (6.0, 2.0, 3.0)):
            assert abs(gamma_cdf(x, a, rate) - gamma_cdf_series(a, rate * x)) <= 1e-10

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 40.0, 400)
        vals = gamma_cdf(xs, 3.0, 1.0)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_vectorized_matches_scalar(self):
        xs = np.asarray([0.5, 2.0, 7.0])
        vec = gamma_cdf(xs, 2.0, 0.6)
        assert vec.shape == (3,)
        for x, v in zip(xs, vec):
            assert v == gamma_cdf(float(x), 2.0, 0.6)

    def test_rejects_bad_shape_or_rate(self):
        for a, rate in ((0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -0.5)):
            with pytest.raises(ValueError):
                gamma_cdf(1.0, a, rate)

    def test_empirical_cdf_agreement(self):
        # 1e6 seeded draws; binomial 3-sigma band at each probe point
        a, rate, n = 3.0, 1.0, 1_000_000
        rng = np.random.default_rng(20260816)
        draws = rng.gamma(a, 1.0 / rate, n)
        for x in np.linspace(0.5, 9.5, 10):
            f = gamma_cdf(float(x), a, rate)
            emp = float(np.mean(draws <= x))
            band = 3.0 * math.sqrt(f * (1.0 - f) / n)
            assert abs(emp - f) <= band + 1e-9


class TestDamageSum:
    def test_zero_shocks_is_point_mass_at_zero(self):
        d = damage_sum_distribution(make_component(), 0)
        assert d == DamageSum(0.0, 0.0, True)

    def test_single_shock_is_the_base_law(self):
        d = damage_sum_distribution(make_component(), 1)
        assert (d.mean, d.variance, d.degenerate) == (2.0, 0.25, False)

    def test_three_shocks_reference_component(self):
        d = damage_sum_distribution(make_component(), 3)
        assert (d.mean, d.variance) == (6.0, 0.75)

    def test_linear_in_count(self):
        c = make_component(shock_damage_mean=1.7, shock_damage_sd=0.3)
        one = damage_sum_distribution(c, 1)
        for m in (2, 5, 11):
            d = damage_sum_distribution(c, m)
            assert abs(d.mean - m * one.mean) <= 1e-12
            assert abs(d.variance - m * one.variance) <= 1e-12

    def test_zero_spread_damage_is_degenerate(self):
        d = damage_sum_distribution(make_component(shock_damage_sd=0.0), 4)
        assert d.degenerate and d.mean == 8.0

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            damage_sum_distribution(make_component(), -1)


class TestModelTypes:
    def test_component_validation(self):
        bad = [
            dict(soft_threshold=0.0),
            dict(hard_threshold=-1.0),
            dict(gamma_shape_rate=0.0),
            dict(gamma_rate=0.0),
            dict(shock_magnitude_sd=-0.1),
            dict(shock_damage_sd=-0.1),
        ]
        for overrides in bad:
            with pytest.raises(ValueError):
                make_component(**overrides)

    def test_system_validation(self):
        with pytest.raises(ValueError):
            SystemModel(components=())
        with pytest.raises(ValueError):
            SystemModel(components=(make_component(),), shock_rate=-1.0)

    def test_topology_coercion(self):
        s = SystemModel(components=(make_component(),), topology="parallel")
        assert s.topology is Topology.PARALLEL
        assert s.n == 1

    def test_as_levels(self):
        assert np.array_equal(as_levels(None, 3), np.zeros(3))
        assert np.array_equal(as_levels([0.5, 0.5, 0.5], 3), [0.5, 0.5, 0.5])
        assert as_levels([-0.0, 0.0], 2)[0] == 0.0
        with pytest.raises(ValueError, match="state has 2 levels, system has 3 components"):
            as_levels([1.0, 2.0], 3)
        for bad in (-1.0, -1e-300, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="degradation levels must be finite and >= 0"):
                as_levels([bad, 0.0], 2)
