"""Model types and probability primitives.

A system is a set of components subject to two dependent failure modes:

* soft failure: continuous wear following a gamma process (shape grows
  linearly in time, fixed rate beta) plus abrupt damage increments from
  shocks; the component fails once total accumulated degradation
  reaches its soft threshold H.
* hard failure: any single shock whose magnitude reaches the hard
  threshold D destroys the component outright.

Shocks arrive system-wide as a Poisson process: every component sees
the same shock count, with its own magnitude and damage draw per shock.

Parameterization note: ``gamma_rate`` is a rate, not a scale.  The
increment over ``dt`` is Gamma(shape_per_time * dt, rate) with density
proportional to x**(a-1) * exp(-rate * x), so the mean degradation
speed is shape_per_time / rate.  Some handbooks label the same symbol a
"scale"; here a larger rate always means slower wear.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special as _special

SQRT2 = math.sqrt(2.0)


class Topology(str, Enum):
    SERIES = "series"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class ComponentParams:
    """Degradation and shock parameters for one component.

    soft_threshold      H, failure level for cumulative degradation (mm)
    hard_threshold      D, lethal single-shock magnitude
    gamma_shape_rate    alpha, gamma shape accumulated per unit time
    gamma_rate          beta, gamma rate parameter (1/mm)
    shock_magnitude_*   normal law of a shock's magnitude W
    shock_damage_*      normal law of a shock's damage increment Y (mm),
                        clipped at zero when sampled
    """

    soft_threshold: float
    hard_threshold: float
    gamma_shape_rate: float
    gamma_rate: float
    shock_magnitude_mean: float
    shock_magnitude_sd: float
    shock_damage_mean: float
    shock_damage_sd: float

    def __post_init__(self):
        for name in ("soft_threshold", "hard_threshold", "gamma_shape_rate", "gamma_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("shock_magnitude_sd", "shock_damage_sd"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("shock_magnitude_mean", "shock_damage_mean"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class SystemModel:
    """A multi-component system with a shared shock process."""

    components: tuple[ComponentParams, ...]
    topology: Topology = Topology.SERIES
    shock_rate: float = 0.0  # Poisson arrival rate of shocks (1/time)

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("components must not be empty")
        if not self.shock_rate >= 0:
            raise ValueError("shock_rate must be >= 0")
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "topology", Topology(self.topology))

    @property
    def n(self) -> int:
        return len(self.components)


def as_levels(u: Sequence[float] | None, n: int) -> np.ndarray:
    """Coerce levels (or None, meaning as-good-as-new) to an n-vector."""
    if u is None:
        return np.zeros(n)
    arr = np.asarray(u, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"state has {arr.size} levels, system has {n} components")
    if not all(0.0 <= v < math.inf for v in arr.tolist()):
        raise ValueError("degradation levels must be finite and >= 0")
    return arr


def std_normal_cdf(x: float) -> float:
    """Phi(x) via the complementary error function; |error| < 1e-12."""
    return 0.5 * math.erfc(-x / SQRT2)


def prob_no_hard_failure(c: ComponentParams) -> float:
    """P(one shock is survivable) = Phi((D - mu_W) / sigma_W).

    A degenerate magnitude law (sd 0) gives a 0/1 step at the threshold.
    """
    if c.shock_magnitude_sd == 0:
        return 1.0 if c.shock_magnitude_mean < c.hard_threshold else 0.0
    return std_normal_cdf((c.hard_threshold - c.shock_magnitude_mean) / c.shock_magnitude_sd)


def gamma_cdf(x, shape, rate):
    """Regularized lower incomplete gamma P(shape, rate * x).

    CDF of a Gamma(shape, rate) variable; 0 for x <= 0, elementwise on
    arrays.  Evaluated by the series / continued-fraction pair for the
    regularized incomplete gamma function, |error| <= 1e-10.
    """
    shape_arr, rate_arr = np.asarray(shape, dtype=float), np.asarray(rate, dtype=float)
    if not (shape_arr.min(initial=np.inf) > 0 and rate_arr.min(initial=np.inf) > 0):
        raise ValueError("shape and rate must be > 0")
    out = _special.gammainc(shape_arr, np.fmax(np.asarray(x, dtype=float), 0.0) * rate_arr)
    return float(out) if out.ndim == 0 else out


class DamageSum(NamedTuple):
    """Law of the summed shock damage after m shocks: N(mean, variance).

    degenerate is True when the sum is a point mass (m = 0, or a
    zero-variance damage law), in which case the mass sits at `mean`.
    """

    mean: float
    variance: float
    degenerate: bool


def damage_sum_distribution(c: ComponentParams, m: int) -> DamageSum:
    """m-fold convolution of the damage law: N(m*mu_Y, m*sigma_Y^2)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    mean = m * c.shock_damage_mean
    var = m * c.shock_damage_sd ** 2
    return DamageSum(mean, var, var == 0.0)
