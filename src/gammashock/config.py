"""Experiment configuration: one JSON document drives every command.

The bundled default describes the reference three-component series
system used throughout the docs and tests.  Print it with:

    python -m gammashock.config > config.json
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .core import ComponentParams, SystemModel, Topology
from .optimize import CostParams, two_regime_state_sampler, uniform_state_sampler
from .reliability import QuadratureSpec
from .surrogate import FeatureMode, TrainMode

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SolverConfig:
    tau_min: float = 0.1
    tau_max: float = 50.0
    tol: float = 1e-4
    grid_points: int = 200

    def __post_init__(self):
        if not 0 < self.tau_min < self.tau_max:
            raise ValueError("solver bounds must satisfy 0 < tau_min < tau_max")
        if not self.tol > 0:
            raise ValueError("solver tol must be > 0")
        if self.grid_points < 3:
            raise ValueError("solver grid_points must be >= 3")

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.tau_min, self.tau_max)


@dataclass(frozen=True)
class DatasetConfig:
    n_scenarios: int = 60
    train_fraction: float = 0.7
    sampler: str = "two_regime"  # "two_regime" or "uniform"
    u_fraction: float = 0.8  # uniform: u_i ~ Uniform(0, u_fraction * H_i)
    light_fraction: float = 0.2  # two_regime: light-wear box upper fraction
    heavy_range: tuple[float, float] = (0.4, 0.8)  # two_regime: heavy-wear box

    def __post_init__(self):
        object.__setattr__(
            self, "heavy_range", tuple(float(v) for v in self.heavy_range)
        )
        if self.n_scenarios < 1:
            raise ValueError("n_scenarios must be >= 1")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.sampler not in ("two_regime", "uniform"):
            raise ValueError("sampler must be 'two_regime' or 'uniform'")
        if not 0 < self.u_fraction <= 1:
            raise ValueError("u_fraction must be in (0, 1]")
        if not 0 < self.light_fraction <= 1:
            raise ValueError("light_fraction must be in (0, 1]")
        lo, hi = self.heavy_range
        if not 0 < lo < hi <= 1:
            raise ValueError("heavy_range must satisfy 0 < lo < hi <= 1")


@dataclass(frozen=True)
class SurrogateConfig:
    hidden_sizes: tuple[int, ...] = (16, 16)
    learning_rate: float = 0.05
    epochs: int = 2000
    mode: TrainMode = TrainMode.PER_SAMPLE_SGD
    feature_mode: FeatureMode = FeatureMode.U_ONLY

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(v) for v in self.hidden_sizes))
        object.__setattr__(self, "mode", TrainMode(self.mode))
        object.__setattr__(self, "feature_mode", FeatureMode(self.feature_mode))
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden layer sizes must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class SimulateConfig:
    horizon: float = 12.0
    replications: int = 200
    subgrid_steps: int = 32

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.subgrid_steps < 1:
            raise ValueError("subgrid_steps must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemModel
    costs: CostParams
    quadrature: QuadratureSpec = QuadratureSpec()
    solver: SolverConfig = SolverConfig()
    dataset: DatasetConfig = DatasetConfig()
    surrogate: SurrogateConfig = SurrogateConfig()
    simulate: SimulateConfig = SimulateConfig()
    seed: int = 42

    def __post_init__(self):
        if len(self.costs.replacement_costs) != self.system.n:
            raise ValueError(
                f"{len(self.costs.replacement_costs)} replacement costs "
                f"for {self.system.n} components"
            )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def default_config() -> ExperimentConfig:
    """Reference system: three components in series, shared rare shocks."""
    components = (
        ComponentParams(
            soft_threshold=20.0,
            hard_threshold=7.0,
            gamma_shape_rate=3.0,
            gamma_rate=1.0,
            shock_magnitude_mean=1.5,
            shock_magnitude_sd=0.4,
            shock_damage_mean=2.0,
            shock_damage_sd=0.5,
        ),
        ComponentParams(
            soft_threshold=30.0,
            hard_threshold=5.0,
            gamma_shape_rate=2.0,
            gamma_rate=0.6,
            shock_magnitude_mean=2.0,
            shock_magnitude_sd=0.3,
            shock_damage_mean=2.5,
            shock_damage_sd=0.2,
        ),
        ComponentParams(
            soft_threshold=35.0,
            hard_threshold=6.0,
            gamma_shape_rate=1.0,
            gamma_rate=0.3,
            shock_magnitude_mean=1.2,
            shock_magnitude_sd=0.15,
            shock_damage_mean=3.0,
            shock_damage_sd=0.1,
        ),
    )
    system = SystemModel(components=components, topology=Topology.SERIES, shock_rate=2.5e-3)
    costs = CostParams(
        inspection_cost=50.0,
        replacement_costs=(200.0, 200.0, 200.0),
        downtime_rate=10.0,
    )
    return ExperimentConfig(system=system, costs=costs)


def state_sampler(dataset: DatasetConfig, system: SystemModel):
    """The scenario state sampler a DatasetConfig describes."""
    if dataset.sampler == "uniform":
        return uniform_state_sampler(system, dataset.u_fraction)
    return two_regime_state_sampler(
        system, dataset.light_fraction, dataset.heavy_range
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "system": {
            "topology": cfg.system.topology.value,
            "shock_rate": cfg.system.shock_rate,
            "components": [
                {
                    "soft_threshold": c.soft_threshold,
                    "hard_threshold": c.hard_threshold,
                    "gamma_shape_rate": c.gamma_shape_rate,
                    "gamma_rate": c.gamma_rate,
                    "shock_magnitude_mean": c.shock_magnitude_mean,
                    "shock_magnitude_sd": c.shock_magnitude_sd,
                    "shock_damage_mean": c.shock_damage_mean,
                    "shock_damage_sd": c.shock_damage_sd,
                }
                for c in cfg.system.components
            ],
        },
        "costs": {
            "inspection_cost": cfg.costs.inspection_cost,
            "replacement_costs": list(cfg.costs.replacement_costs),
            "downtime_rate": cfg.costs.downtime_rate,
        },
        "quadrature": {
            "node_count": cfg.quadrature.node_count,
            "tail_epsilon": cfg.quadrature.tail_epsilon,
            "domain_sigmas": cfg.quadrature.domain_sigmas,
        },
        "solver": {
            "tau_min": cfg.solver.tau_min,
            "tau_max": cfg.solver.tau_max,
            "tol": cfg.solver.tol,
            "grid_points": cfg.solver.grid_points,
        },
        "dataset": {
            "n_scenarios": cfg.dataset.n_scenarios,
            "train_fraction": cfg.dataset.train_fraction,
            "sampler": cfg.dataset.sampler,
            "u_fraction": cfg.dataset.u_fraction,
            "light_fraction": cfg.dataset.light_fraction,
            "heavy_range": list(cfg.dataset.heavy_range),
        },
        "surrogate": {
            "hidden_sizes": list(cfg.surrogate.hidden_sizes),
            "learning_rate": cfg.surrogate.learning_rate,
            "epochs": cfg.surrogate.epochs,
            "mode": cfg.surrogate.mode.value,
            "feature_mode": cfg.surrogate.feature_mode.value,
        },
        "simulate": {
            "horizon": cfg.simulate.horizon,
            "replications": cfg.simulate.replications,
            "subgrid_steps": cfg.simulate.subgrid_steps,
        },
    }


def _take(d: dict, cls, **extra):
    return cls(**{**d, **extra})


def config_from_dict(doc: dict) -> ExperimentConfig:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported config schema_version {version!r}; expected {SCHEMA_VERSION}"
        )
    sysdoc = doc["system"]
    system = SystemModel(
        components=tuple(ComponentParams(**c) for c in sysdoc["components"]),
        topology=Topology(sysdoc.get("topology", "series")),
        shock_rate=float(sysdoc.get("shock_rate", 0.0)),
    )
    costs_doc = dict(doc["costs"])
    costs_doc["replacement_costs"] = tuple(costs_doc["replacement_costs"])
    base = default_config()
    return ExperimentConfig(
        system=system,
        costs=CostParams(**costs_doc),
        quadrature=_take(doc.get("quadrature", {}), QuadratureSpec)
        if doc.get("quadrature")
        else base.quadrature,
        solver=_take(doc.get("solver", {}), SolverConfig) if doc.get("solver") else base.solver,
        dataset=_take(doc.get("dataset", {}), DatasetConfig) if doc.get("dataset") else base.dataset,
        surrogate=_take(doc.get("surrogate", {}), SurrogateConfig)
        if doc.get("surrogate")
        else base.surrogate,
        simulate=_take(doc.get("simulate", {}), SimulateConfig)
        if doc.get("simulate")
        else base.simulate,
        seed=int(doc.get("seed", base.seed)),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(doc)


def dump_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"


def with_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, seed=seed)


if __name__ == "__main__":
    print(dump_config(default_config()), end="")
