"""Experiment configuration: one JSON document drives every command.

The bundled default describes the reference three-component series
system used throughout the docs and tests.  Print it with:

    gammashock config > config.json
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from typing import get_args, get_origin, get_type_hints

from .core import ComponentParams, SystemModel, Topology
from .optimize import (CostParams, _check_pairing, _check_regimes, _check_solver, _dump,
                       two_regime_state_sampler)
from .reliability import QuadratureSpec, truncation_level
from .simulate import _check_run
from .surrogate import FeatureMode, TrainMode

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SolverConfig:
    tau_min: float = 0.1
    tau_max: float = 50.0
    tol: float = 1e-4  # boundary margin: a tau* this close to a bound is flagged
    grid_points: int = 100

    def __post_init__(self):
        _check_solver(self.bounds, self.tol, self.grid_points)

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.tau_min, self.tau_max)


@dataclass(frozen=True)
class DatasetConfig:
    n_scenarios: int = 60
    train_fraction: float = 0.7
    light_fraction: float = 0.2  # light-wear box upper fraction
    heavy_range: tuple[float, float] = (0.4, 0.8)  # heavy-wear box

    def __post_init__(self):
        if not self.n_scenarios >= 1:
            raise ValueError("n_scenarios must be >= 1")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        regimes = _check_regimes(self.light_fraction, self.heavy_range)
        object.__setattr__(self, "heavy_range", regimes)


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
        if not all(h >= 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must all be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if not self.epochs >= 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class SimulateConfig:
    horizon: float = 12.0
    replications: int = 200
    subgrid_steps: int = 32

    def __post_init__(self):
        _check_run(self.horizon, self.subgrid_steps)
        if not self.replications >= 1:
            raise ValueError("replications must be >= 1")


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
        _check_pairing(self.system, self.costs)
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")
        try:
            truncation_level(self.system.shock_rate, self.solver.tau_max, self.quadrature.tail_epsilon)
        except ValueError as exc:
            raise ValueError(
                f"solver.tau_max {self.solver.tau_max:g} at system.shock_rate "
                f"{self.system.shock_rate:g}: {exc}"
            ) from None


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
    return two_regime_state_sampler(system, dataset.light_fraction, dataset.heavy_range)


def _join(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer")}


def _load(tp, value, path: str):
    """Build a `tp` from its JSON form; every error names `path`."""
    where = path or "config"
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{where}: expected an object")
        for key in value:
            if key not in tp.__dataclass_fields__:
                raise ValueError(f"{_join(path, key)}: unknown key")
        hints = get_type_hints(tp)
        kwargs = {}
        for f in fields(tp):
            if f.name in value:
                kwargs[f.name] = _load(hints[f.name], value[f.name], _join(path, f.name))
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{_join(path, f.name)}: missing required field")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list")
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"{where}: expected {len(args)} items, got {len(value)}")
        return tuple(_load(t, v, _join(path, i)) for i, (t, v) in enumerate(zip(args, value)))
    if issubclass(tp, Enum):
        values = [m.value for m in tp]
        if value not in values:
            raise ValueError(f"{where}: expected one of {values}")
        return tp(value)
    ok, what = _SCALARS[tp]
    if isinstance(value, bool) or not isinstance(value, ok):
        raise ValueError(f"{where}: expected {what}")
    if tp is not float:
        return value
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{where}: integer beyond the float range") from None
    if math.isinf(value):
        raise ValueError(f"{where}: expected a finite number")
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_dump(cfg)}


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ValueError("config: expected an object")
    version = doc.get("schema_version")
    if not (type(version) is int and version == SCHEMA_VERSION):
        raise ValueError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    body = {k: v for k, v in doc.items() if k != "schema_version"}
    return _load(ExperimentConfig, body, "")


def _parse_int(text: str):
    """An int, or a float past the digit limit, so the walker names the field."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh, parse_int=_parse_int)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(doc)


def dump_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"
