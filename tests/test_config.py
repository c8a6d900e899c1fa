"""Config schema: defaults, JSON round trip, validation, sampler dispatch."""
import json
import subprocess
import sys

import numpy as np
import pytest

from gammashock.config import (
    DatasetConfig,
    SimulateConfig,
    SolverConfig,
    SurrogateConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    dump_config,
    load_config,
    state_sampler,
    with_seed,
)
from gammashock.core import ComponentParams, SystemModel
from gammashock.optimize import CostParams


def test_default_config_shape():
    cfg = default_config()
    assert cfg.system.n == 3
    assert cfg.system.topology.value == "series"
    assert cfg.system.shock_rate == 2.5e-3
    assert [c.soft_threshold for c in cfg.system.components] == [20.0, 30.0, 35.0]
    assert cfg.costs.inspection_cost == 50.0
    assert cfg.costs.replacement_costs == (200.0, 200.0, 200.0)
    assert cfg.costs.downtime_rate == 10.0
    assert cfg.solver.bounds == (0.1, 50.0)
    assert cfg.dataset.n_scenarios == 60
    assert cfg.dataset.train_fraction == 0.7
    assert cfg.surrogate.hidden_sizes == (16, 16)
    assert cfg.seed == 42


def test_dict_round_trip():
    cfg = default_config()
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


def test_file_round_trip(tmp_path):
    cfg = default_config()
    path = tmp_path / "config.json"
    path.write_text(dump_config(cfg))
    assert load_config(path) == cfg


def test_missing_seed_takes_the_default(tmp_path):
    doc = config_to_dict(default_config())
    del doc["seed"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert load_config(path).seed == default_config().seed == 42


def test_schema_version_gate():
    doc = config_to_dict(default_config())
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        config_from_dict(doc)
    doc.pop("schema_version")
    with pytest.raises(ValueError):
        config_from_dict(doc)


def test_invalid_json_is_a_value_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="broken.json"):
        load_config(path)


def test_with_seed():
    cfg = default_config()
    assert with_seed(cfg, 7).seed == 7
    assert with_seed(cfg, 7).system == cfg.system


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tau_min=5.0, tau_max=1.0)
    with pytest.raises(ValueError):
        SolverConfig(tau_min=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(grid_points=2)


def test_dataset_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(n_scenarios=0)
    with pytest.raises(ValueError):
        DatasetConfig(train_fraction=0.0)
    with pytest.raises(ValueError):
        DatasetConfig(train_fraction=1.0)
    with pytest.raises(ValueError):
        DatasetConfig(sampler="stratified")
    with pytest.raises(ValueError):
        DatasetConfig(u_fraction=0.0)
    with pytest.raises(ValueError):
        DatasetConfig(light_fraction=1.5)
    with pytest.raises(ValueError):
        DatasetConfig(heavy_range=(0.8, 0.4))


def test_surrogate_config_validation():
    with pytest.raises(ValueError):
        SurrogateConfig(hidden_sizes=(0,))
    with pytest.raises(ValueError):
        SurrogateConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        SurrogateConfig(epochs=0)
    with pytest.raises(ValueError):
        SurrogateConfig(mode="newton")


def test_simulate_config_validation():
    with pytest.raises(ValueError):
        SimulateConfig(horizon=0.0)
    with pytest.raises(ValueError):
        SimulateConfig(replications=0)
    with pytest.raises(ValueError):
        SimulateConfig(subgrid_steps=0)


def test_experiment_config_rejects_cost_mismatch():
    cfg = default_config()
    doc = config_to_dict(cfg)
    doc["costs"]["replacement_costs"] = [200.0, 200.0]
    with pytest.raises(ValueError):
        config_from_dict(doc)


def test_sampler_dispatch(system):
    rng = np.random.default_rng(1)
    h = np.asarray([c.soft_threshold for c in system.components])
    uniform = state_sampler(DatasetConfig(sampler="uniform", u_fraction=0.5), system)
    for _ in range(50):
        u = uniform(rng)
        assert np.all((u >= 0) & (u <= 0.5 * h))
    two = state_sampler(DatasetConfig(), system)
    for _ in range(50):
        u = two(rng)
        ok = np.all(u <= 0.2 * h) or np.all((u >= 0.4 * h) & (u <= 0.8 * h))
        assert ok


def test_module_prints_the_default_config():
    out = subprocess.run(
        [sys.executable, "-m", "gammashock.config"],
        capture_output=True,
        text=True,
        check=True,
    )
    doc = json.loads(out.stdout)
    assert doc["schema_version"] == 1
    assert len(doc["system"]["components"]) == 3
