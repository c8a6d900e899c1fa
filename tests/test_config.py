"""Config schema: defaults, JSON round trip, validation, sampler dispatch."""
import copy
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
)
from gammashock.core import ComponentParams, SystemModel
from gammashock.optimize import CostParams, optimal_inspection_time, two_regime_state_sampler
from gammashock.reliability import QuadratureSpec
from gammashock.simulate import simulate_plan


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


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tau_min=5.0, tau_max=1.0)
    with pytest.raises(ValueError):
        SolverConfig(tau_min=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(grid_points=2)
    with pytest.raises(ValueError, match=r"grid_points must be in \[3, 20000\]"):
        SolverConfig(grid_points=20_001)


def test_dataset_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(n_scenarios=0)
    with pytest.raises(ValueError):
        DatasetConfig(train_fraction=0.0)
    with pytest.raises(ValueError):
        DatasetConfig(train_fraction=1.0)
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
    with pytest.raises(ValueError, match=r"subgrid_steps must be in \[1, 10000\]"):
        SimulateConfig(subgrid_steps=10_001)
    with pytest.raises(ValueError, match="horizon must be finite"):
        SimulateConfig(horizon=float("inf"))


@pytest.mark.parametrize(
    "section, field, bad",
    [
        (SolverConfig, "tau_min", 60.0),
        (SolverConfig, "grid_points", 20_001),
        (SolverConfig, "tol", 0.0),
        (SimulateConfig, "horizon", float("inf")),
        (SimulateConfig, "subgrid_steps", 0),
        (DatasetConfig, "light_fraction", 1.5),
        (DatasetConfig, "heavy_range", (0.8, 0.4)),
    ],
)
def test_config_and_library_reject_a_value_alike(system, costs, section, field, bad):
    # each rule has one owner, called by the config dataclass and the library
    library = {
        "tau_min": lambda: optimal_inspection_time(system, costs, bounds=(bad, 50.0)),
        "grid_points": lambda: optimal_inspection_time(system, costs, grid_points=bad),
        "tol": lambda: optimal_inspection_time(system, costs, tol=bad),
        "horizon": lambda: simulate_plan(system, costs, lambda u: 1.0, bad),
        "subgrid_steps": lambda: simulate_plan(system, costs, lambda u: 1.0, 12.0,
                                               subgrid_steps=bad),
        "light_fraction": lambda: two_regime_state_sampler(system, light_fraction=bad),
        "heavy_range": lambda: two_regime_state_sampler(system, heavy_range=bad),
    }[field]
    with pytest.raises(ValueError) as from_config:
        section(**{field: bad})
    with pytest.raises(ValueError) as from_library:
        library()
    assert str(from_config.value) == str(from_library.value)
    assert field in str(from_config.value)


def test_experiment_config_rejects_cost_mismatch():
    cfg = default_config()
    doc = config_to_dict(cfg)
    doc["costs"]["replacement_costs"] = [200.0, 200.0]
    with pytest.raises(ValueError):
        config_from_dict(doc)


def test_sampler_dispatch(system):
    rng = np.random.default_rng(1)
    h = np.asarray([c.soft_threshold for c in system.components])
    two = state_sampler(DatasetConfig(), system)
    for _ in range(50):
        u = two(rng)
        ok = np.all(u <= 0.2 * h) or np.all((u >= 0.4 * h) & (u <= 0.8 * h))
        assert ok


def test_config_verb_prints_the_default_config():
    out = subprocess.run(
        [sys.executable, "-m", "gammashock", "config"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stderr == ""
    doc = json.loads(out.stdout)
    assert doc["schema_version"] == 1
    assert len(doc["system"]["components"]) == 3


def test_dump_writes_every_field_as_json():
    doc = config_to_dict(default_config())
    assert doc["schema_version"] == 1 and doc["seed"] == 42
    assert doc["system"]["topology"] == "series"
    assert doc["costs"]["replacement_costs"] == [200.0, 200.0, 200.0]
    assert doc["dataset"]["heavy_range"] == [0.4, 0.8]
    assert doc["surrogate"]["mode"] == "per_sample_sgd"
    assert len(doc["system"]["components"][0]) == 8


def test_omitted_sections_and_fields_take_their_defaults():
    doc = config_to_dict(default_config())
    for key in ("quadrature", "solver", "dataset", "surrogate", "simulate", "seed"):
        del doc[key]
    del doc["system"]["topology"], doc["system"]["shock_rate"]
    cfg = config_from_dict(doc)
    assert cfg.solver == SolverConfig() and cfg.seed == 42
    assert cfg.system.shock_rate == 0.0 and cfg.system.topology.value == "series"


def test_ints_load_as_floats_but_not_the_reverse():
    doc = config_to_dict(default_config())
    doc["system"]["shock_rate"] = 0
    doc["solver"]["tau_max"] = 40
    cfg = config_from_dict(doc)
    assert type(cfg.system.shock_rate) is float and type(cfg.solver.tau_max) is float
    doc["solver"]["grid_points"] = 200.0
    with pytest.raises(ValueError, match=r"^solver\.grid_points: expected an integer$"):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "build",
    [
        lambda c: ComponentParams(**{**vars(c), "gamma_rate": float("nan")}),
        lambda c: ComponentParams(**{**vars(c), "shock_magnitude_sd": float("nan")}),
        lambda c: ComponentParams(**{**vars(c), "shock_magnitude_mean": float("nan")}),
        lambda c: ComponentParams(**{**vars(c), "shock_damage_mean": float("nan")}),
        lambda c: SystemModel(components=(c,), shock_rate=float("nan")),
        lambda c: CostParams(float("nan"), (1.0,), 1.0),
        lambda c: CostParams(1.0, (float("nan"),), 1.0),
        lambda c: CostParams(1.0, (1.0,), float("nan")),
        lambda c: QuadratureSpec(tail_epsilon=float("nan")),
        lambda c: SolverConfig(tol=float("nan")),
        lambda c: SimulateConfig(horizon=float("nan")),
    ],
)
def test_nan_parameters_are_rejected(system, build):
    with pytest.raises(ValueError):
        build(system.components[0])


def _nodes(node, path=()):
    """Every (path, value) pair of a JSON document, depth first."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _nodes(child, path + (i,))


def _dotted(path) -> str:
    out = ""
    for key in path:
        if isinstance(key, int):
            out = f"{out}[{key}]"
        else:
            out = f"{out}.{key}" if out else key
    return out


def _holds(full, part) -> bool:
    """Whether document `full` holds every key and value of `part`, types included."""
    if isinstance(part, dict):
        return isinstance(full, dict) and all(
            key in full and _holds(full[key], value) for key, value in part.items()
        )
    if isinstance(part, list):
        return isinstance(full, list) and len(full) == len(part) and all(map(_holds, full, part))
    return type(full) is type(part) and full == part


DEFAULT_DOC = config_to_dict(default_config())
DOC_PATHS = [path for path, _ in _nodes(DEFAULT_DOC) if path]
MUTATIONS = ["drop", "typo", "string", "bool", "null", "nan", "list", "truncate"]


@settings(max_examples=400, deadline=None, database=None)
@given(path=st.sampled_from(DOC_PATHS), kind=st.sampled_from(MUTATIONS))
def test_every_mutant_loads_or_names_its_path(path, kind):
    doc = copy.deepcopy(DEFAULT_DOC)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    value = parent[last]
    mutated = path
    if kind == "drop":
        del parent[last]
        if isinstance(parent, list):
            mutated = tuple(head)  # dropping an item shortens the list
    elif kind == "typo":
        assume(isinstance(parent, dict))
        parent[last + "_typo"] = value
        mutated = (*head, last + "_typo")
    elif kind == "truncate":
        assume(isinstance(value, list) and value)
        parent[last] = value[:-1]
    else:
        parent[last] = {
            "string": str(value), "bool": True, "null": None,
            "nan": float("nan"), "list": [value],
        }[kind]
    try:
        cfg = config_from_dict(doc)
    except ValueError as exc:
        # The message names the full path, or its section and field name.
        msg = str(exc)
        i = max(i for i, key in enumerate(mutated) if isinstance(key, str))
        section, field = _dotted(mutated[:i]) or "config", mutated[i]
        assert _dotted(mutated) in msg or (msg.startswith(section + ":") and field in msg), msg
    else:
        # A mutant that loads means what it says: its dump holds every value as written.
        assert _holds(config_to_dict(cfg), doc)
        assert config_from_dict(config_to_dict(cfg)) == cfg
