"""Command line verbs, exercised in process against temp directories."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gammashock
from gammashock.cli import main
from gammashock.config import config_to_dict, default_config
from gammashock.optimize import cost_rate, dataset_from_csv, system_fingerprint
from gammashock.surrogate import load_model


DROP = object()  # marks a key to delete in a config edit
HUGE_INT = "<an integer of 5001 digits>"  # written into the file in place of this string


def write_config(tmp_path, name="config.json", **edits):
    """Dump the default config with dotted-path overrides applied."""
    doc = config_to_dict(default_config())
    for dotted, value in edits.items():
        node = doc
        *head, last = dotted.split("__")
        for key in head:
            node = node[key]
        node[last] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def small_run_config(tmp_path, **edits):
    """A config sized for fast end-to-end runs."""
    base = dict(
        dataset__n_scenarios=12,
        dataset__train_fraction=0.75,
        surrogate__hidden_sizes=[6],
        surrogate__epochs=150,
    )
    base.update(edits)
    return write_config(tmp_path, **base)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestReliabilityCommand:
    def test_fresh_system_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["reliability", "--out", str(out)]) == 0
        rows = read_csv_rows(out / "reliability.csv")
        assert len(rows) == 33
        first = rows[0]
        assert float(first["t"]) == 0.0
        assert all(float(first[k]) == 1.0 for k in ("r_1", "r_2", "r_3", "r_system"))
        for row in rows:
            comps = [float(row["r_1"]), float(row["r_2"]), float(row["r_3"])]
            assert float(row["r_system"]) <= min(comps) + 1e-12

    def test_no_shock_system_is_a_product(self, tmp_path):
        cfg = write_config(tmp_path, system__shock_rate=0.0)
        out = tmp_path / "out"
        assert main(["reliability", "--config", str(cfg), "--out", str(out)]) == 0
        for row in read_csv_rows(out / "reliability.csv"):
            prod = float(row["r_1"]) * float(row["r_2"]) * float(row["r_3"])
            assert abs(float(row["r_system"]) - prod) <= 5e-9

    def test_parallel_topology_flag(self, tmp_path):
        out = tmp_path / "out"
        args = ["reliability", "--topology", "parallel", "--u", "10,15,17", "--out", str(out)]
        assert main(args) == 0
        for row in read_csv_rows(out / "reliability.csv"):
            comps = [float(row["r_1"]), float(row["r_2"]), float(row["r_3"])]
            assert float(row["r_system"]) >= max(comps) - 1e-12

    def test_bad_grid_and_bad_levels(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["reliability", "--t-grid", "5:1:10", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["reliability", "--u", "1,2", "--out", str(out)]) == 2


class TestOptimizeCommand:
    def test_fresh_state(self, tmp_path):
        out = tmp_path / "out"
        assert main(["optimize", "--out", str(out)]) == 0
        doc = json.loads((out / "optimize.json").read_text())
        cfg = default_config()
        assert 0.1 < doc["tau_star"] < 50.0
        assert not doc["boundary"]
        assert doc["fingerprint"] == system_fingerprint(cfg.system, cfg.costs)
        got = cost_rate(cfg.system, cfg.costs, doc["tau_star"], doc["u"])
        assert abs(doc["cost_rate_star"] - got) <= 1e-9

    def test_worn_state_hits_the_ceiling(self, tmp_path):
        out = tmp_path / "out"
        assert main(["optimize", "--u", "16,24,28", "--out", str(out)]) == 0
        doc = json.loads((out / "optimize.json").read_text())
        assert doc["boundary"]
        assert doc["tau_star"] >= 50.0 - 1e-4

    def test_frequent_shocks_solve(self, tmp_path):
        # shock_rate * tau_max = 1000, past where exp(-mu) goes subnormal
        cfg = write_config(tmp_path, system__shock_rate=20.0)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert math.isfinite(json.loads((out / "optimize.json").read_text())["cost_rate_star"])

    def test_runs_as_a_module(self, tmp_path):
        src = str(Path(gammashock.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "gammashock", "optimize", "--out", str(tmp_path / "a")]
        proc = subprocess.run(
            cmd, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert main(["optimize", "--out", str(tmp_path / "b")]) == 0
        got, want = (json.loads((tmp_path / d / "optimize.json").read_text()) for d in "ab")
        for key in ("tau_star", "cost_rate_star", "boundary"):
            assert got[key] == want[key]

    def test_repeatable_up_to_timing(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--u", "1,2,3", "--out", str(out1)])
        main(["optimize", "--u", "1,2,3", "--out", str(out2)])
        d1 = json.loads((out1 / "optimize.json").read_text())
        d2 = json.loads((out2 / "optimize.json").read_text())
        d1.pop("solve_ms"), d2.pop("solve_ms")
        assert d1 == d2


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """gen-data + split + train + evaluate in one shared directory."""
    tmp = tmp_path_factory.mktemp("cliflow")
    cfg = small_run_config(tmp)
    out = tmp / "out"
    for verb in ("gen-data", "split", "train", "evaluate"):
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


class TestDataPipelineCommands:
    def test_dataset_artifact(self, trained_dir):
        cfg_path, out = trained_dir
        ds = dataset_from_csv(out / "dataset.csv")
        base = default_config()
        assert len(ds) == 12
        assert ds.fingerprint == system_fingerprint(base.system, base.costs)
        assert len(ds.rows("train")) == 9
        assert len(ds.rows("test")) == 3

    def test_split_is_idempotent(self, trained_dir):
        cfg_path, out = trained_dir
        before = (out / "dataset.csv").read_bytes()
        assert main(["split", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "dataset.csv").read_bytes() == before

    def test_model_artifact(self, trained_dir):
        cfg_path, out = trained_dir
        model = load_model(out / "model.json")
        ds = dataset_from_csv(out / "dataset.csv")
        assert model.dataset_fingerprint == ds.fingerprint
        assert model.layer_sizes == (3, 6, 1)
        history = (out / "loss_history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_mse"
        assert len(history) == 151

    def test_metrics_and_figure(self, trained_dir):
        cfg_path, out = trained_dir
        metrics = json.loads((out / "metrics.json").read_text())
        for key in (
            "schema_version", "seed", "n_scenarios", "train_rows", "test_rows",
            "train_mse", "test_mse", "train_r2", "test_r2",
            "mean_solve_ms", "mean_inference_ms",
        ):
            assert key in metrics
        assert metrics["n_scenarios"] == 12
        assert metrics["train_rows"] == 9 and metrics["test_rows"] == 3
        assert metrics["mean_solve_ms"] is None  # dataset reloaded from CSV
        assert metrics["mean_inference_ms"] > 0.0
        fig = read_csv_rows(out / "figure4.csv")
        assert len(fig) == 12
        assert [r["split"] for r in fig] == ["train"] * 9 + ["test"] * 3
        for r in fig:
            assert 0.1 <= float(r["tau_pred"]) <= 50.0

    def test_evaluate_rejects_mismatched_config(self, trained_dir, tmp_path, capsys):
        cfg_path, out = trained_dir
        other = write_config(tmp_path, system__shock_rate=0.05)
        assert main(["evaluate", "--config", str(other), "--out", str(out)]) == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_malformed_model_exits_2_naming_the_file(self, trained_dir, tmp_path, capsys):
        cfg_path, out = trained_dir
        doc = json.loads((out / "model.json").read_text())
        del doc["weights"]
        bad = tmp_path / "model.json"
        args = ["evaluate", "--config", str(cfg_path), "--model", str(bad), "--out", str(out)]
        full = json.loads((out / "model.json").read_text())
        cases = (
            (json.dumps(doc), "'weights'"),
            ("[1]", "JSON object"),
            (json.dumps({**full, "feature_mode": "u_plus_params"}), "'u_plus_params'"),
            (json.dumps({**full, "output_shift": None}), "NoneType"),
        )
        for text, names in cases:
            bad.write_text(text)
            assert main(args) == 2
            err = capsys.readouterr().err
            assert str(bad) in err and names in err

    def test_dataset_without_a_target_column_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "dataset.csv"
        bad.write_text("scenario_id,u_1,u_2,u_3,cost_rate_star,split\n0,1,2,3,20,train\n")
        assert main(["train", "--dataset", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'tau_star'" in err

    def test_simulate_refuses_a_model_trained_for_other_costs(
        self, trained_dir, tmp_path, capsys
    ):
        cfg_path, out = trained_dir
        args = ["simulate", "--policy", "surrogate", "--replications", "1", "--out", str(out)]
        assert main(args + ["--config", str(cfg_path)]) == 0
        other = write_config(tmp_path, costs__inspection_cost=500.0)
        assert main(args + ["--config", str(other)]) == 2
        assert "model fingerprint" in capsys.readouterr().err

    def test_train_needs_a_split(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, dataset__n_scenarios=3)
        out = tmp_path / "fresh"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "split" in capsys.readouterr().err

    def test_seed_override_changes_the_sample(self, tmp_path):
        cfg = small_run_config(tmp_path, dataset__n_scenarios=4)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["gen-data", "--config", str(cfg), "--seed", "7", "--out", str(out2)]) == 0
        a = (out1 / "dataset.csv").read_bytes()
        b = (out2 / "dataset.csv").read_bytes()
        assert a != b


class TestPipelineCommand:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = small_run_config(tmp_path)
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["pipeline", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("dataset.csv", "model.json", "loss_history.csv", "figure4.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        m1 = json.loads((out1 / "metrics.json").read_text())
        m2 = json.loads((out2 / "metrics.json").read_text())
        for key in ("mean_solve_ms", "mean_inference_ms"):
            m1.pop(key), m2.pop(key)
        assert m1 == m2


class TestSimulateCommand:
    def test_fixed_policy_without_failures(self, tmp_path):
        cfg = write_config(
            tmp_path,
            system__shock_rate=0.0,
            system__components=[
                {**c, "gamma_shape_rate": 1e-12}
                for c in config_to_dict(default_config())["system"]["components"]
            ],
            simulate__replications=3,
        )
        out = tmp_path / "out"
        args = [
            "simulate", "--config", str(cfg), "--policy", "fixed", "--tau", "5",
            "--horizon", "12", "--out", str(out),
        ]
        assert main(args) == 0
        row = read_csv_rows(out / "simulate_summary.csv")[0]
        assert row["policy"] == "fixed(5)"
        assert float(row["mean_total_cost"]) == math.ceil(12 / 5) * 50.0
        assert float(row["mean_availability"]) == 1.0
        traces = json.loads((out / "traces.json").read_text())
        assert len(traces) == 3
        assert traces[0]["inspection_times"] == [5.0, 10.0, 12.0]

    def test_solver_policy_summary(self, tmp_path):
        out = tmp_path / "out"
        args = [
            "simulate", "--policy", "solver", "--replications", "2",
            "--horizon", "6", "--out", str(out),
        ]
        assert main(args) == 0
        row = read_csv_rows(out / "simulate_summary.csv")[0]
        assert row["policy"] == "solver"
        assert int(row["replications"]) == 2
        assert 0.0 <= float(row["mean_availability"]) <= 1.0
        assert float(row["mean_cost_rate"]) > 0.0

    def test_surrogate_policy_needs_a_model(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        args = ["simulate", "--policy", "surrogate", "--replications", "1", "--out", str(out)]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_fixed_policy_needs_a_positive_tau(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--policy", "fixed", "--out", str(out)]) == 2
        assert main(["simulate", "--policy", "fixed", "--tau", "-1", "--out", str(out)]) == 2

    @pytest.mark.parametrize(
        "extra, names",
        [
            (["--tau", "1", "--horizon", "inf"], "horizon must be finite"),
            (["--tau", "inf"], "--tau must be finite"),
        ],
        ids=["horizon", "tau"],
    )
    def test_infinite_intervals_fail_before_simulating(
        self, tmp_path, capsys, monkeypatch, extra, names
    ):
        def never(*args, **kwargs):
            raise AssertionError("simulated with an infinite interval")

        monkeypatch.setattr("gammashock.cli.simulate_plan", never)
        args = ["simulate", "--policy", "fixed", *extra, "--out", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert names in err and "Traceback" not in err

    def test_tiny_tau_exits_2_before_simulating(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--policy", "fixed", "--tau", "1e-9", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--tau 1e-09 is too small" in err and "100000 visits" in err
        assert "Traceback" not in err
        assert not (out / "traces.json").exists()

    def test_policy_error_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver__tau_min=1e-9, solver__tau_max=2e-9)
        out = tmp_path / "out"
        args = [
            "simulate", "--config", str(cfg), "--policy", "solver", "--replications", "1",
            "--out", str(out),
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: interval") and "100000 visits" in err
        assert not (out / "traces.json").exists()


class TestConfigRejections:
    def test_inverted_solver_bounds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver__tau_min=60.0)
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "tau_min" in capsys.readouterr().err

    def test_cost_length_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, costs__replacement_costs=[200.0, 200.0])
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_bad_train_fraction(self, tmp_path):
        cfg = write_config(tmp_path, dataset__train_fraction=1.5)
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_infinite_downtime_rate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, costs__downtime_rate=float("inf"))
        assert "Infinity" in cfg.read_text()
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "costs.downtime_rate: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, names",
        [
            (("solver", "bogus"), 1, "solver.bogus: unknown key"),
            (("bogus",), 1, "bogus: unknown key"),
            (("system",), DROP, "system: missing required field"),
            (("solver", "tau_max"), "50", "solver.tau_max: expected a number"),
            (
                ("system", "components", 0, "gamma_rate"),
                DROP,
                "system.components[0].gamma_rate: missing required field",
            ),
            (("quadrature", "node_count"), 64.5, "quadrature.node_count: expected an integer"),
            (("costs",), None, "costs: expected an object"),
            ((), [1, 2], "config: expected an object"),
            (("seed",), True, "seed: expected an integer"),
            (("system", "shock_rate"), float("nan"), "system: shock_rate must be >= 0"),
            (
                ("system", "components", 1, "shock_damage_mean"),
                float("nan"),
                "system.components[1]: shock_damage_mean must be finite",
            ),
            (("solver", "tau_max"), 10**400, "solver.tau_max: integer beyond the float range"),
            (("surrogate", "feature_mode"), "u_plus_params", "surrogate.feature_mode: expected"),
            (("solver", "tau_max"), HUGE_INT, "solver.tau_max: expected a finite number"),
            (("solver", "tau_max"), float("inf"), "solver.tau_max: expected a finite number"),
            (("simulate", "horizon"), float("inf"), "simulate.horizon: expected a finite number"),
            (("seed",), HUGE_INT, "seed: expected an integer"),
        ],
        ids=[
            "unknown-key", "unknown-top-level-key", "missing-system", "string-number",
            "missing-component-field", "fractional-int", "null-section", "top-level-array",
            "bool-seed", "nan-shock-rate", "nan-shock-mean", "huge-int-float",
            "removed-feature-mode", "int-beyond-digit-limit", "infinite-tau-max",
            "infinite-horizon", "int-seed-beyond-digit-limit",
        ],
    )
    def test_bad_config_exits_2_naming_the_field(self, tmp_path, capsys, path, value, names):
        doc = config_to_dict(default_config())
        if path:
            *head, last = path
            node = doc
            for key in head:
                node = node[key]
            if value is DROP:
                del node[last]
            else:
                node[last] = value
        else:
            doc = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc).replace(json.dumps(HUGE_INT), "1" + "0" * 5000))
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert names in err and "Traceback" not in err

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["optimize", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
