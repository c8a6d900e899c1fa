"""Command line interface; `gammashock <verb> --help` for details."""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, default_config, dump_config, load_config, state_sampler
from .core import Topology, as_levels
from .optimize import (
    Dataset,
    NumericsError,
    _fmt,
    dataset_from_csv,
    dataset_to_csv,
    generate_dataset,
    optimal_inspection_time,
    split_dataset,
    system_fingerprint,
    write_csv,
    write_json,
)
from .reliability import _reliability_grid
from .simulate import PolicyError, RngSeed, simulate_plan
from .surrogate import (
    DivergenceError,
    MlpModel,
    init_model,
    load_model,
    mse,
    predict_next_inspection,
    r_squared,
    save_model,
    train,
)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
    except Exception as exc:
        raise ValueError(f"bad t-grid {spec!r}, expected start:stop:count") from exc
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError(f"bad t-grid {spec!r}, expected start:stop:count")
    if np.any(grid < 0):
        raise ValueError("t-grid must be >= 0")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("t-grid must be strictly increasing")
    return grid


def _parse_levels(spec: str | None, n: int) -> np.ndarray:
    try:
        vals = None if spec is None else [float(v) for v in spec.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad u vector {spec!r}") from exc
    return as_levels(vals, n)


def _resolve_config(args) -> ExperimentConfig:
    """The config with each command-line override replaced in, so its checks apply."""
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.quadrature_nodes is not None:
        cfg = replace(cfg, quadrature=replace(cfg.quadrature, node_count=args.quadrature_nodes))
    if getattr(args, "topology", None):
        cfg = replace(cfg, system=replace(cfg.system, topology=Topology(args.topology)))
    sim = {k: v for k in ("horizon", "replications") if (v := getattr(args, k, None)) is not None}
    if sim:
        cfg = replace(cfg, simulate=replace(cfg.simulate, **sim))
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- commands


def cmd_reliability(cfg: ExperimentConfig, args) -> int:
    s = cfg.system
    grid = _parse_grid(args.t_grid)
    u = _parse_levels(args.u, s.n)
    r_sys, per_comp = _reliability_grid(s, grid, u, cfg.quadrature)
    path = _out_dir(args) / "reliability.csv"
    write_csv(
        path,
        ["t", *(f"r_{i + 1}" for i in range(s.n)), "r_system"],
        np.column_stack([grid, *per_comp, r_sys]),
    )
    print(f"wrote {path} ({grid.size} rows, topology={s.topology.value})")
    return 0


def _solve(cfg: ExperimentConfig, u):
    sv = cfg.solver
    return optimal_inspection_time(
        cfg.system, cfg.costs, u, sv.bounds, sv.tol, cfg.quadrature, sv.grid_points
    )


def cmd_optimize(cfg: ExperimentConfig, args) -> int:
    s = cfg.system
    u = _parse_levels(args.u, s.n)
    t0 = time.perf_counter()
    sol = _solve(cfg, u)
    solve_ms = (time.perf_counter() - t0) * 1e3
    doc = {
        "tau_star": sol.tau_star,
        "cost_rate_star": sol.cost_rate_star,
        "boundary": sol.boundary,
        "solve_ms": solve_ms,
        "u": [float(v) for v in u],
        "fingerprint": system_fingerprint(s, cfg.costs),
    }
    path = _out_dir(args) / "optimize.json"
    write_json(path, doc, indent=2)
    flag = " (boundary)" if sol.boundary else ""
    print(
        f"tau*={sol.tau_star:.6g} cost_rate={sol.cost_rate_star:.6g}{flag} "
        f"[{solve_ms:.1f} ms] -> {path}"
    )
    return 0


def _generate(cfg: ExperimentConfig) -> Dataset:
    # one untimed solve of new parts first, so the rows' solve times leave
    # out the process's one-off start-up (lazy imports, rule caches)
    _solve(cfg, None)
    sampler = state_sampler(cfg.dataset, cfg.system)
    return generate_dataset(
        cfg.system,
        cfg.costs,
        cfg.dataset.n_scenarios,
        cfg.seed,
        sampler,
        cfg.solver.bounds,
        cfg.solver.tol,
        cfg.quadrature,
        cfg.solver.grid_points,
    )


def cmd_gen_data(cfg: ExperimentConfig, args) -> int:
    ds = _generate(cfg)
    path = _out_dir(args) / "dataset.csv"
    dataset_to_csv(ds, path)
    mean_ms = float(np.mean([sc.solve_ms for sc in ds.scenarios]))
    print(f"wrote {path} ({len(ds)} scenarios, mean solve {mean_ms:.1f} ms)")
    return 0


def cmd_split(cfg: ExperimentConfig, args) -> int:
    path = Path(args.dataset) if args.dataset else _out_dir(args) / "dataset.csv"
    ds = split_dataset(dataset_from_csv(path), cfg.dataset.train_fraction, cfg.seed)
    dataset_to_csv(ds, path)
    print(
        f"wrote {path} ({len(ds.rows('train'))} train / {len(ds.rows('test'))} test)"
    )
    return 0


def _check_artifact(cfg: ExperimentConfig, fingerprint: str, bounds, what: str, path) -> None:
    """Refuse an artifact stamped for another system, costs or solver bounds,
    or not stamped.  Bounds compare at the 9 digits that dataset.csv keeps."""
    if fingerprint != system_fingerprint(cfg.system, cfg.costs):
        raise ValueError(f"{path}: {what} fingerprint {fingerprint!r} does not match the config")
    have, want = ("none" if b is None else f"({_fmt(b[0])}, {_fmt(b[1])})"
                  for b in (bounds, cfg.solver.bounds))
    if have != want:
        raise ValueError(f"{path}: {what} bounds {have} do not match the solver bounds {want}")


def _train(cfg: ExperimentConfig, ds: Dataset):
    sur, eta = cfg.surrogate, cfg.surrogate.learning_rate
    model0 = init_model((cfg.system.n, *sur.hidden_sizes, 1), cfg.seed, sur.feature_mode)
    try:
        return train(model0, ds, cfg.system, None, eta, sur.epochs, sur.mode, cfg.seed)
    except DivergenceError as exc:
        raise DivergenceError(f"surrogate.learning_rate {eta:g}: {exc}") from exc


def _write_model_outputs(out: Path, model: MlpModel, history) -> tuple[Path, Path]:
    model_path = out / "model.json"
    save_model(model, model_path)
    hist_path = out / "loss_history.csv"
    write_csv(hist_path, ["epoch", "train_mse"], enumerate(history, 1))
    return model_path, hist_path


def cmd_train(cfg: ExperimentConfig, args) -> int:
    path = Path(args.dataset) if args.dataset else _out_dir(args) / "dataset.csv"
    ds = dataset_from_csv(path)
    _check_artifact(cfg, ds.fingerprint, ds.bounds, "dataset", path)
    model, history = _train(cfg, ds)
    model_path, hist_path = _write_model_outputs(_out_dir(args), model, history)
    print(
        f"wrote {model_path} and {hist_path} "
        f"(final train MSE {history[-1]:.6g}, {len(history)} epochs)"
    )
    return 0


def _evaluate(cfg: ExperimentConfig, ds: Dataset, model: MlpModel):
    """Returns (metrics dict, figure rows [scenario_id, split, tau_star, tau_pred])."""
    if not ds.has_split:
        raise ValueError("dataset has no split labels; run split first")
    s = cfg.system
    rows = list(ds.rows("train")) + list(ds.rows("test"))
    fig = []
    preds = {"train": [], "test": []}
    targets = {"train": [], "test": []}
    for sc in rows:
        pred = predict_next_inspection(model, s, sc.u)
        preds[sc.split].append(pred)
        targets[sc.split].append(sc.tau_star)
        fig.append((sc.scenario_id, sc.split, sc.tau_star, pred))
    test_rows = ds.rows("test")
    reps = max(1, int(np.ceil(400 / max(len(test_rows), 1))))
    t0 = time.perf_counter()
    for _ in range(reps):
        for sc in test_rows:
            predict_next_inspection(model, s, sc.u)
    infer_ms = (time.perf_counter() - t0) * 1e3 / max(reps * len(test_rows), 1)
    solve_times = [sc.solve_ms for sc in ds.scenarios]
    have_times = all(np.isfinite(v) for v in solve_times)
    metrics = {
        "schema_version": 1,
        "seed": cfg.seed,
        "n_scenarios": len(ds),
        "train_rows": len(targets["train"]),
        "test_rows": len(targets["test"]),
        "train_mse": mse(preds["train"], targets["train"]),
        "test_mse": mse(preds["test"], targets["test"]),
        "train_r2": r_squared(preds["train"], targets["train"]),
        "test_r2": r_squared(preds["test"], targets["test"]),
        "mean_solve_ms": float(np.mean(solve_times)) if have_times else None,
        "mean_inference_ms": infer_ms,
    }
    return metrics, fig


def _write_eval_outputs(out: Path, metrics: dict, fig) -> tuple[Path, Path]:
    metrics_path = out / "metrics.json"
    write_json(metrics_path, metrics, indent=2)
    fig_path = out / "figure4.csv"
    write_csv(fig_path, ["scenario_id", "split", "tau_star", "tau_pred"], fig)
    return metrics_path, fig_path


def cmd_evaluate(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(args)
    ds_path = Path(args.dataset) if args.dataset else out / "dataset.csv"
    model_path = Path(args.model) if args.model else out / "model.json"
    ds = dataset_from_csv(ds_path)
    _check_artifact(cfg, ds.fingerprint, ds.bounds, "dataset", ds_path)
    model = load_model(model_path)
    _check_artifact(cfg, model.dataset_fingerprint, model.clamp_bounds, "model", model_path)
    metrics, fig = _evaluate(cfg, ds, model)
    metrics_path, fig_path = _write_eval_outputs(out, metrics, fig)
    print(
        f"wrote {metrics_path} and {fig_path} (test R^2 {metrics['test_r2']:.4f})"
    )
    return 0


def cmd_pipeline(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(args)
    ds = split_dataset(_generate(cfg), cfg.dataset.train_fraction, cfg.seed)
    ds_path = out / "dataset.csv"
    dataset_to_csv(ds, ds_path)
    model, history = _train(cfg, ds)
    _write_model_outputs(out, model, history)
    metrics, fig = _evaluate(cfg, ds, model)
    _write_eval_outputs(out, metrics, fig)
    print(
        f"pipeline done in {out}: {len(ds)} scenarios, "
        f"test R^2 {metrics['test_r2']:.4f}, "
        f"mean solve {metrics['mean_solve_ms']:.1f} ms, "
        f"mean inference {metrics['mean_inference_ms']:.4f} ms"
    )
    return 0


def _make_policy(cfg: ExperimentConfig, args, out: Path):
    kind = args.policy
    if kind == "fixed":
        if args.tau is None:
            raise ValueError("--tau is required with --policy fixed")
        if not 0 < args.tau < np.inf:
            raise ValueError("--tau must be finite and > 0")
        tau = float(args.tau)
        return (lambda u: tau), f"fixed({tau:g})"
    if kind == "surrogate":
        model_path = Path(args.model) if args.model else out / "model.json"
        model = load_model(model_path)
        _check_artifact(cfg, model.dataset_fingerprint, model.clamp_bounds, "model", model_path)
        return (lambda u: predict_next_inspection(model, cfg.system, u)), "surrogate"
    cache: dict = {}

    def solver_policy(u):
        key = tuple(float(v) for v in u)
        if key not in cache:
            cache[key] = _solve(cfg, u).tau_star
        return cache[key]

    return solver_policy, "solver"


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(args)
    horizon, reps = cfg.simulate.horizon, cfg.simulate.replications
    policy, label = _make_policy(cfg, args, out)
    try:
        traces = [
            simulate_plan(cfg.system, cfg.costs, policy, horizon, RngSeed(cfg.seed, r),
                          subgrid_steps=cfg.simulate.subgrid_steps)
            for r in range(reps)
        ]
    except PolicyError as exc:
        if args.policy == "fixed":
            raise PolicyError(f"--tau {args.tau:g} is too small: {exc}") from exc
        raise
    total = np.asarray([t.total_cost for t in traces])
    avail = np.asarray([t.availability for t in traces])
    rate = total / horizon
    summary_path = out / "simulate_summary.csv"
    stats = [x for v in (total, rate, avail)
             for x in (v.mean(), v.std(ddof=1) if reps > 1 else 0.0)]
    write_csv(
        summary_path,
        ["policy", "replications", "horizon", "mean_total_cost", "sd_total_cost",
         "mean_cost_rate", "sd_cost_rate", "mean_availability", "sd_availability"],
        [[label, reps, horizon, *stats]],
    )
    traces_path = out / "traces.json"
    write_json(traces_path, [t.to_dict() for t in traces], indent=1)
    print(
        f"wrote {summary_path} and {traces_path} "
        f"({label}, {reps} reps, mean cost rate {rate.mean():.4f})"
    )
    return 0


def cmd_config(cfg: ExperimentConfig, args) -> int:
    print(dump_config(cfg), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON (default: built-in)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument(
        "--quadrature-nodes",
        type=int,
        help="override the damage-integral node count (default 32, at most 4096), graded nodes "
        "shared by the windows that reach the headroom; a window below it gets 3/8 as many nodes "
        "of a Gauss rule for the damage law on its span, or half as many if cut at 0 (<= 128)",
    )
    parser = argparse.ArgumentParser(
        prog="gammashock",
        description="Reliability and inspection planning under gamma wear and shocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reliability", parents=[common], help="tabulate reliability curves")
    p.add_argument("--topology", choices=["series", "parallel"])
    p.add_argument("--t-grid", default="0:16:33", help="start:stop:count (default 0:16:33)")
    p.add_argument("--u", help="comma-separated degradation levels (default zeros)")
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("optimize", parents=[common], help="solve for the next inspection")
    p.add_argument("--u", help="comma-separated degradation levels (default zeros)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("gen-data", parents=[common], help="sample and solve scenarios")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("split", parents=[common], help="assign train/test labels")
    p.add_argument("--dataset", help="dataset CSV (default <out>/dataset.csv)")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", parents=[common], help="fit the surrogate network")
    p.add_argument("--dataset", help="dataset CSV (default <out>/dataset.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="score a trained surrogate")
    p.add_argument("--dataset", help="dataset CSV (default <out>/dataset.csv)")
    p.add_argument("--model", help="model JSON (default <out>/model.json)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", parents=[common], help="gen-data + split + train + evaluate")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("simulate", parents=[common], help="simulate an inspection policy")
    p.add_argument(
        "--policy", choices=["solver", "surrogate", "fixed"], default="solver"
    )
    p.add_argument("--model", help="model JSON for --policy surrogate")
    p.add_argument("--tau", type=float, help="interval for --policy fixed")
    p.add_argument("--horizon", type=float, help="override config horizon")
    p.add_argument("--replications", type=int, help="override config replications")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("config", parents=[common], help="print the resolved config as JSON")
    p.set_defaults(func=cmd_config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg, args)
    except (ValueError, OSError, NumericsError, PolicyError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
