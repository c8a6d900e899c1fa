"""Benchmark of a gammashock planning session, end to end and per layer.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 40 --trace 0

One process with one thread runs one workload (see WORKLOADS).  After
set-up it measures in whole rounds until --seconds have passed.  A round
solves a batch of fresh states in light/heavy pairs, with a block of
reliability curves on fresh states after each pair; it then trains the
surrogate on the batch's solved rows and alternates blocks of surrogate
predictions with blocks of simulated plans that use the new model as the
policy.  Every timed metric is the slow-side quartile of its blocks (see
slow_quartile).  Set-up time is the median of this process's set-up and
that of fresh child processes that each run the set-up alone, all timed
from the top of this script.

All outputs are checked after the measurement (see checks.py); an
operation whose output fails a check counts as failed.  With --trace 1,
the public layer functions are wrapped (see tracing.py) in every other
round and the per-layer metrics are reported instead; the untraced
rounds of the same run give the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

import checks  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import tracing  # noqa: E402

SOLVE_PAIRS = 3  # light/heavy solve pairs per round
CURVES_PER_BLOCK = 4  # curves after each solve pair, on fresh states
CURVE_GRID = np.linspace(0.0, 16.0, 33)  # the CLI's default --t-grid 0:16:33
PREDICT_BLOCKS = 8  # predict blocks per round, each followed by a sim block
PREDICT_CALLS = 200
SIM_REPS = 10
SETUP_PROBES = 2  # fresh processes whose set-up joins this one's
MIN_ROUNDS = 2  # even a very short run gives two samples of every metric
TRACE_MIN_ROUNDS = 4  # traced rounds 0 and 2 give the deterministic counts
DET_ROUNDS = (0, 2)
DENSE_CHUNK = 50  # taus per cost_rate_batch call in the optimality check; bounds memory
MC_CHECKS = 3
MC_SAMPLES = 100_000
ZERO_SHOCK_STATES = 4
R2_MIN = 0.90
R2_TRAIN_ROWS = 20
PROBE_TIMEOUT_S = 120

STREAM_SOLVE_STATES, STREAM_CURVE_STATES, STREAM_CHECKS = 1, 2, 3
STREAM_SIM0, STREAM_MC0 = 10_000, 900


@dataclass(frozen=True)
class Workload:
    topology: str
    shock_rate: float
    reset_share: float  # share of states with some components reset to new
    r2_gate: bool  # whether held-out R^2 >= R2_MIN is a check


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "reference": Workload("series", 0.0025, 0.3, True),
    "shock-parallel": Workload("parallel", 0.1, 0.0, False),
}

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solve_ms_p75", "ms"),
    ("curve_ms_p75", "ms"),
    ("train_s", "s"),
    ("predict_us_p75", "us"),
    ("sim_reps_per_s", "1/s"),
]
# Timed metric -> the sample list behind it.
TIMED = {
    "solve_ms_p75": "solve",
    "curve_ms_p75": "curve",
    "train_s": "train",
    "predict_us_p75": "predict",
    "sim_reps_per_s": "sim",
}


def import_package():
    """Import gammashock from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gammashock
        from gammashock import config, core, optimize, reliability, simulate, surrogate
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import gammashock from {src}: {exc}")
    if Path(gammashock.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"run.py: gammashock came from {gammashock.__file__}, not {src}")
    return config, core, optimize, reliability, simulate, surrogate


@dataclass
class State:
    u: np.ndarray
    light: bool
    reset: bool


class StateStream:
    """Fresh states from the package's two-regime sampler, in pairs.

    Each pair holds one light-regime and one heavy-regime draw, in seeded
    order, so every block sees the same regime mix.  A reset_share of the
    states then has a seeded, non-empty, proper subset of components set
    to new (u = 0), as after a replacement at an inspection.
    """

    def __init__(self, gopt, system, rng, reset_share):
        self._draw = gopt.two_regime_state_sampler(system)
        self._light_cap = 0.2 * np.asarray([c.soft_threshold for c in system.components])
        self._rng = rng
        self._reset_share = reset_share
        self._queues = {True: [], False: []}

    def _next(self, light: bool) -> State:
        while not self._queues[light]:
            u = self._draw(self._rng)
            self._queues[bool(np.all(u <= self._light_cap))].append(u)
        u = self._queues[light].pop(0)
        reset = self._reset_share > 0 and self._rng.random() < self._reset_share
        if reset:
            k = self._rng.integers(1, u.size)
            u = u.copy()
            u[self._rng.choice(u.size, size=k, replace=False)] = 0.0
        return State(u, light, reset)

    def pair(self) -> list[State]:
        order = [True, False] if self._rng.random() < 0.5 else [False, True]
        return [self._next(light) for light in order]


def slow_quartile(values, higher_is_better=False):
    """The quartile on the slow side: the 75th percentile of times, the
    25th of rates.  The shared host runs 25-35% faster in bursts of a few
    seconds.  The median of a run's blocks jumps into the fast cluster once
    the bursts fill half the run; this quartile only once they fill three
    quarters of it."""
    if not values:
        return float("nan")
    return float(np.percentile(values, 25 if higher_is_better else 75))


def tail(values, higher_is_better=False):
    """(percentile, value) of the worst-side p75/p90/p95/p99 that has at
    least ten samples beyond it, or None with fewer than forty samples.
    For a rate the worst side is the low end: p90 is the 10th percentile."""
    n = len(values)
    if n < 40:
        return None
    best = None
    for p in (75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = (p, float(np.percentile(values, 100 - p if higher_is_better else p)))
    return best


class Session:
    """One workload's inputs, timed rounds, outputs and checks."""

    def __init__(self, args, modules):
        self.args = args
        (self.gcfg, self.gcore, self.gopt, self.grel, self.gsim, self.gsur) = modules
        self.workload = WORKLOADS[args.workload]
        self.tracer = None
        self.samples = {k: [] for k in TIMED.values()}
        self.traced_samples = {k: [] for k in TIMED.values()}
        self.calls = {"solve": [], "curve": []}
        self.solves: list[tuple[State, object]] = []
        self.curves: list[tuple[State, np.ndarray]] = []
        self.models: list = []
        self.predictions: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.plans: list[tuple[int, object, list]] = []
        self.rounds = 0

    # -- set-up: config, input generation, warm-up ------------------------
    def setup(self) -> None:
        cfg = self.gcfg.default_config()
        w = self.workload
        self.cfg = cfg
        self.system = replace(
            cfg.system, topology=self.gcore.Topology(w.topology), shock_rate=w.shock_rate
        )
        self.costs = cfg.costs
        self.thresholds = np.asarray([c.soft_threshold for c in self.system.components])
        seed = self.args.seed
        rng = lambda stream: np.random.default_rng((seed, stream))
        self.solve_states = StateStream(self.gopt, self.system, rng(STREAM_SOLVE_STATES), w.reset_share)
        self.curve_states = StateStream(self.gopt, self.system, rng(STREAM_CURVE_STATES), w.reset_share)
        self.check_rng = rng(STREAM_CHECKS)
        self.fingerprint = self.gopt.system_fingerprint(self.system, self.costs)
        self.spec = self.gsur.FeatureSpec(cfg.surrogate.feature_mode)
        sizes = (self.spec.feature_count(self.system), *cfg.surrogate.hidden_sizes, 1)
        self.model0 = self.gsur.init_model(sizes, seed, cfg.surrogate.feature_mode)
        self.sim_streams = 0
        self._warm_up()

    def _solve(self, u):
        c = self.cfg
        return self.gopt.optimal_inspection_time(
            self.system, self.costs, u, c.solver.bounds, c.solver.tol, c.quadrature,
            c.solver.grid_points,
        )

    def _curve(self, u):
        return self.grel.system_reliability(self.system, CURVE_GRID, u, self.cfg.quadrature)

    def _dataset(self, rows):
        scen = [
            self.gopt.Scenario(k, tuple(float(v) for v in st.u), sol.tau_star,
                               sol.cost_rate_star, split="train")
            for k, (st, sol) in enumerate(rows)
        ]
        return self.gopt.Dataset(self.fingerprint, self.cfg.solver.bounds, scen)

    def _train(self, dataset, epochs=None):
        s = self.cfg.surrogate
        return self.gsur.train(
            self.model0, dataset, self.system, self.spec, s.learning_rate,
            s.epochs if epochs is None else epochs, s.mode, self.args.seed,
        )[0]

    def _policy(self, model, decisions):
        predict = self.gsur.predict_next_inspection
        system = self.system

        def policy(u):
            tau = predict(model, system, u)
            decisions.append((u, tau))
            return tau

        if self.tracer is not None:
            return self.tracer.wrap(policy, "simulate.policy")
        return policy

    def _simulate(self, policy):
        stream = STREAM_SIM0 + self.sim_streams
        self.sim_streams += 1
        return self.gsim.simulate_plan(
            self.system, self.costs, policy, self.cfg.simulate.horizon,
            self.gsim.RngSeed(self.args.seed, stream),
            subgrid_steps=self.cfg.simulate.subgrid_steps,
        )

    def _warm_up(self) -> None:
        """One call of every timed operation, on the fresh state (u = 0).

        Its solved row joins every training set: each simulated plan starts
        from new components, and a surrogate fit to a handful of rows that
        leave out that corner extrapolates it to anything from 0.1 to 50,
        which would make the plans' work depend on the luck of the draw.
        """
        u = np.zeros(self.system.n)
        self.fresh_row = (State(u, True, False), self._solve(u))
        self._curve(u)
        model = self._train(self._dataset([self.fresh_row]), epochs=2)
        self.gsur.predict_next_inspection(model, self.system, u)
        self._simulate(lambda levels: self.gsur.predict_next_inspection(model, self.system, levels))
        self.sim_streams = 0

    # -- measurement -------------------------------------------------------
    def _op(self, name):
        return self.tracer.span("op." + name) if self.tracer is not None else nullcontext()

    def run_round(self) -> None:
        samples = self.traced_samples if self.tracer is not None else self.samples
        perf = time.perf_counter
        rows, round_states = [], []
        for _ in range(SOLVE_PAIRS):
            times = []
            for st in self.solve_states.pair():
                with self._op("solve"):
                    t0 = perf()
                    sol = self._solve(st.u)
                    times.append(perf() - t0)
                rows.append((st, sol))
            samples["solve"].append(1e3 * sum(times) / len(times))
            self.calls["solve"] += [1e3 * t for t in times]
            times = []
            for _ in range(CURVES_PER_BLOCK // 2):
                for st in self.curve_states.pair():
                    with self._op("curve"):
                        t0 = perf()
                        curve = self._curve(st.u)
                        times.append(perf() - t0)
                    self.curves.append((st, curve))
                    round_states.append(st.u)
            samples["curve"].append(1e3 * sum(times) / len(times))
            self.calls["curve"] += [1e3 * t for t in times]

        self.solves += rows
        dataset = self._dataset(rows + [self.fresh_row])
        with self._op("train"):
            t0 = perf()
            model = self._train(dataset)
            samples["train"].append(perf() - t0)
        model_id = len(self.models)
        self.models.append(model)

        block = [round_states[i % len(round_states)] for i in range(PREDICT_CALLS)]
        predict = self.gsur.predict_next_inspection
        for _ in range(PREDICT_BLOCKS):
            out = []
            with self._op("predict"):
                t0 = perf()
                for u in block:
                    out.append(predict(model, self.system, u))
                dt = perf() - t0
            samples["predict"].append(1e6 * dt / len(block))
            self.predictions.append((model_id, np.asarray(block), np.asarray(out)))
            with self._op("sim"):
                plans = []
                t0 = perf()
                for _ in range(SIM_REPS):
                    decisions = []
                    plans.append((self._simulate(self._policy(model, decisions)), decisions))
                dt = perf() - t0
            samples["sim"].append(SIM_REPS / dt)
            self.plans += [(model_id, plan, dec) for plan, dec in plans]

    def measure(self) -> None:
        """Whole rounds until --seconds have passed; in trace mode the even
        rounds run traced and the odd ones plain."""
        trace = self.args.trace == 1
        if trace:
            self.tracer = tracing.Tracer()
            self.targets = tracing.layer_targets(self.gopt, self.grel, self.gsur, self.gsim)
        min_rounds = TRACE_MIN_ROUNDS if trace else MIN_ROUNDS
        start = time.perf_counter()
        r = 0
        while r < min_rounds or time.perf_counter() - start < self.args.seconds:
            traced = trace and r % 2 == 0
            if traced:
                self.tracer.install(self.targets)
                with self.tracer.span("round", r):
                    self.run_round()
                self.tracer.uninstall()
            else:
                tracer, self.tracer = self.tracer, None
                self.run_round()
                self.tracer = tracer
            r += 1
        self.rounds = r
        self.measured_s = time.perf_counter() - start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks --------------------------------------------------------------
    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) over every operation."""
        failed, msgs = 0, []
        note = lambda what, errs: msgs.extend(f"{what}: {e}" for e in errs)
        rng = self.check_rng
        c = self.cfg
        bounds = c.solver.bounds

        # Solves: bounds and boundary flag for all; optimality on a denser
        # grid for one light and one heavy solve picked by seed.
        bad_solves = set()
        for i, (st, sol) in enumerate(self.solves):
            errs = checks.check_solution(sol, bounds, c.solver.tol)
            if errs:
                bad_solves.add(i)
                note(f"solve {i}", errs)
        dense = checks.dense_grid(bounds, c.solver.grid_points)
        for light in (True, False):
            idx = [i for i, (st, _) in enumerate(self.solves) if st.light == light]
            i = int(rng.choice(idx))
            st, sol = self.solves[i]
            rates = np.concatenate([
                self.gopt.cost_rate_batch(self.system, self.costs, dense[k:k + DENSE_CHUNK],
                                          st.u, c.quadrature)
                for k in range(0, dense.size, DENSE_CHUNK)
            ])
            errs = checks.check_optimal(sol, rates)
            if errs:
                bad_solves.add(i)
                note(f"solve {i}", errs)
        failed += len(bad_solves)
        attempted = len(self.solves)

        for i, (st, curve) in enumerate(self.curves):
            errs = checks.check_curve(curve, st.u, self.thresholds)
            failed += bool(errs)
            note(f"curve {i}", errs)
        attempted += len(self.curves)

        # Monte Carlo at the grid time where R is nearest 1/2.
        mid = [i for i, (_, cv) in enumerate(self.curves) if np.any(np.abs(cv - 0.5) < 0.4)]
        for k, i in enumerate(rng.choice(mid, size=MC_CHECKS, replace=False)):
            st, curve = self.curves[int(i)]
            j = int(np.argmin(np.abs(curve - 0.5)))
            if self.tracer is not None:
                self.tracer.install(self.targets)
            with self._op("mc_check"):
                p, se = self.gsim.estimate_reliability(
                    self.system, float(CURVE_GRID[j]), st.u, n_samples=MC_SAMPLES,
                    seed=self.gsim.RngSeed(self.args.seed, STREAM_MC0 + k),
                )
            if self.tracer is not None:
                self.tracer.uninstall()
            errs = checks.check_monte_carlo(float(curve[j]), p, se)
            failed += bool(errs)
            note(f"monte carlo {k}", errs)
        attempted += MC_CHECKS

        # No shocks: each component against scipy's gamma CDF.
        t = CURVE_GRID[1:]
        picks = rng.choice(len(self.curves), size=ZERO_SHOCK_STATES, replace=False)
        for i in picks:
            u = self.curves[int(i)][0].u
            for comp, ui in zip(self.system.components, u):
                r = self.grel.component_reliability(comp, 0.0, t, float(ui), c.quadrature)
                errs = checks.check_zero_shock(r, checks.zero_shock_reference(comp, t, float(ui)))
                failed += bool(errs)
                note("zero-shock", errs)
        attempted += ZERO_SHOCK_STATES * self.system.n

        # Training quality: a surrogate trained at the default settings on
        # the run's first two-regime rows must reach R2_MIN on the later ones.
        # A timed training sees seven rows, too few for R^2 to mean much.
        if self.workload.r2_gate:
            pure = [(st, sol) for st, sol in self.solves if not st.reset]
            cut = min(R2_TRAIN_ROWS, 2 * len(pure) // 3)
            model = self._train(self._dataset(pure[:cut]))
            held = pure[cut:]
            pred = [self.gsur.predict_next_inspection(model, self.system, st.u) for st, _ in held]
            target = np.asarray([sol.tau_star for _, sol in held])
            self.r2 = checks.r_squared(np.asarray(pred), target)
            attempted += 1
            if not self.r2 >= R2_MIN:
                failed += 1
                note("training", [f"held-out R^2 {self.r2:.4f} < {R2_MIN} ({cut} rows)"])

        for m_id, states, pred in self.predictions:
            bad = checks.check_predictions(
                pred, checks.forward_pass(self.models[m_id], self.thresholds, states), bounds)
            failed += int(np.sum(bad))
            if bad.any():
                note("prediction", [f"{int(np.sum(bad))} predictions off the forward pass"])
            attempted += pred.size

        for k, (m_id, plan, decisions) in enumerate(self.plans):
            errs = checks.check_trace(plan, self.costs, self.cfg.simulate.horizon)
            if decisions:
                u = np.asarray([d[0] for d in decisions])
                tau = np.asarray([d[1] for d in decisions])
                bad = checks.check_predictions(
                    tau, checks.forward_pass(self.models[m_id], self.thresholds, u), bounds)
                if bad.any():
                    errs.append(f"{int(np.sum(bad))} policy decisions off the forward pass")
            failed += bool(errs)
            note(f"plan {k}", errs)
        attempted += len(self.plans)
        return attempted, failed, msgs

    # -- report ----------------------------------------------------------
    def end_to_end(self, setup_s: float) -> dict:
        s = self.samples
        return {
            "setup_s": setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "solve_ms_p75": slow_quartile(s["solve"]),
            "curve_ms_p75": slow_quartile(s["curve"]),
            "train_s": slow_quartile(s["train"]),
            "predict_us_p75": slow_quartile(s["predict"]),
            "sim_reps_per_s": slow_quartile(s["sim"], higher_is_better=True),
        }

    def describe(self) -> list[str]:
        states = [st for st, _ in self.solves] + [st for st, _ in self.curves]
        reset = sum(bool(np.any(st.u == 0.0)) for st in states)
        visits = [len(p.inspection_times) for _, p, _ in self.plans]
        lines = [
            f"rounds {self.rounds} in {self.measured_s:.1f} s; solves {len(self.solves)}, "
            f"curves {len(self.curves)}, trainings {len(self.models)}, "
            f"predictions {sum(p.size for _, _, p in self.predictions)}, "
            f"simulated plans {len(self.plans)}",
            f"states with a new component: {reset}/{len(states)} "
            f"({100.0 * reset / max(len(states), 1):.1f}%)",
            f"inspections per simulated plan: {statistics.fmean(visits):.2f}",
        ]
        if self.workload.r2_gate:
            lines.append(f"held-out R^2 of the surrogate: {self.r2:.4f}")
        return lines


def probe_setup(args) -> list[float]:
    """Set-up time of fresh child processes, each timed as this process
    times its own: from the top of this script to the moment it would make
    its first timed call.  Only a fresh process sets up cold; a second
    set-up in this process would find the first one's imports and any
    cache it filled."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
        try:
            times.append(float(proc.stdout))
        except ValueError:
            raise SystemExit(f"run.py: set-up probe failed (exit {proc.returncode})")
    return times


def report_line(name, unit, value, blocks, singles) -> str:
    """The metric, its block count, and the tail of its single samples."""
    rate = name == "sim_reps_per_s"
    text = f"{name:<16} {value:12.6g} {unit}  (p{25 if rate else 75} of {blocks} blocks"
    t = tail(singles, higher_is_better=rate)
    if t is not None:
        text += f"; p{t[0]} {t[1]:.6g} over {len(singles)} samples, for reference only"
    return text + ")"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_package()
    session = Session(args, modules)
    session.setup()
    own_setup_s = time.perf_counter() - _PROCESS_T0
    if args.setup_probe:
        print(repr(own_setup_s))
        return 0
    session.measure()
    attempted, failed, msgs = session.check()
    setups = [own_setup_s] + probe_setup(args) if args.trace == 0 else []
    for m in msgs[:20]:
        print("check failed:", m, file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in session.describe():
        print(line)
    print(f"operations attempted {attempted}, failed {failed}")
    if args.trace == 0:
        values = session.end_to_end(statistics.median(setups))
        for name, unit in END_TO_END:
            key = TIMED.get(name)
            if key is not None:
                blocks = session.samples[key]
                singles = session.calls.get(key, blocks)
                print(report_line(name, unit, values[name], len(blocks), singles))
            elif name == "setup_s":
                print(f"{name:<16} {values[name]:12.6g} {unit}  (median of this process "
                      f"and {len(setups) - 1} fresh ones: "
                      f"{', '.join(f'{t:.3f}' for t in setups)} s)")
            else:
                print(f"{name:<16} {values[name]:12.6g} {unit}  (one reading)")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        values = tracing.layer_metrics(session.tracer, DET_ROUNDS)
        for name, unit, _, det in tracing.LAYER_METRICS:
            print(f"{name:<52} {values[name]:14.6g} {unit}{'  (det)' if det else ''}")
        print("tracing overhead (traced rounds against the plain rounds of this run):")
        for name, key in TIMED.items():
            rate = name == "sim_reps_per_s"
            on = slow_quartile(session.traced_samples[key], rate)
            off = slow_quartile(session.samples[key], rate)
            worse = off / on - 1.0 if rate else on / off - 1.0
            print(f"  {name:<16} {100.0 * worse:+7.1f}%  ({len(session.traced_samples[key])} "
                  f"traced vs {len(session.samples[key])} plain blocks)")
        print("  setup_s          not traced: tracing starts after set-up")
        print(f"  peak_rss_mb      {len(session.tracer.names)} spans held in memory")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        session.tracer.dump(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in tracing.LAYER_METRICS}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
