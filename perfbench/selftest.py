"""Fast self-test of the benchmark at small sizes (about two minutes).

    python3 perfbench/selftest.py

It is not part of the package's test suite.  It checks that

* the output checks reject broken outputs of every kind they cover;
* a plain run and a traced run print one well-formed JSON result with
  every metric, no failed operation, and deterministic counts that repeat
  exactly on a second traced run with the same seed;
* run.py exits non-zero without a result when the package is missing.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

import checks
import run
import tracing

TINY = dict(
    CURVES_PER_BLOCK=2, PREDICT_BLOCKS=1, PREDICT_CALLS=10, SIM_REPS=2,
    SETUP_PROBES=1, MC_SAMPLES=20_000, MC_CHECKS=1, ZERO_SHOCK_STATES=1,
)


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def test_checks_reject_broken_outputs():
    sol = SimpleNamespace(tau_star=3.0, cost_rate_star=20.0, boundary=False)
    expect(not checks.check_solution(sol, (0.1, 50.0), 1e-4), "a good solution fails")
    expect(checks.check_solution(SimpleNamespace(**{**vars(sol), "boundary": True}),
                                 (0.1, 50.0), 1e-4), "a wrong boundary flag passes")
    expect(checks.check_solution(SimpleNamespace(**{**vars(sol), "tau_star": 60.0}),
                                 (0.1, 50.0), 1e-4), "tau* outside the bounds passes")
    expect(checks.check_optimal(sol, np.array([25.0, 19.0])), "a beaten optimum passes")
    expect(not checks.check_optimal(sol, np.array([25.0, 20.0])), "a true optimum fails")

    h = np.array([20.0, 30.0])
    good = np.array([1.0, 0.9, 0.5, 0.5])
    expect(not checks.check_curve(good, np.zeros(2), h), "a good curve fails")
    expect(checks.check_curve(np.array([1.0, 0.5, 0.6]), np.zeros(2), h), "a rising curve passes")
    expect(checks.check_curve(np.array([0.99, 0.5]), np.zeros(2), h), "R(0) < 1 passes")
    expect(checks.check_curve(np.array([1.0, -0.1]), np.zeros(2), h), "R < 0 passes")

    expect(checks.check_monte_carlo(0.5, 0.51, 0.001), "a 10-sigma gap passes")
    expect(not checks.check_monte_carlo(0.5, 0.503, 0.001), "a 3-sigma gap fails")
    expect(checks.check_zero_shock(np.array([0.5]), np.array([0.5 + 1e-8])), "a gap passes")

    w = [np.array([[1.0, -1.0]]), np.array([[2.0]])]
    model = SimpleNamespace(
        weights=w, biases=[np.zeros(1), np.zeros(1)], input_shift=np.zeros(2),
        input_scale=np.ones(2), output_shift=10.0, output_scale=2.0, clamp_bounds=(0.1, 50.0),
    )
    x = np.array([[4.0, 6.0]])
    ref = checks.forward_pass(model, h, x)
    z = 4.0 / 20.0 - 6.0 / 30.0
    expect(math.isclose(ref[0], 10.0 + 2.0 * 2.0 / (1.0 + math.exp(-z))), "forward pass")
    expect(checks.check_predictions(ref + 1e-6, ref, (0.1, 50.0)).all(), "an off prediction passes")
    expect(checks.check_predictions(np.array([60.0]), np.array([60.0]), (0.1, 50.0)).all(),
           "a prediction outside the clamp passes")

    costs = SimpleNamespace(inspection_cost=50.0, replacement_costs=(200.0, 100.0), downtime_rate=10.0)
    trace = SimpleNamespace(
        inspection_times=[4.0, 12.0], replaced=[[], [1]], interval_downtime=[0.0, 2.0],
        inspection_cost=100.0, replacement_cost=100.0, downtime_cost=20.0,
    )
    expect(not checks.check_trace(trace, costs, 12.0), "a good trace fails")
    for field, value in [("inspection_cost", 50.0), ("replacement_cost", 200.0),
                         ("downtime_cost", 10.0), ("inspection_times", [4.0, 11.0]),
                         ("interval_downtime", [0.0, 9.0]), ("inspection_times", [4.0, 4.0])]:
        bad = SimpleNamespace(**{**vars(trace), field: value})
        expect(checks.check_trace(bad, costs, 12.0), f"a trace with a wrong {field} passes")


def test_tracer_self_times():
    tr = tracing.Tracer()
    mod = SimpleNamespace(inner=lambda n: sum(range(n)))
    outer = tr.wrap(lambda: mod.inner(10_000) + mod.inner(10_000), "outer")
    tr.install([(mod, "inner", "inner", lambda a, k, r: a[0])])
    outer()
    tr.uninstall()
    expect(tr.names == ["outer", "inner", "inner"] and tr.parents == [-1, 0, 0], "span tree")
    expect(tr.counts[1:] == [10_000, 10_000], "counts")
    dur, own = tr.durations(), tr.self_times()
    expect(abs(own[0] - (dur[0] - dur[1] - dur[2])) < 1e-12, "self time")
    expect(mod.inner(3) == 3 and not hasattr(mod.inner, "__wrapped__"), "uninstall")


def run_tiny(*argv) -> tuple[dict, str]:
    saved = {k: getattr(run, k) for k in TINY}
    for k, v in TINY.items():
        setattr(run, k, v)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(list(argv))
    finally:
        for k, v in saved.items():
            setattr(run, k, v)
    expect(code == 0, f"run.py {argv} exited {code}")
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def test_plain_and_traced_runs():
    # The reference run is long enough for the R^2 check's 20 training rows.
    for workload, seconds in (("reference", "20"), ("shock-parallel", "1")):
        result, _ = run_tiny("--workload", workload, "--seed", "3", "--seconds", seconds,
                             "--trace", "0")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{workload}: {result['failed']} of {result['attempted']} operations failed")
        expect([k for k in result["metrics"]] == [n for n, _ in run.END_TO_END], "metric names")
        for name, m in result["metrics"].items():
            expect(m["value"] > 0 and math.isfinite(m["value"]), f"{name} = {m['value']}")

    first, text = run_tiny("--workload", "shock-parallel", "--seed", "3", "--seconds", "1",
                           "--trace", "1")
    second, _ = run_tiny("--workload", "shock-parallel", "--seed", "3", "--seconds", "1",
                         "--trace", "1")
    expect(first["correct"] and first["failed"] == 0, "traced run failed operations")
    expect("tracing overhead" in text, "no tracing overhead printed")
    names = [n for n, _, _, _ in tracing.LAYER_METRICS]
    expect(list(first["metrics"]) == names, "per-layer metric names")
    for name, unit, _, det in tracing.LAYER_METRICS:
        value = first["metrics"][name]["value"]
        expect(value > 0 and math.isfinite(value), f"{name} = {value}")
        if det:
            expect(value == second["metrics"][name]["value"], f"{name} differs between runs")


def test_refuses_without_package():
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "run.py succeeded without the package")
    expect('"metrics"' not in proc.stdout, "run.py printed a result without the package")


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    tests = [test_checks_reject_broken_outputs, test_tracer_self_times,
             test_refuses_without_package, test_plain_and_traced_runs]
    for test in tests:
        test()
        print(f"ok  {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
