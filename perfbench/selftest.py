"""Fast self-test of the benchmark at its tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs end to end through run.py with no failed
operation, that flipping one value of a generated ensemble.ansr is caught as
a failed operation, and that the traced counts equal their shape formulas and
repeat exactly. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from common import CHAIN, HERE, SHAPES, SRC, WORK, WORKLOADS, child_env, load_expected, variant

SEED = 3
failures = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, env=child_env(), timeout=170,
    )
    expect(proc.returncode == 0, f"{workload} trace {trace}: run.py exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_end_to_end(benchmark: dict) -> dict:
    traced = {}
    for workload in WORKLOADS:
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            result = run_benchmark(workload, trace)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace {trace}: correct with {result['attempted']} operations")
            names = [m["name"] for m in benchmark[listed]]
            expect(sorted(result["metrics"]) == sorted(names),
                   f"{workload} trace {trace}: every {listed} metric reported")
            if trace == 0:
                expect(all(result["metrics"][n]["value"] > 0 for n in names),
                       f"{workload}: no end-to-end metric is 0")
            else:
                traced[workload] = {n: m["value"] for n, m in result["metrics"].items()}
    return traced


def _context(workload: str, expected: dict):
    from workloads import Context

    v = variant(SEED)
    work = WORK / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    ctx = Context(workload, "tiny", SEED, v, SHAPES["tiny"][workload], work / "data",
                  work / "scratch", expected["references"]["tiny"].get(workload, {}).get(str(v)),
                  expected["tolerance"])
    ctx.data.mkdir(parents=True)
    ctx.scratch.mkdir()
    import gen
    gen.GENERATORS[workload](ctx.data, v, ctx.shape)
    return ctx


def check_corruption(expected: dict):
    import checks
    import numpy as np
    from workloads import _count_checks, run_commands

    ctx = _context("forecast_chain", expected)
    it = run_commands(ctx, CHAIN, False, "corrupt")
    _count_checks(it, checks.check_chain(ctx.data, ctx.reference, ctx.tolerance))
    expect(it.failed == 0, "untouched chain passes its output checks")
    path = ctx.data / "ensemble.ansr"
    raw = bytearray(path.read_bytes())
    start = raw.find(b"\x00\n") + 2
    value = np.frombuffer(bytes(raw[start:start + 8]), dtype="<f8")[0]
    raw[start:start + 8] = np.array([value + 1.0], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    _count_checks(it, checks.check_chain(ctx.data, ctx.reference, ctx.tolerance))
    expect(it.failed / it.attempted > 0, f"one flipped ensemble value gives error_rate {it.failed}/{it.attempted}")
    # a night-time cell of power.ansr that should read 0 W reads 3 W
    path = ctx.data / "power.ansr"
    raw = bytearray(path.read_bytes())
    start = raw.find(b"\x00\n") + 2
    values = np.frombuffer(bytes(raw[start:]), dtype="<f8")
    at = start + 8 * int(np.flatnonzero(values == 0.0)[0])
    raw[at:at + 8] = np.array([3.0], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    power = dict(checks.check_chain(ctx.data, ctx.reference, ctx.tolerance))["power"]
    expect(power is not None, f"a zero power value raised by 3 W fails the power check ({power})")
    shutil.rmtree(ctx.data.parent)


def check_chain_counts(expected: dict):
    import run
    from workloads import chain_iteration

    s = SHAPES["tiny"]["forecast_chain"]
    ctx = _context("forecast_chain", expected)
    first = run._iteration_layers(chain_iteration(ctx, True, "t0"))
    sizes = {f: (ctx.data / f).stat().st_size for f in
             ("forecasts.ansr", "observations.ansr", "sigma.ansr", "analogs.ansr",
              "ensemble.ansr", "power.ansr", "truth_power.ansr")}
    second = run._iteration_layers(chain_iteration(ctx, True, "t1"))
    shutil.rmtree(ctx.data.parent)
    L, T, J, M = s["n_locations"], s["n_days"] - s["search_days"], s["n_leads"], s["members"]
    cand = s["n_days"]  # operational: every init before the last test init
    want = {
        "anen.pairs": first["anen.search_calls"] * L * T * J * cand,
        "solar.cells": first["solar.calls"] * L * T * J,
        "pvchain.calls": 2,
        "pvchain.member_cells": L * T * J * (M + 1),
        "verify.crps_calls": 1,
        "tensorio.bytes_written": sum(sizes[f] for f in ("sigma.ansr", "analogs.ansr", "ensemble.ansr",
                                                         "power.ansr", "truth_power.ansr")),
        "tensorio.bytes_read": 3 * sizes["forecasts.ansr"] + 2 * sizes["observations.ansr"]
        + sizes["ensemble.ansr"] + sizes["power.ansr"] + sizes["truth_power.ansr"],
    }
    for name, value in want.items():
        expect(first[name] == value, f"forecast_chain {name} = {first[name]} (formula {value})")
    exact = [n for n in first if isinstance(first[n], int)]
    expect(all(first[n] == second[n] for n in exact), "forecast_chain exact counts repeat across traced runs")


def check_weight_counts(traced: dict):
    s = SHAPES["tiny"]["weight_search"]
    m = traced["weight_search"]
    T, J, M = s["opt_days"], s["n_leads"], s["members"]
    cand = s["search_days"] - s["opt_days"]
    samples = m["solar.calls"]  # one solar cache per scored sample location
    # weight vectors with components on multiples of step over 5 predictors
    vectors = math.comb(round(1 / s["step"]) + 4, 4)
    want = {
        "driver.eval_calls": vectors * samples,
        "anen.search_calls": m["driver.eval_calls"],
        "anen.pairs": m["driver.eval_calls"] * T * J * cand,
        "weights.cluster_n": s["n_locations"],
        "pvchain.calls": m["driver.eval_calls"] + samples,
        "pvchain.member_cells": m["driver.eval_calls"] * T * J * M + samples * T * J,
        "solar.cells": samples * T * J,
    }
    for name, value in want.items():
        expect(m[name] == value, f"weight_search {name} = {m[name]} (formula {value})")


def check_weight_items(expected: dict):
    import run
    from workloads import weight_iteration

    ctx = _context("weight_search", expected)
    it = weight_iteration(ctx, True, "items")
    shutil.rmtree(ctx.data.parent)
    evals = run._iteration_layers(it)["driver.eval_calls"]
    expect(it.items == evals, f"weight_search items {it.items} = traced driver.eval_calls {evals}")


def check_fanout_counts(traced: dict):
    import fanout_checks
    import gen

    s = SHAPES["tiny"]["workflow_fanout"]
    tasks = [t for p in gen.fanout_workflow(s).pipelines for st in p.stages for t in st.tasks]
    attempts = sum(fanout_checks.expected_attempts(SEED, t, s["fail_rate"]) for t in tasks)
    m = traced["workflow_fanout"]
    expect(m["workflow.attempts"] == attempts, f"workflow.attempts = {m['workflow.attempts']} (formula {attempts})")
    expect(m["workflow.retries"] == attempts - len(tasks),
           f"workflow.retries = {m['workflow.retries']} (formula {attempts - len(tasks)})")


def check_absent():
    import run
    import spans

    recorder = spans.Recorder("absent")
    gone = recorder.install([("anen.search", "anensolar.anen", "no_such_function", None)])
    expect(gone == ["anensolar.anen:no_such_function"], "a missing target is reported, not raised")
    values = run.per_layer([], [], {"anen.search"})
    expect(values["anen.search_s"][0] is None and values["anen.pairs"][0] is None,
           "metrics of an absent span are marked absent, not 0")


def main() -> int:
    if not (SRC / "anensolar" / "cli.py").is_file():
        print(f"selftest: the anensolar sources are not in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = load_expected()
    traced = check_end_to_end(benchmark)
    check_corruption(expected)
    check_chain_counts(expected)
    check_weight_counts(traced)
    check_weight_items(expected)
    check_fanout_counts(traced)
    check_absent()
    print(f"{len(failures)} failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
