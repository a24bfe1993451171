"""anensolar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (its set-up, timed several
times), then runs the workload for about S seconds and checks every output.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics, taken from spans recorded around each layer's public
functions, plus the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads:
  forecast_chain   sigma, anen, simulate x2, verify as five CLI processes
  weight_search    one optimize-weights --strategy RB process
  workflow_fanout  3000 tasks through the pipeline/stage/task engine

``--size tiny`` runs the same workloads at the sizes the self-test uses.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from common import (
    CHAIN, OUT, ROOT, SHAPES, SRC, WEIGHT_COMMAND, WORK, WORKLOADS,
    Launcher, load_expected, median, percentile, variant,
)

# Set-up is repeated at least MIN_SETUPS times and for at least SETUP_SECONDS,
# and its median is reported: one set-up of the chain takes 0.1 s and one of
# the fan-out's 0.6 s of pure Python, too short to time once on a shared host.
MIN_SETUPS = 3
SETUP_SECONDS = 4.0
COMMANDS = tuple(name for name, _ in CHAIN) + (WEIGHT_COMMAND[0],)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SHAPES), default="full")
    return p.parse_args(argv)


def _setup(ctx, trace: bool):
    """Generate the inputs again and again; return the seconds of each set-up, the
    seconds spent in synth.generate (traced runs only) and the recorder."""
    import gen
    import spans

    recorder = spans.Recorder("setup")
    if trace:
        recorder.install([t for t in spans.TARGETS if t[0] == "synth.generate"])
    times = []
    while len(times) < MIN_SETUPS or sum(times) < SETUP_SECONDS:
        shutil.rmtree(ctx.data, ignore_errors=True)
        ctx.data.mkdir(parents=True)
        start = time.perf_counter()
        gen.GENERATORS[ctx.workload](ctx.data, ctx.variant, ctx.shape)
        times.append(time.perf_counter() - start)
    synth = [s["end"] - s["start"] for s in recorder.spans]
    return times, synth, recorder


def _measure(ctx, seconds: float, trace: bool) -> list:
    import workloads

    if ctx.workload == "workflow_fanout":
        if not trace:
            return [workloads.fanout_iteration(ctx, False, "u0", seconds)]
        return [workloads.fanout_iteration(ctx, False, "u0", seconds / 2),
                workloads.fanout_iteration(ctx, True, "t1", seconds / 2)]
    step = workloads.chain_iteration if ctx.workload == "forecast_chain" else workloads.weight_iteration
    iterations = []
    walls = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        start = time.perf_counter()
        it = step(ctx, traced, f"{'t' if traced else 'u'}{len(iterations)}")
        walls.append(time.perf_counter() - start)
        iterations.append(it)
        # start another iteration only when at least half of it fits in the window
        if len(iterations) >= (2 if trace else 1) and \
                time.perf_counter() - begin + median(walls) / 2 > seconds:
            return iterations


def _throughputs(iterations) -> list:
    """Items per second of every measured operation: a command sequence, or
    one workflow run."""
    ops = [(rep["done"], rep["seconds"]) for it in iterations for rep in it.reps] + \
          [(it.items, it.seconds) for it in iterations if not it.reps]
    return [items / seconds for items, seconds in ops if seconds > 0]


def end_to_end(iterations, setup_times) -> dict:
    rates = _throughputs(iterations)
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    values = {
        "items_per_s": (median(rates), len(rates)),
        "setup_s": (median(setup_times), len(setup_times)),
        "peak_rss_mb": (median([it.rss_mb for it in iterations]), len(iterations)),
        "success_rate": (1.0 - failed / attempted if attempted else 0.0, attempted),
        "error_rate": (failed / attempted if attempted else 1.0, attempted),
    }
    return values


# -- per-layer metrics from spans ---------------------------------------------------

# metric -> span it is measured from; it is absent when every target of that
# span is gone from the program
SPAN_OF = {
    "anen.sigma_s": "anen.sigma", "anen.search_s": "anen.search", "anen.gather_s": "anen.gather",
    "anen.search_calls": "anen.search", "anen.pairs": "anen.search", "anen.pairs_per_s": "anen.search",
    "tensorio.read_s": "tensorio.read", "tensorio.bytes_read": "tensorio.read",
    "tensorio.write_s": "tensorio.write", "tensorio.bytes_written": "tensorio.write",
    "coredata.align_s": "coredata.align",
    "solar.precompute_s": "solar.precompute", "solar.calls": "solar.precompute",
    "solar.cells": "solar.precompute",
    "pvchain.simulate_s": "pvchain.simulate", "pvchain.calls": "pvchain.simulate",
    "pvchain.member_cells": "pvchain.simulate",
    "verify.aggregate_s": "verify.aggregate", "verify.rss_growth_mb": "verify.aggregate",
    "verify.crps_field_s": "verify.crps_field", "verify.crps_calls": "verify.crps_field",
    "weights.cluster_s": "weights.cluster", "weights.cluster_n": "weights.cluster",
    "weights.optimize_s": "weights.optimize", "weights.select_s": "weights.optimize",
    "driver.eval_calls": "driver.eval", "driver.eval_ms_p50": "driver.eval",
    "driver.eval_ms_p90": "driver.eval", "synth.generate_s": "synth.generate",
}


def _span_totals(children) -> dict:
    """Per span name: calls, seconds, summed counts and durations, over all commands."""
    totals = {}
    for child in children:
        spans = child["spans"]
        for span in spans:
            t = totals.setdefault(span["name"], {"calls": 0, "s": 0.0, "durations": [],
                                                 "in_optimize_s": 0.0, "counts": {}})
            d = span["end"] - span["start"]
            t["calls"] += 1
            t["s"] += d
            t["durations"].append(d)
            for key in ("pairs", "bytes", "cells", "member_cells", "n"):
                if key in span:
                    t["counts"][key] = t["counts"].get(key, 0) + span[key]
            if "rss_growth_mb" in span:
                t["counts"]["rss_growth_mb"] = max(t["counts"].get("rss_growth_mb", 0.0),
                                                   span["rss_growth_mb"])
            parent = span["parent"]
            while parent >= 0:
                if spans[parent]["name"] == "weights.optimize":
                    t["in_optimize_s"] += d
                    break
                parent = spans[parent]["parent"]
    return totals


def _iteration_layers(it) -> dict:
    m = {}
    children = it.children
    if not it.reps:
        imports = [c["import_s"] for c in children.values()]
        m["cli.import_s"] = median(imports) if imports else 0.0
        for cmd in COMMANDS:
            m[f"cli.{cmd}_s"] = children[cmd]["command_s"] if cmd in children else 0.0
            m[f"cli.{cmd}_rss_mb"] = children[cmd]["rss_mb"] if cmd in children else 0.0
    totals = _span_totals(children.values())

    def g(name):
        return totals.get(name, {"calls": 0, "s": 0.0, "durations": [], "in_optimize_s": 0.0, "counts": {}})

    m["anen.sigma_s"] = g("anen.sigma")["s"]
    m["anen.search_s"] = g("anen.search")["s"]
    m["anen.gather_s"] = g("anen.gather")["s"]
    m["anen.search_calls"] = g("anen.search")["calls"]
    m["anen.pairs"] = g("anen.search")["counts"].get("pairs", 0)
    m["anen.pairs_per_s"] = m["anen.pairs"] / m["anen.search_s"] if m["anen.search_s"] else 0.0
    m["tensorio.read_s"] = g("tensorio.read")["s"]
    m["tensorio.write_s"] = g("tensorio.write")["s"]
    m["tensorio.bytes_read"] = g("tensorio.read")["counts"].get("bytes", 0)
    m["tensorio.bytes_written"] = g("tensorio.write")["counts"].get("bytes", 0)
    m["coredata.align_s"] = g("coredata.align")["s"]
    m["solar.precompute_s"] = g("solar.precompute")["s"]
    m["solar.calls"] = g("solar.precompute")["calls"]
    m["solar.cells"] = g("solar.precompute")["counts"].get("cells", 0)
    m["pvchain.simulate_s"] = g("pvchain.simulate")["s"]
    m["pvchain.calls"] = g("pvchain.simulate")["calls"]
    m["pvchain.member_cells"] = g("pvchain.simulate")["counts"].get("member_cells", 0)
    m["verify.aggregate_s"] = g("verify.aggregate")["s"]
    m["verify.crps_field_s"] = g("verify.crps_field")["s"]
    m["verify.crps_calls"] = g("verify.crps_field")["calls"]
    m["verify.rss_growth_mb"] = g("verify.aggregate")["counts"].get("rss_growth_mb", 0.0)
    m["weights.cluster_s"] = g("weights.cluster")["s"]
    m["weights.cluster_n"] = g("weights.cluster")["counts"].get("n", 0)
    m["weights.optimize_s"] = g("weights.optimize")["s"]
    m["weights.select_s"] = m["weights.optimize_s"] - g("driver.eval")["in_optimize_s"]
    evals = [1000.0 * d for d in g("driver.eval")["durations"]]
    m["driver.eval_calls"] = len(evals)
    m["driver.eval_ms_p50"] = percentile(evals, 50) or 0.0
    m["driver.eval_ms_p90"] = percentile(evals, 90) or 0.0
    for rep_key, metric in (("queue_wait_ms", "workflow.queue_wait_ms"), ("stage_gap_ms", "workflow.stage_gap_ms")):
        samples = [v for rep in it.reps for v in rep["layer"][rep_key]]
        m[f"{metric}_p50"] = percentile(samples, 50) or 0.0
        m[f"{metric}_p90"] = percentile(samples, 90) or 0.0
    for key in ("attempts", "retries", "useful_ratio", "busy_share"):
        values = [rep["layer"][key] for rep in it.reps]
        m[f"workflow.{key}"] = median(values) if values else 0
    return m


def _op_seconds(it):
    """Time of one measured operation: a command sequence, or the median workflow run."""
    return median([r["seconds"] for r in it.reps]) if it.reps else it.seconds


def per_layer(iterations, synth_times, absent_spans) -> dict:
    traced = [it for it in iterations if it.traced and (it.children or it.reps)]
    samples = [_iteration_layers(it) for it in traced]
    values = {}
    for name in samples[0] if samples else ():
        values[name] = (median([s[name] for s in samples]), len(samples))
    values["synth.generate_s"] = (median(synth_times) if synth_times else 0.0, len(synth_times))
    plain = median([_op_seconds(it) for it in iterations if not it.traced and not it.failed])
    with_spans = median([_op_seconds(it) for it in traced])
    if plain and with_spans:
        values["bench.trace_overhead"] = (with_spans / plain - 1.0, len(traced))
    for name, span in SPAN_OF.items():
        if span in absent_spans:
            values[name] = (None, 0)
    return values


def _absent_spans(iterations, setup_recorder) -> tuple:
    import spans

    gone = set(setup_recorder.absent)
    for it in iterations:
        for child in it.children.values():
            gone.update(child["absent"])
    absent = {name for name, *_ in spans.TARGETS}
    for name, module, attr, _ in spans.TARGETS:
        if f"{module}:{attr}" not in gone:
            absent.discard(name)
    return absent, sorted(gone)


def _write_spans(ctx, iterations, setup_recorder, gone):
    OUT.mkdir(exist_ok=True)
    runs = {"setup": setup_recorder.spans}
    for it in iterations:
        for name, child in it.children.items():
            if child.get("spans"):
                runs[child["spans"][0]["run"]] = child["spans"]
    path = OUT / f"{ctx.workload}-{ctx.size}-seed{ctx.seed}-spans.json"
    path.write_text(json.dumps({"absent_targets": gone, "runs": runs}))
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "anensolar" / "cli.py").is_file():
        print(f"perfbench: the anensolar sources are not in {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher()  # before numpy and the inputs make this process large
    sys.path.insert(0, str(SRC))
    from workloads import Context

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = load_expected()
    v = variant(args.seed)
    work = WORK / f"{args.workload}-{args.size}-seed{args.seed}-{os.getpid()}"
    ctx = Context(
        workload=args.workload, size=args.size, seed=args.seed, variant=v,
        shape=SHAPES[args.size][args.workload], data=work / "data", scratch=work / "scratch",
        reference=expected["references"][args.size].get(args.workload, {}).get(str(v)),
        tolerance=expected["tolerance"], run=launcher.run,
    )
    try:
        setup_times, synth_times, recorder = _setup(ctx, bool(args.trace))
        ctx.scratch.mkdir(parents=True)
        iterations = _measure(ctx, args.seconds, bool(args.trace))
        attempted = sum(it.attempted for it in iterations)
        failed = sum(it.failed for it in iterations)
        if args.trace:
            absent, gone = _absent_spans(iterations, recorder)
            values = per_layer(iterations, synth_times, absent)
            listed = benchmark["per_layer"]
            print(f"spans: {_write_spans(ctx, iterations, recorder, gone)}")
        else:
            values = end_to_end(iterations, setup_times)
            # error_rate is 0 when all is well, so BENCHMARK.json carries success_rate
            listed = benchmark["end_to_end"] + [
                {"name": "error_rate", "unit": "ratio", "shown_only": True},
            ]
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    for problem in sorted({p for it in iterations for p in it.problems}):
        print(f"FAILED {problem}")
    metrics = {}
    for entry in listed:
        value, n = values.get(entry["name"], (0.0, 0))
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{entry['name']:28s} {shown} {entry['unit']} (n={n})")
        if not entry.get("shown_only"):
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
