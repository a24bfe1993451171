"""One measured iteration of each workload, untraced or traced.

An untraced iteration runs the program as a user does: ``python -m
anensolar.cli`` in a fresh process per command. A traced iteration runs the
same commands through child.py, which times the import on its own and wraps
each layer's public functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable
from pathlib import Path

import checks
from common import CHAIN, HERE, WEIGHT_COMMAND, python_argv, run_process

CHAIN_OUTPUTS = ("sigma.ansr", "analogs.ansr", "ensemble.ansr", "power.ansr",
                 "truth_power.ansr", "report.csv", "weights.csv", "clustering.csv",
                 "manifest.json")


@dataclass
class Context:
    workload: str
    size: str
    seed: int
    variant: int
    shape: dict
    data: Path          # generated inputs; the commands write their outputs here too
    scratch: Path       # logs and child reports
    reference: dict | None
    tolerance: dict
    run: Callable = run_process   # starts one child: (argv, log) -> (code, wall s, peak RSS MB)


@dataclass
class Iteration:
    seconds: float                 # wall time of the measured operation
    items: int                     # work items carried through in that time
    rss_mb: float                  # largest peak RSS of any process
    attempted: int
    failed: int
    traced: bool
    problems: list = field(default_factory=list)
    children: dict = field(default_factory=dict)   # command -> child report (traced)
    reps: list = field(default_factory=list)       # workflow runs


def _tail(path: Path, limit: int = 300) -> str:
    text = path.read_text(errors="replace").strip()
    return text[-limit:]


def run_commands(ctx: Context, commands, traced: bool, tag: str) -> Iteration:
    # outputs of the previous iteration must not pass this iteration's checks
    for name in CHAIN_OUTPUTS:
        (ctx.data / name).unlink(missing_ok=True)
    it = Iteration(0.0, 0, 0.0, 0, 0, traced)
    for name, args in commands:
        argv = ["-c", ctx.data / "config.yaml", "-o", ctx.data, *args]
        log = ctx.scratch / f"{tag}-{name}.log"
        report = ctx.scratch / f"{tag}-{name}.json"
        if traced:
            argv = python_argv(HERE / "child.py", "cli", report, f"{tag}-{name}", *argv)
        else:
            argv = python_argv("-m", "anensolar.cli", *argv)
        code, wall, rss = ctx.run(argv, log)
        it.seconds += wall
        it.rss_mb = max(it.rss_mb, rss)
        it.attempted += 1
        if code != 0:
            it.failed += 1
            it.problems.append(f"{name} exited {code}: {_tail(log)}")
        elif traced:
            child = json.loads(report.read_text())
            child["rss_mb"] = rss
            it.children[name] = child
    return it


def _count_checks(it: Iteration, results):
    for name, problem in results:
        it.attempted += 1
        if problem is not None:
            it.failed += 1
            it.problems.append(f"check {name}: {problem}")


def chain_iteration(ctx: Context, traced: bool, tag: str) -> Iteration:
    it = run_commands(ctx, CHAIN, traced, tag)
    s = ctx.shape
    it.items = s["n_locations"] * (s["n_days"] - s["search_days"]) * s["n_leads"]
    if ctx.reference is None:
        _count_checks(it, [("reference", f"no reference recorded for variant {ctx.variant}")])
    else:
        _count_checks(it, checks.check_chain(ctx.data, ctx.reference, ctx.tolerance))
    return it


def weight_evaluations(data: Path, shape: dict, seed: int) -> int:
    """(weight vector, sample location) pairs optimize-weights --strategy RB
    scored: the program's grid over the predictors of weights.csv times the
    program's sample choice on the clustering the command wrote."""
    import numpy as np
    from anensolar import weights

    n_predictors = len(checks.report_rows(data / "weights.csv")[0]) - 1
    grid = weights.enumerate_weights(n_predictors, shape["step"])
    labels = np.array([int(row[1]) for row in checks.report_rows(data / "clustering.csv")[1:]])
    clustering = weights.RegimeClustering(labels, np.zeros((labels.max(), 0)), ())
    return len(grid.vectors) * len(weights.rb_sample_points(clustering, shape["total_samples"], seed))


def weight_iteration(ctx: Context, traced: bool, tag: str) -> Iteration:
    it = run_commands(ctx, [WEIGHT_COMMAND], traced, tag)
    if (ctx.data / "clustering.csv").exists() and (ctx.data / "weights.csv").exists():
        # inputs are generated from the variant, which is also the config's seed
        it.items = weight_evaluations(ctx.data, ctx.shape, ctx.variant)
    if ctx.reference is None:
        _count_checks(it, [("reference", f"no reference recorded for variant {ctx.variant}")])
    else:
        _count_checks(it, checks.check_weights(ctx.data, ctx.reference))
    return it


def fanout_iteration(ctx: Context, traced: bool, tag: str, seconds: float) -> Iteration:
    """One child process that submits the workflow repeatedly for ``seconds``."""
    report = ctx.scratch / f"{tag}-fanout.json"
    log = ctx.scratch / f"{tag}-fanout.log"
    argv = python_argv(HERE / "child.py", "fanout", ctx.data / "workflow.yaml", ctx.seed,
                       ctx.shape["fail_rate"], seconds, int(traced), report)
    code, wall, rss = ctx.run(argv, log)
    it = Iteration(0.0, 0, rss, 1, 0, traced)
    if code != 0:
        it.failed = 1
        it.problems.append(f"fanout child exited {code}: {_tail(log)}")
        return it
    child = json.loads(report.read_text())
    it.reps = child["reps"]
    it.children["fanout"] = child
    it.attempted = sum(rep["tasks"] for rep in it.reps)
    it.failed = sum(rep["failed"] for rep in it.reps)
    for rep in it.reps:
        it.problems.extend(rep["problems"])
    return it
