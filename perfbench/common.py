"""Shared settings of the benchmark: workload shapes, paths, seeds and the
helpers that start and reap child processes."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

# Generated inputs and outputs live here while a run lasts; the spans of the
# last traced run of each workload are kept in OUT.
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Inputs are generated from ``seed % VARIANTS``: record.py recorded the
# reference outputs of every variant on the commit that added the benchmark,
# so a run can check its outputs bit for bit whatever seed it is given.
VARIANTS = 16

WORKLOADS = ("forecast_chain", "weight_search", "workflow_fanout")

SHAPES = {
    "full": {
        "forecast_chain": {
            "n_locations": 10, "n_days": 365, "n_leads": 24, "search_days": 270,
            "members": 21, "half_window": 1, "missing_share": 0.01,
        },
        "weight_search": {
            "n_locations": 400, "n_days": 120, "n_leads": 24, "search_days": 90,
            "opt_days": 20, "step": 0.2, "clusters": 2, "total_samples": 3,
            "members": 21, "half_window": 1,
        },
        "workflow_fanout": {
            "pipelines": 100, "stages": 3, "tasks": 10, "worker_budget": 2,
            "fail_rate": 0.1, "max_retries": 8,
        },
    },
    "tiny": {
        "forecast_chain": {
            "n_locations": 2, "n_days": 60, "n_leads": 24, "search_days": 40,
            "members": 21, "half_window": 1, "missing_share": 0.01,
        },
        "weight_search": {
            "n_locations": 12, "n_days": 50, "n_leads": 24, "search_days": 40,
            "opt_days": 10, "step": 0.5, "clusters": 2, "total_samples": 3,
            "members": 21, "half_window": 1,
        },
        "workflow_fanout": {
            "pipelines": 5, "stages": 2, "tasks": 4, "worker_budget": 2,
            "fail_rate": 0.1, "max_retries": 8,
        },
    },
}

# The chain a user runs on a forecast archive, one CLI process per step.
CHAIN = (
    ("sigma", ("sigma",)),
    ("anen", ("anen",)),
    ("simulate_ensemble", ("simulate", "--source", "ensemble")),
    ("simulate_analysis", ("simulate", "--source", "analysis")),
    ("verify", ("verify",)),
)
WEIGHT_COMMAND = ("optimize_weights", ("optimize-weights", "--strategy", "RB"))


def variant(seed: int) -> int:
    return seed % VARIANTS


def child_env() -> dict:
    """Environment of every child: the program from source, one math thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    # the CLI reads ANENSOLAR_* variables as config overrides
    for key in list(env):
        if key.startswith("ANENSOLAR_"):
            del env[key]
    return env


def run_process(argv, log_path, timeout=170.0):
    """Run one child to completion; return (exit code, wall seconds, peak RSS MB).

    The child is reaped with ``wait4`` so its own peak RSS is read, not the
    running maximum over every child this process has had. Its standard error
    goes to ``log_path``.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Launcher:
    """Runs children through launcher.py; ``run`` has the signature of run_process."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=child_env(),
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, log_path, timeout=170.0):
        request = {"argv": [str(a) for a in argv], "log": str(log_path), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        reply = json.loads(reply)
        return reply["code"], reply["wall_s"], reply["rss_mb"]

    def close(self):
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


def python_argv(*args) -> list:
    return [sys.executable, *map(str, args)]


def median(values):
    """Median, or None for no values; counts stay whole numbers."""
    if not values:
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())
