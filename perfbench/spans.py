"""In-memory spans around the public functions of each anensolar layer.

A traced child process installs the wrappers, runs one command, and writes
the spans at the end. A wrapper replaces the function at every ``anensolar.*``
module attribute bound to it, because ``cli`` and ``driver`` import functions
by name. A target that no longer exists is recorded as absent and the run
goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import threading
import time


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _search_counts(a, result):
    # L * T * J * candidates: the (target, candidate) pairs the search scores
    test, search = _bounds(a["test_range"]), _bounds(a["search_range"])
    n_cand = (test[1] if a["config"].operational else search[1]) - search[0]
    forecasts = a["forecasts"]
    return {"pairs": len(forecasts.locations) * (test[1] - test[0])
            * len(forecasts.lead_times) * n_cand}


def _bounds(r):
    return (r.start, r.stop) if isinstance(r, range) else (int(r[0]), int(r[1]))


def _path_bytes(a, result):
    return {"bytes": _file_bytes(a["path"])}


def _solar_counts(a, result):
    return {"cells": len(a["locations"]) * len(a["init_times"]) * len(a["lead_times"])}


def _pv_counts(a, result):
    # modules * L * I * J * M power values
    return {"member_cells": int(result.values.size)}


def _cluster_counts(a, result):
    return {"n": len(a["features"])}


# (span name, module, attribute, counter). Attribute may be Class.method.
TARGETS = (
    ("anen.sigma", "anensolar.anen", "compute_sigma", None),
    ("anen.search", "anensolar.anen", "search_analogs", _search_counts),
    ("anen.gather", "anensolar.anen", "build_multivariate_ensemble", None),
    ("tensorio.read", "anensolar.tensorio", "read_tensor", _path_bytes),
    ("tensorio.write", "anensolar.tensorio", "write_tensor", _path_bytes),
    ("tensorio.write", "anensolar.tensorio", "write_extended", _path_bytes),
    ("coredata.align", "anensolar.coredata", "align_observations", None),
    ("solar.precompute", "anensolar.solar", "precompute_solar", _solar_counts),
    ("pvchain.simulate", "anensolar.pvchain", "simulate_ensemble", _pv_counts),
    ("verify.aggregate", "anensolar.verify", "aggregate", None),
    ("verify.crps_field", "anensolar.verify", "crps_field", None),
    ("weights.cluster", "anensolar.weights", "hierarchical_cluster", _cluster_counts),
    ("weights.optimize", "anensolar.weights", "optimize_weights", None),
    ("driver.eval", "anensolar.driver", "WeightObjective.evaluate", None),
    ("synth.generate", "anensolar.synth", "generate", None),
    ("workflow.submit", "anensolar.workflow", "submit", None),
    ("workflow.wait", "anensolar.workflow", "WorkflowRun.wait", None),
)

# spans whose peak-RSS growth is recorded
RSS_SPANS = {"verify.aggregate"}


class Recorder:
    """Spans (name, start, end, parent, run id), kept in memory by the process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.absent: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, name, fn, counter):
        recorder = self
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else -1
            with recorder._lock:
                index = len(recorder.spans)
                span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                        "run": recorder.run_id}
                recorder.spans.append(span)
            stack.append(index)
            rss0 = _rss_mb() if name in RSS_SPANS else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if rss0 is not None:
                span["rss_growth_mb"] = _rss_mb() - rss0
            if counter is not None:
                try:
                    span.update(counter(signature.bind(*args, **kwargs).arguments, result))
                except Exception as exc:  # a changed signature must not stop the run
                    span["count_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target; return the targets that no longer exist."""
        for name, module_name, attr, counter in targets:
            try:
                module = importlib.import_module(module_name)
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = getattr(holder, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}:{attr}")
                continue
            wrapper = self._wrap(name, original, counter)
            if owner:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "anensolar" or mod_name.startswith("anensolar.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return self.absent
