"""Child processes of the benchmark.

``child.py cli OUT_JSON RUN_ID COMMAND...`` runs one anensolar command in
process through ``anensolar.cli.main`` with span wrappers installed, after
timing the import of ``anensolar.cli`` on its own, and writes what it saw to
OUT_JSON.

``child.py fanout WORKFLOW SEED FAIL_RATE SECONDS TRACE OUT_JSON`` submits the
workflow file again and again for SECONDS on an in-process backend that fails
attempts by a seeded hash, checks every run, and writes the results.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import spans


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli(out_json: str, run_id: str, argv: list) -> int:
    start = time.perf_counter()
    import anensolar.cli as anensolar_cli
    import_s = time.perf_counter() - start
    recorder = spans.Recorder(run_id)
    recorder.install()
    start = time.perf_counter()
    code = anensolar_cli.main(argv)
    command_s = time.perf_counter() - start
    with open(out_json, "w") as fh:
        json.dump({"code": code, "import_s": import_s, "command_s": command_s,
                   "rss_mb": _rss_mb(), "absent": recorder.absent, "spans": recorder.spans}, fh)
    return code


def fanout(workflow_path: str, seed: int, fail_rate: float, seconds: float, trace: bool,
           out_json: str) -> int:
    import fanout_checks
    from anensolar import workflow

    template = workflow.load_workflow_file(workflow_path)
    recorder = spans.Recorder(f"fanout-{seed}")
    if trace:
        recorder.install()
    backend = fanout_checks.ChaosBackend(seed, fail_rate)
    reps = []
    begin = time.perf_counter()
    # start another run only when at least half of it fits in the window
    while not reps or time.perf_counter() - begin + reps[-1]["seconds"] / 2 <= seconds:
        wf = fanout_checks.fresh_copy(template)
        wall0 = time.time()
        start = time.perf_counter()
        handle = workflow.submit(wf, backend)
        final = handle.wait(150)
        elapsed = time.perf_counter() - start
        wall1 = time.time()
        records = handle.events()
        rep = fanout_checks.check(wf, final, handle.task_states(), records, seed, fail_rate)
        rep["seconds"] = elapsed
        if trace:
            rep["layer"] = fanout_checks.layer_stats(wf, records, wall0, wall1)
        del wf, handle, records
        reps.append(rep)
    with open(out_json, "w") as fh:
        json.dump({"reps": reps, "rss_mb": _rss_mb(), "absent": recorder.absent,
                   "spans": recorder.spans}, fh)
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3], sys.argv[4:]))
    if mode == "fanout":
        path, seed, rate, seconds, trace, out = sys.argv[2:8]
        sys.exit(fanout(path, int(seed), float(rate), float(seconds), trace == "1", out))
    sys.exit(f"unknown mode {mode!r}")
