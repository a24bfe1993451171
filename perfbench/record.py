"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Run it on the commit whose outputs are the reference (the commit that added
the benchmark); it writes the digests and summaries of every input variant into
expected.json, then makes one traced run of each workload at full size and
seed 0 and records its exact counts there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import CHAIN, EXPECTED, HERE, SHAPES, SRC, VARIANTS, WEIGHT_COMMAND, WORK, child_env

EXACT_UNITS = ("count", "bytes")


def record_outputs(expected: dict, size: str) -> None:
    import checks
    import gen
    from workloads import Context, run_commands

    for workload, commands, summarize in (("forecast_chain", CHAIN, checks.chain_reference),
                                          ("weight_search", [WEIGHT_COMMAND], checks.weights_reference)):
        refs = expected["references"].setdefault(size, {}).setdefault(workload, {})
        for v in range(VARIANTS):
            work = WORK / f"record-{size}-{workload}-{v}"
            shutil.rmtree(work, ignore_errors=True)
            ctx = Context(workload, size, v, v, SHAPES[size][workload], work / "data",
                          work / "scratch", None, expected["tolerance"])
            ctx.data.mkdir(parents=True)
            ctx.scratch.mkdir()
            gen.GENERATORS[workload](ctx.data, v, ctx.shape)
            it = run_commands(ctx, commands, False, "record")
            if it.failed:
                sys.exit(f"{size} {workload} variant {v}: {it.problems}")
            refs[str(v)] = summarize(ctx.data)
            shutil.rmtree(work)
            print(f"recorded {size} {workload} variant {v}", flush=True)


def record_counts(expected: dict, benchmark: dict) -> None:
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    counts = {}
    for workload in ("forecast_chain", "weight_search", "workflow_fanout"):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, env=child_env(), check=True,
        ).stdout.strip().splitlines()[-1]
        result = json.loads(out)
        if not result["correct"]:
            sys.exit(f"traced {workload} run is not correct: {out}")
        counts[workload] = {name: m["value"] for name, m in result["metrics"].items()
                            if units[name] in EXACT_UNITS and m["value"]}
    expected["exact_counts_at_seed"] = {"seed": 0, "size": "full", "counts": counts}


def main() -> int:
    sys.path.insert(0, str(SRC))
    expected = json.loads(EXPECTED.read_text())
    for size in SHAPES:
        record_outputs(expected, size)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    record_counts(expected, json.loads((HERE.parent / "BENCHMARK.json").read_text()))
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
