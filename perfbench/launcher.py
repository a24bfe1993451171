"""Start the benchmark's child processes from a small process.

A child's peak RSS as ``wait4`` reports it is at least the RSS of the process
that started it, because the kernel counts the memory the child had before it
replaced its image. The benchmark's own process holds numpy and generated
inputs, so it starts children through this process, which imports neither.

Reads one JSON request per line on standard input, {"argv", "log", "timeout"},
and answers each with one line, {"code", "wall_s", "rss_mb"}. Ends when its
input closes.
"""

from __future__ import annotations

import json
import sys

from common import run_process

if __name__ == "__main__":
    for line in sys.stdin:
        req = json.loads(line)
        code, wall, rss = run_process(req["argv"], req["log"], req["timeout"])
        print(json.dumps({"code": code, "wall_s": wall, "rss_mb": rss}), flush=True)
