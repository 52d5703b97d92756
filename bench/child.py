"""One cold run of one workload, in a fresh single-threaded process.

    python3 bench/child.py {setup|run} <workload> <seed>
    python3 bench/child.py trace <workload> <seed> <spans-path>

``setup`` imports ckhopf and builds the seeded inputs, then exits; ``run``
also runs the ops; ``trace`` runs them with spans around every layer call.
The last line of standard output is one JSON object.  Times named ``*_at``
are ``time.monotonic()`` readings, which the parent shares on Linux.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    sys.path.insert(0, str(SRC))
    import ckhopf

    if Path(ckhopf.__file__).resolve().parent != SRC / "ckhopf":
        print(f"imported ckhopf from {ckhopf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    build, run = workloads.WORKLOADS[workload]
    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        tracer.install(spans.load_all_modules())
    inputs = build(seed)
    out = {"setup_done_at": time.monotonic()}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    suite_seconds: dict[str, float] = {}
    ops, wall = run(inputs, suite_seconds)
    out["wall_s"] = wall
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ops"] = [[op.latency_s, op.ok, op.digest] for op in ops]
    out["suite_seconds"] = suite_seconds
    if tracer is None:
        out["memos"] = spans.read_memos(spans.load_all_modules())
    else:
        out["layers"] = tracer.metrics()
        tracer.write(argv[3])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
