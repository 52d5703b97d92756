"""ckhopf benchmark: cold-process workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Every pass of a workload runs in a fresh single-threaded child process with
cold memo caches, because every command-line user pays for cold caches.  Runs
are sequential; the child's PYTHONHASHSEED is derived from the seed.

``--trace 0`` repeats cold passes until ``--seconds`` would be exceeded (at
least one) and reports the end-to-end metrics as medians over passes.  Set-up
is also timed in extra set-up-only children, and ``setup_s`` is the median of
all set-up samples.  ``--trace 1`` makes one untraced and one traced pass and
reports per-layer metrics from the traced one; the tracing overhead is the
difference of their wall times, and their per-op result digests must agree.
``--workload all`` runs every workload untraced and prints a summary.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ["verify-default", "hopf-prelie-e4", "tensor-roundtrip", "canon-symmetric"]
# Workloads whose ops are single computations a user waits on; op latency is
# reported for these only, since a verify pass has too few checks for a tail.
OP_LATENCY = {"tensor-roundtrip", "canon-symmetric"}
SETUP_CHILDREN = 10
DEADLINE_S = 170.0  # a run must end within 180 s

SUITES = [
    "hopf",
    "grading",
    "duality",
    "prelie",
    "invariants",
    "bialgebra",
    "main-theorem",
    "roundtrip",
    "oracles",
]
# memo caches defined by ckhopf modules at the time the benchmark was written;
# memo.total.* also counts any memo added later.
MEMOS = [
    "chords.enumerate_chords",
    "corpus.default_corpus",
    "corpus.name_by_key",
    "corpus.named_graph",
    "graphs._canonical",
    "hopf._antipode_connected",
    "hopf._aut_key",
    "hopf._coproduct_connected",
    "hopf._coproduct_graph",
    "hopf._is_connected_key",
    "hopf._star_basis",
    "hopf._subgraph_matches",
    "insertion._insertion_basis",
    "poly._union_key",
    "poly.graph_from_key",
    "tensors._phi_cached",
]


class ChildFailed(Exception):
    pass


def child_env(seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("CKHOPF_", "PYTHON"))}
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def run_child(mode: str, workload: str, seed: int, started: float, extra=()) -> dict:
    """One child process; returns its JSON with ``setup_s`` added."""
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise ChildFailed("no time left for another child")
    cmd = [sys.executable, str(BENCH / "child.py"), mode, workload, str(seed), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(seed), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done_at"] - spawned
    return result


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile with at least ten
    operations beyond it; the slowest op when a pass has ten or fewer."""
    return n - 11 if n > 10 else n - 1


def tail_label(n: int) -> str:
    return f"p{100 * (tail_index(n) + 1) // n}"


def latency_stats(ops: list) -> tuple[float, float]:
    lat = sorted(op[0] for op in ops)
    return statistics.median(lat) * 1e3, lat[tail_index(len(lat))] * 1e3


def count_ops(passes: list[dict], lost_passes: int) -> tuple[int, int]:
    """(attempted, failed).  An op fails when wrong, raising, or when its result
    differs from the same op in the first pass; a lost pass fails all its ops."""
    reference = [op[2] for op in passes[0]["ops"]] if passes else []
    attempted = failed = 0
    for p in passes:
        attempted += len(p["ops"])
        same_shape = len(p["ops"]) == len(reference)
        for i, (_lat, ok, digest) in enumerate(p["ops"]):
            if not ok or not same_shape or digest != reference[i]:
                failed += 1
    lost = lost_passes * max(len(reference), 1)
    return attempted + lost, failed + lost


def env_info() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed_run(workload: str, seed: int, seconds: float, started: float) -> tuple[dict, dict]:
    setups: list[float] = []
    errors: list[str] = []
    for _ in range(SETUP_CHILDREN):
        try:
            setups.append(run_child("setup", workload, seed, started)["setup_s"])
        except ChildFailed as exc:
            errors.append(str(exc))
    passes: list[dict] = []
    lost = 0
    first = time.monotonic()
    while True:
        try:
            passes.append(run_child("run", workload, seed, started))
        except ChildFailed as exc:
            errors.append(str(exc))
            lost += 1
        now = time.monotonic()
        per_pass = (now - first) / (len(passes) + lost)
        if now - first + per_pass > seconds or now - started + 1.5 * per_pass > DEADLINE_S:
            break
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if not passes:
        raise ChildFailed(f"no pass of {workload} completed")
    setups.extend(p["setup_s"] for p in passes)
    attempted, failed = count_ops(passes, lost)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    info = {
        "passes": len(passes),
        "lost_passes": lost,
        "setup_samples": len(setups),
        "ops_per_pass": len(passes[0]["ops"]),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not errors,
    }
    if workload in OP_LATENCY:
        # Printed, not in the result line: on a VM whose speed drifts, one
        # op's time moves by a fifth between identical runs, so the tail of
        # one 20 s pass is too unsteady for a bound.
        lat = [latency_stats(p["ops"]) for p in passes]
        info["op_tail_percentile"] = tail_label(len(passes[0]["ops"]))
        info["printed"] = {
            "op_p50_ms": (statistics.median(x[0] for x in lat), "ms"),
            "op_tail_ms": (statistics.median(x[1] for x in lat), "ms"),
        }
    return metrics, info


def traced_run(workload: str, seed: int, started: float) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"{workload}.spans"
    plain = run_child("run", workload, seed, started)
    traced = run_child("trace", workload, seed, started, extra=[str(span_file)])
    attempted, failed = count_ops([plain, traced], 0)
    layers = traced["layers"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in spans.LAYERS:
        metrics[f"{name}.calls"] = (layers[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (layers[f"{name}.self_s"], "s")
    metrics["graphs.enumerate.classes"] = (layers["graphs.enumerate.classes"], "count")
    metrics["hopf.coproduct.terms"] = (layers["hopf.coproduct.terms"], "count")
    metrics["hopf.star_product.incl_s"] = (layers["hopf.star_product.incl_s"], "s")
    metrics["hopf.star_product.match_ratio"] = (layers["hopf.star_product.match_ratio"], "ratio")
    for suite in SUITES:
        metrics[f"verify.{suite}.s"] = (plain["suite_seconds"].get(suite, 0.0), "s")
    memos = plain["memos"]
    for memo in MEMOS:
        size, misses = memos.get(memo, (0, 0))
        metrics[f"memo.{memo}.currsize"] = (size, "count")
        metrics[f"memo.{memo}.misses"] = (misses, "count")
    metrics["memo.total.currsize"] = (sum(v[0] for v in memos.values()), "count")
    metrics["memo.total.misses"] = (sum(v[1] for v in memos.values()), "count")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    info = {
        "untraced_wall_s": plain["wall_s"],
        "spans_file": str(span_file.relative_to(ROOT)),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
    }
    return metrics, info


def result_line(metrics: dict, info: dict) -> str:
    return json.dumps(
        {
            "correct": info["correct"],
            "attempted": info["attempted"],
            "failed": info["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def print_summary(workload: str, metrics: dict, info: dict) -> None:
    frac = info["failed"] / info["attempted"] if info["attempted"] else 1.0
    print(f"# {workload}: ops_failed_frac {frac:.6g} ({info['failed']}/{info['attempted']})")
    skip = ("attempted", "failed", "printed")
    print(f"# {workload}: " + json.dumps({k: v for k, v in info.items() if k not in skip}))
    for name, (value, unit) in {**metrics, **info.get("printed", {})}.items():
        print(f"#   {name} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "ckhopf" / "__init__.py").is_file():
        print(f"no ckhopf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(env_info()))
    try:
        if args.workload == "all":
            ok = True
            for workload in WORKLOADS:
                metrics, info = timed_run(workload, args.seed, args.seconds, time.monotonic())
                print_summary(workload, metrics, info)
                ok = ok and info["correct"]
            return 0 if ok else 1
        if args.trace:
            metrics, info = traced_run(args.workload, args.seed, started)
        else:
            metrics, info = timed_run(args.workload, args.seed, args.seconds, started)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(args.workload, metrics, info)
    print(result_line(metrics, info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
