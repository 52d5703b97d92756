"""Benchmark workloads: seeded inputs, timed operations and correctness checks.

This module runs inside the child process, after ``ckhopf`` is importable.
Every workload returns a list of ``Op`` records; an op fails when it gives a
wrong result or raises, and a failure never stops the remaining ops.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass

import ckhopf
from ckhopf import verify
from ckhopf.graphs import relabel
from ckhopf.serialize import poly_to_doc


@dataclass
class Op:
    latency_s: float
    ok: bool
    digest: str


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# verify-default, hopf-prelie-e4


# Checks per suite at this commit.  ``run_suite`` catches only CKHopfError, so
# when another exception escapes a suite its report is lost; every check of
# that suite then counts as failed.
EXPECTED_CHECKS = {
    "hopf": 5,
    "grading": 2,
    "duality": 5,
    "prelie": 4,
    "invariants": 5,
    "bialgebra": 4,
    "main-theorem": 3,
    "roundtrip": 3,
    "oracles": 3,
}


@dataclass
class VerifyInputs:
    suites: list[tuple[str, int, int]]
    seed: int


def _verify_default(seed: int) -> VerifyInputs:
    # The suites of ``run_suite("all", 3, 4, seed)``, one call each, so that an
    # exception escaping one suite does not hide the reports of the others.
    names = [s for s in verify.suite_names() if s != "all"]
    return VerifyInputs([(s, 3, 4) for s in names], seed)


def _hopf_prelie_e4(seed: int) -> VerifyInputs:
    return VerifyInputs([("hopf", 4, 4), ("prelie", 4, 4)], seed)


def run_verify(inp: VerifyInputs, suite_seconds: dict[str, float]) -> tuple[list[Op], float]:
    ops: list[Op] = []
    start = time.perf_counter()
    for name, max_edges, dim in inp.suites:
        t0 = time.perf_counter()
        try:
            report = verify.run_suite(name, max_edges=max_edges, dim=dim, seed=inp.seed)
        except Exception as exc:  # noqa: BLE001 - any escape fails the suite's checks
            elapsed = time.perf_counter() - t0
            suite_seconds[name] = suite_seconds.get(name, 0.0) + elapsed
            lost = max(EXPECTED_CHECKS.get(name, 1), 1)
            tag = _digest(f"{name}: {type(exc).__name__}: {exc}")
            ops.extend(Op(elapsed, False, tag) for _ in range(lost))
            continue
        for check in report.checks:
            suite_seconds[name] = suite_seconds.get(name, 0.0) + check.elapsed
            if not check.gating:
                continue
            doc = {
                "suite": name,
                "name": check.name,
                "passed": check.passed,
                "details": check.details,
                "counterexample": check.counterexample,
            }
            ops.append(Op(check.elapsed, check.passed, _digest(json.dumps(doc, sort_keys=True))))
    return ops, time.perf_counter() - start


# ---------------------------------------------------------------------------
# tensor-roundtrip


def _random_relabel(g, rng: random.Random):
    perm = list(range(g.n_half_edges))
    rng.shuffle(perm)
    return relabel(g, dict(enumerate(perm)))


@dataclass
class RoundTripInputs:
    cases: list[tuple[object, object, int]]  # (class representative, relabelled copy, n)


def _tensor_roundtrip(seed: int) -> RoundTripInputs:
    rng = random.Random(seed)
    cases = []
    for n in (3, 4):
        for g in ckhopf.enumerate_graphs(n, "connected"):
            cases.append((g, _random_relabel(g, rng), n))
    return RoundTripInputs(cases)


def run_roundtrip(inp: RoundTripInputs, suite_seconds: dict[str, float]) -> tuple[list[Op], float]:
    results = []
    start = time.perf_counter()
    for _g, g2, n in inp.cases:
        t0 = time.perf_counter()
        try:
            out = ckhopf.psi(ckhopf.phi(g2, n))
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            out = exc
        results.append((time.perf_counter() - t0, out))
    wall = time.perf_counter() - start
    ops = []
    for (g, _g2, _n), (latency, out) in zip(inp.cases, results):
        if isinstance(out, Exception):
            ops.append(Op(latency, False, _digest(f"{type(out).__name__}: {out}")))
            continue
        ok = out == ckhopf.GraphPoly.from_graph(g)
        ops.append(Op(latency, ok, _digest(json.dumps(poly_to_doc(out)))))
    return ops, wall


# ---------------------------------------------------------------------------
# canon-symmetric


def _simple_graph(n_vertices: int, edges, legs=()):
    """Half-edge form of a simple graph, with one leg per vertex in ``legs``."""
    halves = [[] for _ in range(n_vertices)]
    pairs, leg_vertices = [], []
    h = 0
    for u, v in edges:
        halves[u].append(h)
        halves[v].append(h + 1)
        pairs.append((h, h + 1))
        h += 2
    for u in legs:
        halves[u].append(h)
        pairs.append((h, h + 1))
        leg_vertices.append((h + 1,))
        h += 2
    vertices = [tuple(v) for v in halves] + leg_vertices
    return ckhopf.graph(pairs, vertices, [v[0] for v in leg_vertices])


def _cycle_edges(n: int, offset: int = 0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def _cycle(n: int):
    return _simple_graph(n, _cycle_edges(n))


def _cycle_with_legs(n: int):
    return _simple_graph(n, _cycle_edges(n), legs=range(n))


def _prism(n: int):
    rungs = [(i, n + i) for i in range(n)]
    return _simple_graph(2 * n, _cycle_edges(n) + _cycle_edges(n, n) + rungs)


def _cube3():
    edges = [(i, i ^ (1 << b)) for i in range(8) for b in range(3) if i < i ^ (1 << b)]
    return _simple_graph(8, edges)


def _petersen():
    outer = _cycle_edges(5)
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return _simple_graph(10, outer + inner + spokes)


# (name, build function, |Aut| in closed form).  Harder members of these families
# (Q3 with legs, C10 with legs, C16) do not finish in a run at this commit.
SYMMETRIC_FAMILY = (
    [(f"C{n}", lambda n=n: _cycle(n), 2 * n) for n in range(8, 13)]
    + [(f"prism{n}", lambda n=n: _prism(n), 4 * n) for n in (5, 6)]
    + [("Q3", _cube3, 48), ("petersen", _petersen, 120)]
    + [(f"C{n}+legs", lambda n=n: _cycle_with_legs(n), 2 * n) for n in range(5, 8)]
)
RELABELLINGS = 4


@dataclass
class CanonInputs:
    cases: list[tuple[str, object, int]]  # (family member, relabelled graph, expected |Aut|)


def _canon_symmetric(seed: int) -> CanonInputs:
    rng = random.Random(seed)
    cases = []
    for name, build, aut in SYMMETRIC_FAMILY:
        g = build()
        cases.extend((name, _random_relabel(g, rng), aut) for _ in range(RELABELLINGS))
    return CanonInputs(cases)


def run_canon(inp: CanonInputs, suite_seconds: dict[str, float]) -> tuple[list[Op], float]:
    results = []
    start = time.perf_counter()
    for _name, h, _aut in inp.cases:
        t0 = time.perf_counter()
        try:
            out = (ckhopf.automorphism_count(h), ckhopf.canonical_key(h))
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            out = exc
        results.append((time.perf_counter() - t0, out))
    wall = time.perf_counter() - start
    keys: dict[str, set] = {}
    for (name, _h, _aut), (_lat, out) in zip(inp.cases, results):
        if not isinstance(out, Exception):
            keys.setdefault(name, set()).add(out[1])
    ops = []
    for (name, _h, aut), (latency, out) in zip(inp.cases, results):
        if isinstance(out, Exception):
            ops.append(Op(latency, False, _digest(f"{type(out).__name__}: {out}")))
            continue
        ok = out[0] == aut and len(keys[name]) == 1
        ops.append(Op(latency, ok, _digest(f"{out[0]}:{out[1].decode('ascii')}")))
    return ops, wall


# ---------------------------------------------------------------------------

# name -> (build inputs from the seed, run the ops).  A runner returns its ops
# and the seconds from its first call into ckhopf to its last result, and adds
# the seconds each verify suite reports to ``suite_seconds``.
WORKLOADS = {
    "verify-default": (_verify_default, run_verify),
    "hopf-prelie-e4": (_hopf_prelie_e4, run_verify),
    "tensor-roundtrip": (_tensor_roundtrip, run_roundtrip),
    "canon-symmetric": (_canon_symmetric, run_canon),
}
