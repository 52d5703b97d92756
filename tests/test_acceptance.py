"""Acceptance gate: the nine exit criteria, exact rational arithmetic, zero
tolerance.  Each test prints one pass/fail line (run with ``pytest -s``).

All criteria run at desk scale: every isomorphism class with <= 3 edges plus
the named corpus, seeded randomness extending pre-Lie checks to 4 edges.
"""

import time

import pytest

from ckhopf.verify import run_suite

MAX_EDGES = 3
DIM = 4
SEED = 7


def _run(criterion: int, suite: str, description: str, **kwargs):
    t0 = time.perf_counter()
    report = run_suite(suite, max_edges=MAX_EDGES, dim=DIM, seed=SEED, **kwargs)
    elapsed = time.perf_counter() - t0
    status = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.1f}s) {description}")
    failed = [c for c in report.checks if c.gating and not c.passed]
    assert not failed, "\n" + "\n".join(
        f"{c.name}: {c.details} {c.counterexample}" for c in failed
    )
    return elapsed


def test_criterion_1_hopf_axioms():
    # coassociativity, algebra map, antipode axiom on every class <= 3 edges
    elapsed = _run(1, "hopf", "coassociativity and Hopf axioms, <= 3 edges")
    assert elapsed < 120


def test_criterion_2_grading_laws():
    _run(2, "grading", "internal-edge bidegree zero, total degree in [n, 3n]")


def test_criterion_3_duality_insertion():
    # the star product, built from the insertion product, against the
    # coproduct on every pair of classes with <= 3 edges in all, against the
    # Lie bracket on those of connected graphs, and on the concrete instance
    # twoleg * loop1 - twoleg u loop1 = 2 bubble
    _run(3, "duality", "star product vs insertion duality on the full window")


def test_criterion_4_prelie_axiom():
    # exhaustive <= 2 internal edges, 200 seeded random 4-edge triples, Jacobi
    _run(4, "prelie", "pre-Lie associator symmetry and Jacobi")


def test_criterion_5_invariant_theory():
    # (2N-1)!! chord counts, beta(z) identity matrix, full beta rank
    _run(5, "invariants", "chord diagram counts and dual bases")


def test_criterion_6_bialgebra_morphism():
    # phi multiplicative; primitivity of connected graphs at m = n = 3
    _run(6, "bialgebra", "phi is a bialgebra morphism")


def test_criterion_7_main_theorem():
    # phi(G1 o G2) = phi(G1) o phi(G2) for pairs of total edges N <= 4, n = N
    elapsed = _run(7, "main-theorem", "pre-Lie isomorphism on enumerated pairs")
    assert elapsed < 300


def test_criterion_8_round_trips():
    # psi(phi(G, n)) = G for edges <= n <= 4; projection compatibility
    _run(8, "roundtrip", "psi inverts phi; projections commute")


def test_criterion_9_oracle_agreement():
    _run(9, "oracles", "canonical form and |Aut| match brute-force search")
