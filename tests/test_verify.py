import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from ckhopf import hopf, insertion, memo, verify
from ckhopf.cli import main
from ckhopf.corpus import connected_corpus
from ckhopf.errors import InvalidInput, ResourceBound
from ckhopf.graphs import graph, to_json_dict
from ckhopf.poly import GraphPoly, grade_of, product
from ckhopf.serialize import dumps
from ckhopf.tensors import phi
from ckhopf.verify import run_suite, suite_names


def test_suite_names():
    names = suite_names()
    assert "hopf" in names and "all" in names


def test_unknown_suite_is_invalid_input():
    with pytest.raises(InvalidInput):
        run_suite("bogus")


def test_report_structure():
    rep = run_suite("grading", max_edges=2)
    assert rep.passed
    doc = rep.to_json_dict()
    assert doc["suite"] == "grading"
    assert doc["params"]["max_edges"] == 2
    assert all("name" in c and "passed" in c for c in doc["checks"])
    assert [c["instances"] for c in doc["checks"]] == [c.instances for c in rep.checks]
    text = rep.to_text()
    assert "PASS" in text and "overall" in text
    assert f"{rep.checks[0].instances} instances" in text


def test_report_bit_for_bit_reproducible():
    a = dumps(run_suite("invariants", max_edges=2, seed=13).to_json_dict())
    b = dumps(run_suite("invariants", max_edges=2, seed=13).to_json_dict())
    assert a == b


def test_full_subgraph_term_diagnostic_recorded():
    rep = run_suite("hopf", max_edges=1, full_subgraph_term=True)
    names = [c.name for c in rep.checks]
    assert "coassociativity[full-subgraph-term]" in names
    diag = next(c for c in rep.checks if c.name.endswith("[full-subgraph-term]"))
    assert not diag.gating
    # the alternate convention is not coassociative; the default must still pass
    assert not diag.passed
    assert diag.counterexample is not None
    assert rep.passed


def test_failed_check_carries_counterexample():
    rep = run_suite("hopf", max_edges=1, full_subgraph_term=True)
    for c in rep.checks:
        if not c.passed:
            assert c.counterexample is not None or c.details


def test_unexpected_exception_fails_only_its_check(monkeypatch):
    from ckhopf import verify

    def broken(graphs):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "_check_counit", broken)
    rep = run_suite("hopf", max_edges=1)
    by_name = {c.name: c for c in rep.checks}
    assert list(by_name) == [
        "coassociativity",
        "coproduct-algebra-map",
        "counit-axiom",
        "antipode-axiom",
        "pairing-orthogonality",
    ]
    assert by_name["counit-axiom"].details == "error: RuntimeError: boom"
    assert not by_name["counit-axiom"].passed
    assert all(c.passed for name, c in by_name.items() if name != "counit-axiom")
    assert not rep.passed


def test_phi_psi_on_image_skips_graphs_above_the_dimension(monkeypatch):
    # psi is 0 on bigrade N > n by definition, while phi(rose5, 4) is not: the
    # predicate fails rose5, so the suite must not hand it such a graph
    rose5 = graph(edges=[(2 * i, 2 * i + 1) for i in range(5)], vertices=[tuple(range(10))])
    assert not phi(rose5, 4).is_zero()
    assert verify._check_phi_psi(rose5, 4) is not None
    checked = []
    monkeypatch.setattr(verify, "_check_phi_psi", lambda g, dim: checked.append((g, dim)))
    assert run_suite("roundtrip", max_edges=3, dim=2).passed
    assert checked and all(len(g.edges) <= 2 and not g.n_empty and dim == 2 for g, dim in checked)


def test_roundtrip_reports_skipped_graphs():
    rep = run_suite("roundtrip", max_edges=2, dim=1)
    assert rep.passed
    check = next(c for c in rep.checks if c.name == "phi-psi-identity-on-image")
    assert check.details == "skipped 20 graphs with more edges than dim 1"


def test_run_records_the_first_counterexample():
    report = verify.VerificationReport("demo", {})
    check = verify._run(report, "thirds", range(1, 9), lambda i: {"i": i} if i % 3 == 0 else None)
    assert report.checks == [check]
    assert not check.passed and check.counterexample == {"i": 3}
    assert check.instances == 3
    empty = verify._run(report, "none", [], lambda i: {"i": i})
    assert empty.passed and empty.instances == 0


def test_run_fails_only_its_check_when_its_instances_raise():
    def instances():
        yield 1
        raise ResourceBound("enumeration exceeded budget of 1 steps")

    report = verify.VerificationReport("demo", {})
    check = verify._run(report, "lazy", instances(), lambda i: None, gating=False)
    assert not check.passed and not check.gating and check.counterexample is None
    assert check.details == "error: ResourceBound: enumeration exceeded budget of 1 steps"
    assert check.instances == 1


def test_docs_names_one_graph_or_several(loop1, twoleg):
    assert verify._docs(loop1, n=2) == {"graph": to_json_dict(loop1), "n": 2}
    doc = verify._docs(loop1, twoleg, loop1, side="left")
    assert list(doc) == ["g1", "g2", "g3", "side"]
    assert doc["g2"] == to_json_dict(twoleg)


def test_main_theorem_passes_on_the_empty_window():
    # no connected graph with internal edges has at most 0 edges: nothing to draw
    assert run_suite("main-theorem", max_edges=0).passed
    assert main(["verify", "--suite", "all", "--max-edges", "0"]) == 0


@pytest.mark.parametrize("param", ["max_edges", "dim"])
def test_negative_window_is_invalid_input(param):
    with pytest.raises(InvalidInput, match=param):
        run_suite("all", **{param: -1})


def test_exhaustive_right_symmetry_reaches_the_diagonal(monkeypatch):
    # the exhaustive check skips (a, c, b) once it has run (a, b, c), but it
    # must keep b == c: a fault in inserting z o z, for the last z of the pool
    # whose z o z is nonzero and outside the pool, shows only on (a, z, z)
    small = [GraphPoly.from_graph(g) for g in connected_corpus(3) if g.grade().m <= 2]
    product = insertion.insertion_product
    squares = (product(z, z) for z in reversed(small))
    zz = next(p for p in squares if not p.is_zero() and p not in small)

    def faulty(a, b):
        if b == zz:
            raise ValueError("fault on the diagonal")
        return product(a, b)

    monkeypatch.setattr(insertion, "insertion_product", faulty)
    check = run_suite("prelie").checks[0]
    assert check.name == "associator-right-symmetry-exhaustive"
    assert check.details == "error: ValueError: fault on the diagonal"


@pytest.mark.parametrize("max_edges", [2, 3])
def test_every_gating_check_covers_an_instance(max_edges):
    report = run_suite("all", max_edges=max_edges)
    assert report.passed
    assert [c.name for c in report.checks if c.gating and not c.instances] == []


def test_small_windows_pass_and_report_their_vacuous_checks():
    # a window of 0 or 1 is valid: its empty checks pass and read 0
    vacuous = {
        0: [
            "connected-m0-iff-n-le-k",
            "star-with-K-is-union",
            "star-commutator-vs-bracket",
            "star-dual-to-coproduct",
            "associator-right-symmetry-exhaustive",
            "insertion-grade-law",
            "phi-multiplicative",
            "phi-primitive-on-connected",
            "delta-cross-terms",
            "delta-counit-compatibility",
            "phi-equivariance-insertion",
            "prelie-projection-compatibility",
            "tensor-associator-right-symmetry",
        ],
        # the first pair of either check has 2 edges
        1: ["star-commutator-vs-bracket", "star-dual-to-coproduct"],
    }
    for max_edges, names in vacuous.items():
        report = run_suite("all", max_edges=max_edges)
        assert report.passed
        assert [c.name for c in report.checks if not c.instances] == names


def _fraction_rank(rows) -> int:
    """Gauss-Jordan elimination over Fraction, as an oracle for verify._rank."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _random_matrix(rng: random.Random) -> list[list[int]]:
    """A product of random r x k and k x c matrices, so often rank deficient,
    with a zero row and a zero column inserted now and then."""
    r, k, c = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
    a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
    b = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if b else [0] * c for row in a]
    if rows and rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), [0] * c)
    if rng.random() < 0.3:
        j = rng.randint(0, c)
        rows = [row[:j] + [0] + row[j:] for row in rows]
    return rows


def test_rank_matches_fraction_elimination():
    rng = random.Random(1968)
    deficient = 0
    for _ in range(400):
        rows = _random_matrix(rng)
        before = [list(r) for r in rows]
        rank = verify._rank(rows)
        assert rank == _fraction_rank(rows)
        assert rows == before
        deficient += rank < min(len(rows), len(rows[0]) if rows else 0)
    assert deficient > 50
    assert verify._rank([]) == verify._rank([[]]) == verify._rank([[0, 0], [0, 0]]) == 0
    assert verify._rank([[0, 2], [0, 4], [1, 0]]) == 2


def _star_basis_without_correction():
    """The recursion of ``hopf._star_basis`` without its (A <- a) * kb term."""

    @lru_cache(maxsize=None)
    def star(ka, kb):
        if not ka:
            return GraphPoly({kb: Fraction(1)})
        a, rest = ka[0], ka[1:]
        tail = star(rest, kb)
        lead = product(GraphPoly({(a,): Fraction(1)}), tail)
        return lead if hopf._inert(a) else lead + hopf._grafted(tail, a)

    return star


_GRAFTED, _BRACKET = hopf._grafted, hopf.lie_bracket
_STAR_DUAL, _WITH_K = "star-dual-to-coproduct", "star-with-K-is-union"
_COMMUTATOR, _CONCRETE = "star-commutator-vs-bracket", "concrete-twoleg-star-loop1"


def _grafted_into_inert_hosts(p, a):
    return insertion.insertion_product(p, GraphPoly({(a,): Fraction(1)}))


def _grafts_of_at_most_2_edges(p, a):
    return GraphPoly((k, c) for k, c in _GRAFTED(p, a).terms() if grade_of(k).n <= 2)


# name: (replacements in ``hopf``, the failing duality checks at max_edges 1,
# 2, 3 and 4).  Each duality check compares the star product with a side
# built without it, and the mutants show which check sees which fault first.
DUALITY_MUTANTS = {
    # a known gap: the correction is nonzero only for a first argument with a
    # part that has a leg and an internal edge (2 edges) beside another part
    # with an internal edge, and a nonempty second argument: 4 edges at least
    "star-basis-without-correction": (
        {"_star_basis": _star_basis_without_correction()},
        [[], [], [], [_STAR_DUAL]],
    ),
    "grafted-into-inert-hosts": (
        {"_grafted": _grafted_into_inert_hosts},
        [[], [_WITH_K], [_WITH_K, _STAR_DUAL], [_WITH_K, _STAR_DUAL]],
    ),
    "nothing-inert": (
        {"_inert": lambda part: False},
        [[], [_WITH_K, _STAR_DUAL], [_WITH_K, _STAR_DUAL], [_WITH_K, _STAR_DUAL]],
    ),
    "bracket-zero": (
        {"lie_bracket": lambda a, b: GraphPoly()},
        [[], [], [_COMMUTATOR], [_COMMUTATOR]],
    ),
    "bracket-sign-swapped": (
        {"lie_bracket": lambda a, b: _BRACKET(b, a)},
        [[], [], [_COMMUTATOR], [_COMMUTATOR]],
    ),
    "grafts-doubled": (
        {"_grafted": lambda p, a: _GRAFTED(p, a).scale(2)},
        [[_CONCRETE], [_CONCRETE], *[[_CONCRETE, _COMMUTATOR, _STAR_DUAL]] * 2],
    ),
    "every-part-inert": (
        {"_inert": lambda part: True},
        [[_CONCRETE], [_CONCRETE], *[[_CONCRETE, _COMMUTATOR, _STAR_DUAL]] * 2],
    ),
    # the guest's legs join the host's half-edges, so a graft has fewer edges
    # than its pair: a 3-edge graft first appears in the window at 4
    "grafts-above-2-edges-dropped": (
        {"_grafted": _grafts_of_at_most_2_edges},
        [[], [], [], [_COMMUTATOR, _STAR_DUAL]],
    ),
}


@pytest.mark.parametrize("name", sorted(DUALITY_MUTANTS))
def test_duality_mutant_dies_at_its_window(monkeypatch, name):
    replacements, killers = DUALITY_MUTANTS[name]
    for attr, fake in replacements.items():
        monkeypatch.setattr(hopf, attr, fake)
    for max_edges, expected in enumerate(killers, 1):
        # run_suite empties the memos when the suite ends, not before
        memo.clear(memo.SUITE)
        report = run_suite("duality", max_edges=max_edges)
        assert [c.name for c in report.checks if not c.passed] == expected, max_edges
