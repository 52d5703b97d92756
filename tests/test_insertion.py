import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from ckhopf import graphs, insertion, memo
from ckhopf.corpus import connected_corpus, named_graph
from ckhopf.errors import NotInternalVertex, ValencyMismatch
from ckhopf.graphs import (
    EMPTY_VERTEX,
    GradeTriple,
    HalfEdgeGraph,
    canonical_key,
    disjoint_union,
    dot_graph,
    graph,
    is_isomorphic,
    monomial_key,
    relabel,
)
from ckhopf.insertion import _insertion_basis, associator, insert_at, insertion_product, prelie_check
from ckhopf.poly import GraphPoly, linear_combination


def P(g):
    return GraphPoly.from_graph(g)


def test_insert_twoleg_into_loop1_gives_bubble(loop1, twoleg, bubble):
    v = loop1.internal_vertices()[0]
    ext = twoleg.external_edges()
    for sigma in (dict(zip(v, ext)), dict(zip(v, reversed(ext)))):
        out = insert_at(loop1, v, sigma, twoleg)
        assert is_isomorphic(out, bubble)


def test_insert_valency_mismatch(loop1, twoleg):
    v = twoleg.internal_vertices()[0]
    with pytest.raises(ValencyMismatch):
        insert_at(twoleg, v, {}, loop1)


def test_insert_not_internal_vertex(twoleg, loop1):
    with pytest.raises(NotInternalVertex):
        insert_at(twoleg, (4,), {}, loop1)  # (4,) is an external vertex


def test_insert_degenerate_zero_valent(loop1):
    host = disjoint_union(loop1, HalfEdgeGraph((), (), (), 1))
    out = insert_at(host, (), {}, loop1)
    assert is_isomorphic(out, disjoint_union(loop1, loop1))


def test_insertion_product_examples(loop1, twoleg, bubble):
    assert insertion_product(P(loop1), P(twoleg)) == P(bubble).scale(2)
    assert insertion_product(P(twoleg), P(loop1)).is_zero()
    assert insertion_product(P(loop1), P(loop1)).is_zero()


def test_insertion_grade_law():
    plus = connected_corpus(3)
    for g1 in plus:
        for g2 in plus:
            n1, _, k1 = g1.grade()
            n2, _, k2 = g2.grade()
            for g, _ in insertion_product(P(g1), P(g2)).graphs():
                assert len(g.edges) == n1 + n2 - k2
                assert g.grade().k == k1


def test_prelie_check_trivial(bubble, twoleg):
    assert prelie_check(P(bubble), P(twoleg), P(twoleg))


def test_prelie_check_concrete(loop1, twoleg, bubble):
    a, b = P(loop1), P(twoleg)
    assert prelie_check(a, b, b)
    # a one-vertex host has no pair of distinct sites
    assert associator(a, b, b).is_zero()
    # 2 ordered pairs of distinct sites, each twoleg grafted in 2 ways: the 4-cycle
    cycle4 = graph(
        edges=[(0, 1), (2, 3), (4, 5), (6, 7)], vertices=[(1, 2), (3, 4), (5, 6), (7, 0)]
    )
    assert associator(P(bubble), b, b) == P(cycle4).scale(8)


def test_prelie_exhaustive_small():
    small = [g for g in connected_corpus(2)]
    polys = [P(g) for g in small]
    for a in polys:
        for b in polys:
            for c in polys:
                assert prelie_check(a, b, c)


def test_insertion_results_connected(loop1, twoleg):
    # inserting one connected graph into another yields connected graphs
    from ckhopf.graphs import is_connected

    for g, _ in insertion_product(P(loop1), P(twoleg)).graphs():
        assert is_connected(g)


def test_insert_graph_with_edge_between_legs():
    # the free propagator's one edge joins two external vertices, so no
    # vertex of it can receive the half-edges of the insertion site
    freeprop = named_graph("freeprop")
    for name in ("dot_1", "dumbbell", "dot_2", "bubble"):
        assert insertion_product(P(named_graph(name)), P(freeprop)).is_zero()
    dumbbell = named_graph("dumbbell")
    site = dumbbell.internal_vertices()[0]
    with pytest.raises(ValencyMismatch):
        insert_at(dumbbell, site, {site[0]: freeprop.edges[0]}, freeprop)


def test_pairs_with_no_graft_make_no_memo_entry(loop1, twoleg):
    key = lambda name: monomial_key(named_graph(name))
    # an edge between two legs of g2; no site of g2's valency in g1
    legs_joined = (key("dumbbell"), key("freeprop"))
    no_site = (key("loop1"), key("bubble"))
    memo.clear()
    for k1, k2 in (legs_joined, no_site):
        basis = [GraphPoly({k: Fraction(1)}) for k in (k1, k2)]
        assert insertion_product(*basis).is_zero()
    freeprop = P(named_graph("freeprop"))
    assert insertion_product(P(named_graph("dumbbell")) + P(loop1), freeprop).is_zero()
    p = insertion_product(P(loop1), P(twoleg))
    assert insertion_product(P(loop1), P(twoleg).scale(2) + P(named_graph("bubble"))) == p.scale(2)
    # only (loop1, twoleg) grafts, so it alone enters the pair memo
    assert _insertion_basis.cache_info().currsize == 1
    # called directly, a pair without a graft is the empty sum
    assert _insertion_basis(*legs_joined) == () == _insertion_basis(*no_site)


def test_disconnected_host_builds_no_disjoint_union(monkeypatch, loop1, twoleg, bubble):
    host = P(disjoint_union(loop1, disjoint_union(twoleg, EMPTY_VERTEX)))
    assert len(next(iter(host._terms))) == 3
    guests = [P(g) for g in (twoleg, dot_graph(2), loop1, bubble)]
    want = [insertion_product(host, g) for g in guests]
    calls = []
    union = graphs.disjoint_union
    monkeypatch.setattr(graphs, "disjoint_union", lambda g1, g2: calls.append(1) or union(g1, g2))
    memo.clear(memo.SUITE)
    for _ in range(3):
        assert [insertion_product(host, g) for g in guests] == want
    # the host's vertex multigraph is built part by part, once per key
    assert not calls
    assert insertion._graft_data.cache_info().misses == 1 + len(guests)


def _checked_insertion_sum(g1, g2):
    """g1 o g2 through the public, checked insert_at: each internal vertex of
    g1 of the right valency, listed in every order and matched in turn to the
    external edges of g2, and each empty vertex of g1 for a leg-less g2."""
    ext_edges = g2.external_edges()
    out = Counter()
    if len(g2.external) != len(ext_edges):
        return GraphPoly()
    for v in g1.internal_vertices():
        if len(v) == len(ext_edges):
            for site in permutations(v):
                out[monomial_key(insert_at(g1, site, dict(zip(site, ext_edges)), g2))] += 1
    if not ext_edges:
        for _ in range(g1.n_empty):
            out[monomial_key(insert_at(g1, (), {}, g2))] += 1
    return GraphPoly({key: Fraction(m) for key, m in out.items()})


# a loop at a vertex that also carries two legs: a valency-4 site
LOOP_TWO_LEGS = graph(
    edges=[(0, 1), (2, 3), (4, 5)], vertices=[(0, 1, 2, 4), (3,), (5,)], external=[3, 5]
)
# one internal edge with two legs at each end
H_FOUR_LEGS = graph(
    edges=[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)],
    vertices=[(0, 2, 4), (1, 6, 8), (3,), (5,), (7,), (9,)],
    external=[3, 5, 7, 9],
)


def _sites(g1, g2):
    """The internal vertices of g1 with as many half-edges as g2 has external
    edges, each as (carries a loop, carries a leg)."""
    e = len(g2.external_edges())
    partner, ext = g1.partner(), g1.external_set()
    return [
        (any(partner[h] in v for h in v), any(partner[h] in ext for h in v))
        for v in g1.internal_vertices()
        if len(v) == e
    ]


def _two_legs_on_a_vertex(g):
    partner, ext = g.partner(), g.external_set()
    return any(sum(partner[h] in ext for h in v) >= 2 for v in g.internal_vertices())


def _graft_cases():
    """Every pair of connected_corpus(3) graphs and a host with two empty
    vertices; a seeded sample of the connected_corpus(4, plus=False) pairs in
    which g2 fits a site; and hosts with a loop or a leg at a valency-4 site,
    receiving graphs with two legs on one vertex."""
    plus = connected_corpus(3)
    # two empty vertices, so each counts in the 0-valent branch
    host = disjoint_union(named_graph("loop1"), disjoint_union(EMPTY_VERTEX, EMPTY_VERTEX))
    cases = [(g1, g2) for g1 in (*plus, host) for g2 in plus]
    four = connected_corpus(4, plus=False)
    fitting = [(g1, g2) for g1 in four for g2 in four if _sites(g1, g2)]
    cases += random.Random(18).sample(fitting, 150)
    hosts = [named_graph(name) for name in ("twoloop", "tadpole2", "twoleg")] + [LOOP_TWO_LEGS]
    guests = (dot_graph(3), dot_graph(4), LOOP_TWO_LEGS, H_FOUR_LEGS)
    cases += [(g1, g2) for g1 in hosts for g2 in guests]
    return cases


def _basis(g1, g2):
    # the (monomial key, count) pairs come flattened into one tuple
    flat = _insertion_basis(monomial_key(g1), monomial_key(g2))
    pairs = list(zip(flat[::2], flat[1::2]))
    assert len(flat) == 2 * len(pairs)
    assert all(type(key) is tuple and type(m) is int and m > 0 for key, m in pairs)
    return GraphPoly({key: Fraction(m) for key, m in pairs})


def test_unchecked_grafts_match_the_checked_insertion_sum():
    covered = Counter()
    for g1, g2 in _graft_cases():
        want = _checked_insertion_sum(g1, g2)
        assert _basis(g1, g2) == want, (g1, g2)
        if want.is_zero():
            continue
        sites = _sites(g1, g2)
        covered["zero-valent"] += not g2.external
        covered["valency 4"] += len(g2.external) == 4
        covered["loop at the site"] += any(loop for loop, _ in sites)
        covered["leg at the site"] += any(leg for _, leg in sites)
        covered["two legs on one vertex"] += _two_legs_on_a_vertex(g2)
    assert len(covered) == 5 and all(covered.values()), covered


def test_insertion_basis_counts_every_bijection():
    # each eligible site gives e! bijections and each empty vertex one graft
    # of a leg-less g2; a g2 with an edge between two legs fits nowhere
    for g1, g2 in _graft_cases():
        e = len(g2.external)
        fits = len(g2.external_edges()) == e
        want = fits * (len(_sites(g1, g2)) * factorial(e) + (0 if e else g1.n_empty))
        assert sum(c for _, c in _basis(g1, g2).terms()) == want, (g1, g2)


def test_insertion_basis_leaves_the_canonical_memo_alone():
    plus = connected_corpus(3)
    keys = [monomial_key(g) for g in connected_corpus(4)]
    pairs = [(k1, k2) for k1 in keys for k2 in keys]

    def products():
        memo.clear(memo.SUITE)
        before = graphs._canonical.cache_info().currsize
        out = [_insertion_basis(k1, k2) for k1, k2 in pairs]
        assert graphs._canonical.cache_info().currsize == before
        return out

    memo.clear()
    cold = products()
    # warm both memos with the canonical forms of relabelled labelled grafts
    grafts = [
        insert_at(g1, v, dict(zip(v, g2.external_edges())), g2)
        for g1 in plus
        for g2 in plus
        for v in g1.internal_vertices()
        if len(v) == len(g2.external) == len(g2.external_edges())
    ]
    assert grafts
    rng = random.Random(18)
    for g in grafts:
        labels = list(g.half_edges)
        rng.shuffle(labels)
        monomial_key(relabel(g, dict(zip(g.half_edges, labels))))
    assert products() == cold


def test_integer_sums_match_the_bilinear_checked_sum(twoleg, loop1):
    # (dot_2, twoleg) gives 1/2 * 5 * 2 twoleg and (twoleg, dot_2) gives
    # 5 * -1/4 * 4 twoleg: they cancel.  The host with three parts receives
    # the 2-leg guests at three sites and loop1 at its empty vertex.
    dot2 = dot_graph(2)
    host = disjoint_union(loop1, disjoint_union(twoleg, EMPTY_VERTEX))
    a = [(dot2, Fraction(1, 2)), (twoleg, Fraction(5)), (host, Fraction(-3, 4))]
    b = [(twoleg, Fraction(5)), (dot2, Fraction(-1, 4)), (loop1, Fraction(1, 2))]
    pa = linear_combination(((P(g), c) for g, c in a), GraphPoly())
    pb = linear_combination(((P(g), c) for g, c in b), GraphPoly())
    got = insertion_product(pa, pb)
    want = linear_combination(
        ((_checked_insertion_sum(g1, g2), c1 * c2) for g1, c1 in a for g2, c2 in b), GraphPoly()
    )
    assert got == want
    assert insertion_product(P(dot2), P(twoleg)).coeff(twoleg) == 2
    assert got.coeff_key(monomial_key(twoleg)) == 0 and monomial_key(twoleg) not in got._terms
    # loop1 grafted at the host's empty vertex uses it up
    assert got.coeff(disjoint_union(loop1, disjoint_union(loop1, twoleg))) != 0
    assert all(type(c) is Fraction for _, c in got.terms())
    assert any(c.denominator > 1 for _, c in got.terms())
