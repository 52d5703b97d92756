import random

import pytest
from hypothesis import given, settings, strategies as st

from ckhopf.errors import (
    DanglingHalfEdge,
    EmptySubgraph,
    ExternalNotUnivalent,
    InvalidInput,
    NonPairEdge,
    NotInternalEdge,
    OverlappingPartition,
    ResourceBound,
)
from ckhopf.graphs import (
    EMPTY_GRAPH,
    GradeTriple,
    HalfEdgeGraph,
    automorphism_count,
    canonical_form,
    canonical_key,
    connected_components,
    contract_edge,
    contract_subgraph,
    disjoint_union,
    dot_graph,
    enumerate_by_grade,
    enumerate_graphs,
    extract_subgraph,
    free_propagator,
    graph,
    is_connected,
    is_isomorphic,
    relabel,
    validate,
)
from ckhopf.corpus import named_graph
from ckhopf.oracles import oracle_aut, oracle_enumerate, oracle_iso


# ---------------------------------------------------------------------------
# validation


def test_empty_description_gives_unit():
    assert validate([], [], [], []) == EMPTY_GRAPH
    assert not EMPTY_GRAPH.edges and EMPTY_GRAPH.n_empty == 0


def test_loop1_valid(loop1):
    assert loop1.grade() == GradeTriple(1, 1, 0)


def test_external_must_be_univalent():
    with pytest.raises(ExternalNotUnivalent):
        validate([1, 2], [(1, 2)], [(1, 2)], [0])


def test_non_pair_edge():
    with pytest.raises(NonPairEdge):
        validate([1, 2, 3], [(1, 2, 3)], [(1, 2, 3)], [])
    with pytest.raises(NonPairEdge):
        validate([1, 2], [(1, 1)], [(1, 2)], [])


def test_overlapping_partition():
    with pytest.raises(OverlappingPartition):
        validate([1, 2, 3, 4], [(1, 2), (2, 3)], [(1, 2, 3, 4)], [])
    with pytest.raises(OverlappingPartition):
        validate([1, 2], [(1, 2)], [(1,), (1, 2)], [])


def test_dangling_half_edge():
    with pytest.raises(DanglingHalfEdge):
        validate([1, 2, 3, 4], [(1, 2)], [(1, 2, 3, 4)], [])
    with pytest.raises(DanglingHalfEdge):
        validate([1, 2], [(1, 2)], [(1,)], [])


def test_free_propagator_is_admitted():
    fp = free_propagator()
    assert fp.grade() == GradeTriple(1, 0, 2)


def test_empty_vertices_are_legal_data():
    g = HalfEdgeGraph((), (), (), 2)
    assert g.grade() == GradeTriple(0, 0, 0)
    assert len(connected_components(g)) == 2


# ---------------------------------------------------------------------------
# canonical form and automorphisms


def test_canonical_form_invariant_under_relabeling(bubble):
    key, canon = canonical_form(bubble)
    swapped = relabel(bubble, {0: 3, 3: 0, 1: 2, 2: 1})
    assert canonical_form(swapped)[0] == key
    assert canonical_key(canon) == key


def test_loop1_vs_dot1_distinct(loop1):
    assert canonical_key(loop1) != canonical_key(named_graph("dot_1"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["bubble", "twoleg", "tadpole2", "theta", "dot_3"]))
def test_canonical_key_relabeling_property(seed, name):
    g = named_graph(name)
    rng = random.Random(seed)
    perm = list(range(g.n_half_edges))
    rng.shuffle(perm)
    g2 = relabel(g, dict(enumerate(perm)))
    assert canonical_key(g2) == canonical_key(g)


@pytest.mark.parametrize(
    "name,count",
    [("empty", 1), ("loop1", 2), ("bubble", 4), ("twoleg", 2), ("theta", 12), ("twoloop", 8)],
)
def test_automorphism_counts(name, count):
    g = named_graph(name)
    assert automorphism_count(g) == count
    assert oracle_aut(g) == count


def test_disjoint_union_aut_wreath(loop1):
    # brute force over all 4! bijections gives 8 for two identical loops
    g = disjoint_union(loop1, loop1)
    assert automorphism_count(g) == 8
    assert oracle_aut(g) == 8


# ---------------------------------------------------------------------------
# contraction


def test_contract_bubble_edge_gives_loop(bubble, loop1):
    out = contract_edge(bubble, bubble.internal_edges()[0])
    assert is_isomorphic(out, loop1)


def test_contract_loop_leaves_empty_vertex(loop1):
    out = contract_edge(loop1, (0, 1))
    assert out.edges == () and out.n_empty == 1
    assert not is_isomorphic(out, EMPTY_GRAPH)


def test_contract_requires_internal_edge(twoleg):
    external = twoleg.external_edges()[0]
    with pytest.raises(NotInternalEdge):
        contract_edge(twoleg, external)


def test_contract_empty_subgraph_is_identity(bubble):
    assert contract_subgraph(bubble, []) == bubble


def test_contract_order_independence(bubble):
    e1, e2 = bubble.internal_edges()
    seq1 = contract_edge(contract_edge(bubble, e1), contract_edge(bubble, e1).edges[0])
    seq2 = contract_edge(contract_edge(bubble, e2), contract_edge(bubble, e2).edges[0])
    assert is_isomorphic(seq1, seq2)
    assert is_isomorphic(seq1, contract_subgraph(bubble, [e1, e2]))


def test_contract_grade_law():
    for name in ("bubble", "theta", "tadpole2", "twoleg"):
        g = named_graph(name)
        n, m, k = g.grade()
        for e in g.internal_edges():
            out = contract_edge(g, e)
            assert out.grade() == GradeTriple(n - 1, m - 1, k)


# ---------------------------------------------------------------------------
# extraction


def test_extract_single_edge_of_bubble_is_twoleg(bubble, twoleg):
    gamma = [bubble.internal_edges()[0]]
    assert is_isomorphic(extract_subgraph(bubble, gamma), twoleg)


def test_extract_full_bubble_is_bubble(bubble):
    assert is_isomorphic(extract_subgraph(bubble, bubble.internal_edges()), bubble)


def test_extract_rejects_empty(bubble):
    with pytest.raises(EmptySubgraph):
        extract_subgraph(bubble, [])


def test_extract_rejects_external_edge(twoleg):
    with pytest.raises(NotInternalEdge):
        extract_subgraph(twoleg, [twoleg.external_edges()[0]])


def test_extract_legs_are_fresh_and_univalent():
    for name in ("bubble", "theta", "tadpole2"):
        g = named_graph(name)
        for e in g.internal_edges():
            out = extract_subgraph(g, [e])
            vertex_of = out.vertex_of()
            for h in out.external:
                assert len(out.vertices[vertex_of[h]]) == 1


# ---------------------------------------------------------------------------
# union and components


def test_union_with_unit(bubble):
    assert is_isomorphic(disjoint_union(bubble, EMPTY_GRAPH), bubble)


def test_union_commutes(loop1, bubble):
    a = disjoint_union(loop1, bubble)
    b = disjoint_union(bubble, loop1)
    assert is_isomorphic(a, b)
    assert a.grade() == GradeTriple(3, 3, 0)


def test_components(loop1, bubble):
    comps = connected_components(disjoint_union(loop1, bubble))
    keys = sorted(canonical_key(c) for c in comps)
    assert keys == sorted([canonical_key(loop1), canonical_key(bubble)])
    assert connected_components(EMPTY_GRAPH) == []
    assert len(connected_components(HalfEdgeGraph((), (), (), 1))) == 1
    assert is_connected(loop1)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_zero_edges():
    assert enumerate_graphs(0, "all") == [EMPTY_GRAPH]
    assert enumerate_graphs(0, "connected") == []


def test_enumerate_one_edge_connected():
    # brute force over all structures on two half-edges gives four classes
    got = {canonical_key(g) for g in enumerate_graphs(1, "connected")}
    want = {canonical_key(g) for g in oracle_enumerate(1)}
    assert got == want and len(got) == 4


def test_enumerate_connected_plus_requires_internal_edge():
    for n in (1, 2, 3):
        for g in enumerate_graphs(n, "connected_plus"):
            assert g.grade().m >= 1


def test_enumerate_matches_oracle_through_three_edges():
    for n in range(4):
        got = sorted(canonical_key(g) for g in enumerate_graphs(n, "all"))
        want = sorted(canonical_key(g) for g in oracle_enumerate(n))
        assert got == want


def test_enumerate_edge_count_postcondition():
    for n in range(4):
        for filt in ("all", "connected", "connected_plus"):
            for g in enumerate_graphs(n, filt):
                assert len(g.edges) == n
                assert g.n_empty == 0


def test_enumerate_budget():
    with pytest.raises(ResourceBound):
        enumerate_graphs(3, "all", budget=2)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(InvalidInput):
        enumerate_graphs(-1)
    with pytest.raises(InvalidInput):
        enumerate_graphs(2, "trees")


def test_budget_charged_on_cache_hits():
    # warm every enumeration cache the two calls read, then budget them
    enumerate_graphs(4, "all")
    enumerate_by_grade(4, 2, 2)
    with pytest.raises(ResourceBound):
        enumerate_by_grade(4, 2, 2, budget=1)
    with pytest.raises(ResourceBound):
        enumerate_graphs(4, "connected", budget=50)
    assert len(enumerate_graphs(4, "connected")) == 64


def test_validate_accepts_generators():
    vertices = [(0,), (1,)]
    g = validate(iter([0, 1]), iter([(0, 1)]), (v for v in vertices), iter([1]))
    assert g == validate([0, 1], [(0, 1)], vertices, [1])
    assert g.external == (1,)


def test_dot_graphs():
    for k in (1, 2, 3):
        d = dot_graph(k)
        assert d.grade() == GradeTriple(k, 0, k)
        assert is_connected(d)


# ---------------------------------------------------------------------------
# oracle agreement


def test_oracle_iso_agrees_with_keys_small():
    classes = [g for n in range(3) for g in enumerate_graphs(n, "all")]
    for g1 in classes:
        for g2 in classes:
            assert oracle_iso(g1, g2) == (canonical_key(g1) == canonical_key(g2))


def test_connected_m_zero_iff_n_le_k():
    for n in range(1, 4):
        for g in enumerate_graphs(n, "connected"):
            gr = g.grade()
            assert (gr.m == 0) == (gr.n <= gr.k)


def test_aut_wreath_product_law():
    # |Aut(g1 u g2)| = |Aut g1| |Aut g2| for distinct classes, doubled when equal
    classes = enumerate_graphs(2, "connected")
    for g1 in classes:
        for g2 in classes:
            u = disjoint_union(g1, g2)
            expect = automorphism_count(g1) * automorphism_count(g2)
            if canonical_key(g1) == canonical_key(g2):
                expect *= 2
            assert automorphism_count(u) == expect


def test_contract_exchange_any_order():
    # contracting e1 then (the image of) e2 matches the one-shot contraction
    for name in ("bubble", "theta", "twoloop"):
        g = named_graph(name)
        internal = g.internal_edges()
        for i, e1 in enumerate(internal):
            for e2 in internal[i + 1 :]:
                removed = sorted(e1)

                def shift(h):
                    return h - sum(1 for r in removed if r < h)

                once = contract_edge(g, e1)
                e2_image = tuple(sorted((shift(e2[0]), shift(e2[1]))))
                twice = contract_edge(once, e2_image)
                assert is_isomorphic(twice, contract_subgraph(g, [e1, e2]))


def test_concurrent_canonicalization_deterministic():
    # pure functions with memo caches must be safe for concurrent callers
    from concurrent.futures import ThreadPoolExecutor

    import ckhopf.graphs as G

    G._canonical.cache_clear()
    pool = [g for n in range(3) for g in enumerate_graphs(n, "all")]
    expect = [canonical_key(g) for g in pool]
    G._canonical.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as ex:
        got = list(ex.map(canonical_key, pool))
    assert got == expect


def test_enumerate_four_edges_matches_oracle():
    got = sorted(canonical_key(g) for g in enumerate_graphs(4, "all"))
    want = sorted(canonical_key(g) for g in oracle_enumerate(4))
    assert got == want and len(got) == 281


def test_canonicalization_fuzz_against_oracle():
    rng = random.Random(42)

    def random_graph(n_edges):
        halves = list(range(2 * n_edges))
        edges = [(2 * i, 2 * i + 1) for i in range(n_edges)]
        rng.shuffle(halves)
        parts = []
        i = 0
        while i < len(halves):
            size = rng.randint(1, min(4, len(halves) - i))
            parts.append(halves[i : i + size])
            i += size
        univalent = [idx for idx, p in enumerate(parts) if len(p) == 1]
        ext = [idx for idx in univalent if rng.random() < 0.5]
        return validate(list(range(2 * n_edges)), edges, parts, ext)

    pool = [random_graph(rng.randint(1, 5)) for _ in range(150)]
    for g in pool:
        if g.n_half_edges <= 10:
            assert oracle_aut(g) == automorphism_count(g)
        perm = list(range(g.n_half_edges))
        rng.shuffle(perm)
        assert canonical_key(relabel(g, dict(enumerate(perm)))) == canonical_key(g)
    for i in range(0, len(pool), 3):
        for j in range(i, min(i + 12, len(pool))):
            g1, g2 = pool[i], pool[j]
            if g1.n_half_edges != g2.n_half_edges or g1.n_half_edges > 10:
                continue
            assert oracle_iso(g1, g2) == (canonical_key(g1) == canonical_key(g2))


def test_budget_env_var(monkeypatch):
    import ckhopf.graphs as G

    monkeypatch.setenv("CKHOPF_BUDGET", "3")
    G._GRADE_CACHE.clear()
    with pytest.raises(ResourceBound):
        enumerate_graphs(3, "all")
    monkeypatch.delenv("CKHOPF_BUDGET")
    assert len(enumerate_graphs(3, "all")) == 69


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
def test_budget_env_var_malformed(monkeypatch, value):
    from ckhopf.errors import InvalidInput
    from ckhopf.graphs import default_budget

    monkeypatch.setenv("CKHOPF_BUDGET", value)
    with pytest.raises(InvalidInput):
        default_budget()
