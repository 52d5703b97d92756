"""Canonical labelling: pinned keys, closed-form |Aut| and an independent cross-check.

Every basis key of H is a canonical key, so the keys themselves are pinned by a
hash, and |Aut| is checked against closed forms and, where networkx is
installed, against its VF2 matcher on the simple graphs.
"""

import hashlib
import random
from math import factorial

import pytest

from ckhopf import graphs, memo
from ckhopf.corpus import connected_corpus
from ckhopf.graphs import (
    HalfEdgeGraph,
    _minimal_code,
    _multigraph,
    _rebuild_canonical,
    _refine_classes,
    automorphism_count,
    canonical_form,
    canonical_key,
    dot_graph,
    enumerate_graphs,
    graph,
    graph_from_key,
    monomial_key,
    relabel,
)
from ckhopf.insertion import insertion_product
from ckhopf.oracles import oracle_aut
from ckhopf.poly import GraphPoly


def _simple_graph(n_vertices, edges, legs=()):
    """Half-edge form of a simple graph, with one leg per vertex in ``legs``."""
    halves = [[] for _ in range(n_vertices)]
    pairs, leg_ends = [], []
    h = 0
    for u, v in edges:
        halves[u].append(h)
        halves[v].append(h + 1)
        pairs.append((h, h + 1))
        h += 2
    for u in legs:
        halves[u].append(h)
        pairs.append((h, h + 1))
        leg_ends.append(h + 1)
        h += 2
    return graph(pairs, [tuple(v) for v in halves] + [(e,) for e in leg_ends], leg_ends)


def _cycle_edges(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def _prism_edges(n):
    return _cycle_edges(n) + _cycle_edges(n, n) + [(i, n + i) for i in range(n)]


def _cube_edges(d):
    return [(i, i ^ (1 << b)) for i in range(2**d) for b in range(d) if i < i ^ (1 << b)]


def _petersen_edges():
    return (
        _cycle_edges(5)
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)]
    )


# (name, vertex count, edges, one leg per vertex, |Aut| in closed form)
FAMILY = (
    [(f"C{n}", n, _cycle_edges(n), False, 2 * n) for n in (*range(8, 13), 16)]
    + [(f"prism{n}", 2 * n, _prism_edges(n), False, 4 * n) for n in (5, 6, 8)]
    + [("Q3", 8, _cube_edges(3), False, 48), ("Q4", 16, _cube_edges(4), False, 384)]
    + [("petersen", 10, _petersen_edges(), False, 120)]
    + [(f"C{n}+legs", n, _cycle_edges(n), True, 2 * n) for n in (5, 6, 7, 10)]
)


# The symmetric family of the canonicalization benchmark, one leg per vertex
# on the small cycles.
SYMMETRIC_FAMILY = (
    [_simple_graph(n, _cycle_edges(n)) for n in range(8, 13)]
    + [_simple_graph(2 * n, _prism_edges(n)) for n in (5, 6)]
    + [_simple_graph(8, _cube_edges(3)), _simple_graph(10, _petersen_edges())]
    + [_simple_graph(n, _cycle_edges(n), legs=range(n)) for n in range(5, 8)]
)


def _relabelled(g, rng):
    perm = list(range(g.n_half_edges))
    rng.shuffle(perm)
    return relabel(g, dict(enumerate(perm)))


# sha256 of the sorted (canonical key, |Aut|) pairs of a seeded relabelling of
# every class with at most 5 edges and of every member of the symmetric family,
# captured before the minimal-code search was rewritten: the keys of H, and so
# every output, must not move.
PINNED_SHA256 = "4bd3ad6638439ffc55729a4a0f79940feebd3b09abb56803c56699d09cdf783d"


def test_keys_and_automorphism_counts_are_pinned():
    rng = random.Random(2012)
    pool = [g for n in range(6) for g in enumerate_graphs(n, "all")] + SYMMETRIC_FAMILY
    assert len(pool) == 1519 + 12
    pool = [_relabelled(g, rng) for g in pool]
    lines = sorted(
        canonical_key(g).decode("ascii") + " " + str(automorphism_count(g)) for g in pool
    )
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == PINNED_SHA256


@pytest.mark.parametrize("name,n_vertices,edges,legs,aut", FAMILY, ids=[f[0] for f in FAMILY])
def test_closed_form_automorphism_counts(name, n_vertices, edges, legs, aut):
    g = _simple_graph(n_vertices, edges, legs=range(n_vertices) if legs else ())
    rng = random.Random(n_vertices)
    keys = set()
    for _ in range(3):
        h = _relabelled(g, rng)
        assert automorphism_count(h) == aut
        keys.add(canonical_key(h))
    assert len(keys) == 1


def test_automorphism_counts_match_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    for name, n_vertices, edges, legs, aut in FAMILY:
        if legs:
            continue
        simple = nx.Graph(edges)
        count = sum(1 for _ in GraphMatcher(simple, simple).isomorphisms_iter())
        assert count == automorphism_count(_simple_graph(n_vertices, edges)) == aut, name


def _small_insertion_results():
    """The insertion results of two connected_corpus(3) graphs that the
    oracle can check, by canonical key."""
    plus = [GraphPoly.from_graph(g) for g in connected_corpus(3)]
    return {
        canonical_key(g): g
        for p1 in plus
        for p2 in plus
        for g, _ in insertion_product(p1, p2).graphs()
        if len(g.edges) <= 6  # the oracle's 12 half-edges
    }


def _largest_twin_class(g):
    """The size of the largest refinement class of g when every class is a
    set of twins, where the canonical form skips its search; else 0."""
    V, ext, loops, mult = _multigraph(g)
    classes = _refine_classes(V, ext, loops, mult)
    for cell in classes:
        for w in cell[1:]:
            if any(mult[cell[0]][x] != mult[w][x] for x in range(V) if x not in (cell[0], w)):
                return 0
    return max(map(len, classes), default=0)


def test_discrete_refinement_agrees_with_the_oracle():
    # insertion results mix graphs whose refinement is discrete, where the
    # ordering is forced and |Aut| of the multigraph is 1, with graphs searched
    results = _small_insertion_results()
    rng = random.Random(14)
    discrete = 0
    for key, g in results.items():
        V, ext, loops, mult = _multigraph(g)
        discrete += len(_refine_classes(V, ext, loops, mult)) == V
        copies = [_relabelled(g, rng) for _ in range(3)]
        assert automorphism_count(copies[0]) == oracle_aut(g), key
        assert {canonical_key(h) for h in copies} == {key}
    assert 0 < discrete < len(results)


def test_twin_class_shortcut_agrees_with_the_oracle():
    # refinement leaves twin classes of two or more vertices in these, so the
    # code is read off the class order and |Aut| of the multigraph is the
    # product of the class sizes' factorials; the cycles need the search
    twins = [dot_graph(k) for k in range(2, 7)] + [
        _simple_graph(3, _cycle_edges(3)),  # K3
        _simple_graph(2, [(0, 1)] * 2, legs=[0, 0, 0]),
        _simple_graph(3, [(0, 1), (0, 2)], legs=[0, 0, 0]),
        _simple_graph(2, [(0, 1), (1, 1)], legs=[0, 0, 0, 0]),
        _simple_graph(1, [(0, 0)], legs=[0, 0, 0, 0]),
    ]
    searched = [_simple_graph(n, _cycle_edges(n)) for n in (4, 5, 6)]
    inserted = list(_small_insertion_results().values())
    assert all(_largest_twin_class(g) >= 2 for g in twins)
    assert all(_largest_twin_class(g) == 0 for g in searched)
    assert {_largest_twin_class(g) >= 2 for g in inserted} == {True, False}
    rng = random.Random(15)
    for g in twins + searched + inserted:
        copies = [_relabelled(g, rng) for _ in range(3)]
        assert automorphism_count(copies[0]) == oracle_aut(g), g
        assert {canonical_key(h) for h in copies} == {canonical_key(g)}, g
    petersen = _simple_graph(10, _petersen_edges())
    assert _largest_twin_class(petersen) == 0 and automorphism_count(petersen) == 120


def test_results_do_not_depend_on_which_labelling_ran_first():
    # the memos are shared by every labelling of a class, so whichever
    # labelling fills them first must leave the same answers for the others
    rng = random.Random(4)
    pool = [g for n in range(5) for g in enumerate_graphs(n, "all")]
    copies = [_relabelled(g, rng) for g in pool]

    def canonicalize_in_turn(first, second):
        memo.clear()
        out = []
        for a, b in zip(first, second):
            for g in (a, b):
                out.append((*canonical_form(g), automorphism_count(g), monomial_key(g)))
        return out

    copy_first = canonicalize_in_turn(copies, pool)
    class_first = canonicalize_in_turn(pool, copies)
    assert copy_first[0::2] == class_first[1::2]
    assert copy_first[1::2] == class_first[0::2]
    assert copy_first[0::2] == copy_first[1::2]


def _rose(n):
    """One vertex carrying n loops."""
    return graph([(2 * i, 2 * i + 1) for i in range(n)], [tuple(range(2 * n))])


def test_codes_with_counts_past_255_pack_into_wider_items():
    roses = {n: _rose(n) for n in (255, 256, 257)}
    edges = [(2 * i, 2 * i + 1) for i in range(256)]
    parallel = graph(edges, [tuple(range(0, 512, 2)), tuple(range(1, 512, 2))])
    pool = [*roses.values(), parallel]
    keys = [canonical_key(g) for g in pool]
    assert len(set(keys)) == len(pool)
    for n, g in roses.items():
        assert automorphism_count(g) == 2**n * factorial(n)
    assert automorphism_count(parallel) == 2 * factorial(256)
    codes = []
    for g, key in zip(pool, keys):
        mg = _multigraph(g)
        code, _ = _minimal_code(*mg, _refine_classes(*mg))
        assert _rebuild_canonical(code, 0) == graph_from_key(key)
        codes.append(code)
    # one byte per value up to 255; past it a flat tuple, which no bytes code equals
    assert [type(code) for code in codes] == [bytes, tuple, tuple, tuple]
    assert codes[0] == bytes([0, 255]) and codes[1] == (0, 256)
    assert len(set(codes)) == len(codes)


def test_canonical_graph_is_the_graph_of_its_key():
    # the code memo keeps no graph: canonical_form parses the key back, and
    # that graph is the one the code rebuilds, on every class up to 5 edges
    rng = random.Random(22)
    pool = [g for n in range(6) for g in enumerate_graphs(n, "all")]
    assert len(pool) == 1519
    codes = set()
    for g in pool:
        copy = _relabelled(g, rng)
        key, canon = canonical_form(copy)
        mg = _multigraph(copy)
        code, _ = _minimal_code(*mg, _refine_classes(*mg))
        codes.add((code, g.n_empty))
        assert canon == graph_from_key(canonical_key(g)) == _rebuild_canonical(code, g.n_empty), g
        tail = graphs._code_tail(code, g.n_empty)
        assert tail[0] == key
        assert not any(isinstance(x, HalfEdgeGraph) for x in tail), tail
    # the packed codes key the code memo, so distinct classes need distinct codes
    assert len(codes) == len(pool)
