"""The basis of H keyed by monomials in connected classes, checked against the
graph route: whole disjoint unions, canonicalized and operated on as one graph.
"""

import itertools
import json
from collections import Counter
from functools import reduce
from math import factorial

from ckhopf import hopf
from ckhopf.corpus import connected_corpus, default_corpus, named_graphs
from ckhopf.graphs import (
    EMPTY_GRAPH,
    HalfEdgeGraph,
    automorphism_count,
    canonical_key,
    connected_components,
    contract_subgraph,
    disjoint_union,
    extract_subgraph,
    graph_from_key,
    monomial_key,
)
from ckhopf.poly import GraphPoly, product
from ckhopf.serialize import poly_to_doc, tensor_poly_to_doc

EMPTY_VERTEX = HalfEdgeGraph((), (), (), 1)


def P(g):
    return GraphPoly.from_graph(g)


def union(graphs):
    return reduce(disjoint_union, graphs, EMPTY_GRAPH)


def test_product_is_disjoint_union():
    for g1 in default_corpus(3) + (EMPTY_VERTEX,):
        for g2 in default_corpus(2) + (EMPTY_VERTEX, named_graphs()["theta"]):
            key = canonical_key(disjoint_union(g1, g2))
            expected = [{"coefficient": "1/1", "graph": json.loads(key)}]
            assert poly_to_doc(product(P(g1), P(g2))) == expected
            assert product(P(g1), P(g2)) == P(disjoint_union(g1, g2))


def _coproduct_on_union(parts):
    """Coproduct of the disjoint union of connected ``parts``, computed on
    union graphs.  Each part goes whole to the left leg, whole to the right
    leg, or is cut along a nonempty proper subset of its internal edges; the
    cut parts are extracted from and contracted in the union of the parts
    that are not on the left."""
    options = [
        ["left", "right"]
        + [
            list(gamma)
            for r in range(1, len(p.internal_edges()))
            for gamma in itertools.combinations(p.internal_edges(), r)
        ]
        for p in parts
    ]
    counts: dict[tuple[bytes, bytes], int] = {}
    for choice in itertools.product(*options):
        left = [p for p, c in zip(parts, choice) if c == "left"]
        stay = [(p, c) for p, c in zip(parts, choice) if c != "left"]
        rest = union(p for p, _ in stay)
        gamma, shift = [], 0
        for p, c in stay:
            if c != "right":
                gamma += [(a + shift, b + shift) for a, b in c]
            shift += p.n_half_edges
        if gamma:
            left.append(extract_subgraph(rest, gamma))
            rest = contract_subgraph(rest, gamma)
        pair = (canonical_key(union(left)), canonical_key(rest))
        counts[pair] = counts.get(pair, 0) + 1
    return [
        {"coefficient": f"{c}/1", "graphs": [json.loads(k1), json.loads(k2)]}
        for (k1, k2), c in sorted(counts.items())
    ]


def test_coproduct_of_disconnected_graph_on_union_graph():
    small = connected_corpus(2, plus=False)
    graphs = [g for g in default_corpus(3) if len(connected_components(g)) > 1]
    graphs += [disjoint_union(g1, g2) for g1 in small for g2 in small]
    graphs += [disjoint_union(named_graphs()["theta"], EMPTY_VERTEX)]
    for g in graphs:
        doc = tensor_poly_to_doc(hopf.coproduct(P(g)))
        assert doc == _coproduct_on_union(connected_components(g)), canonical_key(g)


def _aut_of_parts(key):
    """|Aut C|^m * m! over the parts C of multiplicity m of a monomial; an
    empty vertex has no half-edges to permute, so it gets no m!."""
    count = 1
    for part, m in Counter(key).items():
        g = graph_from_key(part)
        count *= automorphism_count(g) ** m * (factorial(m) if g.edges else 1)
    return count


def test_monomial_automorphism_count_on_union():
    connected = connected_corpus(3, plus=False)
    graphs = list(default_corpus(3)) + [EMPTY_VERTEX, union([EMPTY_VERTEX] * 3)]
    for g in connected:
        graphs += [disjoint_union(g, g), union([g, EMPTY_VERTEX, g, EMPTY_VERTEX])]
    for g1, g2 in itertools.combinations(connected_corpus(2, plus=False), 2):
        graphs.append(union([g1, g2, g1]))
    for g in graphs:
        assert _aut_of_parts(monomial_key(g)) == automorphism_count(g), canonical_key(g)


def test_monomial_key_parts():
    loop1 = named_graphs()["loop1"]
    assert monomial_key(EMPTY_GRAPH) == ()
    assert monomial_key(loop1) == (canonical_key(loop1),)
    assert monomial_key(EMPTY_VERTEX) == (canonical_key(EMPTY_VERTEX),)
    parts = monomial_key(union([loop1, EMPTY_VERTEX, loop1]))
    assert parts == tuple(sorted([canonical_key(loop1)] * 2 + [canonical_key(EMPTY_VERTEX)]))
