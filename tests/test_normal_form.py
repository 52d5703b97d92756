"""The graph normal form, field by field.

Canonical keys see a graph only up to isomorphism, so they cannot catch a
builder that labels its result differently.  ``FIELD_PIN_SHA256`` hashes the
``repr`` of the raw outputs of every graph builder, which lists each field:
edge pairs, vertex parts, external half-edges and the empty-vertex count.
"""

import hashlib
import random
from itertools import combinations, permutations

from ckhopf.chords import enumerate_chords, graph_from_chord
from ckhopf.corpus import default_corpus
from ckhopf.graphs import (
    EMPTY_VERTEX,
    HalfEdgeGraph,
    canonical_form,
    connected_components,
    contract_subgraph,
    disjoint_union,
    extract_subgraph,
    from_json_dict,
)
from ckhopf.insertion import insert_at
from test_canonical import _relabelled
from test_tensors import _block_shapes

# sha256 of the lines of ``_builder_lines``, one builder output per line.
FIELD_PIN_SHA256 = "f63e2edc404d96589512e7989f8ea7062eab2f788e2d1900c8cf045c4b3d0975"

# Hand-written graph documents: string, integer and mixed labels, listed out
# of order, with empty vertices among the parts.
DOCUMENTS = [
    {"half_edges": [], "edges": [], "vertices": [[], []], "external": []},
    {
        "half_edges": ["b", "a", "d", "c"],
        "edges": [["b", "a"], ["d", "c"]],
        "vertices": [["c", "a"], [], ["d", "b"]],
        "external": [],
    },
    {
        "half_edges": ["x", "y", "leg", "end"],
        "edges": [["y", "x"], ["end", "leg"]],
        "vertices": [["end"], ["y", "leg", "x"]],
        "external": [0],
    },
    {
        "half_edges": [3, 1, 0, 2, 5, 4],
        "edges": [[3, 0], [2, 1], [5, 4]],
        "vertices": [[], [2], [4, 1, 3, 0], [], [5]],
        "external": [4, 1],
    },
    {
        "half_edges": [10, "p", 7, "q"],
        "edges": [["q", 10], [7, "p"]],
        "vertices": [[7, "q"], [10], ["p"]],
        "external": [2, 1],
    },
]


def _insertions(g1: HalfEdgeGraph, g2: HalfEdgeGraph):
    """Every insertion of g2 into g1, each site and bijection also given reversed."""
    ext_edges = g2.external_edges()
    if len(g2.external) != len(ext_edges):
        return
    for v in g1.internal_vertices():
        if len(v) == len(ext_edges):
            for perm in permutations(ext_edges):
                yield insert_at(g1, v, dict(zip(v, perm)), g2)
                flipped = {h: e[::-1] for h, e in zip(v, perm)}
                yield insert_at(g1, v[::-1], flipped, g2)
    if not ext_edges and g1.n_empty:
        yield insert_at(g1, (), {}, g2)


def _builder_lines():
    rng = random.Random(2012)
    graphs = [_relabelled(g, rng) for g in default_corpus(4)]
    for g in graphs:
        yield f"relabel {g!r}"
        yield f"canonical {canonical_form(g)!r}"
        yield f"components {connected_components(g)!r}"
        internal = g.internal_edges()
        for r in range(len(internal) + 1):
            for gamma in combinations(internal, r):
                yield f"contract {gamma} {contract_subgraph(g, gamma)!r}"
                if gamma:
                    yield f"extract {gamma} {extract_subgraph(g, gamma)!r}"
    for g1, g2 in zip(graphs, graphs[1:] + graphs[:1]):
        union = disjoint_union(g1, disjoint_union(EMPTY_VERTEX, g2))
        yield f"union {union!r}"
        yield f"union components {connected_components(union)!r}"
    small = [g for g in graphs if len(g.edges) <= 3]
    hosts = small + [disjoint_union(g, EMPTY_VERTEX) for g in small if len(g.edges) <= 2]
    for g1 in hosts:
        for g2 in small:
            if len(g1.edges) + len(g2.edges) <= 4:
                for out in _insertions(g1, g2):
                    yield f"insert {out!r}"
    for N in range(5):
        for shape in _block_shapes(N):
            for c in enumerate_chords(N):
                yield f"chord {shape} {c} {graph_from_chord(shape, c)!r}"
    for doc in DOCUMENTS:
        yield f"json {from_json_dict(doc)!r}"


def test_builder_outputs_match_the_field_pin():
    lines = list(_builder_lines())
    assert len(lines) == 15860
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == FIELD_PIN_SHA256


def test_of_normalizes_like_the_hand_written_twin():
    # labels 3, 7, 8, 12, 20, 21 with gaps; pairs and parts out of order; two empty parts
    g = HalfEdgeGraph.of(
        [(21, 20), (8, 3), (12, 7)],
        [(8, 7, 3), (), (12,), (21, 20), ()],
        [12],
        n_empty=1,
    )
    twin = HalfEdgeGraph(
        edges=((0, 2), (1, 3), (4, 5)),
        vertices=((0, 1, 2), (3,), (4, 5)),
        external=(3,),
        n_empty=3,
    )
    assert g == twin and repr(g) == repr(twin)
    for h in default_corpus(3):
        assert HalfEdgeGraph.of(h.edges, h.vertices, h.external, h.n_empty) == h
