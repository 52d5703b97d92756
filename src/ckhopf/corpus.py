"""Named small graphs used throughout tests, demos and the CLI."""

from __future__ import annotations

from . import memo
from .graphs import (
    HalfEdgeGraph,
    EMPTY_GRAPH,
    canonical_key,
    dot_graph,
    enumerate_graphs,
    free_propagator,
    graph,
)


def _loop1() -> HalfEdgeGraph:
    return graph(edges=[(0, 1)], vertices=[(0, 1)])


def _dumbbell() -> HalfEdgeGraph:
    # one edge between two 1-valent internal vertices
    return graph(edges=[(0, 1)], vertices=[(0,), (1,)])


def _bubble() -> HalfEdgeGraph:
    return graph(edges=[(0, 1), (2, 3)], vertices=[(0, 2), (1, 3)])


def _twoloop() -> HalfEdgeGraph:
    # figure eight: two loops at one vertex
    return graph(edges=[(0, 1), (2, 3)], vertices=[(0, 1, 2, 3)])


def _theta() -> HalfEdgeGraph:
    # three parallel edges between two vertices
    return graph(edges=[(0, 1), (2, 3), (4, 5)], vertices=[(0, 2, 4), (1, 3, 5)])


def _tadpole2() -> HalfEdgeGraph:
    # loop plus one external leg on the same vertex
    return graph(edges=[(0, 1), (2, 3)], vertices=[(0, 1, 2), (3,)], external=[3])


def _twoleg() -> HalfEdgeGraph:
    # one internal edge joining two 2-valent vertices, each carrying a leg
    return graph(
        edges=[(0, 1), (2, 4), (3, 5)],
        vertices=[(0, 2), (1, 3), (4,), (5,)],
        external=[4, 5],
    )


NAMED_BUILDERS = {
    "empty": lambda: EMPTY_GRAPH,
    "loop1": _loop1,
    "dumbbell": _dumbbell,
    "bubble": _bubble,
    "twoloop": _twoloop,
    "theta": _theta,
    "tadpole2": _tadpole2,
    "twoleg": _twoleg,
    "freeprop": free_propagator,
    "dot_1": lambda: dot_graph(1),
    "dot_2": lambda: dot_graph(2),
    "dot_3": lambda: dot_graph(3),
}


@memo.cache(memo.PROCESS)
def named_graph(name: str) -> HalfEdgeGraph:
    try:
        return NAMED_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown corpus graph {name!r}") from None


def named_graphs() -> dict[str, HalfEdgeGraph]:
    return {name: named_graph(name) for name in NAMED_BUILDERS}


@memo.cache(memo.PROCESS)
def name_by_key() -> dict[bytes, str]:
    return {canonical_key(g): name for name, g in named_graphs().items()}


@memo.cache(memo.PROCESS)
def default_corpus(max_edges: int = 3) -> tuple[HalfEdgeGraph, ...]:
    """Every isomorphism class with <= max_edges edges, plus the named graphs."""
    seen: dict[bytes, HalfEdgeGraph] = {}
    for n in range(max_edges + 1):
        for g in enumerate_graphs(n, "all"):
            seen[canonical_key(g)] = g
    for g in named_graphs().values():
        seen[canonical_key(g)] = g
    return tuple(seen[k] for k in sorted(seen))


def connected_corpus(max_edges: int = 3, plus: bool = True) -> tuple[HalfEdgeGraph, ...]:
    """Connected classes with <= max_edges edges (``plus``: at least one internal edge)."""
    filt = "connected_plus" if plus else "connected"
    graphs = [g for n in range(1, max_edges + 1) for g in enumerate_graphs(n, filt)]
    return tuple(sorted(graphs, key=canonical_key))
