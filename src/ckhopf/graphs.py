"""Half-edge multigraphs: validation, canonical forms, contraction, enumeration.

A graph is a finite set of half-edges together with a partition into edges
(unordered pairs), a partition into vertices (arbitrary, possibly empty parts),
and a set of external vertices, each of which must be 1-valent.  Empty vertices
are legal: they arise when a loop is contracted and count as internal vertices
of valency zero.

Every builder, here and in ``chords`` and ``insertion``, hands its raw edges,
vertex parts and external half-edges to ``HalfEdgeGraph.of``, which puts them
in the one normal form: labels 0..2n-1 in the order of the raw labels, sorted
pairs, parts and lists, and empty parts counted in ``n_empty``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import factorial
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    DanglingHalfEdge,
    EmptySubgraph,
    ExternalNotUnivalent,
    InvalidInput,
    NonPairEdge,
    NotInternalEdge,
    OverlappingPartition,
    ResourceBound,
)


class GradeTriple(NamedTuple):
    """(edge count, internal edge count, external vertex count)."""

    n: int
    m: int
    k: int

    def __add__(self, other):
        return GradeTriple(self.n + other[0], self.m + other[1], self.k + other[2])


@dataclass(frozen=True)
class HalfEdgeGraph:
    """Immutable half-edge graph with labels normalized to 0..2n-1.

    ``edges`` is a sorted tuple of sorted pairs, ``vertices`` a sorted tuple of
    the nonempty vertex parts (each a sorted tuple), ``external`` the sorted
    tuple of half-edges that belong to external vertices, and ``n_empty`` the
    number of empty (0-valent, internal) vertices.
    """

    edges: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, ...], ...]
    external: tuple[int, ...]
    n_empty: int = 0

    @classmethod
    def of(
        cls,
        edges: Iterable[Sequence[int]],
        vertices: Iterable[Iterable[int]],
        external: Iterable[int],
        n_empty: int = 0,
    ) -> "HalfEdgeGraph":
        """The graph in normal form: the labels in ``edges`` compacted to
        0..2n-1 in their order, each pair and part sorted, the lists sorted,
        and each empty part of ``vertices`` added to ``n_empty``."""
        edges = list(edges)
        labels = sorted({h for e in edges for h in e})
        if labels != list(range(len(labels))):
            order = dict(zip(labels, range(len(labels))))
            edges = [(order[a], order[b]) for a, b in edges]
            vertices = [[order[h] for h in v] for v in vertices]
            external = [order[h] for h in external]
        parts = [tuple(sorted(v)) for v in vertices]
        # an ordered pair keeps its tuple, which a graph built from another shares
        return cls(
            edges=tuple(sorted(e if e[0] < e[1] else e[::-1] for e in map(tuple, edges))),
            vertices=tuple(sorted(v for v in parts if v)),
            external=tuple(sorted(external)),
            n_empty=n_empty + parts.count(()),
        )

    @property
    def n_half_edges(self) -> int:
        return 2 * len(self.edges)

    @property
    def half_edges(self) -> range:
        return range(self.n_half_edges)

    def external_set(self) -> frozenset[int]:
        return frozenset(self.external)

    def internal_edges(self) -> tuple[tuple[int, int], ...]:
        ext = self.external_set()
        return tuple(e for e in self.edges if e[0] not in ext and e[1] not in ext)

    def external_edges(self) -> tuple[tuple[int, int], ...]:
        ext = self.external_set()
        return tuple(e for e in self.edges if e[0] in ext or e[1] in ext)

    def internal_vertices(self) -> tuple[tuple[int, ...], ...]:
        ext = self.external_set()
        return tuple(v for v in self.vertices if not (len(v) == 1 and v[0] in ext))

    def vertex_of(self) -> dict[int, int]:
        """Half-edge -> index into ``vertices``."""
        out: dict[int, int] = {}
        for i, v in enumerate(self.vertices):
            for h in v:
                out[h] = i
        return out

    def partner(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, b in self.edges:
            out[a] = b
            out[b] = a
        return out

    def grade(self) -> GradeTriple:
        return GradeTriple(len(self.edges), len(self.internal_edges()), len(self.external))

    def __repr__(self) -> str:  # short, for test failure readability
        return (
            f"HalfEdgeGraph(edges={list(self.edges)}, vertices={list(self.vertices)}, "
            f"external={list(self.external)}, n_empty={self.n_empty})"
        )


EMPTY_GRAPH = HalfEdgeGraph((), (), (), 0)
EMPTY_VERTEX = HalfEdgeGraph((), (), (), 1)


# ---------------------------------------------------------------------------
# Validation


def validate(
    half_edges: Iterable[object],
    edges: Iterable[Sequence[object]],
    vertices: Iterable[Sequence[object]],
    external_vertices: Iterable[int] = (),
) -> HalfEdgeGraph:
    """Check a raw description and normalize half-edge labels to 0..2n-1.

    ``external_vertices`` lists positions into the ``vertices`` sequence, as in
    the JSON file format.  Raises a subclass of :class:`InvalidGraph` on any
    structural violation.
    """
    labels = list(half_edges)
    if len(set(labels)) != len(labels):
        raise OverlappingPartition("duplicate half-edge labels")
    label_set = set(labels)
    try:
        ordered_labels = sorted(labels)
    except TypeError:
        ordered_labels = sorted(labels, key=repr)
    order = {h: i for i, h in enumerate(ordered_labels)}

    seen: set[object] = set()
    norm_edges = []
    for e in edges:
        pair = tuple(e)
        if len(pair) != 2 or pair[0] == pair[1]:
            raise NonPairEdge(f"edge {pair!r} is not a pair of two distinct half-edges")
        if pair[0] not in label_set or pair[1] not in label_set:
            raise NonPairEdge(f"edge {pair!r} references unknown half-edges")
        for h in pair:
            if h in seen:
                raise OverlappingPartition(f"half-edge {h!r} occurs in two edges")
            seen.add(h)
        norm_edges.append((order[pair[0]], order[pair[1]]))
    if seen != label_set:
        missing = label_set - seen
        raise DanglingHalfEdge(f"half-edges {sorted(missing, key=repr)!r} occur in no edge")

    vertex_list = [tuple(v) for v in vertices]
    seen_v: set[object] = set()
    norm_vertices = []
    for part in vertex_list:
        for h in part:
            if h not in label_set:
                raise OverlappingPartition(f"vertex {part!r} references unknown half-edge {h!r}")
            if h in seen_v:
                raise OverlappingPartition(f"half-edge {h!r} occurs in two vertices")
            seen_v.add(h)
        norm_vertices.append([order[h] for h in part])
    if seen_v != label_set:
        missing = label_set - seen_v
        raise DanglingHalfEdge(f"half-edges {sorted(missing, key=repr)!r} occur in no vertex")

    external_h: list[int] = []
    for idx in external_vertices:
        if not 0 <= idx < len(vertex_list):
            raise ExternalNotUnivalent(f"external vertex index {idx} out of range")
        part = vertex_list[idx]
        if len(part) != 1:
            raise ExternalNotUnivalent(f"external vertex {part!r} has valency {len(part)}")
        external_h.append(order[part[0]])

    if len(set(external_h)) != len(external_h):
        raise OverlappingPartition("external vertex listed twice")

    return HalfEdgeGraph.of(norm_edges, norm_vertices, external_h)


def graph(
    edges: Iterable[Sequence[object]],
    vertices: Iterable[Sequence[object]],
    external: Iterable[object] = (),
    n_empty: int = 0,
) -> HalfEdgeGraph:
    """Convenience builder: ``external`` names the half-edges of external vertices."""
    vertex_list = [tuple(v) for v in vertices] + [()] * n_empty
    ext = set(external)
    ext_idx = []
    for h in ext:
        matches = [i for i, v in enumerate(vertex_list) if h in v]
        if len(matches) != 1 or len(vertex_list[matches[0]]) != 1:
            raise ExternalNotUnivalent(f"half-edge {h!r} is not the sole member of a vertex")
        ext_idx.append(matches[0])
    labels = sorted({h for v in vertex_list for h in v}, key=repr)
    return validate(labels, edges, vertex_list, ext_idx)


def relabel(g: HalfEdgeGraph, mapping: dict[int, int]) -> HalfEdgeGraph:
    """Apply a bijection of half-edge labels (must be a permutation of 0..2n-1)."""
    return HalfEdgeGraph.of(
        [(mapping[a], mapping[b]) for a, b in g.edges],
        [[mapping[h] for h in v] for v in g.vertices],
        [mapping[h] for h in g.external],
        g.n_empty,
    )


# ---------------------------------------------------------------------------
# Canonical form
#
# The half-edge graph is reduced to its vertex multigraph (loop counts, edge
# multiplicities, external flags, empty-vertex count), which is a complete
# isomorphism invariant: vertices carry no cyclic order, so any matching of
# vertices and of parallel edge bundles extends to a half-edge isomorphism.
# The multigraph is ordered by color refinement, then by a search for the least
# code over orderings compatible with the color classes, pruned by the
# automorphisms it finds; the canonical graph is read off that code.


def _multigraph(g: HalfEdgeGraph):
    V = len(g.vertices)
    ext_set = g.external_set()
    ext = [1 if (len(v) == 1 and v[0] in ext_set) else 0 for v in g.vertices]
    vert_of = g.vertex_of()
    loops = [0] * V
    mult = [[0] * V for _ in range(V)]
    for a, b in g.edges:
        va, vb = vert_of[a], vert_of[b]
        if va == vb:
            loops[va] += 1
        else:
            mult[va][vb] += 1
            mult[vb][va] += 1
    return V, ext, loops, mult


def _vertex_groups(V: int, mult) -> list[list[int]]:
    """The vertex sets of the connected components of a vertex multigraph."""
    groups: list[list[int]] = []
    placed: set[int] = set()
    for start in range(V):
        if start not in placed:
            group = [start]
            for i in group:
                group += [j for j in range(V) if mult[i][j] and j not in group]
            placed.update(group)
            groups.append(group)
    return groups


def _refine_classes(V, ext, loops, mult):
    """Iterated equitable refinement; returns classes ordered by color value."""
    deg = [sum(mult[i]) + 2 * loops[i] for i in range(V)]
    colors: list = [(ext[i], deg[i], loops[i]) for i in range(V)]
    while True:
        sigs = [
            (colors[i], tuple(sorted((colors[j], mult[i][j]) for j in range(V) if mult[i][j])))
            for i in range(V)
        ]
        if len(set(sigs)) == len(set(colors)):
            break
        colors = sigs
    order = sorted(set(colors))
    rank = {c: r for r, c in enumerate(order)}
    classes: list[list[int]] = [[] for _ in order]
    for i in range(V):
        classes[rank[colors[i]]].append(i)
    return classes


class _Jump(Exception):
    """A leaf repeated the best code: unwind to the node at depth ``args[0]``."""


def _minimal_code(V, ext, loops, mult, classes):
    """The least code over orderings that place the color classes in turn, and
    the number of orderings reaching it: the multigraph automorphism count.

    The code lists, per position, (ext flag, loops, multiplicities to earlier
    positions); the class fixes the first two, so the search compares rows.  A
    node expands only its least-row candidates and gives up when that row
    exceeds the best code's.  A candidate in the orbit of an explored sibling
    under the automorphisms found so far that fix the prefix reuses its
    result.  Those start as the twin transpositions; a leaf repeating the best
    code adds ``first[i] -> order[i]`` and unwinds to where the two part.
    """
    gens = []
    for cell in classes:
        for i, w in enumerate(cell):
            for v in cell[:i]:
                if all(mult[v][x] == mult[w][x] for x in range(V) if x != v and x != w):
                    gens.append([w if x == v else v if x == w else x for x in range(V)])
                    break
    cell_at = [cell for cell in classes for _ in cell]
    best: list = []  # rows of the least code found; the placed prefix matches it
    first: list[int] = []  # the first ordering that reached ``best``
    order: list[int] = []

    def rec(rows: dict[int, tuple]):
        # rows: unplaced vertex of the class -> multiplicities to the prefix
        pos = len(order)
        if pos == V:
            if not first:
                first.extend(order)
                return tuple(best), 1
            image = dict(zip(first, order))
            gens.append([image[x] for x in range(V)])
            raise _Jump(next(i for i in range(V) if first[i] != order[i]))
        rows = rows or {v: tuple([mult[v][u] for u in order]) for v in cell_at[pos]}
        low = min(rows.values())
        if pos < len(best) and low > best[pos]:
            return tuple(best), 0
        if pos < len(best) and low < best[pos]:
            del best[pos:]
            first.clear()
        if pos == len(best):
            best.append(low)
        results: dict[int, tuple[tuple, int]] = {}  # candidate -> (code, count)
        orbit: dict[int, int] = {}  # union-find forest of the orbits
        used = 0  # automorphisms already merged into ``orbit``
        for v in [v for v, row in rows.items() if row == low]:
            s = None
            if results:
                for g in gens[used:]:
                    if all(g[u] == u for u in order):
                        for x in rows:
                            orbit[_root(orbit, x)] = _root(orbit, g[x])
                used = len(gens)
                root = _root(orbit, v)
                s = next((s for s in results if _root(orbit, s) == root), None)
            if s is None:
                order.append(v)
                try:
                    results[v] = rec({w: row + (mult[w][v],) for w, row in rows.items() if w != v})
                except _Jump as jump:
                    if jump.args[0] != pos:
                        raise
                    del order[pos + 1:]
                    s = first[pos]
                order.pop()
            if s is not None:
                results[v] = results[s]
        code = tuple(best)
        return code, sum([count for c, count in results.values() if c == code])

    count = rec({})[1]
    return [(ext[v], loops[v], row) for v, row in zip(first, best)], count


def _root(parent: dict[int, int], x: int) -> int:
    """The root of x in a union-find forest; a vertex absent from it is a root."""
    while parent.get(x, x) != x:
        x = parent[x]
    return x


def _rebuild_canonical(code, n_empty) -> HalfEdgeGraph:
    """The graph of a code: position i is vertex i, edges go in sorted order."""
    slots: list[tuple[int, int]] = []
    for i, (_, n_loops, row) in enumerate(code):
        slots.extend([(i, i)] * n_loops)
        for j, m in enumerate(row):
            slots.extend([(j, i)] * m)
    slots.sort()
    edges = []
    members: list[list[int]] = [[] for _ in code]
    for t, (u, v) in enumerate(slots):
        a, b = 2 * t, 2 * t + 1
        edges.append((a, b))
        members[u].append(a)
        members[v].append(b)
    external = [members[i][0] for i, entry in enumerate(code) if entry[0]]
    return HalfEdgeGraph.of(edges, members, external, n_empty)


def to_json_dict(g: HalfEdgeGraph) -> dict:
    """The graph file format; external vertices given by index into the vertex list."""
    vertices = [()] * g.n_empty + list(g.vertices)
    ext_set = g.external_set()
    external = [
        i for i, v in enumerate(vertices) if len(v) == 1 and v[0] in ext_set
    ]
    return {
        "half_edges": list(g.half_edges),
        "edges": [list(e) for e in g.edges],
        "vertices": [list(v) for v in vertices],
        "external": external,
    }


def _is_label(h: object) -> bool:
    return isinstance(h, (int, str)) and not isinstance(h, bool)


def _is_label_list(part: object) -> bool:
    return isinstance(part, list) and all(map(_is_label, part))


def _is_index(i: object) -> bool:
    return isinstance(i, int) and not isinstance(i, bool)


def from_json_dict(doc: dict) -> HalfEdgeGraph:
    """Read the graph file format; each field present must be a list of the
    right kind of item, else :class:`InvalidInput`."""
    if not isinstance(doc, dict):
        raise InvalidInput(f"a graph must be a JSON object, not {type(doc).__name__}")

    def field(name: str, item_ok, items: str) -> list:
        value = doc.get(name, [])
        if not isinstance(value, list):
            raise InvalidInput(f"graph field {name!r} must be a list, not {type(value).__name__}")
        for item in value:
            if not item_ok(item):
                raise InvalidInput(f"graph field {name!r} must hold {items}, not {item!r}")
        return value

    labels = "half-edge labels (integers or strings)"
    return validate(
        field("half_edges", _is_label, labels),
        field("edges", _is_label_list, "lists of " + labels),
        field("vertices", _is_label_list, "lists of " + labels),
        field("external", _is_index, "vertex indices (integers)"),
    )


@lru_cache(maxsize=None)
def _canonical(g: HalfEdgeGraph) -> tuple[bytes, HalfEdgeGraph, int, tuple[bytes, ...]]:
    V, ext, loops, mult = _multigraph(g)
    classes = _refine_classes(V, ext, loops, mult)
    code, aut_mg = _minimal_code(V, ext, loops, mult, classes)
    canon = _rebuild_canonical(code, g.n_empty)
    key = json.dumps(to_json_dict(canon), separators=(",", ":")).encode("ascii")
    aut = aut_mg
    for i in range(V):
        aut *= 2 ** loops[i] * factorial(loops[i])
        for j in range(i + 1, V):
            aut *= factorial(mult[i][j])
    if len(_vertex_groups(V, mult)) + g.n_empty == 1:
        parts = (key,)
    else:
        parts = tuple(map(canonical_key, connected_components(canon)))
    return key, canon, aut, parts


def canonical_form(g: HalfEdgeGraph) -> tuple[bytes, HalfEdgeGraph]:
    """Canonical key (bytes of the canonical JSON serialization) and relabeled graph."""
    return _canonical(g)[:2]


def canonical_key(g: HalfEdgeGraph) -> bytes:
    return _canonical(g)[0]


def monomial_key(g: HalfEdgeGraph) -> tuple[bytes, ...]:
    """The key of g as a monomial of H: the sorted canonical keys of its
    connected components.  The empty graph is ``()``, a connected graph
    ``(canonical_key(g),)``, and each empty vertex is its own component."""
    return _canonical(g)[3]


def written_key(key: tuple[bytes, ...]) -> bytes:
    """The canonical key of the graph of a monomial key: its one part, or the
    canonical key of the disjoint union of its parts."""
    if len(key) == 1:
        return key[0]
    return canonical_key(reduce(disjoint_union, map(graph_from_key, key), EMPTY_GRAPH))


@lru_cache(maxsize=None)
def graph_from_key(key: bytes) -> HalfEdgeGraph:
    """Keys are self-describing: parse the canonical serialization back."""
    return from_json_dict(json.loads(key.decode("ascii")))


def automorphism_count(g: HalfEdgeGraph) -> int:
    """Number of half-edge bijections g -> g preserving edges, vertices, external."""
    return _canonical(g)[2]


def is_isomorphic(g1: HalfEdgeGraph, g2: HalfEdgeGraph) -> bool:
    return canonical_key(g1) == canonical_key(g2)


# ---------------------------------------------------------------------------
# Contraction, extraction, union, components


def _check_internal(g: HalfEdgeGraph, edges) -> list[tuple[int, int]]:
    internal = set(g.internal_edges())
    out = []
    for e in edges:
        pair = tuple(sorted(e))
        if pair not in internal:
            raise NotInternalEdge(f"{pair!r} is not an internal edge of the graph")
        out.append(pair)
    if len(set(out)) != len(out):
        raise NotInternalEdge("subgraph lists an edge twice")
    return out


def contract_subgraph(g: HalfEdgeGraph, gamma: Iterable[Sequence[int]]) -> HalfEdgeGraph:
    """Contract every edge of ``gamma`` (a subset of the internal edges) at once.

    Non-loop edges merge their endpoint vertices; loops are simply removed from
    their vertex.  The result is independent of contraction order.
    """
    gamma_edges = _check_internal(g, gamma)
    if not gamma_edges:
        return g
    removed = {h for e in gamma_edges for h in e}
    vert_of = g.vertex_of()

    parent: dict[int, int] = {}
    for a, b in gamma_edges:
        parent[_root(parent, vert_of[a])] = _root(parent, vert_of[b])

    groups: dict[int, list[int]] = {}
    for i, v in enumerate(g.vertices):
        groups.setdefault(_root(parent, i), []).extend(h for h in v if h not in removed)
    # each half-edge lies in one edge, so an edge is in gamma when its first half is
    new_edges = [e for e in g.edges if e[0] not in removed]
    return HalfEdgeGraph.of(new_edges, groups.values(), g.external, g.n_empty)


def contract_edge(g: HalfEdgeGraph, e: Sequence[int]) -> HalfEdgeGraph:
    return contract_subgraph(g, [e])


def extract_subgraph(g: HalfEdgeGraph, gamma: Iterable[Sequence[int]]) -> HalfEdgeGraph:
    """Build the standalone graph of a nonempty internal-edge subset.

    Half-edges of the meeting vertices that do not belong to ``gamma`` become
    ends of fresh external legs.
    """
    gamma_edges = _check_internal(g, gamma)
    if not gamma_edges:
        raise EmptySubgraph("subgraph extraction needs at least one edge")
    gamma_halves = {h for e in gamma_edges for h in e}
    touched = [v for v in g.vertices if any(h in gamma_halves for h in v)]
    dangling = sorted(h for v in touched for h in v if h not in gamma_halves)
    fresh_start = g.n_half_edges
    legs = [(h, fresh_start + i) for i, h in enumerate(dangling)]
    edges = list(gamma_edges) + legs
    external = [fresh_start + i for i in range(len(dangling))]
    return HalfEdgeGraph.of(edges, touched + [(h,) for h in external], external)


def disjoint_union(g1: HalfEdgeGraph, g2: HalfEdgeGraph) -> HalfEdgeGraph:
    shift = g1.n_half_edges
    return HalfEdgeGraph.of(
        g1.edges + tuple((a + shift, b + shift) for a, b in g2.edges),
        g1.vertices + tuple(tuple(h + shift for h in v) for v in g2.vertices),
        g1.external + tuple(h + shift for h in g2.external),
        g1.n_empty + g2.n_empty,
    )


def connected_components(g: HalfEdgeGraph) -> list[HalfEdgeGraph]:
    """Components as standalone graphs; the empty graph has none.

    Each empty vertex is its own component.  The list is sorted by canonical
    key so it is deterministic.
    """
    V, _, _, mult = _multigraph(g)
    ext_set = g.external_set()
    comps = []
    for group in _vertex_groups(V, mult):
        vertices = [g.vertices[i] for i in group]
        halves = {h for v in vertices for h in v}
        edges = [e for e in g.edges if e[0] in halves]
        external = [h for h in halves if h in ext_set]
        comps.append(HalfEdgeGraph.of(edges, vertices, external))
    comps.extend([EMPTY_VERTEX] * g.n_empty)
    return sorted(comps, key=canonical_key)


def is_connected(g: HalfEdgeGraph) -> bool:
    return len(monomial_key(g)) == 1


# ---------------------------------------------------------------------------
# Enumeration by isomorphism class
#
# Connected graphs with at least one internal edge decompose as a "core"
# (their internal edges and internal vertices) plus external legs; cores are
# generated by edge augmentation, legs are distributed afterwards, and
# arbitrary graphs are multisets of connected ones.


def default_budget() -> int:
    raw = os.environ.get("CKHOPF_BUDGET", "5000000")
    if not raw.strip().isdecimal():
        raise InvalidInput(f"CKHOPF_BUDGET must be a non-negative integer, not {raw!r}")
    return int(raw)


class _Budget:
    def __init__(self, limit: int | None):
        self.limit = default_budget() if limit is None else limit
        self.used = 0

    def spend(self, k: int = 1):
        self.used += k
        if self.used > self.limit:
            raise ResourceBound(f"enumeration exceeded budget of {self.limit} steps")

    def memo(self, cache: dict, key, compute: Callable[[], list]) -> list:
        """``cache[key]``, computed on a miss; a hit charges the steps the
        computation cost, so the charge does not depend on what ran before."""
        if key in cache:
            value, cost = cache[key]
            self.spend(cost)
            return value
        start = self.used
        value = compute()
        cache[key] = (value, self.used - start)
        return value


# Each enumeration cache maps its arguments to (classes, steps they cost).
_CORES: dict[int, tuple[list[HalfEdgeGraph], int]] = {}


def _connected_cores(m: int, budget: _Budget) -> list[HalfEdgeGraph]:
    """Connected graphs of grade (m, m, 0): internal structure only, min valency 1."""
    if m == 0:
        return []
    return budget.memo(_CORES, m, lambda: _augment_cores(m, budget))


def _augment_cores(m: int, budget: _Budget) -> list[HalfEdgeGraph]:
    if m == 1:
        loop = graph(edges=[(0, 1)], vertices=[(0, 1)])
        segment = graph(edges=[(0, 1)], vertices=[(0,), (1,)])
        return sorted({canonical_key(g): g for g in (loop, segment)}.values(), key=canonical_key)
    out: dict[bytes, HalfEdgeGraph] = {}
    for core in _connected_cores(m - 1, budget):
        n_h = core.n_half_edges
        a, b = n_h, n_h + 1
        new_edge = (a, b)
        V = len(core.vertices)
        placements = []
        for i in range(V):
            placements.append([(i, a), (i, b)])          # loop at vertex i
            placements.append([(i, a)])                  # edge to a fresh 1-valent vertex
            for j in range(i + 1, V):
                placements.append([(i, a), (j, b)])      # edge between two vertices
        for placed in placements:
            budget.spend()
            vertices = [list(v) for v in core.vertices]
            for i, h in placed:
                vertices[i].append(h)
            assigned = {h for _, h in placed}
            vertices += [(h,) for h in new_edge if h not in assigned]
            key, canon = canonical_form(HalfEdgeGraph.of(core.edges + (new_edge,), vertices, ()))
            out.setdefault(key, canon)
    return sorted(out.values(), key=canonical_key)


_WITH_LEGS: dict[tuple[int, int], tuple[list[HalfEdgeGraph], int]] = {}


def _attach_legs(core: HalfEdgeGraph, dist: Sequence[int]) -> HalfEdgeGraph:
    n_h = core.n_half_edges
    edges = list(core.edges)
    vertices = [list(v) for v in core.vertices]
    ext = []
    nxt = n_h
    for i, count in enumerate(dist):
        for _ in range(count):
            h, hp = nxt, nxt + 1
            nxt += 2
            vertices[i].append(h)
            edges.append((h, hp))
            ext.append(hp)
    return HalfEdgeGraph.of(edges, vertices + [(h,) for h in ext], ext)


def _connected_with_legs(m: int, k: int, budget: _Budget) -> list[HalfEdgeGraph]:
    """Connected classes of grade (m + k, m, k) for m >= 1."""
    return budget.memo(_WITH_LEGS, (m, k), lambda: _attach_all_legs(m, k, budget))


def _attach_all_legs(m: int, k: int, budget: _Budget) -> list[HalfEdgeGraph]:
    out: dict[bytes, HalfEdgeGraph] = {}
    for core in _connected_cores(m, budget):
        V = len(core.vertices)
        for dist in _compositions_of(k, V):
            budget.spend()
            cand = _attach_legs(core, dist)
            key, canon = canonical_form(cand)
            out.setdefault(key, canon)
    return sorted(out.values(), key=canonical_key)


def _compositions_of(k: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to k."""
    if parts == 0:
        if k == 0:
            yield ()
        return
    for first in range(k + 1):
        for rest in _compositions_of(k - first, parts - 1):
            yield (first,) + rest


def dot_graph(k: int) -> HalfEdgeGraph:
    """One internal vertex with k external legs; grade (k, 0, k)."""
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    center = tuple(2 * i for i in range(k))
    vertices = [center] + [(2 * i + 1,) for i in range(k)]
    return graph(edges=edges, vertices=vertices, external=[2 * i + 1 for i in range(k)])


def free_propagator() -> HalfEdgeGraph:
    """A single edge between two external vertices; grade (1, 0, 2)."""
    return graph(edges=[(0, 1)], vertices=[(0,), (1,)], external=[0, 1])


def connected_classes(n: int, plus: bool, budget: _Budget | None = None) -> list[HalfEdgeGraph]:
    """Connected isomorphism classes with n edges (``plus``: >= 1 internal edge)."""
    budget = budget or _Budget(None)
    out: dict[bytes, HalfEdgeGraph] = {}
    for m in range(1, n + 1):
        for g in _connected_with_legs(m, n - m, budget):
            out[canonical_key(g)] = g
    if not plus and n >= 1:
        d = dot_graph(n)
        out[canonical_key(d)] = d
        if n == 1:
            fp = free_propagator()
            out[canonical_key(fp)] = fp
    return sorted(out.values(), key=canonical_key)


def enumerate_graphs(
    n_edges: int, filter: str = "all", budget: int | None = None
) -> list[HalfEdgeGraph]:
    """One canonical representative per isomorphism class with ``n_edges`` edges.

    ``filter`` is one of ``all``, ``connected``, ``connected_plus``; the last
    additionally requires at least one internal edge.  Graphs containing empty
    vertices are excluded from the generating set.
    """
    if n_edges < 0:
        raise InvalidInput(f"the edge count must be nonnegative, not {n_edges}")
    b = _Budget(budget)
    if filter == "connected":
        return connected_classes(n_edges, plus=False, budget=b)
    if filter == "connected_plus":
        return connected_classes(n_edges, plus=True, budget=b)
    if filter != "all":
        raise InvalidInput(f"unknown filter {filter!r}")
    if n_edges == 0:
        return [EMPTY_GRAPH]
    return _union_classes(k for keys in _monomials(n_edges, b).values() for k in keys)


def enumerate_by_grade(
    n: int, m: int, k: int, budget: int | None = None
) -> list[HalfEdgeGraph]:
    """All classes (connected or not, no empty vertices) of exact grade (n, m, k)."""
    return _union_classes(_monomials(n, _Budget(budget)).get((m, k), []))


def connected_by_grade(m: int, k: int) -> list[HalfEdgeGraph]:
    """The connected classes of grade (m + k, m, k), for m >= 1."""
    return _connected_with_legs(m, k, _Budget(None))


def _union_classes(monomials: Iterable[tuple[bytes, ...]]) -> list[HalfEdgeGraph]:
    """The canonical graph of each monomial key, sorted by canonical key."""
    return [graph_from_key(key) for key in sorted(map(written_key, monomials))]


# n -> ({(m, k): monomial keys of grade (n, m, k)}, steps they cost)
_GRADE_CACHE: dict[int, tuple[dict[tuple[int, int], list[tuple[bytes, ...]]], int]] = {}


def _monomials(n: int, budget: _Budget) -> dict[tuple[int, int], list[tuple[bytes, ...]]]:
    """Every multiset of connected classes with ``n`` edges in all, as a
    sorted tuple of canonical keys, grouped by summed (internal edges,
    external vertices); one budget step per multiset."""

    def compute() -> dict[tuple[int, int], list[tuple[bytes, ...]]]:
        pieces = sorted(
            (canonical_key(g), g.grade())
            for j in range(1, n + 1)
            for g in connected_classes(j, plus=False, budget=budget)
        )
        out: dict[tuple[int, int], list[tuple[bytes, ...]]] = {}

        def rec(start: int, remaining: int, keys: tuple[bytes, ...], m: int, k: int):
            if remaining == 0:
                budget.spend()
                out.setdefault((m, k), []).append(keys)
                return
            for i in range(start, len(pieces)):
                key, gr = pieces[i]
                if gr.n <= remaining:
                    rec(i, remaining - gr.n, keys + (key,), m + gr.m, k + gr.k)

        rec(0, n, (), 0, 0)
        return out

    return budget.memo(_GRADE_CACHE, n, compute)
