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
from functools import reduce
from math import factorial, prod
from typing import Callable, Iterable, NamedTuple, Sequence

from . import memo
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
from .vector import _is_index


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
        edges = list(map(tuple, edges))
        n = 2 * len(edges)
        if edges == list(zip(range(0, n, 2), range(1, n, 2))):
            # pairs (0, 1), (2, 3), ... in turn, as _rebuild_canonical emits them
            pairs = tuple(edges)
        else:
            labels = sorted({h for e in edges for h in e})
            if labels != list(range(len(labels))):
                order = dict(zip(labels, range(len(labels))))
                edges = [(order[a], order[b]) for a, b in edges]
                vertices = [[order[h] for h in v] for v in vertices]
                external = [order[h] for h in external]
            # an ordered pair keeps its tuple, which a graph built from another shares
            pairs = tuple(sorted(e if e[0] < e[1] else e[::-1] for e in edges))
        parts = [tuple(sorted(v)) for v in vertices]
        return cls(
            edges=pairs,
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
    """Apply a bijection of half-edge labels: a permutation of 0..2n-1, else
    :class:`InvalidInput`."""
    if {mapping.get(h) for h in g.half_edges} != set(g.half_edges):
        raise InvalidInput(f"relabel needs a permutation of 0..{len(g.half_edges) - 1}, not {mapping!r}")
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
# The multigraph is ordered by color refinement, then, unless every color class
# is a set of twins, by a search for the least code over orderings compatible
# with the color classes, pruned by the automorphisms it finds.  The least
# code is packed flat, into bytes while every count fits in one, and keys
# its memo.  The key and the parts
# are read off that code, once per code, through the canonical graph, which
# is not kept: ``canonical_form`` parses the key back with
# ``graph_from_key``, which gives the same graph.
#
# ``_class_of`` does all of this for a multigraph given directly, and
# ``_class_of_graph`` for a labelled graph; only ``_canonical`` memoizes it
# per labelled graph, and serves the graphs that callers hold and ask about
# again.  A graph built for one canonical form and then dropped skips that
# memo: the insertion product sum hands each graft's vertex multigraph to
# ``_class_of`` without building a labelled graph (only
# ``insertion.insert_at`` builds labelled grafts), and the coproduct's
# extracted and contracted pieces, the graphs grown by ``_augment``, the
# disjoint union behind ``written_key``, the chord-diagram graph of each
# block multigraph in ``psi``'s tables and the oracles suite's relabelled
# and brute-force graphs go through ``_class_of_graph``.
#
# Parsing a key follows the same rule.  ``_graph_of_key`` parses one with no
# memo entry, and ``graph_from_key`` is the memo over it, for the graphs that
# callers hold, as ``_canonical`` is over ``_class_of_graph``.  A reader that
# needs a key's graph once parses it through ``_graph_of_key``: the insertion
# layer's graft data and the grade law's counterexample.  ``poly.grade_of``
# reads a grade from the key text and builds no graph at all.


def _multigraph(g: HalfEdgeGraph):
    """(V, ext, loops, mult): per nonempty vertex in the order of
    ``g.vertices``, its external flag and loop count, and the matrix of edge
    multiplicities between distinct vertices."""
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
    """Iterated equitable refinement; returns classes ordered by color value.

    A vertex's signature is its color and the sorted (color, multiplicity)
    pairs of its neighbours.  After each round the colors become the ranks of
    the signatures, which order them as the nested signatures would, so the
    classes come out in the same order as when colors are the signatures."""
    nbrs = [[(j, m) for j, m in enumerate(row) if m] for row in mult]
    sigs: list = [(ext[i], sum(mult[i]) + 2 * loops[i], loops[i]) for i in range(V)]
    colors: list[int] = []
    n_colors = 0
    while True:
        order = sorted(set(sigs))
        if len(order) == n_colors:
            break
        n_colors = len(order)
        rank = {s: r for r, s in enumerate(order)}
        colors = [rank[s] for s in sigs]
        if n_colors == V:
            break  # a discrete partition cannot split further
        sigs = [(colors[i], tuple(sorted([(colors[j], m) for j, m in nbrs[i]]))) for i in range(V)]
    classes: list[list[int]] = [[] for _ in range(n_colors)]
    for i, c in enumerate(colors):
        classes[c].append(i)
    return classes


class _Jump(Exception):
    """A leaf repeated the best code: unwind to the node at depth ``args[0]``."""


def _minimal_code(V, ext, loops, mult, classes):
    """The least code over orderings that place the color classes in turn, and
    the number of orderings reaching it: the multigraph automorphism count.

    The code lists, per position, (ext flag, loops, multiplicities to earlier
    positions), and is returned packed by ``_pack_code``; the class fixes the
    first two, so the search compares rows.  A node expands only its
    least-row candidates and gives up when that row exceeds the best code's.
    A candidate in the orbit of an explored sibling under the automorphisms
    found so far that fix the prefix reuses its result.  Those start as the
    twin transpositions; a leaf repeating the best code adds
    ``first[i] -> order[i]`` and unwinds to where the two part.

    Each row is packed into one int in base max multiplicity + 1, first
    entry most significant.  Rows at one position have the same length, so
    the ints order as the rows do, and only the best code is unpacked.
    ``best`` only ever falls, so a result carries a stamp that is bumped
    whenever ``best`` is cut back, in place of a copy of the code.  Each
    automorphism is kept with the points it moves, and a node with one
    least-row candidate is walked without orbit bookkeeping.

    When every class is a set of twins (equal multiplicities to every other
    vertex), there is no search.  Equitable refinement commutes with
    automorphisms and every permutation inside a twin class is one, so the
    automorphisms are the products of those permutations: every ordering gives
    the same code, and the count is the product of the class sizes' factorials.
    A singleton class is a twin class, so a discrete refinement is one case.
    """

    def twins(v, w):
        return all(mult[v][x] == mult[w][x] for x in range(V) if x != v and x != w)

    # twin-ness is transitive, so each class is checked against its first member
    if all(twins(cell[0], w) for cell in classes for w in cell[1:]):
        order = [v for cell in classes for v in cell]
        rows = ([mult[v][u] for u in order[:i]] for i, v in enumerate(order))
        return _pack_code(ext, loops, order, rows), prod([factorial(len(cell)) for cell in classes])
    gens = []  # (permutation, the points it moves)
    for cell in classes:
        for i, w in enumerate(cell):
            for v in cell[:i]:
                if twins(v, w):
                    gens.append(([w if x == v else v if x == w else x for x in range(V)], {v, w}))
                    break
    base = max(map(max, mult)) + 1
    cell_at = [cell for cell in classes for _ in cell]
    best: list[int] = []  # packed rows of the least code; the placed prefix matches it
    first: list[int] = []  # the first ordering that reached ``best``
    order: list[int] = []
    stamp = 0  # bumped whenever ``best`` is cut back to a lesser row

    def rec(rows: dict[int, int]):
        # rows: unplaced vertex of the class -> packed multiplicities to the
        # prefix.  Nodes with one least-row candidate are walked in a loop.
        nonlocal stamp
        top = len(order)
        try:
            while True:
                pos = len(order)
                if pos == V:
                    if not first:
                        first.extend(order)
                        return stamp, 1
                    image = dict(zip(first, order))
                    g = [image[x] for x in range(V)]
                    gens.append((g, {x for x in range(V) if g[x] != x}))
                    raise _Jump(next(i for i in range(V) if first[i] != order[i]))
                if not rows:
                    for v in cell_at[pos]:
                        row = 0
                        for u in order:
                            row = row * base + mult[v][u]
                        rows[v] = row
                low = min(rows.values())
                if pos == len(best):
                    best.append(low)
                elif low > best[pos]:
                    return stamp, 0
                elif low < best[pos]:
                    del best[pos + 1 :]
                    best[pos] = low
                    first.clear()
                    stamp += 1
                cands = [v for v, row in rows.items() if row == low]
                if len(cands) > 1:
                    break
                v = cands[0]
                order.append(v)
                col = mult[v]
                rows = {w: row * base + col[w] for w, row in rows.items() if w != v}
            results: dict[int, tuple[int, int]] = {}  # candidate -> (stamp, count)
            orbit: dict[int, int] = {}  # union-find forest of the orbits
            used = 0  # automorphisms already merged into ``orbit``
            for v in cands:
                s = None
                if results:
                    for g, moved in gens[used:]:
                        if moved.isdisjoint(order):
                            for x in rows:
                                orbit[_root(orbit, x)] = _root(orbit, g[x])
                    used = len(gens)
                    if orbit:
                        root = _root(orbit, v)
                        s = next((s for s in results if _root(orbit, s) == root), None)
                if s is None:
                    order.append(v)
                    try:
                        col = mult[v]
                        results[v] = rec({w: row * base + col[w] for w, row in rows.items() if w != v})
                    except _Jump as jump:
                        if jump.args[0] != pos:
                            raise
                        s = first[pos]
                    order.pop()
                if s is not None:
                    results[v] = results[s]
            return stamp, sum([count for c, count in results.values() if c == stamp])
        finally:
            del order[top:]

    count = rec({})[1]
    rows = ([row // base ** (i - 1 - j) % base for j in range(i)] for i, row in enumerate(best))
    return _pack_code(ext, loops, first, rows), count


def _pack_code(ext, loops, order, rows) -> bytes | tuple[int, ...]:
    """The code of an ordering, flat: per position its ext flag, loop count
    and multiplicities to the earlier positions.  Position i has exactly i
    multiplicities, so the length fixes the layout.  The code is bytes, one
    per value, unless a count passes 255; then it is a tuple of the same
    values, which no bytes code equals."""
    items = []
    for v, row in zip(order, rows):
        items += (ext[v], loops[v], *row)
    try:
        return bytes(items)
    except ValueError:
        return tuple(items)


def _unpack_code(code: bytes | tuple[int, ...]) -> list[tuple[int, int, list[int]]]:
    """(ext flag, loop count, multiplicities to the earlier positions) per
    position of a packed code."""
    items = list(code)
    out = []
    start = 0
    while start < len(items):
        i = len(out)
        out.append((items[start], items[start + 1], items[start + 2 : start + 2 + i]))
        start += 2 + i
    return out


def _root(parent: dict[int, int], x: int) -> int:
    """The root of x in a union-find forest; a vertex absent from it is a root."""
    while parent.get(x, x) != x:
        x = parent[x]
    return x


def _rebuild_canonical(code, n_empty) -> HalfEdgeGraph:
    """The graph of a packed code: position i is vertex i, edges go in
    sorted order."""
    positions = _unpack_code(code)
    slots: list[tuple[int, int]] = []
    for i, (_, n_loops, row) in enumerate(positions):
        slots.extend([(i, i)] * n_loops)
        for j, m in enumerate(row):
            slots.extend([(j, i)] * m)
    slots.sort()
    edges = []
    members: list[list[int]] = [[] for _ in positions]
    for t, (u, v) in enumerate(slots):
        a, b = 2 * t, 2 * t + 1
        edges.append((a, b))
        members[u].append(a)
        members[v].append(b)
    external = [members[i][0] for i, entry in enumerate(positions) if entry[0]]
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


def _class_of(V, ext, loops, mult, n_empty: int) -> tuple[bytes, int, tuple[bytes, ...]]:
    """The canonical key, |Aut| and monomial key of the graph whose vertex
    multigraph is (V, ext, loops, mult), with ``n_empty`` empty vertices."""
    classes = _refine_classes(V, ext, loops, mult)
    code, aut_mg = _minimal_code(V, ext, loops, mult, classes)
    key, aut_edges, parts = _code_tail(code, n_empty)
    return key, aut_mg * aut_edges, parts


def _class_of_graph(g: HalfEdgeGraph) -> tuple[bytes, int, tuple[bytes, ...]]:
    """``_class_of`` a labelled graph, with no entry in the ``_canonical``
    memo: for a graph built for one canonical form and then dropped."""
    return _class_of(*_multigraph(g), g.n_empty)


@memo.cache(memo.PROCESS)
def _canonical(g: HalfEdgeGraph) -> tuple[bytes, int, tuple[bytes, ...]]:
    return _class_of_graph(g)


@memo.cache(memo.PROCESS)
def _code_tail(code, n_empty: int) -> tuple[bytes, int, tuple[bytes, ...]]:
    """What a packed code fixes, built once per code: the canonical key, the
    factor of |Aut| that permutes loops and parallel edges, and the monomial
    key.  The canonical graph is rebuilt here but not kept: ``graph_from_key``
    gives it back to the callers that ask for it."""
    canon = _rebuild_canonical(code, n_empty)
    key = json.dumps(to_json_dict(canon), separators=(",", ":")).encode("ascii")
    V, _, loops, mult = _multigraph(canon)
    aut_edges = prod([2**n * factorial(n) for n in loops])
    aut_edges *= prod([factorial(m) for i, row in enumerate(mult) for m in row[:i]])
    if len(_vertex_groups(V, mult)) + n_empty == 1:
        parts = (key,)
    else:
        parts = tuple(map(canonical_key, connected_components(canon)))
    return key, aut_edges, parts


def canonical_form(g: HalfEdgeGraph) -> tuple[bytes, HalfEdgeGraph]:
    """Canonical key (bytes of the canonical JSON serialization) and relabeled graph."""
    key = _canonical(g)[0]
    return key, graph_from_key(key)


def canonical_key(g: HalfEdgeGraph) -> bytes:
    return _canonical(g)[0]


def monomial_key(g: HalfEdgeGraph) -> tuple[bytes, ...]:
    """The key of g as a monomial of H: the sorted canonical keys of its
    connected components.  The empty graph is ``()``, a connected graph
    ``(canonical_key(g),)``, and each empty vertex is its own component."""
    return _canonical(g)[2]


def written_key(key: tuple[bytes, ...]) -> bytes:
    """The canonical key of the graph of a monomial key: its one part, or the
    canonical key of the disjoint union of its parts."""
    if len(key) == 1:
        return key[0]
    return _union_key(key)


@memo.cache(memo.PROCESS)
def _union_key(key: tuple[bytes, ...]) -> bytes:
    """The canonical key of the disjoint union of the parts of a monomial key
    other than a single part; the union is built, read and dropped."""
    return _class_of_graph(reduce(disjoint_union, map(graph_from_key, key), EMPTY_GRAPH))[0]


def _graph_of_key(key: bytes) -> HalfEdgeGraph:
    """Keys are self-describing: parse the canonical serialization back."""
    return from_json_dict(json.loads(key.decode("ascii")))


@memo.cache(memo.PROCESS)
def graph_from_key(key: bytes) -> HalfEdgeGraph:
    """``_graph_of_key``, memoized: for the graphs that callers hold."""
    return _graph_of_key(key)


def automorphism_count(g: HalfEdgeGraph) -> int:
    """Number of half-edge bijections g -> g preserving edges, vertices, external."""
    return _canonical(g)[1]


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
# The connected classes with m >= 1 internal edges and k legs are built one
# grade from the grade below, after McKay's isomorph-free augmentation: a leg
# added at an internal vertex when k >= 1, else an internal edge, from the
# loop and the segment up.  Removing a leg keeps such a graph connected and
# its vertex nonempty, and removing a suitable internal edge (one on a cycle,
# or one to a 1-valent vertex) keeps a legless one connected, so every class
# is reached; duplicates are merged by canonical key.  Each grade is one memo
# entry.  The dot graphs and the free propagator (m = 0) are written down
# directly, and arbitrary graphs are multisets of connected ones.


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


# (m, k) -> (connected classes of grade (m + k, m, k), steps they cost)
_CONNECTED: dict[tuple[int, int], tuple[list[HalfEdgeGraph], int]] = memo.table(
    "graphs._CONNECTED", memo.PROCESS
)


def _connected(m: int, k: int, budget: _Budget) -> list[HalfEdgeGraph]:
    """Connected classes of grade (m + k, m, k) for m >= 1, sorted by canonical
    key; none for any other grade."""
    if m < 1 or k < 0:
        return []
    return budget.memo(_CONNECTED, (m, k), lambda: _augment(m, k, budget))


def _augment(m: int, k: int, budget: _Budget) -> list[HalfEdgeGraph]:
    """Grow each class of the grade below by one edge: a leg at an internal
    vertex when k >= 1, else an internal edge.  One budget step per graph
    grown, the two seeds of grade (1, 1, 0) included."""
    if (m, k) == (1, 0):
        loop, segment = [(0, 1)], [(0,), (1,)]
        grown = (graph(edges=[(0, 1)], vertices=v) for v in (loop, segment))
    elif k:
        grown = (
            _add_edge(g, i, len(g.vertices), leg=True)
            for g in _connected(m, k - 1, budget)
            for i, v in enumerate(g.vertices)
            if v[0] not in g.external
        )
    else:
        # a loop at vertex i (j == i), an edge to a fresh vertex (j == V), or to vertex j
        grown = (
            _add_edge(g, i, j, leg=False)
            for g in _connected(m - 1, 0, budget)
            for i in range(len(g.vertices))
            for j in range(i, len(g.vertices) + 1)
        )
    keys: set[bytes] = set()
    for g in grown:
        budget.spend()
        keys.add(_class_of_graph(g)[0])
    return [graph_from_key(key) for key in sorted(keys)]


def _add_edge(g: HalfEdgeGraph, i: int, j: int, leg: bool) -> HalfEdgeGraph:
    """g with a new edge from vertex i to vertex j, where j == len(g.vertices)
    is a fresh vertex, external if ``leg``."""
    a, b = g.n_half_edges, g.n_half_edges + 1
    parts = [list(v) for v in g.vertices] + [[]]
    parts[i].append(a)
    parts[j].append(b)
    # the fresh part stays empty unless j names it, and then is no vertex
    return HalfEdgeGraph.of(g.edges + ((a, b),), filter(None, parts), g.external + (b,) * leg)


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
    out = [g for m in range(1, n + 1) for g in _connected(m, n - m, budget)]
    if not plus and n >= 1:
        out.append(dot_graph(n))
        if n == 1:
            out.append(free_propagator())
    return sorted(out, key=canonical_key)


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
    return _connected(m, k, _Budget(None))


def _union_classes(monomials: Iterable[tuple[bytes, ...]]) -> list[HalfEdgeGraph]:
    """The canonical graph of each monomial key, sorted by canonical key."""
    return [graph_from_key(key) for key in sorted(map(written_key, monomials))]


# n -> ({(m, k): monomial keys of grade (n, m, k)}, steps they cost)
_GRADE_CACHE: dict[int, tuple[dict[tuple[int, int], list[tuple[bytes, ...]]], int]] = memo.table(
    "graphs._GRADE_CACHE", memo.PROCESS
)


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
