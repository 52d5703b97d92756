"""Brute-force oracles grounding the canonical form and automorphism counts.

These deliberately avoid the multigraph reduction used by the production code:
they search over half-edge bijections directly, with only local-consistency
pruning, so they stay an independent check.
"""

from __future__ import annotations

from .errors import ResourceBound
from .graphs import EMPTY_GRAPH, HalfEdgeGraph, validate

_MAX_HALF_EDGES = 12


def _tables(g: HalfEdgeGraph):
    partner = g.partner()
    vert_of = g.vertex_of()
    ext = g.external_set()
    vsize = {h: len(g.vertices[vert_of[h]]) for h in g.half_edges}
    vext = {h: (vsize[h] == 1 and h in ext) for h in g.half_edges}
    return partner, vert_of, vsize, vext


def _search(g1: HalfEdgeGraph, g2: HalfEdgeGraph, count_all: bool) -> int:
    """Number of structure-preserving half-edge bijections g1 -> g2.

    With ``count_all`` false, stops at the first one found.
    """
    if g1.n_half_edges != g2.n_half_edges or g1.n_empty != g2.n_empty:
        return 0
    if len(g1.vertices) != len(g2.vertices) or len(g1.external) != len(g2.external):
        return 0
    n = g1.n_half_edges
    if n > _MAX_HALF_EDGES:
        raise ResourceBound(f"oracle limited to {_MAX_HALF_EDGES} half-edges")
    if n == 0:
        return 1

    p1, v1, s1, e1 = _tables(g1)
    p2, v2, s2, e2 = _tables(g2)

    image: dict[int, int] = {}
    used: set[int] = set()
    found = 0

    def consistent(h: int, t: int) -> bool:
        if s1[h] != s2[t] or e1[h] != e2[t]:
            return False
        mate = p1[h]
        if mate in image and p2[t] != image[mate]:
            return False
        if p1[h] not in image and p2[t] in used:
            return False
        for h_prev, t_prev in image.items():
            same1 = v1[h_prev] == v1[h]
            same2 = v2[t_prev] == v2[t]
            if same1 != same2:
                return False
        return True

    def rec(h: int) -> bool:
        nonlocal found
        if h == n:
            found += 1
            return not count_all
        for t in range(n):
            if t in used:
                continue
            if consistent(h, t):
                image[h] = t
                used.add(t)
                if rec(h + 1):
                    return True
                del image[h]
                used.discard(t)
        return False

    rec(0)
    return found


def oracle_iso(g1: HalfEdgeGraph, g2: HalfEdgeGraph) -> bool:
    """Exhaustive isomorphism test by half-edge bijection search."""
    return _search(g1, g2, count_all=False) > 0


def oracle_aut(g: HalfEdgeGraph) -> int:
    """Exhaustive automorphism count by half-edge bijection search."""
    return _search(g, g, count_all=True)


def _set_partitions(items: list[int]):
    """All partitions of ``items`` into nonempty parts (restricted growth)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _subsets(items: list[int]):
    out = [[]]
    for x in items:
        out += [s + [x] for s in out]
    return out


def oracle_enumerate(n_edges: int) -> list[HalfEdgeGraph]:
    """Classes with n_edges edges by raw structure search (no empty vertices).

    Fixes the edge pairing to (0,1),(2,3),... (always reachable by relabeling)
    and runs over all vertex partitions and external subsets, deduplicating
    with :func:`oracle_iso`.  Usable for n_edges <= 3.
    """
    if n_edges == 0:
        return [EMPTY_GRAPH]
    if 2 * n_edges > _MAX_HALF_EDGES:
        raise ResourceBound("oracle enumeration is for small edge counts")
    halves = list(range(2 * n_edges))
    edges = [(2 * i, 2 * i + 1) for i in range(n_edges)]
    reps: list[HalfEdgeGraph] = []
    buckets: dict[tuple, list[HalfEdgeGraph]] = {}
    for part in _set_partitions(halves):
        univalent = [i for i, v in enumerate(part) if len(v) == 1]
        for ext in _subsets(univalent):
            g = validate(halves, edges, part, ext)
            sig = (
                g.grade(),
                tuple(sorted(len(v) for v in g.vertices)),
            )
            for seen in buckets.get(sig, []):
                if oracle_iso(seen, g):
                    break
            else:
                buckets.setdefault(sig, []).append(g)
                reps.append(g)
    return reps
