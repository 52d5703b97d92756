"""The graph polynomials of H and H (x) H, built on ``vector.SparseVector``.

H is free commutative on connected graphs: a basis element is keyed by the
sorted tuple of its components' canonical keys (``graphs.monomial_key``), a
product merges tuples, and outputs list terms by ``graphs.written_key``, the
only place a disconnected graph is canonicalized as one graph.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .graphs import (
    GradeTriple,
    HalfEdgeGraph,
    graph_from_key,
    monomial_key,
    written_key,
)
from .vector import _ZERO, Scalar, SparseVector, _frac, linear_combination

Key = tuple[bytes, ...]

EMPTY_KEY: Key = ()


def grade_of(key: Key) -> GradeTriple:
    """The grade of a monomial: the sum of the grades of its parts."""
    return sum((graph_from_key(part).grade() for part in key), GradeTriple(0, 0, 0))


class GraphPoly(SparseVector):
    """A finitely supported map from isomorphism classes to rationals."""

    __slots__ = ()

    @classmethod
    def from_graph(cls, g: HalfEdgeGraph, coeff: Scalar = 1) -> "GraphPoly":
        return cls({monomial_key(g): _frac(coeff)})

    def written_terms(self) -> list[tuple[bytes, Fraction]]:
        """(written key, coefficient) pairs in sorted order, as every output lists them."""
        return sorted((written_key(k), c) for k, c in self._terms.items())

    def graphs(self) -> Iterator[tuple[HalfEdgeGraph, Fraction]]:
        for k, c in self.written_terms():
            yield graph_from_key(k), c

    def coeff(self, g: HalfEdgeGraph) -> Fraction:
        return self._terms.get(monomial_key(g), _ZERO)

    def coeff_key(self, key: Key) -> Fraction:
        return self._terms.get(key, _ZERO)

    def __repr__(self) -> str:
        bits = " + ".join(f"{c} * {k.decode('ascii')}" for k, c in self.written_terms())
        return f"GraphPoly({bits or 0})"


def poly(*graphs_and_coeffs) -> GraphPoly:
    """poly(g1, c1, g2, c2, ...) convenience constructor."""
    pairs = list(graphs_and_coeffs)
    if len(pairs) % 2:
        pairs.append(1)
    return linear_combination(
        ((GraphPoly.from_graph(g), c) for g, c in zip(pairs[::2], pairs[1::2])), GraphPoly()
    )


def product(p: GraphPoly, q: GraphPoly) -> GraphPoly:
    """Bilinear extension of disjoint union; the empty graph is the unit."""
    return GraphPoly(
        (tuple(sorted(k1 + k2)), c1 * c2)
        for k1, c1 in p._terms.items()
        for k2, c2 in q._terms.items()
    )


class GraphTensorPoly(SparseVector):
    """Finitely supported element of H (x) H, keyed by ordered key pairs."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "GraphTensorPoly":
        return cls({(EMPTY_KEY, EMPTY_KEY): Fraction(1)})

    def written_terms(self) -> list[tuple[tuple[bytes, bytes], Fraction]]:
        """((written key, written key), coefficient) pairs in sorted order."""
        return sorted(((written_key(a), written_key(b)), c) for (a, b), c in self._terms.items())

    def mul(self, other: "GraphTensorPoly") -> "GraphTensorPoly":
        """Componentwise product: (a (x) b)(c (x) d) = (a u c) (x) (b u d)."""
        return GraphTensorPoly(
            ((tuple(sorted(a + c)), tuple(sorted(b + d))), c1 * c2)
            for (a, b), c1 in self._terms.items()
            for (c, d), c2 in other._terms.items()
        )
