"""Finite rational combinations: one sparse vector type, and the graph
polynomials of H and H (x) H built on it.

Graphs are identified by canonical key; the key bytes are the canonical JSON
serialization, so they parse back to a graph without any side table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Hashable, Iterable, Iterator

from .errors import DimensionMismatch
from .graphs import (
    EMPTY_GRAPH,
    HalfEdgeGraph,
    canonical_key,
    disjoint_union,
    graph_from_key,
)

EMPTY_KEY = canonical_key(EMPTY_GRAPH)

Scalar = Fraction | int

_ZERO = Fraction(0)


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class SparseVector:
    """An immutable, finitely supported map from hashable keys to rationals.

    A subclass may carry metadata (a dimension, a word length): its
    constructor takes the metadata first and ``terms`` last, and ``_meta``
    returns the metadata, so every operation here builds a result of the same
    type.  Zero coefficients are dropped on construction and ``terms()`` is
    sorted, so equal vectors serialize to equal bytes.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        self._terms = {k: v for k, v in (terms or {}).items() if v != 0}

    def _meta(self) -> tuple:
        return ()

    def _space(self) -> tuple:
        """The part of the metadata that equality compares."""
        return self._meta()

    def _join(self, a: tuple, b: tuple) -> tuple:
        """Metadata of a sum of vectors with metadata ``a`` and ``b``."""
        if a != b:
            raise DimensionMismatch(
                f"cannot add {type(self).__name__}s over different dimensions {a} and {b}"
            )
        return a

    def _new(self, terms: dict, meta: tuple | None = None) -> "SparseVector":
        return type(self)(*(self._meta() if meta is None else meta), terms)

    @classmethod
    def zero(cls, *meta):
        return cls(*meta)

    @classmethod
    def outer(cls, a: "SparseVector", b: "SparseVector"):
        """a (x) b keyed by pairs of keys, over the metadata of a then of b."""
        terms = {
            (k1, k2): c1 * c2 for k1, c1 in a._terms.items() for k2, c2 in b._terms.items()
        }
        return cls(*a._meta(), *b._meta(), terms)

    def terms(self) -> Iterator[tuple[Hashable, Fraction]]:
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other):
        return linear_combination(((self, 1), (other, 1)), self)

    def __sub__(self, other):
        return linear_combination(((self, 1), (other, -1)), self)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: Scalar):
        c = _frac(c)
        return self._new({k: c * v for k, v in self._terms.items()})

    def __rmul__(self, c: Scalar):
        return self.scale(c)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._space() == other._space()
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self._space(), frozenset(self._terms.items())))

    def __repr__(self) -> str:
        args = [repr(m) for m in self._meta()] + [f"{len(self._terms)} terms"]
        return f"{type(self).__name__}({', '.join(args)})"


def linear_combination(pairs: Iterable[tuple[SparseVector, Scalar]], like: SparseVector):
    """The sum of c * v over the (v, c) in ``pairs``, accumulated in one dict.

    The result has the type and metadata of ``like``, whose own terms are not
    added; a vector whose metadata does not fit raises as ``+`` does.  No input
    is modified.
    """
    meta = like._meta()
    out: dict = {}
    get = out.get
    for v, c in pairs:
        if v._meta() != meta:
            meta = like._join(meta, v._meta())
        items = v._terms.items()
        if c != 1:
            c = _frac(c)
            items = [(k, c * x) for k, x in items]
        for k, x in items:
            y = get(k)
            out[k] = x if y is None else y + x
    return like._new(out, meta)


class GraphPoly(SparseVector):
    """A finitely supported map from isomorphism classes to rationals."""

    __slots__ = ()

    @classmethod
    def one(cls) -> "GraphPoly":
        return cls({EMPTY_KEY: Fraction(1)})

    @classmethod
    def from_graph(cls, g: HalfEdgeGraph, coeff: Scalar = 1) -> "GraphPoly":
        return cls({canonical_key(g): _frac(coeff)})

    def graphs(self) -> Iterator[tuple[HalfEdgeGraph, Fraction]]:
        for k, c in self.terms():
            yield graph_from_key(k), c

    def coeff(self, g: HalfEdgeGraph) -> Fraction:
        return self._terms.get(canonical_key(g), _ZERO)

    def coeff_key(self, key: bytes) -> Fraction:
        return self._terms.get(key, _ZERO)

    def support(self) -> list[bytes]:
        return sorted(self._terms)

    def __repr__(self) -> str:
        if self.is_zero():
            return "GraphPoly(0)"
        bits = [f"{c} * {k.decode('ascii')}" for k, c in self.terms()]
        return "GraphPoly(" + " + ".join(bits) + ")"

    def grade_projection(self, n: int, m: int | None = None, k: int | None = None) -> "GraphPoly":
        out = {}
        for key, c in self._terms.items():
            gr = graph_from_key(key).grade()
            if gr.n == n and (m is None or gr.m == m) and (k is None or gr.k == k):
                out[key] = c
        return GraphPoly(out)

    def max_edges(self) -> int:
        return max((len(graph_from_key(k).edges) for k in self._terms), default=0)


def poly(*graphs_and_coeffs) -> GraphPoly:
    """poly(g1, c1, g2, c2, ...) convenience constructor."""
    pairs = list(graphs_and_coeffs)
    if len(pairs) % 2:
        pairs.append(1)
    return linear_combination(
        ((GraphPoly.from_graph(g), c) for g, c in zip(pairs[::2], pairs[1::2])), GraphPoly()
    )


@lru_cache(maxsize=None)
def _union_key(k1: bytes, k2: bytes) -> bytes:
    return canonical_key(disjoint_union(graph_from_key(k1), graph_from_key(k2)))


def product(p: GraphPoly, q: GraphPoly) -> GraphPoly:
    """Bilinear extension of disjoint union; the empty graph is the unit."""
    out: dict[bytes, Fraction] = {}
    for k1, c1 in p._terms.items():
        for k2, c2 in q._terms.items():
            key = _union_key(k1, k2)
            out[key] = out.get(key, _ZERO) + c1 * c2
    return GraphPoly(out)


class GraphTensorPoly(SparseVector):
    """Finitely supported element of H (x) H, keyed by ordered key pairs."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "GraphTensorPoly":
        return cls({(EMPTY_KEY, EMPTY_KEY): Fraction(1)})

    @classmethod
    def of(cls, g1: HalfEdgeGraph, g2: HalfEdgeGraph, coeff: Scalar = 1) -> "GraphTensorPoly":
        return cls({(canonical_key(g1), canonical_key(g2)): _frac(coeff)})

    def coeff_pair(self, k1: bytes, k2: bytes) -> Fraction:
        return self._terms.get((k1, k2), _ZERO)

    def mul(self, other: "GraphTensorPoly") -> "GraphTensorPoly":
        """Componentwise product: (a (x) b)(c (x) d) = (a u c) (x) (b u d)."""
        out: dict[tuple[bytes, bytes], Fraction] = {}
        for (a, b), c1 in self._terms.items():
            for (c, d), c2 in other._terms.items():
                key = (_union_key(a, c), _union_key(b, d))
                out[key] = out.get(key, _ZERO) + c1 * c2
        return GraphTensorPoly(out)
