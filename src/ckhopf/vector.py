"""Finite rational combinations: the one sparse vector type that every
algebraic object of the package is built on, with no notion of a graph.

A constructor sums (key, coefficient) pairs, so a bilinear operation hands its
pairs to its result type; ``linear_combination`` sums whole vectors.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod
from typing import Hashable, Iterable, Iterator

from .errors import DimensionMismatch

Scalar = Fraction | int

_ZERO = Fraction(0)


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _is_index(i: object) -> bool:
    """An int but not a bool: the integer check of every input boundary."""
    return isinstance(i, int) and not isinstance(i, bool)


def sym(seq: Iterable[Hashable]) -> int:
    """Sym(seq): the product of m! over the distinct items of multiplicity m."""
    return prod(map(factorial, Counter(seq).values()))


def _summed(pairs: Iterable[tuple[Hashable, Scalar]]) -> dict:
    """The dict of (key, coefficient) pairs, adding the coefficients of equal keys."""
    out: dict = {}
    get = out.get
    for k, x in pairs:
        y = get(k)
        out[k] = x if y is None else y + x
    return out


class SparseVector:
    """An immutable, finitely supported map from hashable keys to rationals.

    A subclass may carry metadata (a dimension, a word length): its
    constructor takes the metadata first and ``terms`` last, and ``_meta``
    returns the metadata, so every operation here builds a result of the same
    type.  Equality compares the type, the metadata and the terms; adding
    vectors with different metadata raises DimensionMismatch.  ``terms`` is a
    dict or (key, coefficient) pairs, whose coefficients of equal keys are
    added.  Zero coefficients are dropped on construction, an input dict is
    not modified, and ``terms()`` is sorted, so equal vectors serialize to
    equal bytes.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | Iterable[tuple[Hashable, Scalar]] = ()):
        if not isinstance(terms, dict):
            terms = _summed(terms)
        self._terms = {k: v for k, v in terms.items() if v != 0}

    def _meta(self) -> tuple:
        return ()

    @classmethod
    def _from_normal(cls, *meta_and_terms):
        """A vector from metadata and keys already in normal form.  This base
        constructor does no more; a subclass whose constructor normalizes its
        keys overrides it to skip that work."""
        return cls(*meta_and_terms)

    def _new(self, terms: dict) -> "SparseVector":
        return self._from_normal(*self._meta(), terms)

    @classmethod
    def zero(cls, *meta):
        return cls(*meta)

    @classmethod
    def outer(cls, a: "SparseVector", b: "SparseVector"):
        """a (x) b keyed by pairs of keys, over the metadata of a then of b."""
        terms = {
            (k1, k2): c1 * c2 for k1, c1 in a._terms.items() for k2, c2 in b._terms.items()
        }
        return cls._from_normal(*a._meta(), *b._meta(), terms)

    def terms(self) -> Iterator[tuple[Hashable, Fraction]]:
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def dot(self, other: "SparseVector") -> Fraction:
        """The sum of the products of the coefficients of the keys both hold."""
        small, large = self._terms, other._terms
        if len(small) > len(large):
            small, large = large, small
        total = _ZERO
        for k, x in small.items():
            y = large.get(k)
            if y is not None:
                total += x * y
        return total

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
            and self._meta() == other._meta()
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self._meta(), frozenset(self._terms.items())))

    def __repr__(self) -> str:
        args = [repr(m) for m in self._meta()] + [f"{len(self._terms)} terms"]
        return f"{type(self).__name__}({', '.join(args)})"


def linear_combination(pairs: Iterable[tuple[SparseVector, Scalar]], like: SparseVector):
    """The sum of c * v over the (v, c) in ``pairs``, accumulated in one dict.

    The result has the type and metadata of ``like``, whose own terms are not
    added; a vector with other metadata raises DimensionMismatch.  No input
    is modified.
    """
    meta = like._meta()
    out: dict = {}
    get = out.get
    for v, c in pairs:
        if v._meta() != meta:
            raise DimensionMismatch(
                f"cannot add {type(like).__name__}s over {meta} and {v._meta()}"
            )
        items = v._terms.items()
        if c != 1:
            c = _frac(c)
            items = [(k, c * x) for k, x in items]
        for k, x in items:
            y = get(k)
            out[k] = x if y is None else y + x
    return like._new(out)
