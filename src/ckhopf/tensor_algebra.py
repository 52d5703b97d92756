"""Invariant tensors: the nondiagrammatic side of the graph Hopf algebra.

An invariant tensor over dimension n is a rational combination of terms, each
a multiset of internal block monomials (degree >= 1) together with an external
monomial, all over the orthonormal basis x_1..x_n.  This module holds their
algebra (product, coproduct, pre-Lie contraction, projections, signed
permutations) and knows nothing of graphs; the maps ``phi`` and ``psi``
between graphs and tensors are in ``tensors``.

Every stored term is in normal form: each block is sorted, the block list is
sorted and the external monomial is sorted.  The public constructor
``InvariantTensor(dim, terms)`` puts any input into that form and checks its
indices; it serves inputs from outside, such as ``serialize`` and
``apply_signed_permutation``.  Operations whose terms are normal by
construction build through ``InvariantTensor._from_normal``, which only sums
terms and drops zeros: ``phi``, ``scale`` and ``linear_combination`` (so ``+``
and ``-``), ``project_to``, both counits of a ``PairTensor``, and
``tensor_mul`` and ``tensor_prelie``, which sort only the merged block list
(and, for ``tensor_mul``, the merged external monomial), since each block
stays sorted.  Both legs of a ``PairTensor`` follow the same rule: its
constructor normalizes and checks each leg, while ``tensor_delta``, ``outer``,
``scale`` and ``linear_combination`` build through ``PairTensor._from_normal``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from math import prod
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InhomogeneousInput, InvalidInput, NotInLPlus
from .vector import Scalar, SparseVector, _is_index, _summed, sym

Blocks = tuple[tuple[int, ...], ...]
Mono = tuple[int, ...]
Term = tuple[Blocks, Mono]


def _norm_term(blocks: Iterable[Sequence[int]], external: Sequence[int]) -> Term:
    return tuple(sorted(map(tuple, map(sorted, blocks)))), tuple(sorted(external))


def _read_term(dim: int, key: object) -> Term:
    """The normal form of a term key, checked: InvalidInput unless ``key`` is
    a (blocks, external) pair of integer indices with no empty block and
    every index in 1..dim."""
    try:
        blocks, ext = key
        blocks, ext = _norm_term(blocks, ext)
    except (TypeError, ValueError):
        raise InvalidInput(f"{key!r} is not a (blocks, external) term") from None
    if not all(map(_is_index, chain(ext, *blocks))):
        raise InvalidInput(f"{key!r} has an index that is not an integer")
    # each block and the external monomial is sorted
    if () in blocks or any(b[0] < 1 or b[-1] > dim for b in (*blocks, ext) if b):
        raise InvalidInput(f"{(blocks, ext)!r} has an empty block or an index outside 1..{dim}")
    return blocks, ext


def _read_pair(dim_left: int, dim_right: int, key: object) -> tuple[Term, Term]:
    """Both legs of a ``PairTensor`` key through ``_read_term``."""
    try:
        left, right = key
    except (TypeError, ValueError):
        raise InvalidInput(f"{key!r} is not a pair of (blocks, external) terms") from None
    return _read_term(dim_left, left), _read_term(dim_right, right)


class InvariantTensor(SparseVector):
    """Sparse rational combination of block-monomial terms over dimension n.

    The constructor takes terms, as a dict or as (term, coefficient) pairs, in
    any order: it sorts each block, the block list and the external monomial,
    and adds the coefficients of terms that become equal.  So every stored
    block and external monomial is sorted.  An empty block, an index outside
    1..dim, an index that is not an integer and a key that is not a (blocks,
    external) pair raise InvalidInput, whatever the coefficient.
    """

    __slots__ = ("dim",)

    def __init__(self, dim: int, terms: dict[Term, Scalar] | Iterable[tuple[Term, Scalar]] = ()):
        self.dim = dim
        items = terms.items() if isinstance(terms, dict) else terms
        super().__init__(_summed((_read_term(dim, key), c) for key, c in items))

    @classmethod
    def _from_normal(
        cls, dim: int, terms: dict[Term, Scalar] | Iterable[tuple[Term, Scalar]]
    ) -> "InvariantTensor":
        """A tensor from terms already in normal form: sums equal terms and
        drops zeros, but neither sorts nor checks indices."""
        t = cls.__new__(cls)
        t.dim = dim
        SparseVector.__init__(t, terms)
        return t

    def _meta(self) -> tuple:
        return (self.dim,)

    @classmethod
    def unit(cls, dim: int) -> "InvariantTensor":
        return cls(dim, {((), ()): Fraction(1)})

    def coeff(self, blocks: Iterable[Sequence[int]], external: Sequence[int]) -> Fraction:
        return self._terms.get(_norm_term(blocks, external), Fraction(0))

    def _shapes(self) -> set[tuple[tuple[int, ...], int]]:
        """The distinct (block sizes, external degree) pairs of the terms, with
        the block sizes in the order of the stored blocks."""
        return {(tuple(map(len, blocks)), len(ext)) for blocks, ext in self._terms}

    def bigrades(self) -> set[tuple[int, int]]:
        """Set of (N, k) with 2N the total degree and k the external degree."""
        return _bigrades(self._shapes())

    def bigrade(self) -> tuple[int, int]:
        return _one_bigrade(self.bigrades())


def _bigrades(shapes: Iterable[tuple[Sequence[int], int]]) -> set[tuple[int, int]]:
    """The (N, k) of each (block sizes, k) in ``shapes``; InhomogeneousInput
    if any total degree is odd."""
    out = set()
    for sizes, k in shapes:
        total = sum(sizes) + k
        if total % 2:
            raise InhomogeneousInput("term of odd total degree cannot be invariant")
        out.add((total // 2, k))
    return out


def _one_bigrade(grades: set[tuple[int, int]]) -> tuple[int, int]:
    if len(grades) != 1:
        raise InhomogeneousInput(f"tensor is not homogeneous: bigrades {sorted(grades)}")
    return next(iter(grades))


def tensor_mul(t1: InvariantTensor, t2: InvariantTensor) -> InvariantTensor:
    """Union of block multisets and product of external monomials, bilinearly."""
    if t1.dim != t2.dim:
        raise DimensionMismatch("tensor product needs equal dimensions")
    terms = (
        ((tuple(sorted(b1 + b2)), tuple(sorted(e1 + e2))), c1 * c2)
        for (b1, e1), c1 in t1._terms.items()
        for (b2, e2), c2 in t2._terms.items()
    )
    return InvariantTensor._from_normal(t1.dim, terms)


class PairTensor(SparseVector):
    """Element of (tensors over m) (x) (tensors over n), for the coproduct.

    A key is a pair of terms, the left leg over dim_left and the right over
    dim_right.  The constructor puts each leg in normal form and checks it
    against its dimension as ``InvariantTensor``'s does.  ``tensor_delta``
    and ``outer`` of two ``InvariantTensor``s write normal legs, so they build
    through ``_from_normal``; the counits keep that form."""

    __slots__ = ("dim_left", "dim_right")

    def __init__(self, dim_left: int, dim_right: int, terms=()):
        self.dim_left = dim_left
        self.dim_right = dim_right
        items = terms.items() if isinstance(terms, dict) else terms
        super().__init__(_summed((_read_pair(dim_left, dim_right, key), c) for key, c in items))

    @classmethod
    def _from_normal(cls, dim_left: int, dim_right: int, terms) -> "PairTensor":
        """A pair tensor from legs already in normal form: sums equal keys and
        drops zeros, but neither sorts nor checks indices."""
        t = cls.__new__(cls)
        t.dim_left, t.dim_right = dim_left, dim_right
        SparseVector.__init__(t, terms)
        return t

    def _meta(self) -> tuple:
        return (self.dim_left, self.dim_right)

    def left_counit(self) -> InvariantTensor:
        """Collapse the left leg: keep terms whose left factor is the unit."""
        kept = ((tr, v) for (tl, tr), v in self._terms.items() if tl == ((), ()))
        return InvariantTensor._from_normal(self.dim_right, kept)

    def right_counit(self) -> InvariantTensor:
        kept = ((tl, v) for (tl, tr), v in self._terms.items() if tr == ((), ()))
        return InvariantTensor._from_normal(self.dim_left, kept)


def tensor_delta(t: InvariantTensor, m: int, n: int) -> PairTensor:
    """Coproduct: split blocks and deconcatenate the external monomial, then
    push the left leg through pi_m (indices <= m) and the right leg through
    pi_n (indices > m, shifted down).  Terms with a killed variable vanish.

    A split survives only if every block lies wholly on one side of m and the
    external indices <= m go left, so each term has at most one split: none
    when a block straddles m."""
    if m < 0 or n < 0:
        raise InvalidInput(f"the dimensions m and n must be nonnegative, not {m} and {n}")
    if t.dim != m + n:
        raise DimensionMismatch(f"tensor dimension {t.dim} != m + n = {m + n}")
    splits = []
    for (blocks, ext), c in t._terms.items():
        # blocks and the external monomial are stored sorted, so the sides stay sorted
        left = tuple(b for b in blocks if b[-1] <= m)
        right = tuple(tuple(x - m for x in b) for b in blocks if b[0] > m)
        if len(left) + len(right) == len(blocks):
            cut = bisect_right(ext, m)
            splits.append((((left, ext[:cut]), (right, tuple(x - m for x in ext[cut:]))), c))
    return PairTensor._from_normal(m, n, splits)


def tensor_prelie(t1: InvariantTensor, t2: InvariantTensor) -> InvariantTensor:
    """Pre-Lie contraction of a block of t1 against the external monomial of t2.

    A block equal to the external monomial e2 contracts against it in sym(e2)
    ways: the slot bijections that match equal values.  Both arguments must
    lie in l_plus: every homogeneous component of bigrade (N, k) has N > k.
    """
    if t1.dim != t2.dim:
        raise DimensionMismatch("pre-Lie product needs equal dimensions")
    for t in (t1, t2):
        for N, k in t.bigrades():
            if N <= k:
                raise NotInLPlus(f"component of bigrade ({N},{k}) is not in l_plus")
    terms = (
        ((tuple(sorted(b1[:i] + b1[i + 1 :] + b2)), e1), c1 * c2 * sym(e2))
        for (b1, e1), c1 in t1._terms.items()
        for (b2, e2), c2 in t2._terms.items()
        for i, block in enumerate(b1)
        if block == e2
    )
    return InvariantTensor._from_normal(t1.dim, terms)


def project(t: InvariantTensor) -> InvariantTensor:
    """Drop every term containing the top index; the result lives over dim - 1."""
    return project_to(t, t.dim - 1)


def project_to(t: InvariantTensor, n: int) -> InvariantTensor:
    """Drop every term containing an index above n; the result lives over n.
    A tensor over dimension n or less is returned as it is, and a negative n
    raises InvalidInput."""
    if n < 0:
        raise InvalidInput(f"cannot project to the negative dimension {n}")
    if n >= t.dim:
        return t
    return InvariantTensor._from_normal(
        n,
        {
            (blocks, ext): c
            for (blocks, ext), c in t._terms.items()
            # blocks and the external monomial are stored sorted
            if all(b[-1] <= n for b in blocks) and (not ext or ext[-1] <= n)
        },
    )


def apply_signed_permutation(
    t: InvariantTensor, perm: Sequence[int], signs: Sequence[int]
) -> InvariantTensor:
    """Act by the orthogonal map x_i -> signs[i] * x_perm[i] (1-based tables)."""
    terms = (
        (
            (tuple(tuple(perm[x - 1] for x in b) for b in blocks), tuple(perm[x - 1] for x in ext)),
            c * prod(signs[x - 1] for x in chain(ext, *blocks)),
        )
        for (blocks, ext), c in t._terms.items()
    )
    return InvariantTensor(t.dim, terms)
