"""Invariant tensors: the nondiagrammatic side of the graph Hopf algebra.

An invariant tensor over dimension n is a rational combination of terms, each
a multiset of internal block monomials (degree >= 1) together with an external
monomial, all over the orthonormal basis x_1..x_n.  Everything here is built
from the chord invariants beta_c, which keeps O(n)-invariance automatic.

The graph-to-tensor map ``phi`` block-symmetrizes beta_c along a block
presentation of the graph; ``psi`` inverts it by evaluating an invariant lift
against the coinvariants z_c.  The lift of a term averages its words over the
group that reorders each block, the blocks of equal size and the external
monomial, so its value on one word is the coefficient of the word's term over
the size of that term's orbit.  ``psi`` reads this closed form at the single
word of each z_c and never builds the lift.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, pairwise
from math import factorial
from typing import Iterable, Sequence

from .chords import (
    BlockShape,
    RawTensor,
    beta,
    chord_from_graph,
    enumerate_chords,
    graph_from_chord,
    z_coinv,
)
from .errors import (
    DimensionMismatch,
    InhomogeneousInput,
    InvalidInput,
    NotInLPlus,
    ShapeMismatch,
)
from .graphs import HalfEdgeGraph
from .poly import GraphPoly, SparseVector, linear_combination, sym

Blocks = tuple[tuple[int, ...], ...]
Mono = tuple[int, ...]
Term = tuple[Blocks, Mono]


def _norm_term(blocks: Iterable[Sequence[int]], external: Sequence[int]) -> Term:
    return tuple(sorted(map(tuple, map(sorted, blocks)))), tuple(sorted(external))


class InvariantTensor(SparseVector):
    """Sparse rational combination of block-monomial terms over dimension n.

    The constructor takes terms in any order: it sorts each block, the block
    list and the external monomial, and adds the coefficients of terms that
    become equal.  So every stored block and external monomial is sorted.
    """

    __slots__ = ("dim",)

    def __init__(self, dim: int, terms: dict[Term, Fraction] | None = None):
        self.dim = dim
        merged: dict[Term, Fraction] = {}
        for (blocks, ext), c in (terms or {}).items():
            term = _norm_term(blocks, ext)
            old = merged.get(term)
            merged[term] = c if old is None else old + c
        super().__init__(merged)

    def _meta(self) -> tuple:
        return (self.dim,)

    @classmethod
    def unit(cls, dim: int) -> "InvariantTensor":
        return cls(dim, {((), ()): Fraction(1)})

    def coeff(self, blocks: Iterable[Sequence[int]], external: Sequence[int]) -> Fraction:
        return self._terms.get(_norm_term(blocks, external), Fraction(0))

    def bigrades(self) -> set[tuple[int, int]]:
        """Set of (N, k) with 2N the total degree and k the external degree."""
        out = set()
        for (blocks, ext), _ in self._terms.items():
            total = sum(len(b) for b in blocks) + len(ext)
            if total % 2:
                raise InhomogeneousInput("term of odd total degree cannot be invariant")
            out.add((total // 2, len(ext)))
        return out

    def bigrade(self) -> tuple[int, int]:
        grades = self.bigrades()
        if len(grades) != 1:
            raise InhomogeneousInput(f"tensor is not homogeneous: bigrades {sorted(grades)}")
        return grades.pop()


def _cut(word: Sequence[int], cuts: Sequence[int]) -> Term:
    """The unsorted term of a word: internal blocks between consecutive
    ``cuts``, the external monomial after the last one."""
    return tuple(word[a:b] for a, b in pairwise(cuts)), word[cuts[-1] :]


def block_symmetrize(f: RawTensor, shape: BlockShape) -> InvariantTensor:
    """Project a raw tensor to block monomials along the given layout."""
    if f.length != shape.total:
        raise ShapeMismatch(f"raw length {f.length} != shape total {shape.total}")
    cuts = list(accumulate(shape.internal, initial=0))
    # distinct words cut to distinct unsorted terms; the constructor merges them
    return InvariantTensor(f.dim, {_cut(word, cuts): c for word, c in f._terms.items()})


@lru_cache(maxsize=None)
def _phi_cached(g: HalfEdgeGraph, n: int) -> InvariantTensor:
    shape, c = chord_from_graph(g)
    return block_symmetrize(beta(c, n), shape)


def phi(g: HalfEdgeGraph, n: int) -> InvariantTensor:
    """The graph-to-tensor map: block-symmetrized chord invariant."""
    return _phi_cached(g, n)


def phi_poly(p: GraphPoly, n: int) -> InvariantTensor:
    return linear_combination(((phi(g, n), c) for g, c in p.graphs()), InvariantTensor(n))


def tensor_mul(t1: InvariantTensor, t2: InvariantTensor) -> InvariantTensor:
    """Union of block multisets and product of external monomials, bilinearly."""
    if t1.dim != t2.dim:
        raise DimensionMismatch("tensor product needs equal dimensions")
    out: dict[Term, Fraction] = {}
    for (b1, e1), c1 in t1._terms.items():
        for (b2, e2), c2 in t2._terms.items():
            term = (b1 + b2, e1 + e2)
            out[term] = out.get(term, Fraction(0)) + c1 * c2
    return InvariantTensor(t1.dim, out)


class PairTensor(SparseVector):
    """Element of (tensors over m) (x) (tensors over n), for the coproduct."""

    __slots__ = ("dim_left", "dim_right")

    def __init__(self, dim_left: int, dim_right: int, terms=None):
        self.dim_left = dim_left
        self.dim_right = dim_right
        super().__init__(terms)

    def _meta(self) -> tuple:
        return (self.dim_left, self.dim_right)

    def left_counit(self) -> InvariantTensor:
        """Collapse the left leg: keep terms whose left factor is the unit."""
        out = {}
        for (tl, tr), v in self._terms.items():
            if tl == ((), ()):
                out[tr] = out.get(tr, Fraction(0)) + v
        return InvariantTensor(self.dim_right, out)

    def right_counit(self) -> InvariantTensor:
        out = {}
        for (tl, tr), v in self._terms.items():
            if tr == ((), ()):
                out[tl] = out.get(tl, Fraction(0)) + v
        return InvariantTensor(self.dim_left, out)


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
    out: dict = {}
    for (blocks, ext), c in t._terms.items():
        # blocks and the external monomial are stored sorted, so the sides stay sorted
        left = tuple(b for b in blocks if b[-1] <= m)
        right = tuple(tuple(x - m for x in b) for b in blocks if b[0] > m)
        if len(left) + len(right) < len(blocks):
            continue
        cut = bisect_right(ext, m)
        pair = (left, ext[:cut]), (right, tuple(x - m for x in ext[cut:]))
        out[pair] = out.get(pair, Fraction(0)) + c
    return PairTensor(m, n, out)


def _match_count(block: Mono, ext: Mono) -> int:
    """Number of slot bijections matching equal values, counted over positions."""
    return sym(block) if block == ext else 0


def tensor_prelie(t1: InvariantTensor, t2: InvariantTensor) -> InvariantTensor:
    """Pre-Lie contraction of a block of t1 against the external monomial of t2.

    Both arguments must lie in l_plus: every homogeneous component of bigrade
    (N, k) has N > k.
    """
    if t1.dim != t2.dim:
        raise DimensionMismatch("pre-Lie product needs equal dimensions")
    for t in (t1, t2):
        for N, k in t.bigrades():
            if N <= k:
                raise NotInLPlus(f"component of bigrade ({N},{k}) is not in l_plus")
    out: dict[Term, Fraction] = {}
    for (b1, e1), c1 in t1._terms.items():
        for (b2, e2), c2 in t2._terms.items():
            l0 = len(e2)
            for i, block in enumerate(b1):
                if len(block) != l0:
                    continue
                matches = _match_count(block, e2)
                if not matches:
                    continue
                term = (b1[:i] + b1[i + 1 :] + b2, e1)
                out[term] = out.get(term, Fraction(0)) + c1 * c2 * matches
    return InvariantTensor(t1.dim, out)


def project(t: InvariantTensor) -> InvariantTensor:
    """Drop every term containing the top index; the result lives over dim - 1."""
    return project_to(t, t.dim - 1)


def project_to(t: InvariantTensor, n: int) -> InvariantTensor:
    """Drop every term containing an index above n; the result lives over n.
    A tensor over dimension n or less is returned as it is."""
    if n >= t.dim:
        return t
    return InvariantTensor(
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
    out: dict[Term, Fraction] = {}
    for (blocks, ext), c in t._terms.items():
        sign = 1
        for x in [x for b in blocks for x in b] + list(ext):
            sign *= signs[x - 1]
        term = (
            tuple(tuple(perm[x - 1] for x in b) for b in blocks),
            tuple(perm[x - 1] for x in ext),
        )
        out[term] = out.get(term, Fraction(0)) + c * sign
    return InvariantTensor(t.dim, out)


# ---------------------------------------------------------------------------
# The inverse map


def _arrangements(mono: Sequence) -> int:
    """Distinct orderings of a multiset: len! over the product of multiplicities!."""
    return factorial(len(mono)) // sym(mono)


def _orbit_size(term: Term) -> int:
    """Number of words that cut to ``term``: orderings of the external monomial,
    of each block, and of the blocks among those of equal size."""
    blocks, ext = term
    size = _arrangements(ext)
    for b in blocks:
        size *= _arrangements(b)
    for s in set(map(len, blocks)):
        size *= _arrangements([b for b in blocks if len(b) == s])
    return size


def psi(t: InvariantTensor) -> GraphPoly:
    """Evaluate the invariant lift of ``t`` against the coinvariants z_c.

    For each block shape of ``t`` and each chord diagram c, the single word of
    z_c is cut along the shape into a term.  The lift is a group average, so
    its value on that word is the term's coefficient in ``t`` divided by the
    term's orbit size; that value weights the graph of c on the shape.

    Requires a homogeneous tensor; a tensor of bigrade (N, k) over dimension
    n with N > n maps to zero.  On images of ``phi`` this inverts it exactly.
    """
    n = t.dim
    if t.is_zero():
        return GraphPoly.zero()
    N, k = t.bigrade()
    if N > n:
        return GraphPoly.zero()

    summands = []
    for sizes in sorted({tuple(sorted(map(len, blocks))) for blocks, _ in t._terms}):
        shape = BlockShape(sizes, k)
        cuts = list(accumulate(sizes, initial=0))
        for c in enumerate_chords(N):
            ((word, _),) = z_coinv(c, n).terms()
            term = _norm_term(*_cut(word, cuts))
            coeff = t._terms.get(term)
            if coeff:
                graph = GraphPoly.from_graph(graph_from_chord(shape, c))
                summands.append((graph, coeff / _orbit_size(term)))
    return linear_combination(summands, GraphPoly())
