"""Invariant tensors: the nondiagrammatic side of the graph Hopf algebra.

An invariant tensor over dimension n is a rational combination of terms, each
a multiset of internal block monomials (degree >= 1) together with an external
monomial, all over the orthonormal basis x_1..x_n.  Everything here is built
from the chord invariants beta_c, which keeps O(n)-invariance automatic.

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

The graph-to-tensor map ``phi`` is the block-symmetrized chord invariant
beta_c of a block presentation of the graph.  It counts the index assignments
of the chords by the normal-form term each one gives, so it never writes
beta_c's words.  It sorts each raw slice of a word (the part that belongs to
one block or to the external monomial) once per call and takes the sorted
tuple from one shared table, so the terms of every tensor share one
tuple per distinct sorted block or external monomial; the tensors themselves
are still computed and stored per n.  ``psi`` inverts it by evaluating an
invariant lift against the coinvariants z_c.  The lift of a term averages its
words over the group that reorders each block, the blocks of equal size and
the external monomial, so its value on one word is the coefficient of the
word's term over the size of that term's orbit.  ``psi`` reads this closed
form and never builds the lift.  It pairs the tensor with one coinvariant
table per block shape, built on first use: the terms that the single
words of the z_c cut to, over the indices 1..N only, each with the number of
diagrams that give it.  A call costs one lookup per table term, and each
block multigraph (the pairs of blocks that a term's indices join, which fix
its graph and its orbit size) one canonical form the first time any tensor
reaches it.  These tables, the shared table and the tensors of ``phi`` are
suite-lifetime memos (see ``memo``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, pairwise, product as iproduct
from math import factorial, prod
from operator import itemgetter
from typing import Iterable, Sequence

from . import memo
from .chords import (
    BlockShape,
    RawTensor,
    _check_assignments,
    chord_from_graph,
    enumerate_chords,
    graph_from_chord,
    z_words,
)
from .errors import (
    DimensionMismatch,
    InhomogeneousInput,
    InvalidInput,
    NotInLPlus,
    ShapeMismatch,
)
from .graphs import HalfEdgeGraph, _is_index, monomial_key
from .poly import GraphPoly, Key, Scalar, SparseVector, _summed, linear_combination, sym

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


def _cut(word: Sequence[int], cuts: Sequence[int]) -> Term:
    """The unsorted term of a word: internal blocks between consecutive
    ``cuts``, the external monomial after the last one."""
    return tuple(word[a:b] for a, b in pairwise(cuts)), word[cuts[-1] :]


def block_symmetrize(f: RawTensor, shape: BlockShape) -> InvariantTensor:
    """Project a raw tensor to block monomials along the given layout."""
    if f.length != shape.total:
        raise ShapeMismatch(f"raw length {f.length} != shape total {shape.total}")
    cuts = list(accumulate(shape.internal, initial=0))
    return InvariantTensor(f.dim, ((_cut(word, cuts), c) for word, c in f._terms.items()))


# every sorted block and external monomial that phi has written, as itself:
# the terms of all tensors share one tuple per distinct multiset of indices
_SHARED: dict[Mono, Mono] = memo.table("tensors._SHARED", memo.SUITE)


class _SortedSlices(dict):
    """Raw slice of a word -> its shared sorted tuple, filled on first sight."""

    __slots__ = ()

    def __missing__(self, raw: Mono) -> Mono:
        s = tuple(sorted(raw))
        s = self[raw] = _SHARED.setdefault(s, s)
        return s


@memo.cache(memo.SUITE)
def _phi_cached(g: HalfEdgeGraph, n: int) -> InvariantTensor:
    shape, c = chord_from_graph(g)
    _check_assignments(n, c.size)
    chord_of = c.chord_of()
    # the word of an assignment a: a[r] at both ends of the r-th chord
    positions = [chord_of[p] for p in range(1, shape.total + 1)]
    word_of = itemgetter(*positions) if positions else lambda a: ()
    cuts = list(accumulate(shape.internal, initial=0))
    blocks = [slice(a, b) for a, b in pairwise(cuts)]
    external = slice(cuts[-1], None)
    # kept for this call only: keyed by raw slice, it could reach n**k entries
    # for a graph with k legs
    sorted_of = _SortedSlices()

    def term(a: tuple[int, ...]) -> Term:
        word = word_of(a)
        return tuple(sorted([sorted_of[word[b]] for b in blocks])), sorted_of[word[external]]

    counts = Counter(map(term, iproduct(range(1, n + 1), repeat=c.size)))
    # one Fraction per count value: most terms share a few small counts
    fractions = {k: Fraction(k) for k in set(counts.values())}
    return InvariantTensor._from_normal(n, {t: fractions[k] for t, k in counts.items()})


def phi(g: HalfEdgeGraph, n: int) -> InvariantTensor:
    """The graph-to-tensor map: block-symmetrized chord invariant.

    Equal to ``block_symmetrize(beta(c, n), shape)`` for the presentation
    ``chord_from_graph(g)``, but each of the n**N index assignments goes
    straight to its normal-form term, and the coefficient of a term is the
    number of assignments that reach it.  More than 2**22 assignments raise
    ResourceBound before any is enumerated.
    """
    return _phi_cached(g, n)


def phi_poly(p: GraphPoly, n: int) -> InvariantTensor:
    return linear_combination(((phi(g, n), c) for g, c in p.graphs()), InvariantTensor(n))


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


def _joins(term: Term) -> tuple[tuple[int, int], ...]:
    """The block multigraph of a term whose indices each occur twice: the
    sorted pairs of blocks that hold the two occurrences of an index, with the
    blocks numbered in their stored order and the external monomial last."""
    blocks, ext = term
    where: dict[int, list[int]] = {}
    for b, mono in enumerate((*blocks, ext)):
        for x in mono:
            where.setdefault(x, []).append(b)
    return tuple(sorted(map(tuple, where.values())))


class _ShapeTable(dict):
    """Each term that a coinvariant word of one block shape cuts to, mapped to
    [the number of chord diagrams whose word cuts to it, one of them, its
    (monomial key, orbit size) or None].  The last is filled in when a tensor
    first holds the term: terms with one block multigraph give isomorphic
    graphs and have one orbit size, so they share one pair, and a block
    multigraph costs one canonical form in the process."""

    __slots__ = ("shape", "groups")

    def __init__(self, shape: BlockShape):
        super().__init__()
        self.shape = shape
        self.groups: dict[tuple, tuple[Key, int]] = {}

    def group(self, term: Term, entry: list) -> tuple[Key, int]:
        """Fill in and return the pair of ``term``, whose entry is ``entry``."""
        multigraph = _joins(term)
        group = self.groups.get(multigraph)
        if group is None:
            graph = graph_from_chord(self.shape, entry[1])
            group = self.groups[multigraph] = (monomial_key(graph), _orbit_size(term))
        entry[2] = group
        return group


@memo.cache(memo.SUITE)
def _psi_table(shape: BlockShape) -> _ShapeTable:
    """The coinvariant table of a block shape on 2N positions: its terms are
    over the indices 1..N, so it serves every dimension n >= N."""
    cuts = list(accumulate(shape.internal, initial=0))
    blocks = [slice(a, b) for a, b in pairwise(cuts)]
    external = slice(cuts[-1], None)
    table = _ShapeTable(shape)
    N = shape.total // 2
    for c, word in zip(enumerate_chords(N), z_words(N)):
        internal = tuple(sorted([tuple(sorted(word[b])) for b in blocks]))
        term = internal, tuple(sorted(word[external]))
        entry = table.get(term)
        if entry:
            entry[0] += 1
        else:
            table[term] = [1, c, None]
    return table


def psi(t: InvariantTensor) -> GraphPoly:
    """Evaluate the invariant lift of ``t`` against the coinvariants z_c.

    For each block shape of ``t`` and each chord diagram c, the single word of
    z_c is cut along the shape into a term.  The lift is a group average, so
    its value on that word is the term's coefficient in ``t`` divided by the
    term's orbit size; that value weights the graph of c on the shape.

    ``_psi_table`` holds, once per block shape and process, the terms the
    words cut to and how many diagrams give each.  A term's block multigraph,
    the pairs of blocks its indices join, fixes the graph up to isomorphism
    and the orbit size, so the coefficients are summed per block multigraph:
    one division each, and one canonical form the first time any tensor
    reaches it.

    Requires a homogeneous tensor; a tensor of bigrade (N, k) over dimension
    n with N > n maps to zero.  On images of ``phi`` this inverts it exactly.
    """
    if t.is_zero():
        return GraphPoly.zero()
    shapes = t._shapes()
    N, k = _one_bigrade(_bigrades(shapes))
    if N > t.dim:
        return GraphPoly.zero()
    get = t._terms.get
    sums: dict[tuple[Key, int], Scalar] = {}
    for sizes in sorted({tuple(sorted(sizes)) for sizes, _ in shapes}):
        table = _psi_table(BlockShape(sizes, k))
        for term, entry in table.items():
            coeff = get(term)
            if coeff:
                group = entry[2] or table.group(term, entry)
                sums[group] = sums.get(group, 0) + coeff * entry[0]
    out: dict[Key, Fraction] = {}
    for (key, orbit), total in sums.items():
        out[key] = out.get(key, 0) + Fraction(total, orbit)
    return GraphPoly(out)
