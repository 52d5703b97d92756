"""The maps between graphs and invariant tensors: ``phi``, ``psi`` and
``block_symmetrize``.  The tensor algebra itself is ``tensor_algebra``, which
knows nothing of graphs; its public names are re-exported here.

The graph-to-tensor map ``phi`` is the block-symmetrized chord invariant
beta_c of a block presentation of the graph; building every image from the
beta_c keeps O(n)-invariance automatic.  It counts the index assignments of
the chords by the normal-form term each one gives, so it never writes
beta_c's words.  It sorts each raw slice of a word (the part that belongs to
one block or to the external monomial) once per call and takes the sorted
tuple from one shared table, so the terms of every tensor share one
tuple per distinct sorted block or external monomial; the tensors themselves
are still computed and stored per n.  ``phi`` is a map on isomorphism
classes, so its tensors are memoized per canonical key and n: relabellings
share one, and a miss reads the block presentation off the key without a
second canonical form.  ``psi`` inverts it by evaluating an
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

from collections import Counter
from fractions import Fraction
from itertools import accumulate, pairwise, product as iproduct
from math import factorial
from operator import itemgetter
from typing import Sequence

from . import memo
from .chords import (
    BlockShape,
    RawTensor,
    _check_assignments,
    chord_from_key,
    enumerate_chords,
    graph_from_chord,
    z_words,
)
from .errors import ShapeMismatch
from .graphs import HalfEdgeGraph, _class_of_graph, canonical_key
from .poly import GraphPoly, Key
from .tensor_algebra import (
    InvariantTensor,
    Mono,
    PairTensor,
    Term,
    _bigrades,
    _one_bigrade,
    apply_signed_permutation,
    project,
    project_to,
    tensor_delta,
    tensor_mul,
    tensor_prelie,
)
from .vector import Scalar, linear_combination, sym


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
def _phi_cached(key: bytes, n: int) -> InvariantTensor:
    """``phi`` of the class with canonical key ``key``, one entry per class."""
    shape, c = chord_from_key(key)
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
    ResourceBound before any is enumerated.  ``phi`` is a map on classes, so
    the tensor is memoized by canonical key: every relabelling of g shares it.
    """
    return _phi_cached(canonical_key(g), n)


def phi_poly(p: GraphPoly, n: int) -> InvariantTensor:
    """``phi`` of each term, looked up by its written key."""
    return linear_combination(
        ((_phi_cached(key, n), c) for key, c in p.written_terms()), InvariantTensor(n)
    )


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
    multigraph costs one canonical form per table.  The graph of the chord
    diagram is built for that form and dropped, so it skips the labelled
    canonical memo."""

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
            group = self.groups[multigraph] = (_class_of_graph(graph)[2], _orbit_size(term))
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
