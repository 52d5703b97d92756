"""Chord diagrams, the orthogonal invariants beta_c and coinvariants z_c,
and the block graph attached to a chord diagram.

Indices into the orthonormal basis x_1..x_n are 1-based throughout.  The
bilinear form is the identity matrix, so all contractions are Kronecker
deltas and every coefficient is an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise, product as iproduct
from typing import Iterable, Sequence

from . import memo
from .errors import (
    DimensionTooSmall,
    EmptyVertexUnsupported,
    InvalidInput,
    LengthMismatch,
    ResourceBound,
    ShapeMismatch,
)
from .graphs import HalfEdgeGraph, canonical_key, graph_from_key
from .vector import SparseVector


@dataclass(frozen=True)
class ChordDiagram:
    """A pair-partition of {1,..,2N}, stored as the sorted tuple of sorted pairs."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, pairs: Iterable[Sequence[int]]) -> "ChordDiagram":
        norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
        flat = [x for p in norm for x in p]
        n = len(flat)
        if any(len(p) != 2 or p[0] == p[1] for p in norm) or sorted(flat) != list(
            range(1, n + 1)
        ):
            raise ShapeMismatch(f"{list(pairs)!r} is not a pair-partition of 1..2N")
        return cls(norm)

    @property
    def size(self) -> int:
        """N: the number of chords."""
        return len(self.pairs)

    def chord_of(self) -> dict[int, int]:
        """Position -> index of its chord in the stored order."""
        out = {}
        for r, (i, j) in enumerate(self.pairs):
            out[i] = r
            out[j] = r
        return out

    def __repr__(self) -> str:
        return "Chord(" + ",".join(f"{i}{j}" if j < 10 else f"{i}-{j}" for i, j in self.pairs) + ")"


@memo.cache(memo.SUITE)
def enumerate_chords(n_chords: int) -> tuple[ChordDiagram, ...]:
    """All chord diagrams on {1,..,2N}; there are (2N-1)!! of them."""
    if n_chords < 0:
        raise InvalidInput(f"the number of chords must be nonnegative, not {n_chords}")
    if n_chords > 6:
        raise ResourceBound("chord enumeration is desk scale (N <= 6)")

    def rec(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        first = points[0]
        for i in range(1, len(points)):
            rest = points[1:i] + points[i + 1 :]
            for tail in rec(rest):
                yield ((first, points[i]),) + tail

    return tuple(ChordDiagram.of(p) for p in rec(tuple(range(1, 2 * n_chords + 1))))


class RawTensor(SparseVector):
    """Sparse element of (V_n*)^(x 2N): words over {1..n} with rational coefficients.

    Equality compares ``dim`` and ``length``; a sum needs both to agree.
    """

    __slots__ = ("dim", "length")

    def __init__(self, dim: int, length: int, terms=()):
        self.dim = dim
        self.length = length
        super().__init__(terms)

    def _meta(self) -> tuple:
        return (self.dim, self.length)

    def coeff(self, word: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))


# Most index assignments ``beta`` or ``tensors.phi`` enumerates: above the
# 7**7 of the largest one a verify suite at its largest window asks for
# (phi-equivariance-insertion).
_MAX_WORDS = 2**22


def _check_assignments(n: int, N: int) -> None:
    """Raise ResourceBound when the n**N index assignments of N chords over
    dimension n are more than _MAX_WORDS."""
    if n**N > _MAX_WORDS:
        raise ResourceBound(
            f"{N} chords over dimension {n} need {n}**{N} index words, above the bound {_MAX_WORDS}"
        )


def beta(c: ChordDiagram, n: int) -> RawTensor:
    """The invariant of a chord diagram: sum over index assignments constant on chords.

    There are n**N assignments; more than _MAX_WORDS raises ResourceBound.
    An assignment can be read back from its word, so every coefficient is 1.
    """
    N = c.size
    _check_assignments(n, N)
    chord_of = c.chord_of()
    assigns = iproduct(range(1, n + 1), repeat=N)
    words = (tuple(a[chord_of[pos]] for pos in range(1, 2 * N + 1)) for a in assigns)
    return RawTensor(n, 2 * N, dict.fromkeys(words, Fraction(1)))


def z_word(c: ChordDiagram) -> tuple[int, ...]:
    """The word with index r at both ends of the r-th chord."""
    chord_of = c.chord_of()
    return tuple(chord_of[pos] + 1 for pos in range(1, 2 * c.size + 1))


@memo.cache(memo.SUITE)
def z_words(n_chords: int) -> tuple[tuple[int, ...], ...]:
    """The z-word of each diagram of ``enumerate_chords(n_chords)``, in its order."""
    return tuple(map(z_word, enumerate_chords(n_chords)))


def z_coinv(c: ChordDiagram, n: int) -> RawTensor:
    """The coinvariant: the single word ``z_word(c)``, with coefficient 1."""
    N = c.size
    if n < N:
        raise DimensionTooSmall(f"z_c needs dimension >= {N}, got {n}")
    return RawTensor(n, 2 * N, {z_word(c): Fraction(1)})


def pair_raw(f: RawTensor, g: RawTensor) -> Fraction:
    """Evaluation of a dual tensor on a tensor in the orthonormal basis."""
    if f.length != g.length:
        raise LengthMismatch(f"lengths {f.length} and {g.length} differ")
    return f.dot(g)


@dataclass(frozen=True)
class BlockShape:
    """Internal block sizes (each >= 1) and the external block size k0 >= 0."""

    internal: tuple[int, ...]
    external: int

    def __post_init__(self):
        if any(k < 1 for k in self.internal) or self.external < 0:
            raise ShapeMismatch(f"bad block shape {self!r}")

    @property
    def total(self) -> int:
        return sum(self.internal) + self.external

    def __repr__(self) -> str:
        inner = ",".join(map(str, self.internal))
        return f"Shape({inner};{self.external})"


def graph_from_chord(shape: BlockShape, c: ChordDiagram) -> HalfEdgeGraph:
    """The graph whose vertices are the blocks and whose edges are the chords.

    Half-edges are laid out block by block, internal blocks first, then the
    external block of singletons; position p gets the label p - 1.
    """
    if shape.total != 2 * c.size:
        raise ShapeMismatch(f"{shape!r} does not cover 2N = {2 * c.size} positions")
    cuts = list(accumulate(shape.internal, initial=0))
    external = range(cuts[-1], shape.total)
    vertices = [range(a, b) for a, b in pairwise(cuts)] + [(h,) for h in external]
    return HalfEdgeGraph.of([(i - 1, j - 1) for i, j in c.pairs], vertices, external)


def chord_from_graph(g: HalfEdgeGraph) -> tuple[BlockShape, ChordDiagram]:
    """Some decomposition g = Gamma_shape(c), deterministic via the canonical form.

    Graphs with empty vertices have no block presentation (blocks are nonempty).
    """
    return chord_from_key(canonical_key(g))


def chord_from_key(key: bytes) -> tuple[BlockShape, ChordDiagram]:
    """``chord_from_graph`` of the graph with canonical key ``key``, read off
    the canonical graph that the key parses to: nothing is canonicalized."""
    canon = graph_from_key(key)
    if canon.n_empty:
        raise EmptyVertexUnsupported("empty vertices admit no chord presentation")
    internal_vertices = canon.internal_vertices()
    layout = [h for v in internal_vertices for h in v] + list(canon.external)
    position = {h: i + 1 for i, h in enumerate(layout)}
    pairs = [(position[a], position[b]) for a, b in canon.edges]
    shape = BlockShape(tuple(len(v) for v in internal_vertices), len(canon.external))
    return shape, ChordDiagram.of(pairs)
