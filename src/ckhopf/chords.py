"""Chord diagrams, the orthogonal invariants beta_c and coinvariants z_c,
and the block graph attached to a chord diagram.

Indices into the orthonormal basis x_1..x_n are 1-based throughout.  The
bilinear form is the identity matrix, so all contractions are Kronecker
deltas and every coefficient is an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import Iterable, Sequence

from .errors import (
    DimensionTooSmall,
    EmptyVertexUnsupported,
    LengthMismatch,
    ResourceBound,
    ShapeMismatch,
)
from .graphs import HalfEdgeGraph, canonical_form
from .poly import SparseVector


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


@lru_cache(maxsize=None)
def enumerate_chords(n_chords: int) -> tuple[ChordDiagram, ...]:
    """All chord diagrams on {1,..,2N}; there are (2N-1)!! of them."""
    if n_chords < 0:
        raise ValueError("N must be nonnegative")
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

    def __init__(self, dim: int, length: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.dim = dim
        self.length = length
        super().__init__(terms)

    def _meta(self) -> tuple:
        return (self.dim, self.length)

    def coeff(self, word: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def restrict(self, n: int) -> "RawTensor":
        """Keep only words over {1..n}."""
        return RawTensor(
            n, self.length, {w: v for w, v in self._terms.items() if all(x <= n for x in w)}
        )


# Most index words ``beta`` writes out: above the 7**7 of the largest beta a
# verify suite at its largest window asks for (phi-equivariance-insertion).
_MAX_WORDS = 2**22


def beta(c: ChordDiagram, n: int) -> RawTensor:
    """The invariant of a chord diagram: sum over index assignments constant on chords.

    There are n**N assignments; more than _MAX_WORDS raises ResourceBound.
    """
    N = c.size
    if n**N > _MAX_WORDS:
        raise ResourceBound(f"beta needs {n}**{N} index words, above the bound {_MAX_WORDS}")
    chord_of = c.chord_of()
    words: dict[tuple[int, ...], Fraction] = {}
    for assign in iproduct(range(1, n + 1), repeat=N):
        word = tuple(assign[chord_of[pos]] for pos in range(1, 2 * N + 1))
        words[word] = words.get(word, Fraction(0)) + 1
    return RawTensor(n, 2 * N, words)


def z_coinv(c: ChordDiagram, n: int) -> RawTensor:
    """The coinvariant: the single word with index r at both ends of the r-th chord."""
    N = c.size
    if n < N:
        raise DimensionTooSmall(f"z_c needs dimension >= {N}, got {n}")
    chord_of = c.chord_of()
    word = tuple(chord_of[pos] + 1 for pos in range(1, 2 * N + 1))
    return RawTensor(n, 2 * N, {word: Fraction(1)})


def pair_raw(f: RawTensor, g: RawTensor) -> Fraction:
    """Evaluation of a dual tensor on a tensor in the orthonormal basis."""
    if f.length != g.length:
        raise LengthMismatch(f"lengths {f.length} and {g.length} differ")
    small, large = (f, g) if len(f._terms) <= len(g._terms) else (g, f)
    total = Fraction(0)
    for w, v in small._terms.items():
        total += v * large._terms.get(w, Fraction(0))
    return total


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
    vertices = []
    pos = 0
    for k in shape.internal:
        vertices.append(tuple(range(pos, pos + k)))
        pos += k
    external = list(range(pos, pos + shape.external))
    vertices.extend((h,) for h in external)
    edges = tuple(sorted((i - 1, j - 1) for i, j in c.pairs))
    return HalfEdgeGraph(
        edges=edges,
        vertices=tuple(sorted(vertices)),
        external=tuple(external),
        n_empty=0,
    )


def chord_from_graph(g: HalfEdgeGraph) -> tuple[BlockShape, ChordDiagram]:
    """Some decomposition g = Gamma_shape(c), deterministic via the canonical form.

    Graphs with empty vertices have no block presentation (blocks are nonempty).
    """
    if g.n_empty:
        raise EmptyVertexUnsupported("empty vertices admit no chord presentation")
    _, canon = canonical_form(g)
    ext = canon.external_set()
    internal_vertices = [v for v in canon.vertices if not (len(v) == 1 and v[0] in ext)]
    layout = [h for v in internal_vertices for h in v] + sorted(ext)
    position = {h: i + 1 for i, h in enumerate(layout)}
    pairs = [(position[a], position[b]) for a, b in canon.edges]
    shape = BlockShape(tuple(len(v) for v in internal_vertices), len(ext))
    return shape, ChordDiagram.of(pairs)
