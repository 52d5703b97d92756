import pytest
from hypothesis import given, settings, strategies as st

from ckhopf.chords import (
    BlockShape,
    ChordDiagram,
    RawTensor,
    beta,
    chord_from_graph,
    enumerate_chords,
    graph_from_chord,
    pair_raw,
    z_coinv,
)
from ckhopf.corpus import named_graph
from ckhopf.errors import (
    DimensionTooSmall,
    EmptyVertexUnsupported,
    InvalidInput,
    LengthMismatch,
    ShapeMismatch,
)
from ckhopf.graphs import HalfEdgeGraph, GradeTriple, is_isomorphic


def test_chord_normalization():
    c1 = ChordDiagram.of([(2, 1), (3, 4)])
    c2 = ChordDiagram.of([(3, 4), (1, 2)])
    assert c1 == c2


def test_chord_rejects_non_partition():
    with pytest.raises(ShapeMismatch):
        ChordDiagram.of([(1, 2), (2, 3)])
    with pytest.raises(ShapeMismatch):
        ChordDiagram.of([(1, 1)])


def test_enumerate_chords_rejects_negative_count():
    with pytest.raises(InvalidInput):
        enumerate_chords(-1)


def test_enumerate_chords_counts():
    assert len(enumerate_chords(0)) == 1
    assert {c.pairs for c in enumerate_chords(2)} == {
        (((1, 2), (3, 4))),
        (((1, 3), (2, 4))),
        (((1, 4), (2, 3))),
    }
    assert len(enumerate_chords(3)) == 15
    assert len(enumerate_chords(4)) == 105
    assert len(enumerate_chords(5)) == 945


def test_beta_one_chord():
    b = beta(ChordDiagram.of([(1, 2)]), 2)
    assert b.coeff((1, 1)) == 1
    assert b.coeff((2, 2)) == 1
    assert b.coeff((1, 2)) == 0


def test_beta_representation_independent():
    c = ChordDiagram.of([(1, 2), (3, 4)])
    c_flipped = ChordDiagram.of([(4, 3), (2, 1)])
    assert beta(c, 3) == beta(c_flipped, 3)


def test_beta_restriction_naturality():
    for c in enumerate_chords(2):
        f = beta(c, 3)
        restricted = RawTensor(2, f.length, {w: v for w, v in f.terms() if all(x <= 2 for x in w)})
        assert restricted == beta(c, 2)


def test_z_examples():
    assert z_coinv(ChordDiagram.of([(1, 2)]), 1).coeff((1, 1)) == 1
    assert z_coinv(ChordDiagram.of([(1, 3), (2, 4)]), 2).coeff((1, 2, 1, 2)) == 1


def test_z_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        z_coinv(ChordDiagram.of([(1, 3), (2, 4)]), 1)


def test_pair_raw_duality_matrix():
    for N in (1, 2, 3):
        for n in (N, N + 1):
            for c1 in enumerate_chords(N):
                for c2 in enumerate_chords(N):
                    assert pair_raw(beta(c1, n), z_coinv(c2, n)) == (1 if c1 == c2 else 0)


def test_pair_raw_length_mismatch():
    with pytest.raises(LengthMismatch):
        pair_raw(RawTensor(2, 2, {}), RawTensor(2, 4, {}))


def test_graph_from_chord_examples(loop1, bubble):
    assert is_isomorphic(graph_from_chord(BlockShape((2,), 0), ChordDiagram.of([(1, 2)])), loop1)
    assert is_isomorphic(
        graph_from_chord(BlockShape((2, 2), 0), ChordDiagram.of([(1, 3), (2, 4)])), bubble
    )


def test_graph_from_chord_grade():
    # n = N and k = k0 always; m = N - k0 unless a chord pairs two external
    # positions, each such chord contributing an extra internal-edge deficit
    shape = BlockShape((2, 2, 1, 1), 2)
    ext_positions = {7, 8}
    for c in enumerate_chords(4):
        g = graph_from_chord(shape, c)
        ee = sum(1 for i, j in c.pairs if i in ext_positions and j in ext_positions)
        assert g.grade() == GradeTriple(4, 4 - 2 + ee, 2)


def test_graph_from_chord_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        graph_from_chord(BlockShape((2,), 1), ChordDiagram.of([(1, 2)]))


def test_chord_from_graph_round_trip():
    for name in ("loop1", "bubble", "twoleg", "tadpole2", "dot_1", "dot_2", "theta", "freeprop"):
        g = named_graph(name)
        shape, c = chord_from_graph(g)
        assert is_isomorphic(graph_from_chord(shape, c), g)


def test_chord_from_graph_both_bubble_diagrams(bubble):
    shape, c = chord_from_graph(bubble)
    assert shape == BlockShape((2, 2), 0)
    assert c in (ChordDiagram.of([(1, 3), (2, 4)]), ChordDiagram.of([(1, 4), (2, 3)]))


def test_chord_from_graph_rejects_empty_vertices():
    with pytest.raises(EmptyVertexUnsupported):
        chord_from_graph(HalfEdgeGraph((), (), (), 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4))
def test_chord_count_double_factorial(n):
    count = len(enumerate_chords(n))
    want = 1
    for k in range(2 * n - 1, 1, -2):
        want *= k
    assert count == want


def test_enumerate_chords_resource_bound():
    from ckhopf.errors import ResourceBound

    with pytest.raises(ResourceBound):
        enumerate_chords(7)
