import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from ckhopf.chords import BlockShape, ChordDiagram, beta, enumerate_chords, graph_from_chord, z_coinv
from ckhopf.corpus import connected_corpus, default_corpus, named_graph
from ckhopf.errors import DimensionMismatch, InhomogeneousInput, InvalidInput, NotInLPlus
from ckhopf.graphs import (
    disjoint_union,
    enumerate_by_grade,
    enumerate_graphs,
    is_isomorphic,
    monomial_key,
)
from ckhopf.insertion import insertion_product
from ckhopf.poly import GraphPoly, linear_combination
from ckhopf.tensors import (
    InvariantTensor,
    PairTensor,
    _cut,
    _norm_term,
    _orbit_size,
    apply_signed_permutation,
    block_symmetrize,
    phi,
    phi_poly,
    project,
    project_to,
    psi,
    tensor_delta,
    tensor_mul,
    tensor_prelie,
)
from test_canonical import _relabelled
from test_golden import _random_tensor


def P(g):
    return GraphPoly.from_graph(g)


# ---------------------------------------------------------------------------
# block symmetrization and phi


def test_block_symmetrize_merges_words():
    from ckhopf.chords import RawTensor

    f = RawTensor(2, 2, {(1, 2): Fraction(1), (2, 1): Fraction(1)})
    t = block_symmetrize(f, BlockShape((2,), 0))
    assert t.coeff([(1, 2)], []) == 2


def test_block_symmetrize_beta_loop():
    t = block_symmetrize(beta(ChordDiagram.of([(1, 2)]), 3), BlockShape((2,), 0))
    assert t == phi(named_graph("loop1"), 3)
    assert len(t) == 3


def test_phi_loop1(loop1):
    t = phi(loop1, 2)
    assert t.coeff([(1, 1)], []) == 1
    assert t.coeff([(2, 2)], []) == 1
    assert t.bigrade() == (1, 0)


def test_phi_bubble(bubble):
    t = phi(bubble, 2)
    # sum over i, j of blocks {x_i x_j, x_i x_j}
    assert t.coeff([(1, 2), (1, 2)], []) == 2
    assert t.coeff([(1, 1), (1, 1)], []) == 1
    assert t.bigrade() == (2, 0)


def test_phi_twoleg(twoleg):
    t = phi(twoleg, 2)
    assert t.coeff([(1, 1), (1, 2)], (1, 2)) == 2
    assert t.bigrade() == (3, 2)


def test_phi_bigrade_matches_graph_grade():
    for g in default_corpus(3):
        if g.n_empty or not g.edges:
            continue
        gr = g.grade()
        assert phi(g, 3).bigrade() == (gr.n, gr.k)


def test_phi_independent_of_presentation(bubble):
    # both chord diagrams of the bubble give the same tensor
    for c in (ChordDiagram.of([(1, 3), (2, 4)]), ChordDiagram.of([(1, 4), (2, 3)])):
        assert block_symmetrize(beta(c, 3), BlockShape((2, 2), 0)) == phi(bubble, 3)


# ---------------------------------------------------------------------------
# multiplication


def test_tensor_mul_is_phi_of_union():
    pairs = [("loop1", "loop1"), ("loop1", "bubble"), ("dumbbell", "twoleg")]
    for n1, n2 in pairs:
        g1, g2 = named_graph(n1), named_graph(n2)
        assert tensor_mul(phi(g1, 3), phi(g2, 3)) == phi(disjoint_union(g1, g2), 3)


def test_tensor_mul_unit_and_commutativity():
    t = phi(named_graph("bubble"), 2)
    one = InvariantTensor.unit(2)
    assert tensor_mul(t, one) == t
    s = phi(named_graph("dot_2"), 2)
    assert tensor_mul(t, s) == tensor_mul(s, t)


def test_tensor_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        tensor_mul(InvariantTensor.unit(2), InvariantTensor.unit(3))


def test_tensor_mul_adds_bigrades():
    t1, t2 = phi(named_graph("loop1"), 3), phi(named_graph("twoleg"), 3)
    N1, k1 = t1.bigrade()
    N2, k2 = t2.bigrade()
    assert tensor_mul(t1, t2).bigrade() == (N1 + N2, k1 + k2)


# ---------------------------------------------------------------------------
# coproduct


def test_delta_primitive_on_connected():
    for name in ("loop1", "bubble", "twoleg", "tadpole2"):
        g = named_graph(name)
        lhs = tensor_delta(phi(g, 6), 3, 3)
        rhs = PairTensor.outer(phi(g, 3), InvariantTensor.unit(3)) + PairTensor.outer(
            InvariantTensor.unit(3), phi(g, 3)
        )
        assert lhs == rhs, name


def test_delta_rejects_negative_dimensions():
    t = phi(named_graph("loop1"), 2)
    with pytest.raises(InvalidInput):
        tensor_delta(t, -1, 3)
    with pytest.raises(InvalidInput):
        tensor_delta(t, 3, -1)


def test_delta_cross_terms():
    g1, g2 = named_graph("loop1"), named_graph("dumbbell")
    u = disjoint_union(g1, g2)
    one = InvariantTensor.unit(2)
    lhs = tensor_delta(phi(u, 4), 2, 2)
    rhs = (
        PairTensor.outer(phi(u, 2), one)
        + PairTensor.outer(one, phi(u, 2))
        + PairTensor.outer(phi(g1, 2), phi(g2, 2))
        + PairTensor.outer(phi(g2, 2), phi(g1, 2))
    )
    assert lhs == rhs


def test_delta_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        tensor_delta(phi(named_graph("loop1"), 3), 2, 2)


def test_delta_bigrade_additive():
    t = phi(named_graph("bubble"), 4)
    N, k = t.bigrade()
    for (tl, tr), _ in tensor_delta(t, 2, 2).terms():
        left = InvariantTensor(2, {tl: Fraction(1)})
        right = InvariantTensor(2, {tr: Fraction(1)})
        NL, kL = left.bigrade()
        NR, kR = right.bigrade()
        assert NL + NR == N and kL + kR == k


def _delta_left(d: PairTensor, m: int, n: int) -> dict:
    """(tensor_delta (x) id) of d, keyed by (left, middle, right) terms."""
    out = {}
    for (tl, tr), c in d.terms():
        for (a, b), c2 in tensor_delta(InvariantTensor(d.dim_left, {tl: c}), m, n).terms():
            out[a, b, tr] = out.get((a, b, tr), Fraction(0)) + c2
    return out


def _delta_right(d: PairTensor, m: int, n: int) -> dict:
    """(id (x) tensor_delta) of d, keyed by (left, middle, right) terms."""
    out = {}
    for (tl, tr), c in d.terms():
        for (a, b), c2 in tensor_delta(InvariantTensor(d.dim_right, {tr: c}), m, n).terms():
            out[tl, a, b] = out.get((tl, a, b), Fraction(0)) + c2
    return out


def test_delta_coassociative_on_random_tensors():
    rng = random.Random(17)
    for _ in range(150):
        m1, m2, m3 = (rng.randint(0, 2) for _ in range(3))
        t = _random_tensor(rng, m1 + m2 + m3)
        left = _delta_left(tensor_delta(t, m1 + m2, m3), m1, m2)
        right = _delta_right(tensor_delta(t, m1, m2 + m3), m2, m3)
        assert left == right, (t._terms, m1, m2, m3)


def test_delta_hand_computed_split():
    # over dim 3 with m = 1: the first term has two equal blocks and a
    # repeated external index 1, all <= 1, and a block (2, 3) > 1, so it
    # splits one way only; the block (1, 2) of the second term straddles m
    t = InvariantTensor(
        3,
        {
            (((1, 1), (1, 1), (2, 3)), (1, 1, 3)): Fraction(2),
            (((1, 2), (3, 3)), (2,)): Fraction(3),
        },
    )
    left = (((1, 1), (1, 1)), (1, 1))
    right = (((1, 2),), (2,))
    assert tensor_delta(t, 1, 2) == PairTensor(1, 2, {(left, right): Fraction(2)})


# ---------------------------------------------------------------------------
# pre-Lie


def test_tensor_prelie_concrete(loop1, twoleg, bubble):
    for n in (3, 4):
        assert tensor_prelie(phi(loop1, n), phi(twoleg, n)) == phi(bubble, n).scale(2)
    assert tensor_prelie(phi(twoleg, 3), phi(loop1, 3)).is_zero()


def test_tensor_prelie_requires_lplus():
    dot2 = phi(named_graph("dot_2"), 3)  # bigrade (2, 2), not in l_plus
    loop = phi(named_graph("loop1"), 3)
    with pytest.raises(NotInLPlus):
        tensor_prelie(dot2, loop)
    with pytest.raises(NotInLPlus):
        tensor_prelie(loop, dot2)


def test_tensor_prelie_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        tensor_prelie(phi(named_graph("loop1"), 2), phi(named_graph("loop1"), 3))


def test_tensor_prelie_equivariance_sampled():
    rng = random.Random(11)
    plus = connected_corpus(2)
    for _ in range(8):
        g1, g2 = rng.choice(plus), rng.choice(plus)
        n = len(g1.edges) + len(g2.edges)
        lhs = phi_poly(insertion_product(P(g1), P(g2)), n)
        assert lhs == tensor_prelie(phi(g1, n), phi(g2, n))


# ---------------------------------------------------------------------------
# projection and invariance


def test_project_naturality():
    for name in ("loop1", "bubble", "twoleg", "theta"):
        g = named_graph(name)
        assert project(phi(g, 4)) == phi(g, 3)


def test_project_to_keeps_the_terms_with_indices_up_to_n():
    rng = random.Random(5)
    for _ in range(40):
        t = _random_tensor(rng, rng.randint(0, 5))
        for n in range(0, t.dim):
            kept = {
                (blocks, ext): c
                for (blocks, ext), c in t.terms()
                if all(x <= n for x in [*ext, *(x for b in blocks for x in b)])
            }
            assert project_to(t, n) == InvariantTensor(n, kept), (t, n)
        assert project_to(t, t.dim) is t and project_to(t, t.dim + 1) is t


def test_project_to_rejects_a_negative_dimension():
    for dim in range(3):
        with pytest.raises(InvalidInput):
            project_to(InvariantTensor.unit(dim), -1)
    with pytest.raises(InvalidInput):
        project(InvariantTensor.unit(0))


def test_project_commutes_with_mul():
    g1, g2 = named_graph("loop1"), named_graph("bubble")
    big = tensor_mul(phi(g1, 4), phi(g2, 4))
    assert project(big) == tensor_mul(phi(g1, 3), phi(g2, 3))


def test_project_commutes_with_prelie():
    g1, g2 = named_graph("loop1"), named_graph("twoleg")
    big = tensor_prelie(phi(g1, 4), phi(g2, 4))
    assert project(big) == tensor_prelie(phi(g1, 3), phi(g2, 3))


def test_signed_permutation_invariance():
    rng = random.Random(2)
    for name in ("loop1", "bubble", "twoleg", "tadpole2", "dot_2"):
        t = phi(named_graph(name), 3)
        for _ in range(5):
            perm = [1, 2, 3]
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(3)]
            assert apply_signed_permutation(t, perm, signs) == t


# ---------------------------------------------------------------------------
# psi


def test_psi_inverts_phi_on_corpus():
    for g in default_corpus(2):
        if g.n_empty:
            continue
        N = len(g.edges)
        for n in range(max(N, 1), 4):
            assert psi(phi(g, n)) == P(g), (g, n)


def test_psi_zero_above_dimension():
    theta = named_graph("theta")  # three edges
    assert psi(phi(theta, 2)).is_zero()


def test_psi_inhomogeneous_rejected():
    t = phi(named_graph("loop1"), 2) + phi(named_graph("bubble"), 2)
    with pytest.raises(InhomogeneousInput):
        psi(t)


def test_psi_unit():
    from ckhopf.graphs import EMPTY_GRAPH
    from ckhopf.hopf import unit

    assert psi(InvariantTensor.unit(2)) == unit()
    assert psi(phi(EMPTY_GRAPH, 2)) == unit()


def test_phi_psi_identity_on_image():
    for name in ("loop1", "bubble", "twoleg", "tadpole2"):
        t = phi(named_graph(name), 4)
        assert phi_poly(psi(t), 4) == t


def test_psi_linear_on_mixed_shapes():
    # same bigrade (2, 0), different block shapes: psi acts per shape group
    b = named_graph("bubble")
    w = named_graph("twoloop")
    t = phi(b, 3) + phi(w, 3).scale(Fraction(5, 2))
    assert psi(t) == P(b) + P(w).scale(Fraction(5, 2))
    # every class of grade (3, 3, 0), connected or not, with distinct weights
    graphs = enumerate_by_grade(3, 3, 0)
    assert len({tuple(sorted(map(len, g.vertices))) for g in graphs}) > 3
    weights = [Fraction(i + 1, 3) * (-1) ** i for i in range(len(graphs))]
    t = linear_combination(((phi(g, 3), c) for g, c in zip(graphs, weights)), InvariantTensor(3))
    expected = linear_combination(((P(g), c) for g, c in zip(graphs, weights)), GraphPoly())
    assert psi(t) == expected


def test_psi_inverts_phi_on_five_edge_sample():
    connected = enumerate_graphs(5, "connected")
    assert len(connected) == 226
    for g in random.Random(5).sample(connected, 20):
        assert psi(phi(g, 5)) == P(g), g


# Non-image tensors, one per factor of the orbit size.  Each coinvariant word
# uses every index exactly twice, so psi reads only such terms.


def test_psi_divides_by_repeats_inside_a_block():
    # Block x1 x1 x2 x2: all three chord diagrams on one 4-valent vertex cut to
    # it; its 4!/(2!2!) = 6 orderings give 3 * 1/6 of the figure eight.
    t = InvariantTensor(2, {(((1, 1, 2, 2),), ()): Fraction(1)})
    assert psi(t) == P(named_graph("twoloop")).scale(Fraction(1, 2))


def test_psi_divides_by_swaps_of_identical_blocks():
    # Blocks {x1 x2, x1 x2}: chords (13)(24) and (14)(23) cut to them, both the
    # bubble; 2 * 2 within-block orderings and one distinct block order: 2 * 1/4.
    t = InvariantTensor(2, {(((1, 2), (1, 2)), ()): Fraction(1)})
    assert psi(t) == P(named_graph("bubble")).scale(Fraction(1, 2))


def test_psi_divides_by_repeats_in_the_external_monomial():
    # External x1 x1 alone at dimension 2 (phi of the free propagator is
    # x1 x1 + x2 x2): the one chord gives the free propagator, orbit 2!/2! = 1.
    t = InvariantTensor(2, {((), (1, 1)): Fraction(3)})
    assert psi(t) == P(named_graph("freeprop")).scale(3)


# psi groups the chord diagrams of a block shape by their block multigraph and
# canonicalizes one graph per group.  The reference below is the loop it
# replaced: one canonical form and one orbit-size division per diagram.


def _psi_per_diagram(t: InvariantTensor) -> GraphPoly:
    n = t.dim
    if t.is_zero():
        return GraphPoly.zero()
    N, k = t.bigrade()
    if N > n:
        return GraphPoly.zero()
    summands = []
    for sizes in sorted({tuple(sorted(map(len, blocks))) for (blocks, _), _ in t.terms()}):
        shape = BlockShape(sizes, k)
        cuts = list(accumulate(sizes, initial=0))
        for c in enumerate_chords(N):
            ((word, _),) = z_coinv(c, n).terms()
            term = _norm_term(*_cut(word, cuts))
            coeff = t.coeff(*term)
            if coeff:
                graph = GraphPoly.from_graph(graph_from_chord(shape, c))
                summands.append((graph, coeff / _orbit_size(term)))
    return linear_combination(summands, GraphPoly())


def _partitions(total: int, least: int = 1):
    """Nondecreasing tuples of positive parts summing to ``total``."""
    if total == 0:
        yield ()
    for part in range(least, total + 1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def _block_shapes(N: int):
    """Every block shape on 2N positions with sorted internal sizes, as psi reads them."""
    for k in range(2 * N + 1):
        for sizes in _partitions(2 * N - k):
            yield BlockShape(sizes, k)


def test_psi_equals_the_per_diagram_reference_on_phi_images():
    graphs = connected_corpus(4, plus=False)
    assert len(graphs) == 96
    for g in graphs:
        t = phi(g, len(g.edges))
        assert psi(t) == _psi_per_diagram(t) == P(g), g


def _cut_z_tensor(rng: random.Random) -> InvariantTensor:
    """A random tensor of one bigrade, not invariant: each term is a coinvariant
    word under a random relabelling of its indices, cut along a random shape."""
    N = rng.randint(1, 4)
    n = rng.randint(N, N + 1)
    k = rng.randint(0, 2 * N)
    shapes = [shape for shape in _block_shapes(N) if shape.external == k]
    terms = []
    for _ in range(rng.randint(1, 6)):
        shape = rng.choice(shapes)
        ((word, _),) = z_coinv(rng.choice(enumerate_chords(N)), n).terms()
        if rng.random() < 0.8:
            index_map = rng.sample(range(1, n + 1), n)  # a permutation of the indices
        else:
            index_map = [rng.randint(1, n) for _ in range(n)]  # any map of them
        word = [index_map[x - 1] for x in word]
        cuts = list(accumulate(shape.internal, initial=0))
        terms.append((_cut(word, cuts), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    return InvariantTensor(n, terms)


def test_psi_equals_the_per_diagram_reference_on_random_tensors():
    rng = random.Random(2012)
    nonzero = 0
    for _ in range(300):
        t = _cut_z_tensor(rng)
        expected = _psi_per_diagram(t)
        assert psi(t) == expected, t
        nonzero += not expected.is_zero()
    assert nonzero >= 150


def test_diagrams_with_one_block_multigraph_share_a_graph_and_an_orbit_size():
    cases = 0
    groups: dict = {}
    for N in range(1, 5):
        for shape in _block_shapes(N):
            cuts = list(accumulate(shape.internal, initial=0))
            block_of = [b for b, s in enumerate((*shape.internal, shape.external)) for _ in range(s)]
            for c in enumerate_chords(N):
                cases += 1
                multigraph = tuple(sorted((block_of[i - 1], block_of[j - 1]) for i, j in c.pairs))
                ((word, _),) = z_coinv(c, N).terms()
                orbit = _orbit_size(_norm_term(*_cut(word, cuts)))
                key = monomial_key(graph_from_chord(shape, c))
                groups.setdefault((shape, multigraph), set()).add((key, orbit))
    assert cases == 7525 and len(groups) == 1126
    assert all(len(found) == 1 for found in groups.values())


_WINDOW = [g for g in default_corpus(4) if not g.n_empty]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_WINDOW), st.integers(0, 10**9), st.integers(0, 2))
def test_phi_and_psi_under_relabelling(g, seed, extra):
    N = len(g.edges)
    n = N + extra - 1 if N else extra
    h = _relabelled(g, random.Random(seed))
    t = phi(h, n)
    assert t == phi(g, n)
    assert psi(t) == (P(g) if N <= n else GraphPoly.zero())


def test_beta_rank_drops_below_dimension():
    # at n = 1 every beta_c collapses to the all-ones word: rank 1, not 3
    from ckhopf.chords import beta, enumerate_chords

    tensors = [beta(c, 1) for c in enumerate_chords(2)]
    assert all(t == tensors[0] for t in tensors)


# ---------------------------------------------------------------------------
# the term normal form


def test_constructor_sorts_and_merges_terms():
    t = InvariantTensor(3, {(((2, 1), (1,)), (3, 1)): 1, (((1,), (1, 2)), (1, 3)): Fraction(1, 2)})
    assert list(t.terms()) == [((((1,), (1, 2)), (1, 3)), Fraction(3, 2))]
    assert InvariantTensor(2, {(((2, 1),), ()): 1, (((1, 2),), ()): -1}).is_zero()


def test_unsorted_block_equals_its_sorted_twin():
    t = InvariantTensor(2, {(((2, 1),), ()): 1})
    twin = InvariantTensor(2, {(((1, 2),), ()): 1})
    assert t == twin and hash(t) == hash(twin)


def test_unsorted_block_coefficient():
    t = InvariantTensor(2, {(((2, 1),), ()): 1})
    assert t.coeff([(1, 2)], []) == 1
    assert t.coeff([(2, 1)], []) == 1


def test_unsorted_block_straddles_in_delta():
    # the block x1*x2 straddles m = 1, so the term has no split
    t = InvariantTensor(2, {(((2, 1),), ()): 1})
    assert tensor_delta(t, 1, 1).is_zero()


@pytest.mark.parametrize(
    "term",
    [(((),), ()), (((1, 2), ()), (1,)), (((9, 9),), ()), (((0, 1),), ()), ((), (1, 3))],
)
def test_constructor_rejects_bad_blocks_and_indices(term):
    with pytest.raises(InvalidInput):
        InvariantTensor(2, {term: 1})
    with pytest.raises(InvalidInput):
        InvariantTensor(2, [(term, 1)])
    with pytest.raises(InvalidInput):
        InvariantTensor(2, {term: 0})


def test_constructor_checks_indices_against_dim():
    assert not InvariantTensor(3, {(((3, 3),), ()): 1}).is_zero()
    assert InvariantTensor(0, {((), ()): 1}) == InvariantTensor.unit(0)
    with pytest.raises(InvalidInput):
        InvariantTensor(0, {((), (1,)): 1})
    with pytest.raises(InvalidInput):
        InvariantTensor(-1, {((), (1,)): 1})
