import hashlib
import random
from fractions import Fraction
from itertools import accumulate, chain, permutations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from ckhopf import chords, graphs as graphs_module, memo, tensors as tensors_module
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
from ckhopf.cli import main
from ckhopf.corpus import connected_corpus, default_corpus, named_graph
from ckhopf.errors import (
    DimensionMismatch,
    EmptyVertexUnsupported,
    InhomogeneousInput,
    InvalidInput,
    NotInLPlus,
    ResourceBound,
)
from ckhopf.graphs import (
    EMPTY_VERTEX,
    canonical_key,
    disjoint_union,
    dot_graph,
    enumerate_by_grade,
    enumerate_graphs,
    graph,
    is_isomorphic,
    monomial_key,
)
from ckhopf.insertion import insertion_product
from ckhopf.poly import GraphPoly, linear_combination
from ckhopf.tensor_algebra import _norm_term
from ckhopf.tensors import (
    InvariantTensor,
    PairTensor,
    _cut,
    _orbit_size,
    _phi_cached,
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
from test_golden import (
    PHI_TABLE_SHA256,
    PSI_TABLE_SHA256,
    _block_shapes,
    _cut_z_tensor,
    _in_l_plus,
    _phi_cases,
    _psi_cases,
    _psi_digest,
    _psi_line,
    _random_tensor,
)


def P(g):
    return GraphPoly.from_graph(g)


# ---------------------------------------------------------------------------
# block symmetrization and phi


def test_block_symmetrize_merges_words():
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


def test_psi_equals_the_per_diagram_reference_on_phi_images():
    graphs = connected_corpus(4, plus=False)
    assert len(graphs) == 96
    for g in graphs:
        t = phi(g, len(g.edges))
        assert psi(t) == _psi_per_diagram(t) == P(g), g


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


# psi by its definition, with no coinvariant table: the invariant lift of the
# terms of each block shape, written out word by word, paired with z_c for
# every chord diagram c, each value weighting the graph of c on the shape.


def _words_of(term) -> set:
    """Every word that cuts to ``term``: the blocks in every order among those
    of equal size (sizes ascending), each block and the external monomial in
    every order."""
    blocks, ext = term
    sizes = sorted(set(map(len, blocks)))
    orders = [set(permutations([b for b in blocks if len(b) == s])) for s in sizes]
    words = set()
    for order in iproduct(*orders):
        slots = [*chain.from_iterable(order), ext]
        for parts in iproduct(*(set(permutations(m)) for m in slots)):
            words.add(tuple(chain.from_iterable(parts)))
    return words


def _psi_by_definition(t: InvariantTensor) -> GraphPoly:
    grades = {(sum(map(len, blocks)) + len(ext), len(ext)) for (blocks, ext), _ in t.terms()}
    if not grades:
        return GraphPoly.zero()
    ((degree, k),) = grades
    N = degree // 2
    if N > t.dim:
        return GraphPoly.zero()
    summands = []
    for sizes in {tuple(sorted(map(len, blocks))) for (blocks, _), _ in t.terms()}:
        lift: dict = {}
        for (blocks, ext), coeff in t.terms():
            if tuple(sorted(map(len, blocks))) == sizes:
                words = _words_of((blocks, ext))
                for word in words:
                    lift[word] = lift.get(word, 0) + Fraction(coeff) / len(words)
        lift = RawTensor(t.dim, 2 * N, lift)
        shape = BlockShape(sizes, k)
        for c in enumerate_chords(N):
            value = pair_raw(z_coinv(c, t.dim), lift)
            summands.append((GraphPoly.from_graph(graph_from_chord(shape, c)), value))
    return linear_combination(summands, GraphPoly())


def test_psi_equals_its_definition():
    rng = random.Random(23)
    cases = [_cut_z_tensor(rng) for _ in range(150)]
    graphs = [g for edges in range(4) for g in enumerate_graphs(edges, "all") if not g.n_empty]
    assert len(graphs) == 91
    for g in graphs:
        N = len(g.edges)
        cases += [phi(g, n) for n in (N, N + 1) if n]
    memo.clear()
    expected = [_psi_by_definition(t) for t in cases]
    assert tensors_module._psi_table.cache_info().currsize == 0
    seen = set()
    for t, e in zip(cases, expected):
        assert psi(t) == e, t
        if t.is_zero():
            continue
        N, k = t.bigrade()
        shapes = {tuple(sorted(map(len, blocks))) for blocks, _ in t._terms}
        seen.add(("nonzero", not e.is_zero()))
        seen.add(("k > 0", k > 0))
        seen.add(("n > N", t.dim > N))
        seen.add(("several shapes", len(shapes) > 1))
    kinds = ("nonzero", "k > 0", "n > N", "several shapes")
    assert seen == {(kind, b) for kind in kinds for b in (False, True)}
    assert sum(not e.is_zero() for e in expected) >= 120


def test_psi_is_exact_on_integer_coefficients():
    # x1 x1 x2 | x2: chords (12)(34) and (13)(24) give a loop on a trivalent
    # vertex with one leg, over the 3!/2! = 3 orderings of the block
    t = InvariantTensor(2, {(((1, 1, 2),), (2,)): 1})
    (coeff,) = (c for _, c in psi(t).terms())
    assert type(coeff) is Fraction and coeff == Fraction(2, 3)
    assert psi(t) == _psi_by_definition(t)


def test_psi_tables_hold_each_diagram_once_over_the_indices_1_to_N():
    for N in range(5):
        for shape in _block_shapes(N):
            table = tensors_module._psi_table(shape)
            assert sum(entry[0] for entry in table.values()) == len(enumerate_chords(N))
            for blocks, ext in table:
                indices = sorted(chain(ext, *blocks))
                assert indices == sorted(2 * list(range(1, N + 1)))
                assert tuple(sorted(map(len, blocks))) == shape.internal
                assert len(ext) == shape.external


def test_psi_does_not_depend_on_the_shape_tables_being_warm():
    cases = _psi_cases()
    memo.clear()
    cold = list(map(_psi_line, cases))
    warm = list(map(_psi_line, cases))
    memo.clear()
    reversed_order = list(map(_psi_line, reversed(cases)))[::-1]
    assert cold == warm == reversed_order
    assert _psi_digest(cold) == PSI_TABLE_SHA256


# InhomogeneousInput texts as psi, bigrade() and tensor_prelie raised them
# while psi and bigrade() each scanned the terms on their own.
ODD = "term of odd total degree cannot be invariant"


def test_grade_errors_are_shared_by_psi_bigrade_and_prelie():
    odd = InvariantTensor(3, {(((1, 2, 3),), ()): Fraction(1)})
    # an odd term beside even terms of other bigrades: the odd degree is named
    odd_mixed = odd + phi(named_graph("bubble"), 3) + phi(named_graph("twoleg"), 3)
    in_l_plus = phi(named_graph("loop1"), 3)
    cases = [
        (
            phi(named_graph("loop1"), 2) + phi(named_graph("bubble"), 2),
            "tensor is not homogeneous: bigrades [(1, 0), (2, 0)]",
        ),
        (
            InvariantTensor(
                3,
                {
                    (((1, 1),), ()): Fraction(2),
                    (((1, 2, 3),), (2,)): Fraction(-1, 3),
                    (((1,),), (1, 2, 3)): Fraction(1),
                },
            ),
            "tensor is not homogeneous: bigrades [(1, 0), (2, 1), (2, 3)]",
        ),
        (odd, ODD),
        (odd_mixed, ODD),
    ]
    for t, text in cases:
        for evaluate in (psi, InvariantTensor.bigrade):
            with pytest.raises(InhomogeneousInput) as caught:
                evaluate(t)
            assert str(caught.value) == text
    for t in (odd, odd_mixed):
        for args in ((t, in_l_plus), (in_l_plus, t)):
            with pytest.raises(InhomogeneousInput) as caught:
                tensor_prelie(*args)
            assert str(caught.value) == ODD
    with pytest.raises(InhomogeneousInput) as caught:
        InvariantTensor(2).bigrade()
    assert str(caught.value) == "tensor is not homogeneous: bigrades []"
    assert InvariantTensor(2).bigrades() == set()
    assert psi(InvariantTensor(2)).is_zero()
    assert psi(InvariantTensor(0)).is_zero()
    # N > n: three chords over dimension 2, invariant or not
    assert psi(phi(named_graph("theta"), 2)).is_zero()
    assert psi(InvariantTensor(2, {(((1, 1, 2),), (2, 1, 1)): Fraction(5)})).is_zero()


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
    unit = ((), ())
    for key in ((term, unit), (unit, term)):
        with pytest.raises(InvalidInput):
            PairTensor(2, 2, {key: 1})


@pytest.mark.parametrize(
    "key",
    [b"k", (((1,),),), ((1,), ()), (((1.0,),), ()), ((("a",),), ()), ((), (True,)), ((), 1)],
)
def test_constructor_rejects_malformed_keys(key):
    with pytest.raises(InvalidInput):
        InvariantTensor(2, {key: 1})
    unit = ((), ())
    for pair in ((key, unit), (unit, key)):
        with pytest.raises(InvalidInput):
            PairTensor(2, 2, {pair: 1})


@pytest.mark.parametrize("key", [b"k", (((), ()),), ((), (), ()), 7])
def test_pair_tensor_rejects_a_key_that_is_not_a_pair_of_terms(key):
    with pytest.raises(InvalidInput):
        PairTensor(1, 2, {key: 1})


def test_pair_tensor_legs_in_normal_form():
    t = PairTensor(0, 2, {(((), ()), (((2, 1),), ())): Fraction(1)})
    assert t == PairTensor(0, 2, {(((), ()), (((1, 2),), ())): Fraction(1)})
    assert t.left_counit() == InvariantTensor(2, {(((1, 2),), ()): 1})


def test_pair_tensor_checks_each_leg_against_its_dim():
    with pytest.raises(InvalidInput):
        PairTensor(1, 1, {((((5,),), ()), ((), ())): Fraction(1)})
    assert not PairTensor(1, 2, {(((), ()), (((2,),), ())): 1}).is_zero()
    with pytest.raises(InvalidInput):
        PairTensor(2, 1, {(((), ()), (((2,),), ())): 1})


def test_constructor_checks_indices_against_dim():
    assert not InvariantTensor(3, {(((3, 3),), ()): 1}).is_zero()
    assert InvariantTensor(0, {((), ()): 1}) == InvariantTensor.unit(0)
    with pytest.raises(InvalidInput):
        InvariantTensor(0, {((), (1,)): 1})
    with pytest.raises(InvalidInput):
        InvariantTensor(-1, {((), (1,)): 1})


# ---------------------------------------------------------------------------
# phi counts index assignments: checked against beta's words


@pytest.mark.parametrize("n", range(1, 6))
def test_phi_counts_equal_block_symmetrized_beta(n):
    for g, h in _phi_cases():
        shape, c = chord_from_graph(h)
        t = phi(h, n)
        assert t == block_symmetrize(beta(c, n), shape) == phi(g, n)
        coeffs = [v for _, v in t.terms()]
        assert sum(coeffs) == n ** len(h.edges)
        assert all(type(v) is Fraction for v in coeffs)


def _parts(t: InvariantTensor):
    """Every block and external monomial object that the terms of t hold."""
    for blocks, ext in t._terms:
        yield from blocks
        yield ext


def test_phi_terms_share_one_tuple_per_block_and_external_monomial():
    # fresh computations, so that no tensor memoized before a clear of the
    # shared table takes part
    fresh = _phi_cached.__wrapped__
    seen: dict = {}
    for g, h in _phi_cases()[::7]:
        for n in (2, 3, 4):
            for part in chain(_parts(fresh(canonical_key(g), n)), _parts(fresh(canonical_key(h), n))):
                seen.setdefault(part, part)
                assert seen[part] is part, part
    assert {len(part) for part in seen} >= {0, 1, 2, 3, 4}


def test_phi_does_not_depend_on_the_shared_table_being_warm():
    cases = [(h, n) for _, h in _phi_cases() for n in range(1, 6)]
    memo.clear()
    cold = [(n, phi(h, n)) for h, n in cases]
    # computed again past the phi memo, with the shared table warm
    fresh = _phi_cached.__wrapped__
    warm = [(n, fresh(canonical_key(h), n)) for h, n in cases]
    assert warm == cold
    for t in (cold, warm):
        lines = [f"{n} {list(tn.terms())!r}" for n, tn in t]
        assert hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest() == PHI_TABLE_SHA256
    # the warm run took every tuple from the table that the cold run filled
    for (_, a), (_, b) in zip(cold, warm):
        assert all(x is y for x, y in zip(_parts(a), _parts(b)))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_phi_with_six_or_more_legs_equals_block_symmetrized_beta(n):
    # two 4-valent vertices joined by an edge, three legs each and a loop on
    # one: 8 chords whose external slice has 6 positions
    legged = graph(
        edges=[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15)],
        vertices=[(0, 2, 4, 6, 14, 15), (1, 8, 10, 12), (3,), (5,), (7,), (9,), (11,), (13,)],
        external=[3, 5, 7, 9, 11, 13],
    )
    for g in (dot_graph(6), dot_graph(7), legged):
        shape, c = chord_from_graph(g)
        assert shape.external >= 6
        assert phi(g, n) == block_symmetrize(beta(c, n), shape)


def test_phi_and_beta_share_the_assignment_bound(monkeypatch):
    # theta has 3 chords: 2**3 assignments are within a bound of 8, 3**3 are not
    theta = named_graph("theta")
    shape, c = chord_from_graph(theta)
    monkeypatch.setattr(chords, "_MAX_WORDS", 8)
    # the memo is bypassed, so a tensor cached earlier cannot hide the bound
    assert _phi_cached.__wrapped__(canonical_key(theta), 2) == block_symmetrize(beta(c, 2), shape)
    with pytest.raises(ResourceBound):
        beta(c, 3)
    with pytest.raises(ResourceBound):
        _phi_cached.__wrapped__(canonical_key(theta), 3)


def test_phi_raises_resource_bound_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("phi enumerated assignments above the bound")

    monkeypatch.setattr(tensors_module, "iproduct", refuse)
    with pytest.raises(ResourceBound):
        phi(named_graph("theta"), 100000)
    assert main(["phi", "theta", "--dim", "100000"]) == 2


def test_phi_keeps_one_tensor_per_class():
    memo.clear(memo.SUITE)
    cases = _phi_cases()[::5]
    assert sum(g != h for g, h in cases) > len(cases) // 2
    for g, h in cases:
        assert phi(g, 2) is phi(h, 2)
    assert _phi_cached.cache_info().currsize == len(cases)
    # the two orders of a disjoint union are two labelled graphs of one class
    a, b = named_graph("theta"), named_graph("twoleg")
    assert disjoint_union(a, b) != disjoint_union(b, a)
    memo.clear(memo.SUITE)
    assert phi(disjoint_union(a, b), 3) is phi(disjoint_union(b, a), 3)
    assert _phi_cached.cache_info().currsize == 1


def test_phi_memoizes_no_refusal():
    memo.clear(memo.SUITE)
    with pytest.raises(EmptyVertexUnsupported):
        phi(disjoint_union(named_graph("loop1"), EMPTY_VERTEX), 2)
    with pytest.raises(ResourceBound):
        phi(named_graph("theta"), 100000)
    assert _phi_cached.cache_info().currsize == 0


def test_psi_tables_canonicalize_their_graphs_without_the_labelled_memo():
    cases = [(phi(g, 4), P(g)) for g, _ in _phi_cases()[::3]]
    memo.clear(memo.SUITE)
    before = graphs_module._canonical.cache_info().currsize
    assert [psi(t) for t, _ in cases] == [p for _, p in cases]
    assert graphs_module._canonical.cache_info().currsize == before


def test_phi_poly_reads_each_term_by_its_written_key():
    a, b = named_graph("loop1"), named_graph("twoleg")
    p = P(disjoint_union(a, b)) + P(a).scale(3)
    want = phi(disjoint_union(b, a), 3) + phi(a, 3).scale(3)
    memo.clear(memo.SUITE)
    before = graphs_module._canonical.cache_info().currsize
    assert phi_poly(p, 3) == want
    assert graphs_module._canonical.cache_info().currsize == before


# ---------------------------------------------------------------------------
# operations that build through the private constructor stay in normal form


def _public_copy(t: InvariantTensor) -> InvariantTensor:
    return InvariantTensor(t.dim, dict(t._terms))


def _assert_normal(t: InvariantTensor) -> None:
    assert type(t) is InvariantTensor
    assert t == _public_copy(t)
    assert all(type(v) is Fraction for v in t._terms.values())


def test_private_path_results_equal_their_public_copies():
    rng = random.Random(16)
    for dim in range(5):
        for _ in range(40):
            t1, t2 = _random_tensor(rng, dim), _random_tensor(rng, dim)
            _assert_normal(t1.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
            _assert_normal(t1.scale(rng.randint(-3, 3)))
            _assert_normal(linear_combination([(t1, 2), (t2, Fraction(-1, 3)), (t1, -2)], t1))
            _assert_normal(t1 + t2)
            _assert_normal(t1 - t2)
            _assert_normal(t1 - t1)
            _assert_normal(-t1)
            _assert_normal(tensor_mul(t1, t2))
            for n in range(dim + 1):
                _assert_normal(project_to(t1, n))
            for m in range(dim + 1):
                d = tensor_delta(tensor_mul(t1, t2), m, dim - m)
                _assert_normal(d.left_counit())
                _assert_normal(d.right_counit())
    for dim in range(1, 4):
        pool = [t for t in (_random_tensor(rng, dim) for _ in range(300)) if _in_l_plus(t)][:12]
        for t1 in pool:
            for t2 in pool:
                _assert_normal(tensor_prelie(t1, t2))
    for g in connected_corpus(3):
        for n in range(1, 4):
            _assert_normal(phi(g, n))
