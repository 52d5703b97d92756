import random
from fractions import Fraction

import pytest

from ckhopf import hopf
from ckhopf.corpus import connected_corpus, named_graph
from ckhopf.errors import InvalidInput
from ckhopf.graphs import (
    EMPTY_VERTEX,
    disjoint_union,
    dot_graph,
    enumerate_graphs,
    free_propagator,
    monomial_key,
)
from ckhopf.insertion import insertion_product
from ckhopf.poly import EMPTY_KEY, GraphPoly, GraphTensorPoly, grade_of, poly, product


def K(g):
    return monomial_key(g)


def P(g):
    return GraphPoly.from_graph(g)


def coeff_pair(d: GraphTensorPoly, k1, k2) -> Fraction:
    return dict(d.terms()).get((k1, k2), Fraction(0))


# ---------------------------------------------------------------------------
# product


def test_product_unit(bubble):
    assert product(P(bubble), hopf.unit()) == P(bubble)


def test_product_basis(loop1):
    got = product(P(loop1), P(loop1))
    assert got == P(disjoint_union(loop1, loop1))


def test_product_commutative_random():
    rng = random.Random(3)
    classes = enumerate_graphs(2, "all")
    for _ in range(20):
        p = poly(rng.choice(classes), rng.randint(-3, 3), rng.choice(classes), rng.randint(-3, 3))
        q = poly(rng.choice(classes), rng.randint(-3, 3))
        assert product(p, q) == product(q, p)


# ---------------------------------------------------------------------------
# coproduct


def test_coproduct_loop1_trivial_terms_only(loop1):
    d = hopf.coproduct(P(loop1))
    assert d == GraphTensorPoly(
        {(EMPTY_KEY, K(loop1)): Fraction(1), (K(loop1), EMPTY_KEY): Fraction(1)}
    )


def test_coproduct_bubble(bubble, twoleg, loop1):
    # the two one-edge subgraphs both extract to twoleg with quotient loop1
    d = hopf.coproduct(P(bubble))
    assert coeff_pair(d, K(twoleg), K(loop1)) == 2
    assert coeff_pair(d, EMPTY_KEY, K(bubble)) == 1
    assert coeff_pair(d, K(bubble), EMPTY_KEY) == 1
    assert len(d) == 3


def test_coproduct_grading_window():
    for n in range(4):
        for g in enumerate_graphs(n, "all"):
            gr = g.grade()
            for (k1, k2), _ in hopf.coproduct(P(g)).terms():
                g1, g2 = grade_of(k1), grade_of(k2)
                assert g1.m + g2.m == gr.m
                assert gr.n <= g1.n + g2.n <= 3 * gr.n


def test_counit():
    assert hopf.counit(hopf.unit()) == 1
    assert hopf.counit(P(named_graph("loop1"))) == 0
    # (counit (x) id) o coproduct = id
    for g in enumerate_graphs(2, "all"):
        collapsed = GraphPoly.zero()
        for (k1, k2), c in hopf.coproduct(P(g)).terms():
            if k1 == EMPTY_KEY:
                collapsed = collapsed + GraphPoly({k2: c})
        assert collapsed == P(g)


# ---------------------------------------------------------------------------
# antipode


def test_antipode_primitive(loop1):
    assert hopf.antipode(P(loop1)) == P(loop1).scale(-1)


def test_antipode_bubble(bubble, twoleg, loop1):
    got = hopf.antipode(P(bubble))
    want = P(bubble).scale(-1) + product(P(twoleg), P(loop1)).scale(2)
    assert got == want


def test_antipode_axiom_through_three_edges():
    for n in range(4):
        for g in enumerate_graphs(n, "all"):
            p = P(g)
            total = GraphPoly.zero()
            for (k1, k2), c in hopf.coproduct(p).terms():
                s = hopf.antipode(GraphPoly({k1: Fraction(1)}))
                total = total + product(s, GraphPoly({k2: Fraction(1)})).scale(c)
            assert total == hopf.unit(hopf.counit(p)), g


# ---------------------------------------------------------------------------
# pairing


def test_pairing_examples(loop1, bubble):
    assert hopf.pairing(P(loop1), P(loop1)) == 1
    assert hopf.pairing(P(loop1), P(bubble)) == 0


def test_pairing_orthogonal_degrees():
    classes = {n: enumerate_graphs(n, "all") for n in range(3)}
    for i, gi in classes.items():
        for j, gj in classes.items():
            if i == j:
                continue
            for g1 in gi:
                for g2 in gj:
                    assert hopf.pairing(P(g1), P(g2)) == 0


# ---------------------------------------------------------------------------
# star product


def test_star_concrete_instance(twoleg, loop1, bubble):
    got = hopf.star_product(P(twoleg), P(loop1))
    want = product(P(twoleg), P(loop1)) + P(bubble).scale(2)
    assert got == want


def test_star_with_K_right_factor():
    plus = connected_corpus(2)
    ks = [dot_graph(1), dot_graph(2), free_propagator()]
    for g1 in plus:
        for g2 in ks:
            assert hopf.star_product(P(g1), P(g2)) == product(P(g1), P(g2))


def test_star_unit():
    b = P(named_graph("bubble"))
    assert hopf.star_product(hopf.unit(), b) == b
    assert hopf.star_product(b, hopf.unit()) == b


def test_star_rejects_empty_vertices(loop1):
    # used to return a silent 0: the candidate scan never meets an empty vertex
    vertex, with_vertex = P(EMPTY_VERTEX), P(disjoint_union(loop1, EMPTY_VERTEX))
    for a, b in [(vertex, P(loop1)), (P(loop1), vertex), (with_vertex, with_vertex)]:
        with pytest.raises(InvalidInput):
            hopf.star_product(a, b)
        with pytest.raises(InvalidInput):
            hopf.star_product(a + P(loop1), b)
    # no value makes a * b = a u b + b o a hold on both orders of these
    # arguments: inserting loop1 into the empty vertex gives loop1, while no
    # coproduct term of the default range pairs with it
    assert insertion_product(vertex, P(loop1)) == P(loop1)
    assert insertion_product(P(loop1), vertex).is_zero()


def test_star_leading_term_drops_components():
    from ckhopf.graphs import connected_components

    plus = connected_corpus(2)
    for g1 in plus:
        for g2 in plus:
            rest = hopf.star_product(P(g1), P(g2)) - product(P(g1), P(g2))
            for g, _ in rest.graphs():
                assert len(connected_components(g)) < 2


def test_star_equals_union_plus_insertion_small():
    plus = connected_corpus(2)
    for g1 in plus:
        for g2 in plus:
            a, b = P(g1), P(g2)
            assert hopf.star_product(a, b) == product(a, b) + insertion_product(b, a)


# ---------------------------------------------------------------------------
# bracket


def test_bracket_antisymmetry(bubble):
    assert hopf.lie_bracket(P(bubble), P(bubble)).is_zero()


def test_bracket_concrete(twoleg, loop1, bubble):
    got = hopf.lie_bracket(P(twoleg), P(loop1))
    assert got == P(bubble).scale(-2)


def test_bracket_jacobi_sampled():
    rng = random.Random(5)
    plus = connected_corpus(2)
    for _ in range(10):
        a, b, c = (P(rng.choice(plus)) for _ in range(3))
        total = (
            hopf.lie_bracket(hopf.lie_bracket(a, b), c)
            + hopf.lie_bracket(hopf.lie_bracket(b, c), a)
            + hopf.lie_bracket(hopf.lie_bracket(c, a), b)
        )
        assert total.is_zero()


def test_grade_projection(loop1, bubble):
    def grade_projection(p, n, m=None, k=None):
        out = {}
        for key, c in p.terms():
            gr = grade_of(key)
            if gr.n == n and (m is None or gr.m == m) and (k is None or gr.k == k):
                out[key] = c
        return GraphPoly(out)

    p = P(loop1) + P(bubble).scale(3)
    assert grade_projection(p, 1) == P(loop1)
    assert grade_projection(p, 2) == P(bubble).scale(3)
    assert grade_projection(p, 2, m=2, k=0) == P(bubble).scale(3)
    assert grade_projection(p, 2, m=1).is_zero()


def test_antipode_multiplicative(loop1, bubble):
    u = disjoint_union(loop1, bubble)
    assert hopf.antipode(P(u)) == product(hopf.antipode(P(loop1)), hopf.antipode(P(bubble)))


def test_star_bilinear(loop1, twoleg, bubble):
    a = P(twoleg) + P(loop1).scale(2)
    b = P(loop1)
    lhs = hopf.star_product(a, b)
    rhs = hopf.star_product(P(twoleg), b) + hopf.star_product(P(loop1), b).scale(2)
    assert lhs == rhs


def test_duality_pairing_concrete(twoleg, loop1, bubble):
    # <twoleg * loop1, bubble> = <loop1 o twoleg, bubble> = 2
    star = hopf.star_product(P(twoleg), P(loop1))
    ins = insertion_product(P(loop1), P(twoleg))
    assert hopf.pairing(star, P(bubble)) == 2
    assert hopf.pairing(ins, P(bubble)) == 2


def test_star_wide_window_cross_check():
    # recompute star over a wide grade box; the generated candidates must agree
    from ckhopf.graphs import automorphism_count, enumerate_by_grade

    def star_wide(ga, gb):
        ka, kb = K(ga), K(gb)
        gra, grb = ga.grade(), gb.grade()
        total = gra.n + grb.n
        aut_ab = automorphism_count(ga) * automorphism_count(gb)
        out = {}
        for n in range(-(-total // 3), total + 1):
            for k in range(0, gra.k + grb.k + 3):
                for cand in enumerate_by_grade(n, gra.m + grb.m, k):
                    ck = K(cand)
                    mult = coeff_pair(hopf._coproduct_graph(ck, False), ka, kb)
                    if mult:
                        out[ck] = out.get(ck, Fraction(0)) + Fraction(
                            mult * aut_ab, automorphism_count(cand)
                        )
        return GraphPoly(out)

    plus = connected_corpus(2)
    for g1 in plus[:4]:
        for g2 in plus[:4]:
            assert star_wide(g1, g2) == hopf.star_product(P(g1), P(g2))
    # disconnected arguments reach the candidates with several parts
    loop1, twoleg = named_graph("loop1"), named_graph("twoleg")
    unions = [disjoint_union(loop1, loop1), disjoint_union(twoleg, loop1)]
    for g1, g2 in [(loop1, unions[1]), (unions[0], twoleg), (unions[1], loop1), (twoleg, unions[0])]:
        assert star_wide(g1, g2) == hopf.star_product(P(g1), P(g2))
    # tadpole2 goes into a 1-valent vertex, so two of them can share one
    # dumbbell or split across two; loop1, twoloop and the graphs without
    # internal edges can only be taken whole
    tad, dumb, twoloop = named_graph("tadpole2"), named_graph("dumbbell"), named_graph("twoloop")
    dot_1, dot_2, freeprop = named_graph("dot_1"), named_graph("dot_2"), named_graph("freeprop")
    tad2, dumb2 = disjoint_union(tad, tad), disjoint_union(dumb, dumb)
    pairs = [
        (unions[0], unions[1]),
        (tad2, dumb),
        (tad2, dumb2),
        (tad, dumb2),
        (disjoint_union(twoloop, tad), dumb),
        (disjoint_union(twoloop, loop1), twoleg),
        (dot_1, twoleg),
        (twoleg, dot_2),
        (freeprop, dumb),
        (tad, freeprop),
        (dot_2, disjoint_union(tad, dumb)),
    ]
    for g1, g2 in pairs:
        assert star_wide(g1, g2) == hopf.star_product(P(g1), P(g2))


def test_subgraph_parts_of_proper_coproduct_terms_have_legs():
    # a proper subgraph of a connected graph leaves a dangling half-edge on
    # each of its components, so a part without legs is never a subgraph leg
    for n in range(1, 6):
        for g in enumerate_graphs(n, "connected"):
            for (a, b), _ in hopf._coproduct_connected(K(g)[0], False).terms():
                if a and b:
                    assert all(grade_of((part,)).k for part in a), (g, a)


def test_star_associative_through_disconnected_intermediates():
    # star is dual to the coassociative coproduct, so it must be associative;
    # the intermediate products are disconnected, exercising the
    # multi-component candidate generation
    cases = [
        ("loop1", "loop1", "loop1"),
        ("loop1", "twoleg", "loop1"),
        ("tadpole2", "loop1", "twoleg"),
        ("dot_1", "loop1", "dot_2"),
        ("dumbbell", "twoleg", "loop1"),
    ]
    for names in cases:
        a, b, c = (P(named_graph(n)) for n in names)
        left = hopf.star_product(hopf.star_product(a, b), c)
        right = hopf.star_product(a, hopf.star_product(b, c))
        assert left == right, names


def test_star_basis_coefficients_match_the_coproduct():
    # independent reference: each term G of ka * kb must carry the coefficient
    # of ka (x) kb in the multiplied-out coproduct of G, weighted by |Aut|
    rng = random.Random(5)
    parts = [K(g)[0] for g in connected_corpus(2, plus=False)]

    def edges(key):
        return grade_of(key).n

    pairs = []
    while len(pairs) < 40:
        ka = tuple(sorted(rng.choice(parts) for _ in range(rng.randint(1, 3))))
        kb = tuple(sorted(rng.choice(parts) for _ in range(rng.randint(1, 2))))
        if edges(ka) + edges(kb) <= 5:
            pairs.append((ka, kb))
    # repeated parts on either side, and parts of ka split across parts of kb
    tad, dumb, loop1, twoleg = (named_graph(n) for n in ("tadpole2", "dumbbell", "loop1", "twoleg"))
    for ga, gb in [
        (disjoint_union(tad, tad), dumb),
        (disjoint_union(tad, tad), disjoint_union(dumb, dumb)),
        (tad, disjoint_union(dumb, dumb)),
        (disjoint_union(loop1, loop1), disjoint_union(twoleg, twoleg)),
        (disjoint_union(loop1, tad), disjoint_union(twoleg, dumb)),
    ]:
        pairs.append((K(ga), K(gb)))
    for ka, kb in pairs:
        aut_ab = hopf._aut_key(ka) * hopf._aut_key(kb)
        star = hopf._star_basis(ka, kb)
        assert not star.is_zero(), (ka, kb)
        for g, c in star.terms():
            mult = coeff_pair(hopf._coproduct_graph(g, False), ka, kb)
            assert c == Fraction(mult * aut_ab, hopf._aut_key(g)), (ka, kb, g)
