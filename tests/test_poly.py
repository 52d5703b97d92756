from fractions import Fraction

import pytest

from ckhopf.chords import RawTensor
from ckhopf.errors import DimensionMismatch
from ckhopf.poly import GraphPoly, GraphTensorPoly, SparseVector, linear_combination, sym
from ckhopf.tensors import InvariantTensor, PairTensor


def test_poly_name_is_the_module():
    import ckhopf
    from ckhopf import poly

    assert poly.__name__ == "ckhopf.poly"
    assert ckhopf.poly is poly
    assert callable(poly.poly)


def test_zero_terms_dropped_and_sorted():
    v = SparseVector({"b": Fraction(2), "a": Fraction(1), "c": Fraction(0)})
    assert list(v.terms()) == [("a", 1), ("b", 2)]
    assert len(v) == 2
    assert (v - v).is_zero()
    assert -v == v.scale(-1) == -1 * v


def test_constructor_sums_pairs():
    # terms that a constructor puts in one normal form are summed
    terms = {(((2, 1),), (3,)): Fraction(1, 2), (((1, 2),), (3,)): 1, ((), ()): 5}
    given = dict(terms)
    t = InvariantTensor(3, terms)
    assert list(t.terms()) == [(((), ()), 5), ((((1, 2),), (3,)), Fraction(3, 2))]
    assert terms == given
    # and dropped when they cancel
    cancel = {(((2, 1),), ()): Fraction(2, 3), (((1, 2),), ()): Fraction(-2, 3)}
    assert InvariantTensor(2, cancel).is_zero()
    v = SparseVector({"a": Fraction(0), "b": Fraction(3)})
    assert list(v.terms()) == [("b", 3)]
    assert v == SparseVector({"b": 3})


def test_constructor_takes_pair_iterables():
    pairs = [("b", Fraction(1, 2)), ("a", 1), ("b", Fraction(1, 2)), ("c", 2), ("c", -2)]
    v = SparseVector(p for p in pairs)
    assert list(v.terms()) == [("a", 1), ("b", 1)]
    assert v == SparseVector(pairs) == SparseVector({"a": 1, "b": 1})
    assert SparseVector(iter([])).is_zero()
    terms = ((((2, 1),), (3,)), 1), ((((1, 2),), (3,)), Fraction(1, 2)), (((), ()), 0)
    t = InvariantTensor(3, (term for term in terms))
    assert list(t.terms()) == [((((1, 2),), (3,)), Fraction(3, 2))]
    assert RawTensor(2, 2, [((1, 1), 1), ((1, 1), -1)]).is_zero()


def test_dot_sums_over_shared_keys():
    a = SparseVector({"x": Fraction(1, 2), "y": 3})
    b = SparseVector({"y": Fraction(2, 3), "z": 5, "w": 1})
    assert a.dot(b) == b.dot(a) == 2
    assert a.dot(SparseVector()) == 0


def test_equality_needs_same_type_and_space():
    terms = {b"k": Fraction(1)}
    assert GraphPoly(terms) != GraphTensorPoly(terms)
    assert GraphPoly(terms) == GraphPoly(terms)
    assert hash(GraphPoly(terms)) == hash(GraphPoly(dict(terms)))
    term = {(((1, 1),), ()): Fraction(1)}
    assert InvariantTensor(2, term) != InvariantTensor(3, term)
    assert PairTensor(1, 2, terms) != PairTensor(2, 1, terms)


def test_raw_tensor_equality_compares_dim():
    a = RawTensor(2, 2, {(1, 1): Fraction(1)})
    b = RawTensor(5, 2, {(1, 1): Fraction(1)})
    assert a != b
    assert a == RawTensor(2, 2, {(1, 1): Fraction(1)})
    assert hash(a) == hash(RawTensor(2, 2, {(1, 1): Fraction(1)}))
    assert a != RawTensor(2, 4, {(1, 1, 1, 1): Fraction(1)})
    with pytest.raises(DimensionMismatch):
        a + b


def test_mismatched_metadata_raises():
    with pytest.raises(DimensionMismatch):
        RawTensor(2, 2) + RawTensor(2, 4)
    with pytest.raises(DimensionMismatch):
        InvariantTensor.unit(2) + InvariantTensor.unit(3)
    with pytest.raises(DimensionMismatch):
        PairTensor(1, 1) - PairTensor(1, 2)
    with pytest.raises(DimensionMismatch):
        linear_combination([(InvariantTensor.unit(3), 1)], InvariantTensor(2))


def test_outer_concatenates_metadata():
    t = PairTensor.outer(InvariantTensor.unit(2), InvariantTensor.unit(3))
    assert (t.dim_left, t.dim_right) == (2, 3)
    assert list(t.terms()) == [((((), ()), ((), ())), 1)]
    p = GraphTensorPoly.outer(GraphPoly({b"a": Fraction(2)}), GraphPoly({b"b": Fraction(3)}))
    assert p == GraphTensorPoly({(b"a", b"b"): Fraction(6)})


def test_linear_combination_leaves_inputs_alone():
    a = GraphPoly({b"x": Fraction(1), b"y": Fraction(2)})
    b = GraphPoly({b"y": Fraction(-1)})
    total = linear_combination([(a, 1), (b, 3), (a, Fraction(1, 2))], GraphPoly())
    assert total == GraphPoly({b"x": Fraction(3, 2)})
    assert a == GraphPoly({b"x": Fraction(1), b"y": Fraction(2)})
    assert b == GraphPoly({b"y": Fraction(-1)})
    assert linear_combination([], InvariantTensor(4)) == InvariantTensor.zero(4)


def test_sym_multiplies_factorials_of_multiplicities():
    assert sym(()) == 1
    assert sym((1, 2, 3)) == 1
    assert sym((1, 1, 2, 1, 2)) == 3 * 2 * 2
    assert sym((b"a", b"a")) == 2
