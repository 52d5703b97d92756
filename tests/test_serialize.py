import json
from fractions import Fraction

import pytest

from ckhopf import hopf
from ckhopf.corpus import default_corpus, named_graph
from ckhopf.errors import InvalidInput
from ckhopf.graphs import canonical_form, canonical_key, graph_from_key, monomial_key
from ckhopf.poly import GraphPoly, GraphTensorPoly, linear_combination, poly
from ckhopf.serialize import (
    dumps,
    frac_from_str,
    frac_to_str,
    graph_from_doc,
    graph_to_doc,
    invariant_from_doc,
    invariant_to_doc,
    poly_to_doc,
    tensor_poly_to_doc,
)
from ckhopf.tensors import phi


def test_fraction_strings():
    assert frac_to_str(Fraction(-3, 7)) == "-3/7"
    assert frac_to_str(Fraction(2)) == "2/1"
    assert frac_from_str("-3/7") == Fraction(-3, 7)
    assert frac_from_str("5") == Fraction(5)
    assert frac_from_str(4) == Fraction(4)


def test_graph_round_trip():
    for g in default_corpus(3):
        doc = graph_to_doc(g)
        back = graph_from_doc(doc)
        assert canonical_key(back) == canonical_key(g)


def test_canonical_key_is_canonical_serialization(bubble):
    key, canon = canonical_form(bubble)
    assert json.loads(key.decode("ascii")) == graph_to_doc(canon)
    assert graph_from_key(key) == canon


def test_key_bytes_stable(bubble):
    # same value, same bytes: no whitespace or ordering variance
    k1 = canonical_key(bubble)
    k2 = canonical_key(graph_from_doc(json.loads(k1.decode("ascii"))))
    assert k1 == k2
    assert b" " not in k1


def _read_poly(doc: list) -> GraphPoly:
    return linear_combination(
        (
            (GraphPoly.from_graph(graph_from_doc(item["graph"])), frac_from_str(item["coefficient"]))
            for item in doc
        ),
        GraphPoly(),
    )


def test_poly_round_trip(loop1, bubble):
    p = poly(loop1, Fraction(2, 3), bubble, -4)
    doc = poly_to_doc(p)
    assert _read_poly(doc) == p
    assert dumps(doc) == dumps(poly_to_doc(_read_poly(doc)))


def test_tensor_poly_round_trip(bubble):
    t = hopf.coproduct(GraphPoly.from_graph(bubble))
    doc = tensor_poly_to_doc(t)
    back = {}
    for item in doc:
        pair = tuple(monomial_key(graph_from_doc(g)) for g in item["graphs"])
        back[pair] = back.get(pair, 0) + frac_from_str(item["coefficient"])
    assert GraphTensorPoly(back) == t


def test_invariant_round_trip():
    for name in ("loop1", "twoleg", "tadpole2"):
        t = phi(named_graph(name), 3)
        doc = invariant_to_doc(t)
        assert invariant_from_doc(doc) == t
        assert dumps(doc) == dumps(invariant_to_doc(invariant_from_doc(doc)))


def test_invariant_from_doc_sorts_and_merges():
    doc = {
        "dimension": 3,
        "terms": [
            {"coeff": "1/1", "blocks": [[3, 1], [2]], "external": [2, 1]},
            {"coeff": "2/1", "blocks": [[2], [1, 3]], "external": [1, 2]},
        ],
    }
    t = invariant_from_doc(doc)
    assert list(t.terms()) == [((((1, 3), (2,)), (1, 2)), Fraction(3))]


@pytest.mark.parametrize("bad", [0.1, 1.0, True, None, "0.1", "1/0", "x", [1]])
def test_frac_from_str_rejects_non_rationals(bad):
    with pytest.raises(InvalidInput):
        frac_from_str(bad)


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"dimension": "2", "terms": []},
        {"dimension": 2.0, "terms": []},
        {"dimension": 2},
        {"dimension": 2, "terms": [{"coeff": "1/1", "blocks": [[1, 9]], "external": []}]},
        {"dimension": 2, "terms": [{"coeff": "1/1", "blocks": [[0, 1]], "external": []}]},
        {"dimension": 2, "terms": [{"coeff": "1/1", "blocks": [[1, 1.5]], "external": []}]},
        {"dimension": 2, "terms": [{"coeff": "1/1", "blocks": [[1, 1]], "external": [3]}]},
        {"dimension": 2, "terms": [{"coeff": "1/1", "blocks": [[]], "external": [1, 1]}]},
        {"dimension": 2, "terms": [{"coeff": 0.5, "blocks": [[1, 1]], "external": []}]},
        {"dimension": 2, "terms": ["x"]},
    ],
)
def test_invariant_from_doc_rejects_malformed(doc):
    with pytest.raises(InvalidInput):
        invariant_from_doc(doc)


@pytest.mark.parametrize("doc", [[1, 2], "graph", 3, None])
def test_graph_from_doc_rejects_non_object(doc):
    with pytest.raises(InvalidInput):
        graph_from_doc(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"edges": 5},
        {"half_edges": "01", "edges": [], "vertices": []},
        {"half_edges": [0, 1], "edges": [[0, 1]], "vertices": {"0": [0, 1]}},
        {"half_edges": [0, 1], "edges": [[0, 1]], "vertices": [[0, 1]], "external": 0},
        # "ab" would otherwise be read as the pair ("a", "b")
        {"half_edges": ["a", "b"], "edges": ["ab"], "vertices": [["a", "b"]]},
        {"half_edges": [0, 1], "edges": [[0, 1]], "vertices": [[0, 1], 5]},
        {"half_edges": [True, False], "edges": [[True, False]], "vertices": [[True, False]]},
        {"half_edges": [0.5, 1], "edges": [[0.5, 1]], "vertices": [[0.5, 1]]},
        {"half_edges": [0, 1], "edges": [[0, None]], "vertices": [[0, 1]]},
        # true would otherwise be read as vertex index 1
        {"half_edges": [0, 1], "edges": [[0, 1]], "vertices": [[0], [1]], "external": [True]},
        {"half_edges": [0, 1], "edges": [[0, 1]], "vertices": [[0], [1]], "external": ["1"]},
    ],
)
def test_graph_from_doc_rejects_malformed_fields(doc):
    with pytest.raises(InvalidInput):
        graph_from_doc(doc)


def test_graph_from_doc_accepts_string_labels():
    doc = {"half_edges": ["a", "b"], "edges": [["a", "b"]], "vertices": [["a"], ["b"]], "external": [1]}
    assert canonical_key(graph_from_doc(doc)) == canonical_key(named_graph("dot_1"))
