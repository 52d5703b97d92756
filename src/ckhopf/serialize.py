"""JSON serialization for graphs, graph polynomials and invariant tensors.

Rationals are written as "p/q" strings; no floating point appears anywhere.
Serialization is canonical: lists sorted, no whitespace, so equal values give
equal bytes.  Graph polynomials are only written.  Graphs and invariant
tensors are also read, strictly: a malformed document raises ``InvalidInput``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InvalidInput
from .graphs import from_json_dict, to_json_dict
from .poly import GraphPoly, GraphTensorPoly
from .tensors import InvariantTensor

graph_to_doc = to_json_dict
graph_from_doc = from_json_dict

_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s) -> Fraction:
    """An integer or a "p/q" string; floats, bools and anything else are rejected."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise InvalidInput(f"coefficient {s!r} is not an integer or a 'p/q' string")
    return Fraction(s)


def dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def poly_to_doc(p: GraphPoly) -> list:
    out = []
    for key, coeff in p.written_terms():
        out.append({"coefficient": frac_to_str(coeff), "graph": json.loads(key.decode("ascii"))})
    return out


def tensor_poly_to_doc(t: GraphTensorPoly) -> list:
    out = []
    for (k1, k2), coeff in t.written_terms():
        out.append(
            {
                "coefficient": frac_to_str(coeff),
                "graphs": [json.loads(k1.decode("ascii")), json.loads(k2.decode("ascii"))],
            }
        )
    return out


def invariant_to_doc(t: InvariantTensor) -> dict:
    terms = []
    for (blocks, ext), coeff in t.terms():
        terms.append(
            {
                "coeff": frac_to_str(coeff),
                "blocks": [list(b) for b in blocks],
                "external": list(ext),
            }
        )
    return {"dimension": t.dim, "terms": terms}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _indices(xs) -> tuple[int, ...]:
    if not isinstance(xs, list) or not all(map(_is_int, xs)):
        raise InvalidInput(f"{xs!r} is not a list of indices")
    return tuple(xs)


def invariant_from_doc(doc: dict) -> InvariantTensor:
    dim = doc.get("dimension") if isinstance(doc, dict) else None
    if not _is_int(dim) or dim < 0 or not isinstance(doc.get("terms"), list):
        raise InvalidInput(
            'an invariant tensor is {"dimension": <integer >= 0>, "terms": [...]}'
        )
    terms = []
    for item in doc["terms"]:
        if not isinstance(item, dict) or not isinstance(item.get("blocks"), list):
            raise InvalidInput(f"tensor term {item!r} has no list of blocks")
        blocks = tuple(map(_indices, item["blocks"]))
        terms.append(((blocks, _indices(item.get("external"))), frac_from_str(item.get("coeff"))))
    # the constructor rejects empty blocks and indices outside 1..dim
    return InvariantTensor(dim, terms)
