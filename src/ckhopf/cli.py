"""Command-line front end exposing every library operation.

Every command except ``enumerate`` computes one value and writes it through
the writer for its type, as JSON with ``--format json`` and as text otherwise.
Usage errors exit 2 (argparse), verification failures exit 1, success 0.
GRAPH arguments accept a corpus name or a path to a graph JSON file; corpus
names resolve first and a warning is printed if a file of the same name also
exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import hopf, insertion
from .corpus import NAMED_BUILDERS, name_by_key, named_graph
from .errors import CKHopfError, InvalidInput
from .graphs import (
    HalfEdgeGraph,
    automorphism_count,
    canonical_key,
    contract_subgraph,
    enumerate_graphs,
    graph_from_key,
    monomial_key,
)
from .poly import GraphPoly, GraphTensorPoly
from .serialize import (
    dumps,
    frac_to_str,
    graph_from_doc,
    graph_to_doc,
    invariant_from_doc,
    invariant_to_doc,
    poly_to_doc,
    tensor_poly_to_doc,
)
from .tensor_algebra import InvariantTensor, PairTensor, tensor_delta
from .tensors import phi, psi
from .vector import _is_index
from .verify import VerificationReport, run_suite, suite_names


def _read_json(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read JSON from {path!r}: {exc}") from None


def _load_graph(spec: str) -> HalfEdgeGraph:
    if spec in NAMED_BUILDERS:
        if os.path.exists(spec):
            print(f"warning: {spec!r} is both a corpus name and a file; using the corpus graph", file=sys.stderr)
        return named_graph(spec)
    if os.path.exists(spec):
        return graph_from_doc(_read_json(spec))
    raise CKHopfError(f"{spec!r} is neither a corpus name nor an existing file")


def _load_tensor(spec: str) -> InvariantTensor:
    return invariant_from_doc(_read_json(spec))


def _load_poly(spec: str) -> GraphPoly:
    return GraphPoly.from_graph(_load_graph(spec))


def _graph_label(key: bytes) -> str:
    name = name_by_key().get(key)
    if name:
        return name
    g = graph_from_key(key)
    names = [name_by_key().get(part) for part in monomial_key(g)]
    if all(names):
        return "(" + " u ".join(sorted(names)) + ")"
    gr = g.grade()
    digest = hashlib.sha256(key).hexdigest()[:8]
    return f"<n={gr.n},m={gr.m},k={gr.k};id={digest}>"


def _sum_text(terms, label) -> str:
    """Written terms joined by " + ", with a coefficient of 1 left out."""
    bits = [("" if c == 1 else f"{c} * ") + label(keys) for keys, c in terms]
    return " + ".join(bits) or "0"


def _invariant_text(t: InvariantTensor) -> str:
    if t.is_zero():
        return "0"
    bits = [f"dim={t.dim}"]
    for (blocks, ext), c in t.terms():
        blocks_s = " ".join("x" + "*x".join(map(str, b)) for b in blocks) or "1"
        ext_s = "x" + "*x".join(map(str, ext)) if ext else "1"
        bits.append(f"  {frac_to_str(c)} * [{blocks_s} | {ext_s}]")
    return "\n".join(bits)


def _legs(d: PairTensor) -> list[tuple[str, InvariantTensor, InvariantTensor]]:
    """Each term of ``d`` as (coefficient, left leg, right leg)."""
    one = Fraction(1)
    return [
        (frac_to_str(c), InvariantTensor(d.dim_left, {tl: one}), InvariantTensor(d.dim_right, {tr: one}))
        for (tl, tr), c in d.terms()
    ]


def _pair_doc(d: PairTensor) -> list:
    return [
        {"coefficient": c, "left": invariant_to_doc(left), "right": invariant_to_doc(right)}
        for c, left, right in _legs(d)
    ]


def _pair_text(d: PairTensor) -> str:
    lines = [f"{c} * ({_invariant_text(left)}) (x) ({_invariant_text(right)})" for c, left, right in _legs(d)]
    return "\n".join(lines) or "0"


# the (JSON document, text) writers of each type of value a command computes
_WRITERS = {
    GraphPoly: (poly_to_doc, lambda p: _sum_text(p.written_terms(), _graph_label)),
    GraphTensorPoly: (
        tensor_poly_to_doc,
        lambda t: _sum_text(t.written_terms(), lambda keys: " (x) ".join(map(_graph_label, keys))),
    ),
    InvariantTensor: (invariant_to_doc, _invariant_text),
    PairTensor: (_pair_doc, _pair_text),
    HalfEdgeGraph: (graph_to_doc, lambda g: canonical_key(g).decode("ascii")),
    int: (lambda n: {"automorphisms": n}, str),
    VerificationReport: (VerificationReport.to_json_dict, VerificationReport.to_text),
}


def _emit(text: str, out: str | None):
    """Write ``text`` and a newline to ``out`` or stdout; an output that cannot
    be written is a CKHopfError."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                print(text, file=fh)
        except OSError as exc:
            raise CKHopfError(f"cannot write to {out!r}: {exc}") from None
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader is gone: point stdout at devnull so that the
            # interpreter's final flush does not fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise CKHopfError("cannot write to stdout: the reader closed the pipe") from None


def _parse_edges(spec: str) -> list[tuple[int, int]]:
    """Read "0-1,2-3" or a JSON list of pairs; anything else is InvalidInput."""
    spec = spec.strip()
    malformed = InvalidInput(f"--edges must be pairs like '0-1,2-3' or '[[0,1],[2,3]]', not {spec!r}")
    try:
        if spec.startswith("["):
            pairs = [tuple(e) for e in json.loads(spec)]
        else:
            pairs = [tuple(int(h) for h in chunk.split("-")) for chunk in spec.split(",")]
    except (ValueError, TypeError):
        raise malformed from None
    for p in pairs:
        if len(p) != 2 or not all(map(_is_index, p)):
            raise malformed
    return pairs


def _count(text: str) -> int:
    """An argparse type: a nonnegative integer, else a usage error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, not {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ckhopf", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("enumerate", help="isomorphism classes with a given edge count")
    p.add_argument("--edges", type=_count, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--connected", action="store_true")
    group.add_argument("--connected-plus", action="store_true")
    common(p)

    p = sub.add_parser("aut", help="automorphism count")
    p.add_argument("graph")
    common(p)

    p = sub.add_parser("contract", help="contract internal edges")
    p.add_argument("graph")
    p.add_argument("--edges", required=True, help='e.g. "0-1,2-3" or "[[0,1],[2,3]]"')
    common(p)

    p = sub.add_parser("coproduct", help="Connes-Kreimer coproduct")
    p.add_argument("graph")
    p.add_argument("--full-subgraph-term", action="store_true")
    common(p)

    p = sub.add_parser("antipode", help="antipode of a graph")
    p.add_argument("graph")
    common(p)

    p = sub.add_parser("insert", help="insertion product g1 o g2")
    p.add_argument("g1")
    p.add_argument("g2")
    common(p)

    p = sub.add_parser("star", help="dual star product g1 * g2")
    p.add_argument("g1")
    p.add_argument("g2")
    common(p)

    p = sub.add_parser("phi", help="graph to invariant tensor")
    p.add_argument("graph")
    p.add_argument("--dim", type=_count, required=True)
    common(p)

    p = sub.add_parser("psi", help="invariant tensor to graph polynomial")
    p.add_argument("tensor", help="path to an invariant tensor JSON file")
    common(p)

    p = sub.add_parser("delta", help="tensor coproduct into dimensions m and n")
    p.add_argument("tensor")
    p.add_argument("--m", type=_count, required=True)
    p.add_argument("--n", type=_count, required=True)
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=suite_names())
    p.add_argument("--max-edges", type=_count, default=3)
    p.add_argument("--dim", type=_count, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--full-subgraph-term", action="store_true")
    common(p)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except CKHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# the value each command computes; arguments are evaluated in order, so
# g1 loads before g2 and the graph before ``--edges``
_COMMANDS = {
    "aut": lambda a: automorphism_count(_load_graph(a.graph)),
    "contract": lambda a: contract_subgraph(_load_graph(a.graph), _parse_edges(a.edges)),
    "coproduct": lambda a: hopf.coproduct(_load_poly(a.graph), a.full_subgraph_term),
    "antipode": lambda a: hopf.antipode(_load_poly(a.graph)),
    "insert": lambda a: insertion.insertion_product(_load_poly(a.g1), _load_poly(a.g2)),
    "star": lambda a: hopf.star_product(_load_poly(a.g1), _load_poly(a.g2)),
    "phi": lambda a: phi(_load_graph(a.graph), a.dim),
    "psi": lambda a: psi(_load_tensor(a.tensor)),
    "delta": lambda a: tensor_delta(_load_tensor(a.tensor), a.m, a.n),
    "verify": lambda a: run_suite(
        a.suite, max_edges=a.max_edges, dim=a.dim, seed=a.seed,
        full_subgraph_term=a.full_subgraph_term,
    ),
}


def _dispatch(args) -> int:
    if args.command == "enumerate":
        filt = "connected" if args.connected else "connected_plus" if args.connected_plus else "all"
        graphs = enumerate_graphs(args.edges, filt)
        to_doc, to_text = _WRITERS[HalfEdgeGraph]
        if args.format == "json":
            _emit(dumps(list(map(to_doc, graphs))), args.out)
        else:
            header = f"{len(graphs)} classes with {args.edges} edges ({filt})"
            _emit("\n".join([header, *map(to_text, graphs)]), args.out)
        return 0
    value = _COMMANDS[args.command](args)
    to_doc, to_text = _WRITERS[type(value)]
    _emit(dumps(to_doc(value)) if args.format == "json" else to_text(value), args.out)
    return 1 if isinstance(value, VerificationReport) and not value.passed else 0


if __name__ == "__main__":
    sys.exit(main())
