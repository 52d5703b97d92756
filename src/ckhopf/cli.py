"""Command-line front end exposing every library operation.

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
from .tensors import InvariantTensor, phi, psi, tensor_delta
from .verify import run_suite, suite_names


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


def _poly_text(p: GraphPoly) -> str:
    bits = [("" if c == 1 else f"{c} * ") + _graph_label(k) for k, c in p.written_terms()]
    return " + ".join(bits) or "0"


def _tensor_poly_text(t: GraphTensorPoly) -> str:
    bits = [
        ("" if c == 1 else f"{c} * ") + " (x) ".join(map(_graph_label, keys))
        for keys, c in t.written_terms()
    ]
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


def _emit(text: str, out: str | None):
    """Write to ``out`` or stdout; an output that cannot be written is a CKHopfError."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
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
        if len(p) != 2 or not all(isinstance(h, int) and not isinstance(h, bool) for h in p):
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
    p.add_argument("--prelie-samples", type=_count, default=200)
    common(p)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except CKHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    fmt = getattr(args, "format", "text")

    if args.command == "enumerate":
        filt = "all"
        if args.connected:
            filt = "connected"
        if args.connected_plus:
            filt = "connected_plus"
        graphs = enumerate_graphs(args.edges, filt)
        if fmt == "json":
            _emit(dumps([graph_to_doc(g) for g in graphs]), args.out)
        else:
            lines = [f"{len(graphs)} classes with {args.edges} edges ({filt})"]
            lines += [canonical_key(g).decode("ascii") for g in graphs]
            _emit("\n".join(lines), args.out)
        return 0

    if args.command == "aut":
        g = _load_graph(args.graph)
        n = automorphism_count(g)
        _emit(dumps({"automorphisms": n}) if fmt == "json" else str(n), args.out)
        return 0

    if args.command == "contract":
        g = _load_graph(args.graph)
        result = contract_subgraph(g, _parse_edges(args.edges))
        if fmt == "json":
            _emit(dumps(graph_to_doc(result)), args.out)
        else:
            _emit(canonical_key(result).decode("ascii"), args.out)
        return 0

    if args.command == "coproduct":
        g = _load_graph(args.graph)
        t = hopf.coproduct(GraphPoly.from_graph(g), args.full_subgraph_term)
        _emit(dumps(tensor_poly_to_doc(t)) if fmt == "json" else _tensor_poly_text(t), args.out)
        return 0

    if args.command == "antipode":
        g = _load_graph(args.graph)
        p = hopf.antipode(GraphPoly.from_graph(g))
        _emit(dumps(poly_to_doc(p)) if fmt == "json" else _poly_text(p), args.out)
        return 0

    if args.command == "insert":
        g1, g2 = _load_graph(args.g1), _load_graph(args.g2)
        p = insertion.insertion_product(GraphPoly.from_graph(g1), GraphPoly.from_graph(g2))
        _emit(dumps(poly_to_doc(p)) if fmt == "json" else _poly_text(p), args.out)
        return 0

    if args.command == "star":
        g1, g2 = _load_graph(args.g1), _load_graph(args.g2)
        p = hopf.star_product(GraphPoly.from_graph(g1), GraphPoly.from_graph(g2))
        _emit(dumps(poly_to_doc(p)) if fmt == "json" else _poly_text(p), args.out)
        return 0

    if args.command == "phi":
        g = _load_graph(args.graph)
        t = phi(g, args.dim)
        _emit(dumps(invariant_to_doc(t)) if fmt == "json" else _invariant_text(t), args.out)
        return 0

    if args.command == "psi":
        t = _load_tensor(args.tensor)
        p = psi(t)
        _emit(dumps(poly_to_doc(p)) if fmt == "json" else _poly_text(p), args.out)
        return 0

    if args.command == "delta":
        t = _load_tensor(args.tensor)
        d = tensor_delta(t, args.m, args.n)
        if fmt == "json":
            doc = [
                {
                    "coefficient": frac_to_str(c),
                    "left": invariant_to_doc(InvariantTensor(args.m, {tl: Fraction(1)})),
                    "right": invariant_to_doc(InvariantTensor(args.n, {tr: Fraction(1)})),
                }
                for (tl, tr), c in d.terms()
            ]
            _emit(dumps(doc), args.out)
        else:
            lines = []
            for (tl, tr), c in d.terms():
                left = _invariant_text(InvariantTensor(args.m, {tl: Fraction(1)}))
                right = _invariant_text(InvariantTensor(args.n, {tr: Fraction(1)}))
                lines.append(f"{frac_to_str(c)} * ({left}) (x) ({right})")
            _emit("\n".join(lines) if lines else "0", args.out)
        return 0

    if args.command == "verify":
        report = run_suite(
            args.suite,
            max_edges=args.max_edges,
            dim=args.dim,
            seed=args.seed,
            full_subgraph_term=args.full_subgraph_term,
            prelie_samples=args.prelie_samples,
        )
        _emit(dumps(report.to_json_dict()) if fmt == "json" else report.to_text(), args.out)
        return 0 if report.passed else 1

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
