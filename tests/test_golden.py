"""CLI outputs pinned byte for byte.

Each ``.json`` file under ``golden/`` is the ``--format json`` output of one
command and each ``.txt`` file its ``--format text`` output, as printed before
the basis of H was keyed by connected components; the first eight JSON files
date from before the sparse-vector classes were merged into one type, and
``graph_loop_edge_loop.json`` and ``graph_loop1_twoleg.json`` are inputs.  Comparing two runs in one process
cannot catch a change of bytes from one version to the next; these files can.
A change that alters any of them changes a published result and must say so.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ckhopf import hopf
from ckhopf.cli import main
from ckhopf.corpus import connected_corpus, named_graph
from ckhopf.graphs import disjoint_union
from ckhopf.poly import GraphPoly
from ckhopf.serialize import dumps, poly_to_doc
from ckhopf.tensors import InvariantTensor, tensor_delta

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "coproduct_bubble.json": ["coproduct", "bubble"],
    "antipode_bubble.json": ["antipode", "bubble"],
    "insert_loop1_twoleg.json": ["insert", "loop1", "twoleg"],
    "star_twoleg_loop1.json": ["star", "twoleg", "loop1"],
    "phi_bubble_3.json": ["phi", "bubble", "--dim", "3"],
    "phi_bubble_4.json": ["phi", "bubble", "--dim", "4"],
    "psi_phi_bubble_3.json": ["psi", str(GOLDEN / "phi_bubble_3.json")],
    "delta_bubble_2_2.json": ["delta", str(GOLDEN / "phi_bubble_4.json"), "--m", "2", "--n", "2"],
    "antipode_loop_edge_loop.json": ["antipode", str(GOLDEN / "graph_loop_edge_loop.json")],
    "star_twoleg_twoleg.json": ["star", "twoleg", "twoleg"],
    "star_loop1_twoleg_twoleg.json": ["star", str(GOLDEN / "graph_loop1_twoleg.json"), "twoleg"],
}

# ``--format text`` outputs.  The antipode of the loop-edge-loop graph has
# terms whose order by written graph key differs from their order by tuple of
# component keys, so these catch a writer that sorts by the wrong key.
TEXT_CASES = {
    "antipode_loop_edge_loop.txt": ["antipode", str(GOLDEN / "graph_loop_edge_loop.json")],
    "star_twoleg_loop1.txt": ["star", "twoleg", "loop1"],
}

VERIFY_GRADING_SHA256 = "ec5cda02de527676360ee9a0c83d6260a40981f78ed3bfb51930c6d706f0faa9"
VERIFY_DUALITY_SHA256 = "f293d0e975e6ba0b7ea9a7fbe2afdd88c1f7df538409f1bda4ac3841f78c5f4b"
VERIFY_BIALGEBRA_SHA256 = "786cdf09710956f060fdb8e35fb3a350ad38ee16a74946a79289d859ff35eccc"

# sha256 of the JSON documents of star_product(a, b), one line per ordered
# pair, over the connected classes with at most 2 edges and two unions.
STAR_TABLE_SHA256 = "72f2f4f8b29086983319e97ca18421e652efd0b4ca60a9bf81685f93e9504b39"

# sha256 of tensor_delta(t, m, dim - m), one line per tensor, over seeded
# random tensors that are not phi images: blocks straddling m, repeated
# blocks, repeated external indices, every m from 0 to dim, and dim 0.
DELTA_TABLE_SHA256 = "0913bc423a4e02109ee57ca5ded5eca4e1d2830d55c2dbf1b61841b19764c224"


def json_output(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(capsys, name):
    assert json_output(capsys, CASES[name]) == (GOLDEN / name).read_text(encoding="ascii")


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_cli_text_matches_golden(capsys, name):
    assert main(TEXT_CASES[name] + ["--format", "text"]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="ascii")


def test_verify_grading_digest(capsys):
    out = json_output(capsys, ["verify", "--suite", "grading", "--max-edges", "3"])
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == VERIFY_GRADING_SHA256


@pytest.mark.parametrize(
    "suite, digest",
    [("duality", VERIFY_DUALITY_SHA256), ("bialgebra", VERIFY_BIALGEBRA_SHA256)],
)
def test_verify_suite_digest(capsys, suite, digest):
    out = json_output(capsys, ["verify", "--suite", suite])
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def _random_tensor(rng: random.Random, dim: int) -> InvariantTensor:
    """A few random terms; over dim 0 only the empty term exists."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        blocks, ext = [], []
        if dim:
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
            blocks = [tuple(rng.randint(1, dim) for _ in range(s)) for s in sizes]
            if blocks and rng.random() < 0.3:
                blocks.append(rng.choice(blocks))
            ext = [rng.randint(1, dim) for _ in range(rng.randint(0, 3))]
        term = (tuple(sorted(tuple(sorted(b)) for b in blocks)), tuple(sorted(ext)))
        terms[term] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return InvariantTensor(dim, terms)


def test_delta_table_digest():
    rng = random.Random(2012)
    lines = []
    for dim in range(6):
        for m in range(dim + 1):
            for _ in range(40):
                t = _random_tensor(rng, dim)
                lines.append(f"{dim} {m} {list(tensor_delta(t, m, dim - m).terms())!r}")
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == DELTA_TABLE_SHA256


def test_star_table_digest():
    loop1, twoleg = named_graph("loop1"), named_graph("twoleg")
    graphs = list(connected_corpus(2, plus=False))
    graphs += [disjoint_union(loop1, loop1), disjoint_union(twoleg, loop1)]
    lines = [
        dumps(poly_to_doc(hopf.star_product(GraphPoly.from_graph(a), GraphPoly.from_graph(b))))
        for a in graphs
        for b in graphs
    ]
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == STAR_TABLE_SHA256


def test_cached_coproduct_not_mutated(bubble):
    p = GraphPoly.from_graph(bubble)
    before = list(hopf.coproduct(p).terms())
    doubled = hopf.coproduct(p + p)
    assert list(hopf.coproduct(p).terms()) == before
    assert doubled == hopf.coproduct(p).scale(2)
