"""CLI outputs pinned byte for byte.

Each ``.json`` file under ``golden/`` is the ``--format json`` output of one
command and each ``.txt`` file its ``--format text`` output, the first two as
printed before the basis of H was keyed by connected components; the first eight JSON files
date from before the sparse-vector classes were merged into one type, and
``graph_loop_edge_loop.json`` and ``graph_loop1_twoleg.json`` are inputs.  Comparing two runs in one process
cannot catch a change of bytes from one version to the next; these files can.
A change that alters any of them changes a published result and must say so.
"""

import hashlib
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

import pytest

from ckhopf import hopf, insertion, poly, tensors, verify
from ckhopf.chords import BlockShape, enumerate_chords, z_coinv
from ckhopf.cli import main
from ckhopf.corpus import NAMED_BUILDERS, connected_corpus, named_graph
from ckhopf.errors import CKHopfError
from ckhopf.graphs import (
    GradeTriple,
    automorphism_count,
    canonical_key,
    connected_by_grade,
    disjoint_union,
    enumerate_by_grade,
    enumerate_graphs,
    monomial_key,
    relabel,
    to_json_dict,
)
from ckhopf.poly import GraphPoly
from ckhopf.serialize import dumps, invariant_to_doc, poly_to_doc
from ckhopf.verify import run_suite
from ckhopf.tensors import (
    InvariantTensor,
    _cut,
    apply_signed_permutation,
    phi,
    project_to,
    psi,
    tensor_delta,
    tensor_mul,
    tensor_prelie,
)

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
# The others give one case per writer of ``cli``.
TEXT_CASES = {
    "antipode_loop_edge_loop.txt": ["antipode", str(GOLDEN / "graph_loop_edge_loop.json")],
    "star_twoleg_loop1.txt": ["star", "twoleg", "loop1"],
    "coproduct_bubble.txt": ["coproduct", "bubble"],
    "phi_bubble_3.txt": ["phi", "bubble", "--dim", "3"],
    "psi_phi_bubble_3.txt": ["psi", str(GOLDEN / "phi_bubble_3.json")],
    "delta_bubble_2_2.txt": ["delta", str(GOLDEN / "phi_bubble_4.json"), "--m", "2", "--n", "2"],
    "aut_theta.txt": ["aut", "theta"],
    "contract_bubble_0-1.txt": ["contract", "bubble", "--edges", "0-1"],
    "enumerate_2_connected.txt": ["enumerate", "--edges", "2", "--connected"],
}

VERIFY_GRADING_SHA256 = "dcc5e106e8ff7927e32bcd24691b6198ecc657389ced040cf6007d7400bcbb26"
VERIFY_DUALITY_SHA256 = "69f960409074727868598f6aa95f7ff94339b5ab38ddbed442e699eb8bd88347"
VERIFY_BIALGEBRA_SHA256 = "394647308ed85457a63c2ed0e5fac9a410b676d308eb76395167974af7cf8fc6"

# sha256 of ``verify --suite <s> --format json`` at the default window.
VERIFY_SUITE_SHA256 = {
    "hopf": "c8fece40a652f00bf00564a6ecf5cc325efe7e8ccd013d0b51f4d3217caa5cba",
    "prelie": "969e5c52859833ce2916a8f35bcd84efdb3e168bcab3af5ef29c9f4ac7c0ceb7",
    "invariants": "59ebf7ab6cdc5a6992c4cd505db22e65d1efde76fb6cc70666099a8561e4b821",
    "main-theorem": "1b5a45749fca02f34acd3b02816a6d98204282baa9aaed2b097a7f4d820caa9b",
    "roundtrip": "1884cd7f62fe348bfd2367c68aca3167aa26599477e6dacfe2b3bfc0f094369c",
    "oracles": "8af0ba632d3119ac9210bc52e0149fb0401f60efa8768bd110c7ec05f40fb35f",
}

# sha256 of the JSON reports of every suite at the default window with the
# faults of ``VERIFY_FAULTS`` injected, one line per suite.  Passing reports
# carry no counterexample, so these pin the counterexample documents.
VERIFY_FAULTS_SHA256 = "fadbf04aec1e53bb4491e907c2fb90e1aeff8f5da7e112ddecfcd910ff6999a2"

# sha256 of ``verify --suite prelie --max-edges 4 --format json``, as it runs
# and with the faults of ``VERIFY_FAULTS["prelie"]`` injected: the exhaustive
# right-symmetry check where it is largest, counterexample included.
VERIFY_PRELIE_E4_SHA256 = {
    "plain": "41e1ecd59c3912d9357fca211036897f2c038d7e1963c05e6d175479143d26fb",
    "fault": "e6d1a0e5f6d55e313ebb4e242a325c0fae8e123b3152616ff8c4c44a67156ba4",
}

# sha256 of the JSON documents of star_product(a, b), one line per ordered
# pair, over the connected classes with at most 2 edges and two unions.
STAR_TABLE_SHA256 = "72f2f4f8b29086983319e97ca18421e652efd0b4ca60a9bf81685f93e9504b39"

# sha256 of tensor_delta(t, m, dim - m), one line per tensor, over seeded
# random tensors that are not phi images: blocks straddling m, repeated
# blocks, repeated external indices, every m from 0 to dim, and dim 0.
DELTA_TABLE_SHA256 = "0913bc423a4e02109ee57ca5ded5eca4e1d2830d55c2dbf1b61841b19764c224"

# sha256 of tensor_mul, tensor_prelie (or the name of the error it raises),
# apply_signed_permutation, project_to and both counits of tensor_delta, one
# line per result, over seeded random tensors and over pairs drawn from those
# random tensors that lie in l_plus, where the pre-Lie product is defined.
TENSOR_TABLE_SHA256 = "b70410b474cc6ed6042021789ca5ca7ef48cae34c168a086903f51db5eda91d2"

# sha256 of phi(h, n).terms(), one line per (h, n), over a seeded relabelling
# h of every class with at most 4 edges and no empty vertex (``_phi_cases``)
# at n = 1..5, captured while phi still block-symmetrized beta's words: the
# repr also pins every coefficient as a Fraction.
PHI_TABLE_SHA256 = "ef84ccc19f5db385449e21bc5337baf8db8a34f6c625d615627781e86234e358"

# sha256 of psi(t).terms() (or the error it raises), one line per tensor with
# the tensor's own terms, over ``_psi_cases``: seeded homogeneous tensors that
# are not phi images, seeded random tensors (odd, inhomogeneous or zero among
# them) and phi images, captured while psi still cut every coinvariant word on
# every call.
PSI_TABLE_SHA256 = "2675c9f4587549e458e5abd8d67430ce9ce91db09c37f800b34b98ff5d86e889"

# sha256 of the JSON document of every graph, in the order listed, from
# enumerate_graphs (n <= 5, each filter), enumerate_by_grade (each grade with
# n <= 5) and connected_by_grade (m + k <= 6): a change of class, labelling or
# order in the enumeration fails it.
ENUMERATION_SHA256 = "24ce0adacc1a674784d24ae4d493fed299e3913742bee47eb7d22b7723e85be6"

# sha256 of (canonical key, |Aut|, monomial key), one line per graph, over a
# seeded relabelling of every class with at most 5 edges and of every
# insertion result of two connected_corpus(3) graphs: unlike PINNED_SHA256 in
# test_canonical.py, it covers the monomial keys, the parts of H's basis.
CANONICAL_TRIPLE_SHA256 = "e5fbde9e2a5cdb3534316668405e0a3ba2ce2db11d43e31145527772f45ad9c6"


# sha256 of (argv, exit code, stdout, stderr), one line per invocation, over
# ``_cli_sweep``: every command on every named graph (and every ordered pair for
# ``insert`` and ``star``), ``enumerate`` at 0..3 edges with each filter,
# ``psi`` and three ``delta`` splits on four ``phi`` files, two ``verify``
# suites and one malformed input per input kind, each in both formats.
CLI_SWEEP_SHA256 = "888aa03de4768ec45b1da18f3b5c4425d1d4df427c7ae5241b8ec9b660e25d17"

# (file name, graph, dim) of the tensor files that ``psi`` and ``delta`` read.
SWEEP_TENSORS = [
    ("bubble_4", "bubble", 4),
    ("theta_3", "theta", 3),
    ("twoleg_4", "twoleg", 4),
    ("tadpole2_2", "tadpole2", 2),
]


def _cli_sweep(tensor_dir: Path) -> list[list[str]]:
    names = list(NAMED_BUILDERS)
    runs = []
    for g in names:
        runs += [["aut", g], ["contract", g, "--edges", "0-1"], ["antipode", g], ["phi", g, "--dim", "3"]]
        runs += [["coproduct", g], ["coproduct", g, "--full-subgraph-term"]]
    runs += [[op, g1, g2] for op in ("insert", "star") for g1 in names for g2 in names]
    for edges in range(4):
        for filt in ([], ["--connected"], ["--connected-plus"]):
            runs.append(["enumerate", "--edges", str(edges)] + filt)
    for name, _, dim in SWEEP_TENSORS:
        path = str(tensor_dir / f"{name}.json")
        runs.append(["psi", path])
        runs += [["delta", path, "--m", str(m), "--n", str(dim - m)] for m in sorted({0, dim // 2, dim})]
    runs += [["verify", "--suite", suite, "--max-edges", "2"] for suite in ("grading", "roundtrip")]
    # one malformed input per input kind: a graph name, --edges and a tensor file
    runs += [["aut", "nosuchgraph"], ["contract", "bubble", "--edges", "0-"]]
    runs.append(["psi", str(tensor_dir / "truncated.json")])
    return [argv + ["--format", fmt] for argv in runs for fmt in ("json", "text")]


def test_cli_sweep_digest(capsys, tmp_path):
    for name, g, dim in SWEEP_TENSORS:
        (tmp_path / f"{name}.json").write_text(dumps(invariant_to_doc(phi(named_graph(g), dim))))
    doc = (tmp_path / "bubble_4.json").read_text()
    (tmp_path / "truncated.json").write_text(doc[: len(doc) // 2])
    lines = []
    for argv in _cli_sweep(tmp_path):
        code = main(argv)
        out, err = capsys.readouterr()
        # the text report of verify prints each check's time
        out = re.sub(r"(PASS|FAIL) +[0-9.]+s", r"\1 <time>", out)
        lines.append(repr((argv, code, out, err)).replace(str(tmp_path), "<tmp>"))
    assert len(lines) == 786
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == CLI_SWEEP_SHA256


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
    ids=["duality", "bialgebra"],
)
def test_verify_suite_digest(capsys, suite, digest):
    out = json_output(capsys, ["verify", "--suite", suite])
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("suite", sorted(VERIFY_SUITE_SHA256))
def test_verify_default_window_digest(capsys, suite):
    out = json_output(capsys, ["verify", "--suite", suite])
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == VERIFY_SUITE_SHA256[suite]


_INSERTION = insertion.insertion_product

# (module, name, replacement) per suite; verify looks each name up at call time.
VERIFY_FAULTS = {
    "hopf": [
        (verify, "product", lambda p, q: poly.product(p, q).scale(2)),
        (hopf, "pairing", lambda p, q: Fraction(1)),
    ],
    "grading": [(verify, "grade_of", lambda key: GradeTriple(0, 0, 0))],
    "duality": [(hopf, "star_product", poly.product)],
    "prelie": [(insertion, "insertion_product", lambda a, b: _INSERTION(b, a))],
    "invariants": [
        (verify, "apply_signed_permutation", lambda t, perm, signs: t.zero(t.dim)),
        (verify, "enumerate_chords", lambda n: enumerate_chords(n)[:-1]),
        (verify, "pair_raw", lambda a, b: 0),
    ],
    "bialgebra": [(verify, "tensor_delta", lambda t, m, n: tensors.tensor_delta(t, m, n).scale(2))],
    "main-theorem": [(verify, "tensor_prelie", lambda a, b: tensors.tensor_prelie(b, a))],
    "roundtrip": [(verify, "psi", lambda t: poly.GraphPoly())],
    "oracles": [
        (verify, "oracle_aut", lambda g: 0),
        (verify, "oracle_iso", lambda g1, g2: g1 == g2),
        (verify, "oracle_enumerate", lambda n: []),
    ],
}


def test_verify_fault_digest(monkeypatch):
    lines, shapes = [], set()
    for suite, faults in VERIFY_FAULTS.items():
        with monkeypatch.context() as m:
            for module, name, fake in faults:
                m.setattr(module, name, fake)
            report = run_suite(suite)
        assert not report.passed
        shapes.update(tuple(c.counterexample) for c in report.checks if c.counterexample)
        lines.append(dumps(report.to_json_dict()))
    keys = {k for shape in shapes for k in shape}
    assert {("graph",), ("g1", "g2"), ("g1", "g2", "g3")} <= shapes
    assert {"perm", "signs", "n", "side", "star", "expected"} <= keys
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == VERIFY_FAULTS_SHA256


@pytest.mark.parametrize("case", sorted(VERIFY_PRELIE_E4_SHA256))
def test_verify_prelie_max_edges_4_digest(capsys, monkeypatch, case):
    if case == "fault":
        for module, name, fake in VERIFY_FAULTS["prelie"]:
            monkeypatch.setattr(module, name, fake)
    argv = ["verify", "--suite", "prelie", "--max-edges", "4", "--format", "json"]
    assert main(argv) == (1 if case == "fault" else 0)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == VERIFY_PRELIE_E4_SHA256[case]


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


def _in_l_plus(t: InvariantTensor) -> bool:
    try:
        return all(N > k for N, k in t.bigrades())
    except CKHopfError:
        return False


def _prelie_line(t1: InvariantTensor, t2: InvariantTensor) -> str:
    try:
        return f"prelie {list(tensor_prelie(t1, t2).terms())!r}"
    except CKHopfError as exc:
        return f"prelie {type(exc).__name__}"


def test_tensor_table_digest():
    rng = random.Random(1998)
    lines = []
    for dim in range(6):
        for _ in range(30):
            t1, t2 = _random_tensor(rng, dim), _random_tensor(rng, dim)
            lines.append(f"{dim} mul {list(tensor_mul(t1, t2).terms())!r}")
            lines.append(f"{dim} {_prelie_line(t1, t2)}")
            perm = rng.sample(range(1, dim + 1), dim)
            signs = [rng.choice((1, -1)) for _ in range(dim)]
            signed = apply_signed_permutation(t1, perm, signs)
            lines.append(f"{dim} {perm} {signs} {list(signed.terms())!r}")
            for n in range(dim + 1):
                lines.append(f"{dim} project {n} {list(project_to(t1, n).terms())!r}")
            for m in range(dim + 1):
                d = tensor_delta(t1, m, dim - m)
                lines.append(f"{dim} {m} left {list(d.left_counit().terms())!r}")
                lines.append(f"{dim} {m} right {list(d.right_counit().terms())!r}")
    for dim in range(1, 4):
        pool = [t for t in (_random_tensor(rng, dim) for _ in range(300)) if _in_l_plus(t)][:12]
        lines.extend(f"{dim} {_prelie_line(t1, t2)}" for t1 in pool for t2 in pool)
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == TENSOR_TABLE_SHA256


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


@lru_cache(maxsize=None)
def _phi_cases() -> tuple[tuple, ...]:
    """(class, seeded relabelling) pairs over every class with at most 4 edges
    and no empty vertex."""
    rng = random.Random(16)
    cases = []
    for edges in range(5):
        for g in enumerate_graphs(edges, "all"):
            if not g.n_empty:
                perm = list(range(g.n_half_edges))
                rng.shuffle(perm)
                cases.append((g, relabel(g, dict(enumerate(perm)))))
    return tuple(cases)


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


@lru_cache(maxsize=None)
def _psi_cases() -> tuple[InvariantTensor, ...]:
    rng = random.Random(23)
    cases = [_cut_z_tensor(rng) for _ in range(200)]
    cases += [_random_tensor(rng, dim) for dim in range(5) for _ in range(12)]
    cases += [phi(h, n) for _, h in _phi_cases()[::6] for n in (2, 3, 4)]
    return tuple(cases)


def _psi_line(t: InvariantTensor) -> str:
    try:
        out = repr(list(psi(t).terms()))
    except CKHopfError as exc:
        out = f"{type(exc).__name__}: {exc}"
    return f"{t.dim} {list(t.terms())!r} {out}"


def _psi_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def test_psi_table_digest():
    assert _psi_digest(list(map(_psi_line, _psi_cases()))) == PSI_TABLE_SHA256


def test_phi_table_digest():
    lines = [f"{n} {list(phi(h, n).terms())!r}" for _, h in _phi_cases() for n in range(1, 6)]
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == PHI_TABLE_SHA256


def test_cached_coproduct_not_mutated(bubble):
    p = GraphPoly.from_graph(bubble)
    before = list(hopf.coproduct(p).terms())
    doubled = hopf.coproduct(p + p)
    assert list(hopf.coproduct(p).terms()) == before
    assert doubled == hopf.coproduct(p).scale(2)


def test_enumeration_digest():
    lists = []
    for n in range(6):
        lists += [(f"{n} {f}", enumerate_graphs(n, f)) for f in ("all", "connected", "connected_plus")]
        for m in range(n + 1):
            lists += [(f"{n} {m} {k}", enumerate_by_grade(n, m, k)) for k in range(2 * n + 1)]
    for m in range(1, 7):
        lists += [(f"{m} {k}", connected_by_grade(m, k)) for k in range(7 - m)]
    lines = [f"{label} {dumps(to_json_dict(g))}" for label, graphs in lists for g in graphs]
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == ENUMERATION_SHA256


def test_canonical_triple_digest():
    rng = random.Random(15)
    plus = [GraphPoly.from_graph(g) for g in connected_corpus(3)]
    pool = [g for n in range(6) for g in enumerate_graphs(n, "all")] + [
        g for p1 in plus for p2 in plus for g, _ in insertion.insertion_product(p1, p2).graphs()
    ]
    lines = []
    for g in pool:
        perm = list(range(g.n_half_edges))
        rng.shuffle(perm)
        h = relabel(g, dict(enumerate(perm)))
        parts = " ".join(k.decode("ascii") for k in monomial_key(h))
        lines.append(f"{canonical_key(h).decode('ascii')} {automorphism_count(h)} {parts}")
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == CANONICAL_TRIPLE_SHA256
