import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ckhopf.cli import main
from ckhopf.corpus import named_graph, named_graphs
from ckhopf.graphs import canonical_key
from ckhopf.serialize import graph_to_doc, invariant_to_doc
from ckhopf.tensors import phi

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_insert_text(capsys):
    code, out = run(capsys, "insert", "loop1", "twoleg", "--format", "text")
    assert code == 0
    assert out.strip() == "2 * bubble"


def test_coproduct_loop1_trivial(capsys):
    code, out = run(capsys, "coproduct", "loop1")
    assert code == 0
    assert out.strip() == "loop1 (x) empty + empty (x) loop1"


def test_star_text(capsys):
    code, out = run(capsys, "star", "twoleg", "loop1")
    assert code == 0
    assert "2 * bubble" in out


def test_aut(capsys):
    code, out = run(capsys, "aut", "bubble", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"automorphisms": 4}


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "--edges", "1", "--connected", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 4


def test_insert_free_propagator_is_zero(capsys):
    # used to die with a KeyError traceback (exit 1)
    for site in ("dot_1", "dumbbell"):
        assert run(capsys, "insert", site, "freeprop") == (0, "0\n")


def test_contract(capsys):
    code, out = run(capsys, "contract", "bubble", "--edges", "0-1")
    assert code == 0
    assert out.strip() == canonical_key(named_graph("loop1")).decode("ascii")


def test_graph_file_input(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_doc(named_graph("bubble"))))
    code, out = run(capsys, "aut", str(path))
    assert code == 0
    assert out.strip() == "4"


def test_phi_psi_files(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    code, _ = run(capsys, "phi", "loop1", "--dim", "2", "--format", "json", "--out", str(tpath))
    assert code == 0
    assert json.loads(tpath.read_text()) == invariant_to_doc(phi(named_graph("loop1"), 2))
    code, out = run(capsys, "psi", str(tpath))
    assert code == 0
    assert out.strip() == "loop1"


def test_delta_file(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    run(capsys, "phi", "loop1", "--dim", "2", "--format", "json", "--out", str(tpath))
    code, out = run(capsys, "delta", str(tpath), "--m", "1", "--n", "1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 2


def test_phi_too_many_words_exits_2(capsys):
    # theta has 3 edges, so beta would enumerate 100000**3 index words
    assert main(["phi", "theta", "--dim", "100000"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_graph_errors(capsys):
    code = main(["aut", "nonexistent-graph"])
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing --edges
    assert exc.value.code == 2


def test_verify_exit_codes(capsys):
    code, out = run(
        capsys, "verify", "--suite", "grading", "--max-edges", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_json_deterministic(capsys):
    _, out1 = run(capsys, "verify", "--suite", "grading", "--max-edges", "2", "--format", "json")
    _, out2 = run(capsys, "verify", "--suite", "grading", "--max-edges", "2", "--format", "json")
    assert out1 == out2


def test_json_output_byte_stable(capsys):
    _, out1 = run(capsys, "star", "twoleg", "loop1", "--format", "json")
    _, out2 = run(capsys, "star", "twoleg", "loop1", "--format", "json")
    assert out1 == out2
    _, out3 = run(capsys, "coproduct", "bubble", "--format", "json")
    _, out4 = run(capsys, "coproduct", "bubble", "--format", "json")
    assert out3 == out4


@pytest.mark.parametrize(
    "content",
    ["[1, 2]", '{"half_edges": [0, 1], "edges": [[0, 1]', "\xff", '"graph"'],
)
def test_aut_malformed_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "g.json"
    path.write_bytes(content.encode("latin-1"))
    assert main(["aut", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"dimension": 2, "terms": [{"coeff": "1/1", "blocks": [[1, 9]], "external": []}]},
        {"dimension": 2, "terms": [{"coeff": 0.1, "blocks": [[1, 1]], "external": []}]},
        {"dimension": "2", "terms": []},
        {"dimension": 2, "terms": [{"coeff": "1/1", "blocks": [[]], "external": []}]},
        {"dimension": 2, "terms": [{"coeff": "1/1", "blocks": [[0, 1]], "external": []}]},
        {"dimension": 2, "terms": [{"coeff": "0/1", "blocks": [], "external": [3]}]},
    ],
)
@pytest.mark.parametrize("command", [["psi"], ["delta", "--m", "1", "--n", "1"]])
def test_tensor_malformed_file_exits_2(tmp_path, capsys, doc, command):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path)] + command[1:]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_tensor_missing_or_truncated_file_exits_2(tmp_path, capsys):
    assert main(["psi", str(tmp_path / "missing.json")]) == 2
    path = tmp_path / "t.json"
    path.write_text('{"dimension": 2, "terms": [')
    assert main(["psi", str(path)]) == 2


@pytest.mark.parametrize("edges", ["[[0,1", "5", "0-x", "[5]"])
def test_contract_malformed_edges_exits_2(capsys, edges):
    assert main(["contract", "bubble", "--edges", edges]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"edges": 5},
        {"half_edges": [0, 1], "edges": [[0, 1]], "vertices": [[0], [1]], "external": [True]},
    ],
)
def test_aut_malformed_graph_fields_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert main(["aut", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(allow_nan=False) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=16,
)
_graph_fields = st.fixed_dictionaries(
    {}, optional={name: _json for name in ("half_edges", "edges", "vertices", "external")}
)


@st.composite
def _small_graph(draw):
    """A graph document with at most 2 edges; its external indices may be invalid."""
    n = draw(st.integers(0, 2))
    halves = draw(st.permutations(range(2 * n)))
    where = draw(st.lists(st.integers(0, 3), min_size=2 * n, max_size=2 * n))
    vertices = [[h for h, w in zip(halves, where) if w == v] for v in range(4)]
    vertices = [v for v in vertices if v] + [[]] * draw(st.integers(0, 1))
    return {
        "half_edges": list(range(2 * n)),
        "edges": [list(halves[i : i + 2]) for i in range(0, 2 * n, 2)],
        "vertices": vertices,
        "external": draw(st.lists(st.integers(-1, len(vertices)), max_size=2, unique=True)),
    }


_coeff = st.integers(-2, 2) | st.sampled_from(["1/2", "-3/4", "1/0", "x", 0.5, True, None])
_tensor_doc = st.fixed_dictionaries(
    {
        "dimension": st.integers(-1, 3),
        "terms": st.lists(
            st.fixed_dictionaries(
                {
                    "coeff": _coeff,
                    "blocks": st.lists(st.lists(st.integers(0, 4), max_size=3), max_size=2),
                    "external": st.lists(st.integers(0, 4), max_size=2),
                }
            ),
            max_size=3,
        ),
    }
)
_fuzz = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _exit_code(tmp_path_factory, command, docs, flags=()) -> int:
    """Exit code of ``ckhopf command FILE... flags`` on the documents, with
    argparse's usage errors counted as their exit code."""
    folder = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, doc in enumerate(docs):
        paths.append(folder / f"{i}.json")
        paths[-1].write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main([command, *map(str, paths), *flags])
        except SystemExit as exc:
            return exc.code


@_fuzz
@given(_json | _graph_fields)
def test_aut_arbitrary_json_exits_0_or_2(tmp_path_factory, doc):
    assert _exit_code(tmp_path_factory, "aut", [doc]) in (0, 2)


_graph_doc = (
    _json
    | _graph_fields
    | _small_graph()
    | st.sampled_from([graph_to_doc(g) for g in named_graphs().values()])
)


@_fuzz
@given(_graph_doc, _graph_doc)
@example(graph_to_doc(named_graph("dot_1")), graph_to_doc(named_graph("freeprop")))
def test_insert_arbitrary_json_exits_0_or_2(tmp_path_factory, doc1, doc2):
    assert _exit_code(tmp_path_factory, "insert", [doc1, doc2]) in (0, 2)


@_fuzz
@given(_json | _tensor_doc)
def test_psi_arbitrary_json_exits_0_or_2(tmp_path_factory, doc):
    assert _exit_code(tmp_path_factory, "psi", [doc]) in (0, 2)


@_fuzz
@given(_json | _tensor_doc, st.integers(-1, 3), st.integers(-1, 3))
def test_delta_arbitrary_json_exits_0_or_2(tmp_path_factory, doc, m, n):
    flags = ["--m", str(m), "--n", str(n)]
    assert _exit_code(tmp_path_factory, "delta", [doc], flags) in (0, 2)


_small_doc = _json | _graph_fields | _small_graph()
# loop1 beside an empty vertex: ``star`` on it used to print 0 with exit 0
_loop_and_vertex = {
    "half_edges": [0, 1], "edges": [[0, 1]], "vertices": [[0, 1], []], "external": []
}


def test_star_with_empty_vertex_exits_2(tmp_path_factory):
    assert _exit_code(tmp_path_factory, "star", [_loop_and_vertex] * 2) == 2


@_fuzz
@given(_small_doc, _small_doc)
@example(_loop_and_vertex, _loop_and_vertex)
def test_star_arbitrary_json_exits_0_or_2(tmp_path_factory, doc1, doc2):
    assert _exit_code(tmp_path_factory, "star", [doc1, doc2]) in (0, 2)


@_fuzz
@given(_small_doc, st.booleans())
def test_coproduct_arbitrary_json_exits_0_or_2(tmp_path_factory, doc, full):
    flags = ["--full-subgraph-term"] if full else []
    assert _exit_code(tmp_path_factory, "coproduct", [doc], flags) in (0, 2)


@_fuzz
@given(_small_doc)
def test_antipode_arbitrary_json_exits_0_or_2(tmp_path_factory, doc):
    assert _exit_code(tmp_path_factory, "antipode", [doc]) in (0, 2)


_pair = st.lists(st.integers(-1, 4) | st.booleans() | st.none(), max_size=3)
_edges = st.text("0123-,[] ", max_size=8) | st.lists(_pair, max_size=3).map(json.dumps)


@_fuzz
@given(_small_doc, _edges)
def test_contract_arbitrary_json_exits_0_or_2(tmp_path_factory, doc, edges):
    assert _exit_code(tmp_path_factory, "contract", [doc], ["--edges", edges]) in (0, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--edges", "-1"],
        ["phi", "loop1", "--dim", "-2"],
        ["delta", str(GOLDEN / "phi_bubble_4.json"), "--m", "-1", "--n", "5"],
        ["delta", str(GOLDEN / "phi_bubble_4.json"), "--m", "5", "--n", "-1"],
        ["verify", "--suite", "grading", "--max-edges", "-1"],
        ["verify", "--suite", "grading", "--dim", "-1"],
        ["verify", "--suite", "prelie", "--max-edges", "1", "--prelie-samples", "-1"],
    ],
)
def test_negative_count_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["star", "twoleg", "loop1", "--edge-bound", "4"],
        ["psi", str(GOLDEN / "phi_bubble_3.json"), "--dim", "3"],
    ],
)
def test_removed_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
