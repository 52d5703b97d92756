import json

from ckhopf import verify
from ckhopf.graphs import graph
from ckhopf.serialize import dumps
from ckhopf.tensors import phi
from ckhopf.verify import run_suite, suite_names


def test_suite_names():
    names = suite_names()
    assert "hopf" in names and "all" in names


def test_report_structure():
    rep = run_suite("grading", max_edges=2)
    assert rep.passed
    doc = rep.to_json_dict()
    assert doc["suite"] == "grading"
    assert doc["params"]["max_edges"] == 2
    assert all("name" in c and "passed" in c for c in doc["checks"])
    text = rep.to_text()
    assert "PASS" in text and "overall" in text


def test_report_bit_for_bit_reproducible():
    a = dumps(run_suite("invariants", max_edges=2, seed=13).to_json_dict())
    b = dumps(run_suite("invariants", max_edges=2, seed=13).to_json_dict())
    assert a == b


def test_full_subgraph_term_diagnostic_recorded():
    rep = run_suite("hopf", max_edges=1, full_subgraph_term=True)
    names = [c.name for c in rep.checks]
    assert "coassociativity[full-subgraph-term]" in names
    diag = next(c for c in rep.checks if c.name.endswith("[full-subgraph-term]"))
    assert not diag.gating
    # the alternate convention is not coassociative; the default must still pass
    assert not diag.passed
    assert diag.counterexample is not None
    assert rep.passed


def test_failed_check_carries_counterexample():
    rep = run_suite("hopf", max_edges=1, full_subgraph_term=True)
    for c in rep.checks:
        if not c.passed:
            assert c.counterexample is not None or c.details


def test_unexpected_exception_fails_only_its_check(monkeypatch):
    from ckhopf import verify

    def broken(graphs):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "_check_counit", broken)
    rep = run_suite("hopf", max_edges=1)
    by_name = {c.name: c for c in rep.checks}
    assert list(by_name) == [
        "coassociativity",
        "coproduct-algebra-map",
        "counit-axiom",
        "antipode-axiom",
        "pairing-orthogonality",
    ]
    assert by_name["counit-axiom"].details == "error: RuntimeError: boom"
    assert not by_name["counit-axiom"].passed
    assert all(c.passed for name, c in by_name.items() if name != "counit-axiom")
    assert not rep.passed


def test_phi_psi_on_image_skips_graphs_above_the_dimension():
    # psi is 0 on bigrade N > n by definition, while phi(rose5, 4) is not
    rose5 = graph(edges=[(2 * i, 2 * i + 1) for i in range(5)], vertices=[tuple(range(10))])
    assert not phi(rose5, 4).is_zero()
    assert verify._check_phi_psi([rose5], 4) is None


def test_roundtrip_reports_skipped_graphs():
    rep = run_suite("roundtrip", max_edges=2, dim=1)
    assert rep.passed
    check = next(c for c in rep.checks if c.name == "phi-psi-identity-on-image")
    assert check.details == "skipped 20 graphs with more edges than dim 1"
