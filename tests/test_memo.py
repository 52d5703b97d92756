"""The memo registry: every memo is in it, and a suite frees its algebra memos.

Results must not depend on what ran earlier in the process, so each suite's
report is the same cold and after every other suite, and ``run_suite`` leaves
no suite-lifetime memo filled, also when a suite raises.
"""

import importlib
import pkgutil

import pytest

import ckhopf
from ckhopf import memo, verify
from ckhopf.tensors import phi, psi

LIFETIMES = {
    memo.PROCESS: {
        "corpus.default_corpus",
        "corpus.name_by_key",
        "corpus.named_graph",
        "graphs._CONNECTED",
        "graphs._GRADE_CACHE",
        "graphs._canonical",
        "graphs._code_tail",
        "graphs._union_key",
        "graphs.graph_from_key",
        "poly._part_grade",
    },
    memo.SUITE: {
        "chords.enumerate_chords",
        "chords.z_words",
        "hopf._antipode_connected",
        "hopf._coproduct_connected",
        "hopf._coproduct_graph",
        "hopf._star_basis",
        "insertion._graft_data",
        "insertion._insertion_basis",
        "tensors._SHARED",
        "tensors._phi_cached",
        "tensors._psi_table",
    },
}


def _modules():
    return [importlib.import_module(f"ckhopf.{info.name}") for info in pkgutil.iter_modules(ckhopf.__path__)]


def _registered() -> set[int]:
    return {id(obj) for _, obj in memo._REGISTRY.values()}


def test_each_memo_has_its_lifetime():
    for lifetime, names in LIFETIMES.items():
        assert set(memo.sizes(lifetime)) == names, lifetime
    assert len(memo.sizes()) == 21


def test_every_lru_cache_in_the_package_is_registered():
    caches = {
        f"{mod.__name__}.{attr}": val
        for mod in _modules()
        for attr, val in vars(mod).items()
        if callable(getattr(val, "cache_info", None)) and getattr(val, "__module__", None) == mod.__name__
    }
    assert len(caches) == 18
    registered = _registered()
    assert not [name for name, val in caches.items() if id(val) not in registered]


def test_every_module_level_table_a_run_fills_is_registered():
    # a dict, list or set at module level that grows while the suites run
    # is a memo, and must be in the registry
    tables = [
        (f"{mod.__name__}.{attr}", val)
        for mod in _modules()
        for attr, val in vars(mod).items()
        if isinstance(val, (dict, list, set)) and not attr.startswith("__")
    ]
    memo.clear()
    before = {name: len(val) for name, val in tables}
    verify.run_suite("all", max_edges=2, dim=3)
    grown = {name for name, val in tables if len(val) != before[name]}
    assert {"ckhopf.graphs._CONNECTED", "ckhopf.graphs._GRADE_CACHE"} <= grown
    registered = _registered()
    assert not [name for name, val in tables if name in grown and id(val) not in registered]
    assert id(ckhopf.tensors._SHARED) in registered


def test_clear_and_sizes_by_lifetime():
    memo.clear()
    psi(phi(ckhopf.corpus.named_graph("theta"), 3))
    assert memo.sizes()["graphs._canonical"] > 0
    assert memo.sizes()["tensors._phi_cached"] == 1
    memo.clear(memo.SUITE)
    assert set(memo.sizes(memo.SUITE).values()) == {0}
    assert memo.sizes()["graphs._canonical"] > 0
    memo.clear()
    assert set(memo.sizes().values()) == {0}
    with pytest.raises(ValueError):
        memo.table("tests.bad", "forever")


def test_each_suite_reports_the_same_cold_and_after_every_other_suite():
    suites = [name for name in verify.suite_names() if name != "all"]
    cold = {}
    for name in suites:
        memo.clear()
        cold[name] = verify.run_suite(name).to_json_dict()
        assert set(memo.sizes(memo.SUITE).values()) == {0}, name
    memo.clear()
    everything = verify.run_suite("all").to_json_dict()
    assert set(memo.sizes(memo.SUITE).values()) == {0}
    assert everything["checks"] == [check for name in suites for check in cold[name]["checks"]]
    # every other suite has now run in this process
    for name in suites:
        assert verify.run_suite(name).to_json_dict() == cold[name], name
        assert set(memo.sizes(memo.SUITE).values()) == {0}, name


def test_a_suite_that_raises_still_frees_its_memos(monkeypatch):
    prelie = verify._SUITES["prelie"]
    filled = []

    def failing(report, **params):
        prelie(report, **params)
        filled.append(sum(memo.sizes(memo.SUITE).values()))
        raise RuntimeError("a suite failed")

    monkeypatch.setitem(verify._SUITES, "prelie", failing)
    for name in ("prelie", "all"):
        memo.clear()
        with pytest.raises(RuntimeError):
            verify.run_suite(name, max_edges=2)
        assert set(memo.sizes(memo.SUITE).values()) == {0}, name
    assert len(filled) == 2 and min(filled) > 0
