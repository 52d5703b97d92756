"""Spans around the calls into each ckhopf layer, recorded from outside.

``Tracer.install`` rebinds every public function named in ``LAYERS`` in every
loaded ``ckhopf`` module that holds it.  Modules import these names with
``from .graphs import ...``, so patching only the defining module would miss
calls.  Spans (layer, start, end, parent) are kept in flat arrays in memory
and written out once, by ``Tracer.write``, after the workload.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from array import array

# layer -> (module, public function) pairs whose calls it covers
LAYERS = {
    "graphs.canonical": [
        ("graphs", "canonical_key"),
        ("graphs", "canonical_form"),
        ("graphs", "automorphism_count"),
        ("graphs", "is_isomorphic"),
    ],
    "graphs.enumerate": [("graphs", "enumerate_graphs"), ("graphs", "enumerate_by_grade")],
    "graphs.surgery": [
        ("graphs", "contract_subgraph"),
        ("graphs", "contract_edge"),
        ("graphs", "extract_subgraph"),
        ("graphs", "disjoint_union"),
        ("graphs", "connected_components"),
    ],
    "poly.product": [("poly", "product")],
    "hopf.star_product": [("hopf", "star_product")],
    "hopf.coproduct": [("hopf", "coproduct")],
    "hopf.antipode": [("hopf", "antipode")],
    "insertion.insertion_product": [("insertion", "insertion_product")],
    "tensors.psi": [("tensors", "psi")],
    "tensors.phi": [("tensors", "phi")],
    "tensors.algebra": [
        ("tensors", "tensor_mul"),
        ("tensors", "tensor_delta"),
        ("tensors", "tensor_prelie"),
        ("tensors", "project"),
    ],
    "chords": [
        ("chords", "beta"),
        ("chords", "z_coinv"),
        ("chords", "pair_raw"),
        ("chords", "enumerate_chords"),
        ("chords", "graph_from_chord"),
        ("chords", "chord_from_graph"),
    ],
}

ENUMERATE = list(LAYERS).index("graphs.enumerate")
COPRODUCT = list(LAYERS).index("hopf.coproduct")
STAR = list(LAYERS).index("hopf.star_product")


def load_all_modules() -> dict[str, object]:
    """Every ckhopf module, keyed by its name without the package prefix.

    Reached through ``importlib`` because ``ckhopf.poly`` is shadowed by the
    ``poly`` function in the package namespace.
    """
    import ckhopf

    mods = {"": ckhopf}
    for info in pkgutil.iter_modules(ckhopf.__path__):
        mods[info.name] = importlib.import_module(f"ckhopf.{info.name}")
    return mods


def read_memos(mods: dict[str, object]) -> dict[str, tuple[int, int]]:
    """(currsize, misses) of every memo a ckhopf module defines."""
    out = {}
    for modname, mod in sorted(mods.items()):
        for attr, val in sorted(vars(mod).items()):
            info = getattr(val, "cache_info", None)
            if callable(info) and getattr(val, "__module__", None) == mod.__name__:
                ci = info()
                out[f"{modname}.{attr}"] = (ci.currsize, ci.misses)
    return out


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("B")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)
        self.inclusive = [0.0] * len(self.names)
        self.enumerated_classes = 0
        self.coproduct_terms = 0
        self.star_terms = 0
        self.star_candidates = 0

    def _count(self, idx: int, result) -> None:
        if idx == ENUMERATE:
            self.enumerated_classes += len(result)
            if self._depth[STAR]:
                self.star_candidates += len(result)
        elif idx == COPRODUCT:
            self.coproduct_terms += len(result)
        elif idx == STAR:
            self.star_terms += len(result)

    def _wrap(self, idx: int, fn):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack, depth, inclusive, clock = self._stack, self._depth, self.inclusive, time.perf_counter
        count = self._count if idx in (ENUMERATE, COPRODUCT, STAR) else None

        def traced(*args, **kwargs):
            span = len(start)
            layer.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            depth[idx] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                end[span] = t
                stack.pop()
                depth[idx] -= 1
                if not depth[idx]:
                    inclusive[idx] += t - start[span]
            if count is not None:
                count(idx, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self, mods: dict[str, object]) -> None:
        for idx, targets in enumerate(LAYERS.values()):
            for modname, fname in targets:
                orig = getattr(mods[modname], fname)
                wrapper = self._wrap(idx, orig)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        n_layers = len(self.names)
        calls = [0] * n_layers
        self_s = [0.0] * n_layers
        child_s = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        for i in range(len(self.start)):
            k = self.layer[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child_s[i]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out["graphs.enumerate.classes"] = self.enumerated_classes
        out["hopf.coproduct.terms"] = self.coproduct_terms
        out["hopf.star_product.incl_s"] = self.inclusive[STAR]
        out["hopf.star_product.match_ratio"] = (
            self.star_terms / self.star_candidates if self.star_candidates else 0.0
        )
        return out

    def write(self, path) -> None:
        """Spans in binary: a JSON header line, then the arrays in its order."""
        header = {
            "layers": self.names,
            "count": len(self.start),
            "arrays": [[name, getattr(self, name).typecode] for name in ("layer", "parent", "start", "end")],
            "clock": "time.perf_counter, seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for name, _code in header["arrays"]:
                getattr(self, name).tofile(fh)
