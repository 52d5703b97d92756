"""Seeded verification suites checking every theorem on enumerated instances.

Each suite runs a list of named checks; a failed check carries a serialized
counterexample.  Reports are deterministic given (parameters, seed): the JSON
form excludes wall-clock timings, which appear only in the text table.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import hopf, insertion
from .chords import beta, enumerate_chords, pair_raw, z_coinv
from .corpus import connected_corpus, default_corpus, named_graph
from .errors import ResourceBound
from .graphs import (
    HalfEdgeGraph,
    automorphism_count,
    canonical_key,
    disjoint_union,
    dot_graph,
    enumerate_graphs,
    free_propagator,
    monomial_key,
    relabel,
    to_json_dict,
)
from .oracles import oracle_aut, oracle_enumerate, oracle_iso
from .poly import EMPTY_KEY, GraphPoly, grade_of, linear_combination, product
from .serialize import poly_to_doc
from .tensors import (
    InvariantTensor,
    PairTensor,
    apply_signed_permutation,
    phi,
    phi_poly,
    project,
    project_to,
    psi,
    tensor_delta,
    tensor_mul,
    tensor_prelie,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str = ""
    counterexample: dict | None = None
    gating: bool = True
    elapsed: float = 0.0


@dataclass
class VerificationReport:
    suite: str
    params: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.gating)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "gating": c.gating,
                    "details": c.details,
                    "counterexample": c.counterexample,
                }
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        width = max((len(c.name) for c in self.checks), default=10) + 2
        lines = [f"suite {self.suite}  params {self.params}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            note = "" if c.gating else "  [diagnostic]"
            detail = f"  {c.details}" if c.details else ""
            lines.append(f"  {c.name:<{width}} {status}  {c.elapsed:7.2f}s{note}{detail}")
            if c.counterexample is not None:
                lines.append(f"      counterexample: {json.dumps(c.counterexample)}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class _Runner:
    def __init__(self, report: VerificationReport):
        self.report = report

    def run(self, name: str, fn: Callable[[], dict | None], gating: bool = True):
        t0 = time.perf_counter()
        try:
            cex = fn()
            check = CheckResult(name, cex is None, counterexample=cex, gating=gating)
        except Exception as exc:  # one broken check must not abort the report
            details = f"error: {type(exc).__name__}: {exc}"
            check = CheckResult(name, False, details=details, gating=gating)
        check.elapsed = time.perf_counter() - t0
        self.report.checks.append(check)
        return check


def _all_classes(max_edges: int) -> list[HalfEdgeGraph]:
    out = []
    for n in range(max_edges + 1):
        out.extend(enumerate_graphs(n, "all"))
    return out


# ---------------------------------------------------------------------------
# hopf suite


def _check_coassociativity(graphs, full: bool):
    for g in graphs:
        p = GraphPoly.from_graph(g)
        d = hopf.coproduct(p, full)
        if hopf.coproduct_on_left(d, full) != hopf.coproduct_on_right(d, full):
            return {"graph": to_json_dict(g)}
    return None


def _check_algebra_map(graphs, max_edges: int):
    for g1 in graphs:
        for g2 in graphs:
            if len(g1.edges) + len(g2.edges) > max_edges:
                continue
            p, q = GraphPoly.from_graph(g1), GraphPoly.from_graph(g2)
            lhs = hopf.coproduct(product(p, q))
            rhs = hopf.coproduct(p).mul(hopf.coproduct(q))
            if lhs != rhs:
                return {"g1": to_json_dict(g1), "g2": to_json_dict(g2)}
    return None


def _check_counit(graphs):
    for g in graphs:
        p = GraphPoly.from_graph(g)
        terms = hopf.coproduct(p).terms()
        collapsed = linear_combination(
            ((GraphPoly({k2: Fraction(1)}), c) for (k1, k2), c in terms if k1 == EMPTY_KEY),
            GraphPoly(),
        )
        if collapsed != p:
            return {"graph": to_json_dict(g)}
    return None


def _check_antipode_axiom(graphs):
    for g in graphs:
        p = GraphPoly.from_graph(g)
        summands = []
        for (k1, k2), c in hopf.coproduct(p).terms():
            s = hopf.antipode(GraphPoly({k1: Fraction(1)}))
            summands.append((product(s, GraphPoly({k2: Fraction(1)})), c))
        total = linear_combination(summands, GraphPoly())
        if total != hopf.unit(hopf.counit(p)):
            return {"graph": to_json_dict(g)}
    return None


def _check_pairing_orthogonality(graphs):
    keyed = [(g, canonical_key(g), GraphPoly.from_graph(g)) for g in graphs]
    for g1, k1, p1 in keyed:
        for g2, k2, p2 in keyed:
            if hopf.pairing(p1, p2) != Fraction(k1 == k2):
                return {"g1": to_json_dict(g1), "g2": to_json_dict(g2)}
    return None


def _suite_hopf(r: _Runner, max_edges: int, full_subgraph_term: bool, **_):
    graphs = _all_classes(max_edges)
    r.run("coassociativity", lambda: _check_coassociativity(graphs, False))
    r.run("coproduct-algebra-map", lambda: _check_algebra_map(graphs, max_edges))
    r.run("counit-axiom", lambda: _check_counit(graphs))
    r.run("antipode-axiom", lambda: _check_antipode_axiom(graphs))
    r.run("pairing-orthogonality", lambda: _check_pairing_orthogonality(graphs))
    if full_subgraph_term:
        r.run(
            "coassociativity[full-subgraph-term]",
            lambda: _check_coassociativity(graphs, True),
            gating=False,
        )


# ---------------------------------------------------------------------------
# grading suite


def _check_coproduct_grading(graphs):
    for g in graphs:
        gr = g.grade()
        for (k1, k2), _c in hopf.coproduct(GraphPoly.from_graph(g)).terms():
            gr1, gr2 = grade_of(k1), grade_of(k2)
            if gr1.m + gr2.m != gr.m:
                return {"graph": to_json_dict(g), "term": [gr1, gr2], "law": "internal-degree"}
            if not (gr.n <= gr1.n + gr2.n <= 3 * gr.n):
                return {"graph": to_json_dict(g), "term": [gr1, gr2], "law": "total-window"}
    return None


def _check_connected_grade_relation(max_edges: int):
    # a connected graph has no internal edges iff edges <= external vertices
    for n in range(1, max_edges + 1):
        for g in enumerate_graphs(n, "connected"):
            gr = g.grade()
            if (gr.m == 0) != (gr.n <= gr.k):
                return {"graph": to_json_dict(g)}
    return None


def _suite_grading(r: _Runner, max_edges: int, **_):
    graphs = _all_classes(max_edges)
    r.run("coproduct-term-grading", lambda: _check_coproduct_grading(graphs))
    r.run("connected-m0-iff-n-le-k", lambda: _check_connected_grade_relation(max_edges))


# ---------------------------------------------------------------------------
# duality suite
#
# With the insertion orientation of the pre-Lie module (G1 o G2 inserts G2
# into G1) and the first star argument paired against the subgraph leg, the
# star product satisfies a * b = a u b + b o a; see the concrete instance
# twoleg * loop1 = twoleg u loop1 + 2 bubble.


def _check_star_insertion(pairs):
    for g1, g2 in pairs:
        a, b = GraphPoly.from_graph(g1), GraphPoly.from_graph(g2)
        star = hopf.star_product(a, b)
        expected = product(a, b) + insertion.insertion_product(b, a)
        if star != expected:
            return {
                "g1": to_json_dict(g1),
                "g2": to_json_dict(g2),
                "star": poly_to_doc(star),
                "expected": poly_to_doc(expected),
            }
    return None


def _check_concrete_instance():
    twoleg = named_graph("twoleg")
    loop1 = named_graph("loop1")
    bubble = named_graph("bubble")
    a, b = GraphPoly.from_graph(twoleg), GraphPoly.from_graph(loop1)
    lhs = hopf.star_product(a, b) - product(a, b)
    if lhs != GraphPoly.from_graph(bubble, 2):
        return {"got": poly_to_doc(lhs)}
    return None


def _check_star_with_k(max_edges: int):
    k_graphs = [dot_graph(k) for k in range(1, max_edges + 1)] + [free_propagator()]
    k_graphs.append(disjoint_union(dot_graph(1), dot_graph(2)))
    plus = connected_corpus(max_edges)
    for g1 in plus:
        for g2 in k_graphs:
            a, b = GraphPoly.from_graph(g1), GraphPoly.from_graph(g2)
            if hopf.star_product(a, b) != product(a, b):
                return {"g1": to_json_dict(g1), "g2": to_json_dict(g2)}
    return None


def _check_leading_term(pairs):
    for g1, g2 in pairs:
        a, b = GraphPoly.from_graph(g1), GraphPoly.from_graph(g2)
        rest = hopf.star_product(a, b) - product(a, b)
        for g, _c in rest.graphs():
            if len(monomial_key(g)) >= 2:
                return {"g1": to_json_dict(g1), "g2": to_json_dict(g2), "term": to_json_dict(g)}
    return None


def _check_star_commutator(pairs):
    for g1, g2 in pairs:
        a, b = GraphPoly.from_graph(g1), GraphPoly.from_graph(g2)
        comm = hopf.star_product(a, b) - hopf.star_product(b, a)
        if comm != hopf.lie_bracket(b, a):
            return {"g1": to_json_dict(g1), "g2": to_json_dict(g2)}
    return None


def _suite_duality(r: _Runner, max_edges: int, **_):
    plus = connected_corpus(max_edges)
    pairs = [(g1, g2) for g1 in plus for g2 in plus]
    r.run("star-equals-union-plus-insertion", lambda: _check_star_insertion(pairs))
    r.run("concrete-twoleg-star-loop1", _check_concrete_instance)
    r.run("star-with-K-is-union", lambda: _check_star_with_k(max_edges))
    r.run("star-leading-term", lambda: _check_leading_term(pairs))
    r.run("star-commutator-vs-bracket", lambda: _check_star_commutator(pairs))


# ---------------------------------------------------------------------------
# pre-Lie suite


def _check_prelie_triples(triples):
    for g1, g2, g3 in triples:
        a = GraphPoly.from_graph(g1)
        b = GraphPoly.from_graph(g2)
        c = GraphPoly.from_graph(g3)
        if not insertion.prelie_check(a, b, c):
            return {"g1": to_json_dict(g1), "g2": to_json_dict(g2), "g3": to_json_dict(g3)}
    return None


def _check_jacobi(triples):
    for g1, g2, g3 in triples:
        a = GraphPoly.from_graph(g1)
        b = GraphPoly.from_graph(g2)
        c = GraphPoly.from_graph(g3)
        total = (
            hopf.lie_bracket(hopf.lie_bracket(a, b), c)
            + hopf.lie_bracket(hopf.lie_bracket(b, c), a)
            + hopf.lie_bracket(hopf.lie_bracket(c, a), b)
        )
        if not total.is_zero():
            return {"g1": to_json_dict(g1), "g2": to_json_dict(g2), "g3": to_json_dict(g3)}
    return None


def _check_insertion_grading(pairs):
    for g1, g2 in pairs:
        gr1, gr2 = g1.grade(), g2.grade()
        prod = insertion.insertion_product(
            GraphPoly.from_graph(g1), GraphPoly.from_graph(g2)
        )
        for g, _c in prod.graphs():
            gr = g.grade()
            if gr.n != gr1.n + gr2.n - gr2.k or gr.k != gr1.k:
                return {"g1": to_json_dict(g1), "g2": to_json_dict(g2), "term": to_json_dict(g)}
    return None


def _suite_prelie(r: _Runner, max_edges: int, seed: int, prelie_samples: int, **_):
    small = [g for g in connected_corpus(max_edges) if g.grade().m <= 2]
    triples = [(a, b, c) for a in small for b in small for c in small]
    r.run("associator-right-symmetry-exhaustive", lambda: _check_prelie_triples(triples))

    rng = random.Random(seed)
    four = enumerate_graphs(4, "connected_plus")
    sampled = [
        (rng.choice(four), rng.choice(four), rng.choice(four))
        for _ in range(prelie_samples)
    ]
    r.run("associator-right-symmetry-random-4edge", lambda: _check_prelie_triples(sampled))

    plus = connected_corpus(max_edges)
    pairs = [(g1, g2) for g1 in plus for g2 in plus]
    r.run("insertion-grade-law", lambda: _check_insertion_grading(pairs))

    jac = [(a, b, c) for a in small[:8] for b in small[:8] for c in small[:8]]
    jac += [sampled[i] for i in range(0, len(sampled), 10)]
    r.run("jacobi-identity", lambda: _check_jacobi(jac))


# ---------------------------------------------------------------------------
# invariants suite


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_chord_counts(max_n: int):
    for N in range(1, max_n + 1):
        got = len(enumerate_chords(N))
        want = _double_factorial(2 * N - 1)
        if got != want or len(set(enumerate_chords(N))) != want:
            return {"N": N, "got": got, "want": want}
    return None


def _check_duality_matrix(max_n: int, dim: int):
    for N in range(1, max_n + 1):
        for n in {N, max(N, min(dim, N + 1))}:
            cs = enumerate_chords(N)
            for c1 in cs:
                for c2 in cs:
                    got = pair_raw(beta(c1, n), z_coinv(c2, n))
                    if got != (1 if c1 == c2 else 0):
                        return {"N": N, "n": n, "c1": repr(c1), "c2": repr(c2)}
    return None


def _check_beta_rank(max_n: int):
    for N in range(1, max_n + 1):
        cs = enumerate_chords(N)
        want = _double_factorial(2 * N - 1)
        for n in (N, N + 1):
            tensors = [beta(c, n) for c in cs]
            words = sorted({w for t in tensors for w, _ in t.terms()})
            index = {w: i for i, w in enumerate(words)}
            rows = []
            for t in tensors:
                row = [Fraction(0)] * len(words)
                for w, v in t.terms():
                    row[index[w]] = v
                rows.append(row)
            if _rank(rows) != want:
                return {"N": N, "n": n, "rank": _rank(rows), "want": want}
    return None


def _check_even_degree(graphs, dim: int):
    # bigrade() raises on odd total degree, so this also asserts no odd object
    for g in graphs:
        t = phi(g, dim)
        gr = g.grade()
        if not t.is_zero() and t.bigrade() != (gr.n, gr.k):
            return {"graph": to_json_dict(g), "bigrade": t.bigrade()}
    return None


def _check_orthogonal_closure(graphs, dim: int, seed: int):
    rng = random.Random(seed)
    for g in graphs:
        t = phi(g, dim)
        for _ in range(3):
            perm = list(range(1, dim + 1))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(dim)]
            if apply_signed_permutation(t, perm, signs) != t:
                return {"graph": to_json_dict(g), "perm": perm, "signs": signs}
    return None


def _suite_invariants(r: _Runner, max_edges: int, dim: int, seed: int, **_):
    r.run("chord-count-double-factorial", lambda: _check_chord_counts(min(5, max_edges + 2)))
    r.run("beta-z-duality-matrix", lambda: _check_duality_matrix(3, dim))
    r.run("beta-rank-full", lambda: _check_beta_rank(3))
    graphs = [g for g in default_corpus(max_edges) if g.n_empty == 0]
    r.run("phi-bigrade-law", lambda: _check_even_degree(graphs, dim))
    r.run("orthogonal-closure", lambda: _check_orthogonal_closure(graphs, dim, seed))


# ---------------------------------------------------------------------------
# bialgebra morphism suite


def _check_phi_multiplicative(pairs, dim: int):
    for g1, g2 in pairs:
        lhs = tensor_mul(phi(g1, dim), phi(g2, dim))
        rhs = phi(disjoint_union(g1, g2), dim)
        if lhs != rhs:
            return {"g1": to_json_dict(g1), "g2": to_json_dict(g2)}
    return None


def _check_primitive(graphs, m: int, n: int):
    one_m = InvariantTensor.unit(m)
    one_n = InvariantTensor.unit(n)
    for g in graphs:
        lhs = tensor_delta(phi(g, m + n), m, n)
        rhs = PairTensor.outer(phi(g, m), one_n) + PairTensor.outer(one_m, phi(g, n))
        if lhs != rhs:
            return {"graph": to_json_dict(g)}
    return None


def _check_delta_cross_terms(pairs, m: int, n: int):
    one_m = InvariantTensor.unit(m)
    one_n = InvariantTensor.unit(n)
    for g1, g2 in pairs:
        u = disjoint_union(g1, g2)
        lhs = tensor_delta(phi(u, m + n), m, n)
        rhs = (
            PairTensor.outer(phi(u, m), one_n)
            + PairTensor.outer(one_m, phi(u, n))
            + PairTensor.outer(phi(g1, m), phi(g2, n))
            + PairTensor.outer(phi(g2, m), phi(g1, n))
        )
        if lhs != rhs:
            return {"g1": to_json_dict(g1), "g2": to_json_dict(g2)}
    return None


def _check_delta_counit(graphs, m: int, n: int):
    # collapsing one coproduct leg recovers the projection to the other factor
    for g in graphs:
        t = phi(g, m + n)
        d = tensor_delta(t, m, n)
        if d.left_counit() != _pi_shift(t, m, n):
            return {"graph": to_json_dict(g), "side": "left-counit"}
        if d.right_counit() != project_to(t, m):
            return {"graph": to_json_dict(g), "side": "right-counit"}
    return None


def _pi_shift(t: InvariantTensor, m: int, n: int) -> InvariantTensor:
    out = {}
    for (blocks, ext), c in t.terms():
        if any(x <= m for b in blocks for x in b) or any(x <= m for x in ext):
            continue
        term = (
            tuple(sorted(tuple(sorted(x - m for x in b)) for b in blocks)),
            tuple(sorted(x - m for x in ext)),
        )
        out[term] = out.get(term, Fraction(0)) + c
    return InvariantTensor(n, out)


def _suite_bialgebra(r: _Runner, max_edges: int, **_):
    conn = connected_corpus(max_edges, plus=False)
    pairs = [(g1, g2) for g1 in conn for g2 in conn if len(g1.edges) + len(g2.edges) <= max_edges + 1]
    r.run("phi-multiplicative", lambda: _check_phi_multiplicative(pairs, 3))
    r.run("phi-primitive-on-connected", lambda: _check_primitive(conn, 3, 3))
    small_pairs = [(g1, g2) for g1, g2 in pairs if len(g1.edges) + len(g2.edges) <= 3]
    r.run("delta-cross-terms", lambda: _check_delta_cross_terms(small_pairs, 3, 3))
    r.run("delta-counit-compatibility", lambda: _check_delta_counit(conn, 3, 3))


# ---------------------------------------------------------------------------
# main theorem suite


def _check_main_theorem(pairs):
    for g1, g2 in pairs:
        n = len(g1.edges) + len(g2.edges)
        lhs = phi_poly(
            insertion.insertion_product(GraphPoly.from_graph(g1), GraphPoly.from_graph(g2)), n
        )
        rhs = tensor_prelie(phi(g1, n), phi(g2, n))
        if lhs != rhs:
            return {"g1": to_json_dict(g1), "g2": to_json_dict(g2), "n": n}
    return None


def _check_prelie_projection(pairs, dim: int):
    for g1, g2 in pairs:
        big = tensor_prelie(phi(g1, dim + 1), phi(g2, dim + 1))
        small = tensor_prelie(phi(g1, dim), phi(g2, dim))
        if project(big) != small:
            return {"g1": to_json_dict(g1), "g2": to_json_dict(g2)}
    return None


def _check_tensor_associator(graphs, dim: int, seed: int, samples: int = 60):
    # right symmetry of the tensor-side associator on phi images
    def assoc(a, b, c):
        return tensor_prelie(tensor_prelie(a, b), c) - tensor_prelie(a, tensor_prelie(b, c))

    rng = random.Random(seed)
    for _ in range(samples):
        g1, g2, g3 = (rng.choice(graphs) for _ in range(3))
        t1, t2, t3 = phi(g1, dim), phi(g2, dim), phi(g3, dim)
        if assoc(t1, t2, t3) != assoc(t1, t3, t2):
            return {"g1": to_json_dict(g1), "g2": to_json_dict(g2), "g3": to_json_dict(g3)}
    return None


def _suite_main_theorem(r: _Runner, max_edges: int, dim: int, seed: int, **_):
    plus = connected_corpus(max_edges)
    pairs = [
        (g1, g2)
        for g1 in plus
        for g2 in plus
        if len(g1.edges) + len(g2.edges) <= max(4, max_edges + 1)
    ]
    r.run("phi-equivariance-insertion", lambda: _check_main_theorem(pairs))
    small = [(g1, g2) for g1, g2 in pairs if len(g1.edges) + len(g2.edges) <= 4]
    r.run("prelie-projection-compatibility", lambda: _check_prelie_projection(small, dim))
    small_graphs = [g for g in plus if len(g.edges) <= 2]
    r.run(
        "tensor-associator-right-symmetry",
        lambda: _check_tensor_associator(small_graphs, 3, seed),
    )


# ---------------------------------------------------------------------------
# round trip suite


def _check_psi_phi(graphs, dims: int):
    for g in graphs:
        if g.n_empty:
            continue
        N = len(g.edges)
        for n in range(N, dims + 1):
            if psi(phi(g, n)) != GraphPoly.from_graph(g):
                return {"graph": to_json_dict(g), "n": n}
    return None


def _check_phi_psi(graphs, dim: int):
    # psi is 0 on bigrade N > dim by definition, so only N <= dim can round trip
    for g in graphs:
        if g.n_empty or len(g.edges) > dim:
            continue
        t = phi(g, dim)
        if phi_poly(psi(t), dim) != t:
            return {"graph": to_json_dict(g)}
    return None


def _check_projection_naturality(graphs, dim: int):
    for g in graphs:
        if g.n_empty:
            continue
        for n in range(max(1, len(g.edges)), dim + 1):
            if project(phi(g, n + 1)) != phi(g, n):
                return {"graph": to_json_dict(g), "n": n}
    return None


def _suite_roundtrip(r: _Runner, max_edges: int, dim: int, **_):
    graphs = list(default_corpus(max_edges))
    r.run("psi-phi-identity", lambda: _check_psi_phi(graphs, max(dim, 4)))
    check = r.run("phi-psi-identity-on-image", lambda: _check_phi_psi(graphs, dim))
    skipped = sum(len(g.edges) > dim for g in graphs)
    if skipped and not check.details:
        check.details = f"skipped {skipped} graphs with more edges than dim {dim}"
    r.run("projection-naturality", lambda: _check_projection_naturality(graphs, dim))


# ---------------------------------------------------------------------------
# oracle suite


def _check_oracle_aut(graphs):
    for g in graphs:
        if oracle_aut(g) != automorphism_count(g):
            return {
                "graph": to_json_dict(g),
                "oracle": oracle_aut(g),
                "canonical": automorphism_count(g),
            }
    return None


def _check_oracle_iso(graphs, seed: int):
    by_grade: dict[tuple, list[HalfEdgeGraph]] = {}
    for g in graphs:
        by_grade.setdefault(tuple(g.grade()), []).append(g)
    for bucket in by_grade.values():
        for i, g1 in enumerate(bucket):
            for g2 in bucket[i:]:
                key_equal = canonical_key(g1) == canonical_key(g2)
                if key_equal != oracle_iso(g1, g2):
                    return {"g1": to_json_dict(g1), "g2": to_json_dict(g2)}
    rng = random.Random(seed)
    for g in graphs:
        n = g.n_half_edges
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = relabel(g, dict(enumerate(perm)))
        if canonical_key(g2) != canonical_key(g) or not oracle_iso(g, g2):
            return {"graph": to_json_dict(g), "perm": perm}
    return None


def _check_oracle_enumeration(max_edges: int):
    for n in range(min(3, max_edges) + 1):
        oracle_keys = sorted(canonical_key(g) for g in oracle_enumerate(n))
        prod_keys = sorted(canonical_key(g) for g in enumerate_graphs(n, "all"))
        if oracle_keys != prod_keys:
            return {"n": n, "oracle": len(oracle_keys), "production": len(prod_keys)}
    return None


def _suite_oracles(r: _Runner, max_edges: int, seed: int, **_):
    graphs = _all_classes(max_edges)
    r.run("oracle-automorphism-agreement", lambda: _check_oracle_aut(graphs))
    r.run("oracle-isomorphism-agreement", lambda: _check_oracle_iso(graphs, seed))
    r.run("oracle-enumeration-agreement", lambda: _check_oracle_enumeration(max_edges))


# ---------------------------------------------------------------------------


_SUITES = {
    "hopf": _suite_hopf,
    "grading": _suite_grading,
    "duality": _suite_duality,
    "prelie": _suite_prelie,
    "invariants": _suite_invariants,
    "bialgebra": _suite_bialgebra,
    "main-theorem": _suite_main_theorem,
    "roundtrip": _suite_roundtrip,
    "oracles": _suite_oracles,
}


def suite_names() -> list[str]:
    return list(_SUITES) + ["all"]


def run_suite(
    name: str,
    max_edges: int = 3,
    dim: int = 4,
    seed: int = 7,
    full_subgraph_term: bool = False,
    prelie_samples: int = 200,
) -> VerificationReport:
    """Run one named suite (or ``all``) and return its report."""
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    if max_edges > 6 or dim > 8:
        raise ResourceBound("suites are desk scale: max_edges <= 6, dim <= 8")
    params = {
        "max_edges": max_edges,
        "dim": dim,
        "seed": seed,
        "full_subgraph_term": full_subgraph_term,
    }
    if name in ("prelie", "all"):
        params["prelie_samples"] = prelie_samples
    report = VerificationReport(suite=name, params=params)
    runner = _Runner(report)
    targets = _SUITES.values() if name == "all" else [_SUITES[name]]
    for fn in targets:
        fn(
            runner,
            max_edges=max_edges,
            dim=dim,
            seed=seed,
            full_subgraph_term=full_subgraph_term,
            prelie_samples=prelie_samples,
        )
    return report
