"""Seeded verification suites checking every theorem on enumerated instances.

Each suite runs a list of named checks.  A check is a predicate over one
instance (a graph, a pair, a triple or an (N, n) case): it returns None when
the instance passes and a serialized counterexample when it fails.  ``_run``
applies it to the check's instances in order, and the first counterexample
fails the check.  Each check records how many instances it applied its
predicate to, so a pass over none shows as 0.  Reports are deterministic given
(parameters, seed): the JSON form excludes wall-clock timings, which appear
only in the text table.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable

from . import hopf, insertion, memo
from .chords import beta, enumerate_chords, pair_raw, z_coinv
from .corpus import connected_corpus, default_corpus, named_graph
from .errors import InvalidInput, ResourceBound
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
    written_key,
)
from .oracles import oracle_aut, oracle_enumerate, oracle_iso
from .poly import EMPTY_KEY, GraphPoly, grade_of, product
from .serialize import poly_to_doc
from .tensor_algebra import (
    InvariantTensor,
    PairTensor,
    apply_signed_permutation,
    project,
    project_to,
    tensor_delta,
    tensor_mul,
    tensor_prelie,
)
from .tensors import phi, phi_poly, psi
from .vector import linear_combination


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str = ""
    counterexample: dict | None = None
    gating: bool = True
    elapsed: float = 0.0
    instances: int = 0


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
                    "instances": c.instances,
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
            count = f"{c.instances:>8} instances"
            lines.append(f"  {c.name:<{width}} {status}  {c.elapsed:7.2f}s{count}{note}{detail}")
            if c.counterexample is not None:
                lines.append(f"      counterexample: {json.dumps(c.counterexample)}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _run(
    report: VerificationReport,
    name: str,
    instances: Iterable,
    fails: Callable[[object], dict | None],
    gating: bool = True,
) -> CheckResult:
    """Apply ``fails`` to the instances in order; the first counterexample it
    returns fails the check.  ``instances`` counts the applications, the one
    that failed or raised included.  Iterating ``instances`` runs inside the
    check, so a lazy iterable is timed with it and its errors fail only this
    check."""
    t0 = time.perf_counter()
    check = CheckResult(name, True, gating=gating)
    try:
        for instance in instances:
            check.instances += 1
            cex = fails(instance)
            if cex is not None:
                check.passed, check.counterexample = False, cex
                break
    except Exception as exc:  # one broken check must not abort the report
        check.passed, check.details = False, f"error: {type(exc).__name__}: {exc}"
    check.elapsed = time.perf_counter() - t0
    report.checks.append(check)
    return check


def _docs(*graphs: HalfEdgeGraph, **extra) -> dict:
    """A counterexample naming its graphs, "graph" for one and "g1", "g2", ...
    for several, followed by the ``extra`` fields."""
    if len(graphs) == 1:
        doc = {"graph": to_json_dict(graphs[0])}
    else:
        doc = {f"g{i}": to_json_dict(g) for i, g in enumerate(graphs, 1)}
    doc.update(extra)
    return doc


def _all_classes(max_edges: int) -> list[HalfEdgeGraph]:
    return [g for n in range(max_edges + 1) for g in enumerate_graphs(n, "all")]


# ---------------------------------------------------------------------------
# hopf suite


def _check_coassociativity(g, full: bool):
    """(coproduct (x) id) against (id (x) coproduct) of the coproduct of g:
    the two iterate it on different legs."""
    d = hopf.coproduct(GraphPoly.from_graph(g), full)
    left, right = hopf.coproduct_on_left(d, full), hopf.coproduct_on_right(d, full)
    return _docs(g) if left != right else None


def _check_algebra_map(pair):
    """The coproduct of a union against the product of the coproducts.  The
    coproduct of a monomial is the product of its parts' coproducts, so what
    this compares is ``product`` on H with the product on H (x) H."""
    p, q = map(GraphPoly.from_graph, pair)
    lhs = hopf.coproduct(product(p, q))
    return _docs(*pair) if lhs != hopf.coproduct(p).mul(hopf.coproduct(q)) else None


def _check_counit(g):
    """(counit (x) id) of the coproduct of g against g itself."""
    p = GraphPoly.from_graph(g)
    terms = hopf.coproduct(p).terms()
    collapsed = linear_combination(
        ((GraphPoly({k2: Fraction(1)}), c) for (k1, k2), c in terms if k1 == EMPTY_KEY),
        GraphPoly(),
    )
    return _docs(g) if collapsed != p else None


def _check_antipode_axiom(g):
    """m (S (x) id) of the coproduct of g against unit(counit(g)).  On a
    connected g this is the recursion that defines S, so the side it checks
    is the extension of S and of the coproduct to monomials."""
    p = GraphPoly.from_graph(g)
    summands = []
    for (k1, k2), c in hopf.coproduct(p).terms():
        s = hopf.antipode(GraphPoly({k1: Fraction(1)}))
        summands.append((product(s, GraphPoly({k2: Fraction(1)})), c))
    total = linear_combination(summands, GraphPoly())
    return _docs(g) if total != hopf.unit(hopf.counit(p)) else None


def _pairing_check():
    """The predicate of ``pairing-orthogonality`` on the window's classes, in
    enumeration order, in one pass.  Its independent side is the enumeration,
    which yields each class once (``oracle-enumeration-agreement`` checks it):
    through ``hopf.pairing``, <g, g> = 1 and <h, g> = 0 for h the previous
    class of g's grade; no two classes share a monomial key; and the key of g
    read from its parts, written as one graph, is the canonical key of g."""
    first: dict = {}  # monomial key -> the first class with it
    previous: dict = {}  # grade -> the last class of that grade so far

    def fails(g):
        p, key = GraphPoly.from_graph(g), monomial_key(g)
        if hopf.pairing(p, p) != 1:
            return _docs(g, law="self-pairing")
        h, previous[g.grade()] = previous.get(g.grade()), g
        if h is not None and hopf.pairing(GraphPoly.from_graph(h), p) != 0:
            return _docs(h, g, law="adjacent-pairing")
        if first.setdefault(key, g) is not g:
            return _docs(first[key], g, law="distinct-keys")
        if written_key(key) != canonical_key(g):
            return _docs(g, law="written-key")
        return None

    return fails


def _suite_hopf(r: VerificationReport, max_edges: int, full_subgraph_term: bool, **_):
    graphs = _all_classes(max_edges)
    _run(r, "coassociativity", graphs, lambda g: _check_coassociativity(g, False))
    pairs = ((a, b) for a in graphs for b in graphs if len(a.edges) + len(b.edges) <= max_edges)
    _run(r, "coproduct-algebra-map", pairs, _check_algebra_map)
    _run(r, "counit-axiom", graphs, _check_counit)
    _run(r, "antipode-axiom", graphs, _check_antipode_axiom)
    _run(r, "pairing-orthogonality", graphs, _pairing_check())
    if full_subgraph_term:
        _run(
            r,
            "coassociativity[full-subgraph-term]",
            graphs,
            lambda g: _check_coassociativity(g, True),
            gating=False,
        )


# ---------------------------------------------------------------------------
# grading suite


def _check_coproduct_grading(g):
    gr = g.grade()
    for (k1, k2), _c in hopf.coproduct(GraphPoly.from_graph(g)).terms():
        gr1, gr2 = grade_of(k1), grade_of(k2)
        if gr1.m + gr2.m != gr.m:
            return _docs(g, term=[gr1, gr2], law="internal-degree")
        if not (gr.n <= gr1.n + gr2.n <= 3 * gr.n):
            return _docs(g, term=[gr1, gr2], law="total-window")
    return None


def _check_connected_grade_relation(g):
    # a connected graph has no internal edges iff edges <= external vertices
    gr = g.grade()
    return _docs(g) if (gr.m == 0) != (gr.n <= gr.k) else None


def _suite_grading(r: VerificationReport, max_edges: int, **_):
    _run(r, "coproduct-term-grading", _all_classes(max_edges), _check_coproduct_grading)
    connected = (g for n in range(1, max_edges + 1) for g in enumerate_graphs(n, "connected"))
    _run(r, "connected-m0-iff-n-le-k", connected, _check_connected_grade_relation)


# ---------------------------------------------------------------------------
# duality suite
#
# The star product is the Guin-Oudom recursion on the insertion product
# (``hopf._star_basis``), so no check here compares it with a rewriting of
# itself.  Each compares it with a side built without it: the coproduct of
# the window's classes, the hand-computed twoleg * loop1, the plain union, or
# the Lie bracket taken from the insertion product directly.  Every pair has
# at most max_edges edges in all, as every class of the window does.


def _check_concrete_instance(names):
    """twoleg * loop1 - twoleg u loop1 against its value worked out by hand,
    2 bubble."""
    twoleg, loop1, bubble = map(named_graph, names)
    a, b = GraphPoly.from_graph(twoleg), GraphPoly.from_graph(loop1)
    lhs = hopf.star_product(a, b) - product(a, b)
    return {"got": poly_to_doc(lhs)} if lhs != GraphPoly.from_graph(bubble, 2) else None


def _star_k_pairs(max_edges: int):
    k_graphs = [dot_graph(k) for k in range(1, max_edges + 1)] + [free_propagator()]
    k_graphs.append(disjoint_union(dot_graph(1), dot_graph(2)))
    yield from itertools.product(connected_corpus(max_edges), k_graphs)


def _check_star_with_k(pair):
    """a * K against the union a u K, for K without internal edges: no proper
    coproduct term has a quotient leg without internal edges, so by duality
    a * K has no term but the union."""
    a, b = map(GraphPoly.from_graph, pair)
    return _docs(*pair) if hopf.star_product(a, b) != product(a, b) else None


def _check_star_commutator(pair):
    """a * b - b * a against ``hopf.lie_bracket(b, a)``, which takes the two
    insertion products directly.  The star side is checked against the
    coproduct on the same pairs, so this pins the bracket, whose sign and
    scale the Jacobi identity cannot see."""
    a, b = map(GraphPoly.from_graph, pair)
    comm = hopf.star_product(a, b) - hopf.star_product(b, a)
    return _docs(*pair) if comm != hopf.lie_bracket(b, a) else None


def _star_dual_cases(max_edges: int):
    """(g1, g2, expected) for every ordered pair of nonempty classes with at
    most ``max_edges`` edges in all.  The expected product is read off the
    coproduct of every class G of the window:
    |Aut G| [G](g1 * g2) = |Aut g1| |Aut g2| [g1 (x) g2] coproduct(G).
    A G with g1 (x) g2 in its coproduct has the edges of g2 plus the internal
    edges of g1, so it lies in the window."""
    classes = [g for g in _all_classes(max_edges) if g.edges]
    aut = {monomial_key(g): automorphism_count(g) for g in classes}
    dual: dict = {}
    for g in classes:
        kg = monomial_key(g)
        for (ka, kb), c in hopf.coproduct(GraphPoly({kg: Fraction(1)})).terms():
            if ka and kb:
                dual.setdefault((ka, kb), []).append((kg, c / aut[kg]))
    for g1, g2 in itertools.product(classes, repeat=2):
        if len(g1.edges) + len(g2.edges) <= max_edges:
            ka, kb = monomial_key(g1), monomial_key(g2)
            weight = aut[ka] * aut[kb]
            yield g1, g2, GraphPoly((kg, weight * c) for kg, c in dual.get((ka, kb), ()))


def _check_star_dual(case):
    """g1 * g2 against the product read off the coproduct (``_star_dual_cases``)."""
    g1, g2, expected = case
    star = hopf.star_product(GraphPoly.from_graph(g1), GraphPoly.from_graph(g2))
    if star != expected:
        return _docs(g1, g2, star=poly_to_doc(star), expected=poly_to_doc(expected))
    return None


def _suite_duality(r: VerificationReport, max_edges: int, **_):
    concrete = [("twoleg", "loop1", "bubble")]
    _run(r, "concrete-twoleg-star-loop1", concrete, _check_concrete_instance)
    _run(r, "star-with-K-is-union", _star_k_pairs(max_edges), _check_star_with_k)
    plus = connected_corpus(max_edges)
    pairs = [(a, b) for a in plus for b in plus if len(a.edges) + len(b.edges) <= max_edges]
    _run(r, "star-commutator-vs-bracket", pairs, _check_star_commutator)
    _run(r, "star-dual-to-coproduct", _star_dual_cases(max_edges), _check_star_dual)


# ---------------------------------------------------------------------------
# pre-Lie suite

# seeded triples of 4-edge graphs in associator-right-symmetry-random-4edge,
# recorded in the report's params
PRELIE_SAMPLES = 200


def _right_symmetry_triples(n: int):
    """The triples (a, b, c) of positions in a pool of n graphs with b no later
    than c.

    ``assoc(a, b, c) == assoc(a, c, b)`` is symmetric in b and c whatever the
    insertion product computes: (a, b, c) and (a, c, b) compute the same
    products, so both fail or raise.  Of the ordered triples, the first to fail
    or raise therefore has b no later than c, and it is the first here too:
    the counterexample and any error text are those of all ordered triples.
    b == c stays, since a fault in ``insertion_product(b, b)`` shows only there.
    """
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    yield from ((a, b, c) for a in range(n) for b, c in pairs)


def _right_symmetry_check(graphs: list[HalfEdgeGraph]):
    """The predicate of the right-symmetry checks on positions in
    ``graphs``.  It fills a table of the pool's products x o y on first use,
    so a triple makes 4 insertion products instead of 8, in the order
    ``insertion.associator`` makes them."""
    polys = [GraphPoly.from_graph(g) for g in graphs]
    table: dict[tuple[int, int], GraphPoly] = {}

    def times(x: int, y: int) -> GraphPoly:
        if (x, y) not in table:
            table[x, y] = insertion.insertion_product(polys[x], polys[y])
        return table[x, y]

    def fails(triple):
        # looked up at call time, as in ``times``, so a replaced product is used
        ip = insertion.insertion_product
        a, b, c = triple
        left = ip(times(a, b), polys[c]) - ip(polys[a], times(b, c))
        right = ip(times(a, c), polys[b]) - ip(polys[a], times(c, b))
        return None if left == right else _docs(graphs[a], graphs[b], graphs[c])

    return fails


def _check_jacobi(triple):
    a, b, c = map(GraphPoly.from_graph, triple)
    total = (
        hopf.lie_bracket(hopf.lie_bracket(a, b), c)
        + hopf.lie_bracket(hopf.lie_bracket(b, c), a)
        + hopf.lie_bracket(hopf.lie_bracket(c, a), b)
    )
    return None if total.is_zero() else _docs(*triple)


def _check_insertion_grading(pair):
    g1, g2 = pair
    gr1, gr2 = g1.grade(), g2.grade()
    prod = insertion.insertion_product(*map(GraphPoly.from_graph, pair))
    for g, _c in prod.graphs():
        gr = g.grade()
        if gr.n != gr1.n + gr2.n - gr2.k or gr.k != gr1.k:
            return _docs(g1, g2, term=to_json_dict(g))
    return None


def _suite_prelie(r: VerificationReport, max_edges: int, seed: int, **_):
    small = [g for g in connected_corpus(max_edges) if g.grade().m <= 2]
    triples = _right_symmetry_triples(len(small))
    _run(r, "associator-right-symmetry-exhaustive", triples, _right_symmetry_check(small))

    rng = random.Random(seed)
    four = enumerate_graphs(4, "connected_plus")
    # randrange(len(four)) draws what rng.choice(four) draws
    sampled = [tuple(rng.randrange(len(four)) for _ in range(3)) for _ in range(PRELIE_SAMPLES)]
    _run(r, "associator-right-symmetry-random-4edge", sampled, _right_symmetry_check(four))

    plus = connected_corpus(max_edges)
    pairs = [(g1, g2) for g1 in plus for g2 in plus]
    _run(r, "insertion-grade-law", pairs, _check_insertion_grading)

    jac = [(a, b, c) for a in small[:8] for b in small[:8] for c in small[:8]]
    jac += [tuple(four[x] for x in triple) for triple in sampled[::10]]
    _run(r, "jacobi-identity", jac, _check_jacobi)


# ---------------------------------------------------------------------------
# invariants suite


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _rank(rows: list[list[int]]) -> int:
    """The rank of an integer matrix by fraction-free elimination (Bareiss,
    Math. Comp. 1968): after each pivot, every entry below it is a minor of
    the input, so the division by the previous pivot is exact."""
    rows = [list(r) for r in rows]
    rank, previous = 0, 1
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(p * a - f * b) // previous for a, b in zip(rows[i], top)]
        previous = p
        rank += 1
    return rank


def _check_chord_count(N: int):
    got = len(enumerate_chords(N))
    want = _double_factorial(2 * N - 1)
    if got != want or len(set(enumerate_chords(N))) != want:
        return {"N": N, "got": got, "want": want}
    return None


def _chord_pairs(max_n: int, dim: int):
    for N in range(1, max_n + 1):
        for n in {N, max(N, min(dim, N + 1))}:
            cs = enumerate_chords(N)
            yield from ((N, n, c1, c2) for c1 in cs for c2 in cs)


def _check_duality_matrix(case):
    N, n, c1, c2 = case
    if pair_raw(beta(c1, n), z_coinv(c2, n)) != (1 if c1 == c2 else 0):
        return {"N": N, "n": n, "c1": repr(c1), "c2": repr(c2)}
    return None


def _check_beta_rank(case):
    N, n = case
    want = _double_factorial(2 * N - 1)
    tensors = [beta(c, n) for c in enumerate_chords(N)]
    words = sorted({w for t in tensors for w, _ in t.terms()})
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for t in tensors:
        # an integer multiple of the row, which has the same rank
        scale = lcm(*(v.denominator for _, v in t.terms()))
        row = [0] * len(words)
        for w, v in t.terms():
            row[index[w]] = v.numerator * (scale // v.denominator)
        rows.append(row)
    if _rank(rows) != want:
        return {"N": N, "n": n, "rank": _rank(rows), "want": want}
    return None


def _check_even_degree(g, dim: int):
    # bigrade() raises on odd total degree, so this also asserts no odd object
    t = phi(g, dim)
    gr = g.grade()
    if not t.is_zero() and t.bigrade() != (gr.n, gr.k):
        return _docs(g, bigrade=t.bigrade())
    return None


def _signed_permutations(graphs, dim: int, seed: int):
    """Three seeded signed permutations of 1..dim per graph."""
    rng = random.Random(seed)
    for g in graphs:
        for _ in range(3):
            perm = list(range(1, dim + 1))
            rng.shuffle(perm)
            yield g, perm, [rng.choice((1, -1)) for _ in range(dim)]


def _check_orthogonal_closure(case, dim: int):
    g, perm, signs = case
    t = phi(g, dim)
    if apply_signed_permutation(t, perm, signs) != t:
        return _docs(g, perm=perm, signs=signs)
    return None


def _suite_invariants(r: VerificationReport, max_edges: int, dim: int, seed: int, **_):
    counts = range(1, min(5, max_edges + 2) + 1)
    _run(r, "chord-count-double-factorial", counts, _check_chord_count)
    _run(r, "beta-z-duality-matrix", _chord_pairs(3, dim), _check_duality_matrix)
    ranks = [(N, n) for N in range(1, 4) for n in (N, N + 1)]
    _run(r, "beta-rank-full", ranks, _check_beta_rank)
    graphs = [g for g in default_corpus(max_edges) if g.n_empty == 0]
    _run(r, "phi-bigrade-law", graphs, lambda g: _check_even_degree(g, dim))
    _run(
        r,
        "orthogonal-closure",
        _signed_permutations(graphs, dim, seed),
        lambda case: _check_orthogonal_closure(case, dim),
    )


# ---------------------------------------------------------------------------
# bialgebra morphism suite


def _check_phi_multiplicative(pair, dim: int):
    g1, g2 = pair
    lhs = tensor_mul(phi(g1, dim), phi(g2, dim))
    return _docs(g1, g2) if lhs != phi(disjoint_union(g1, g2), dim) else None


def _check_primitive(g, m: int, n: int):
    one_m, one_n = InvariantTensor.unit(m), InvariantTensor.unit(n)
    lhs = tensor_delta(phi(g, m + n), m, n)
    rhs = PairTensor.outer(phi(g, m), one_n) + PairTensor.outer(one_m, phi(g, n))
    return _docs(g) if lhs != rhs else None


def _check_delta_cross_terms(pair, m: int, n: int):
    g1, g2 = pair
    one_m, one_n = InvariantTensor.unit(m), InvariantTensor.unit(n)
    u = disjoint_union(g1, g2)
    lhs = tensor_delta(phi(u, m + n), m, n)
    rhs = (
        PairTensor.outer(phi(u, m), one_n)
        + PairTensor.outer(one_m, phi(u, n))
        + PairTensor.outer(phi(g1, m), phi(g2, n))
        + PairTensor.outer(phi(g2, m), phi(g1, n))
    )
    return _docs(g1, g2) if lhs != rhs else None


def _check_delta_counit(g, m: int, n: int):
    # collapsing one coproduct leg recovers the projection to the other factor
    t = phi(g, m + n)
    d = tensor_delta(t, m, n)
    if d.left_counit() != _pi_shift(t, m, n):
        return _docs(g, side="left-counit")
    if d.right_counit() != project_to(t, m):
        return _docs(g, side="right-counit")
    return None


def _pi_shift(t: InvariantTensor, m: int, n: int) -> InvariantTensor:
    """The terms of t with every index above m, shifted down by m."""
    return InvariantTensor(
        n,
        (
            ((tuple(tuple(x - m for x in b) for b in blocks), tuple(x - m for x in ext)), c)
            for (blocks, ext), c in t._terms.items()
            if all(x > m for b in (*blocks, ext) for x in b)
        ),
    )


def _suite_bialgebra(r: VerificationReport, max_edges: int, **_):
    conn = connected_corpus(max_edges, plus=False)
    pairs = [(g1, g2) for g1 in conn for g2 in conn if len(g1.edges) + len(g2.edges) <= max_edges + 1]
    _run(r, "phi-multiplicative", pairs, lambda pair: _check_phi_multiplicative(pair, 3))
    _run(r, "phi-primitive-on-connected", conn, lambda g: _check_primitive(g, 3, 3))
    small_pairs = [(g1, g2) for g1, g2 in pairs if len(g1.edges) + len(g2.edges) <= 3]
    _run(r, "delta-cross-terms", small_pairs, lambda pair: _check_delta_cross_terms(pair, 3, 3))
    _run(r, "delta-counit-compatibility", conn, lambda g: _check_delta_counit(g, 3, 3))


# ---------------------------------------------------------------------------
# main theorem suite


def _check_main_theorem(pair):
    g1, g2 = pair
    n = len(g1.edges) + len(g2.edges)
    lhs = phi_poly(insertion.insertion_product(*map(GraphPoly.from_graph, pair)), n)
    return _docs(g1, g2, n=n) if lhs != tensor_prelie(phi(g1, n), phi(g2, n)) else None


def _check_prelie_projection(pair, dim: int):
    g1, g2 = pair
    big = tensor_prelie(phi(g1, dim + 1), phi(g2, dim + 1))
    small = tensor_prelie(phi(g1, dim), phi(g2, dim))
    return _docs(g1, g2) if project(big) != small else None


def _seeded_triples(graphs, seed: int, samples: int = 60):
    """``samples`` seeded triples drawn from ``graphs``; none from an empty pool."""
    rng = random.Random(seed)
    for _ in range(samples if graphs else 0):
        yield tuple(rng.choice(graphs) for _ in range(3))


def _check_tensor_associator(triple, dim: int):
    # right symmetry of the tensor-side associator on phi images
    def assoc(a, b, c):
        return tensor_prelie(tensor_prelie(a, b), c) - tensor_prelie(a, tensor_prelie(b, c))

    t1, t2, t3 = (phi(g, dim) for g in triple)
    return _docs(*triple) if assoc(t1, t2, t3) != assoc(t1, t3, t2) else None


def _suite_main_theorem(r: VerificationReport, max_edges: int, dim: int, seed: int, **_):
    plus = connected_corpus(max_edges)
    pairs = [
        (g1, g2)
        for g1 in plus
        for g2 in plus
        if len(g1.edges) + len(g2.edges) <= max(4, max_edges + 1)
    ]
    _run(r, "phi-equivariance-insertion", pairs, _check_main_theorem)
    small = [(g1, g2) for g1, g2 in pairs if len(g1.edges) + len(g2.edges) <= 4]
    _run(
        r,
        "prelie-projection-compatibility",
        small,
        lambda pair: _check_prelie_projection(pair, dim),
    )
    small_graphs = [g for g in plus if len(g.edges) <= 2]
    _run(
        r,
        "tensor-associator-right-symmetry",
        _seeded_triples(small_graphs, seed),
        lambda triple: _check_tensor_associator(triple, 3),
    )


# ---------------------------------------------------------------------------
# round trip suite


def _check_psi_phi(case):
    g, n = case
    return _docs(g, n=n) if psi(phi(g, n)) != GraphPoly.from_graph(g) else None


def _check_phi_psi(g, dim: int):
    t = phi(g, dim)
    return _docs(g) if phi_poly(psi(t), dim) != t else None


def _check_projection_naturality(case):
    g, n = case
    return _docs(g, n=n) if project(phi(g, n + 1)) != phi(g, n) else None


def _suite_roundtrip(r: VerificationReport, max_edges: int, dim: int, **_):
    graphs = list(default_corpus(max_edges))
    nonempty = [g for g in graphs if not g.n_empty]
    cases = ((g, n) for g in nonempty for n in range(len(g.edges), max(dim, 4) + 1))
    _run(r, "psi-phi-identity", cases, _check_psi_phi)
    # psi is 0 on bigrade N > dim by definition, so only N <= dim can round trip
    on_image = [g for g in nonempty if len(g.edges) <= dim]
    check = _run(r, "phi-psi-identity-on-image", on_image, lambda g: _check_phi_psi(g, dim))
    skipped = sum(len(g.edges) > dim for g in graphs)
    if skipped and not check.details:
        check.details = f"skipped {skipped} graphs with more edges than dim {dim}"
    cases = ((g, n) for g in nonempty for n in range(max(1, len(g.edges)), dim + 1))
    _run(r, "projection-naturality", cases, _check_projection_naturality)


# ---------------------------------------------------------------------------
# oracle suite


def _check_oracle_aut(g):
    if oracle_aut(g) != automorphism_count(g):
        return _docs(g, oracle=oracle_aut(g), canonical=automorphism_count(g))
    return None


def _iso_cases(graphs, seed: int):
    """(g1, g2, None) for the pairs of one grade, then (g, relabelled g, perm)."""
    by_grade: dict[tuple, list[HalfEdgeGraph]] = {}
    for g in graphs:
        by_grade.setdefault(tuple(g.grade()), []).append(g)
    for bucket in by_grade.values():
        for i, g1 in enumerate(bucket):
            yield from ((g1, g2, None) for g2 in bucket[i:])
    rng = random.Random(seed)
    for g in graphs:
        perm = list(range(g.n_half_edges))
        rng.shuffle(perm)
        yield g, relabel(g, dict(enumerate(perm))), perm


def _check_oracle_iso(case):
    g1, g2, perm = case
    if perm is None:
        key_equal = canonical_key(g1) == canonical_key(g2)
        return _docs(g1, g2) if key_equal != oracle_iso(g1, g2) else None
    # a relabelling keeps the canonical key and is isomorphic to the original
    if canonical_key(g2) != canonical_key(g1) or not oracle_iso(g1, g2):
        return _docs(g1, perm=perm)
    return None


def _check_oracle_enumeration(n: int):
    oracle_keys = sorted(canonical_key(g) for g in oracle_enumerate(n))
    prod_keys = sorted(canonical_key(g) for g in enumerate_graphs(n, "all"))
    if oracle_keys != prod_keys:
        return {"n": n, "oracle": len(oracle_keys), "production": len(prod_keys)}
    return None


def _suite_oracles(r: VerificationReport, max_edges: int, seed: int, **_):
    graphs = _all_classes(max_edges)
    _run(r, "oracle-automorphism-agreement", graphs, _check_oracle_aut)
    _run(r, "oracle-isomorphism-agreement", _iso_cases(graphs, seed), _check_oracle_iso)
    sizes = range(min(3, max_edges) + 1)
    _run(r, "oracle-enumeration-agreement", sizes, _check_oracle_enumeration)


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
) -> VerificationReport:
    """Run one named suite (or ``all``) and return its report."""
    if name != "all" and name not in _SUITES:
        raise InvalidInput(f"unknown suite {name!r}; choose from {suite_names()}")
    counts = {"max_edges": max_edges, "dim": dim}
    for flag, value in counts.items():
        if value < 0:
            raise InvalidInput(f"{flag} must be a non-negative integer, not {value}")
    if max_edges > 6 or dim > 8:
        raise ResourceBound("suites are desk scale: max_edges <= 6, dim <= 8")
    params = {
        "max_edges": max_edges,
        "dim": dim,
        "seed": seed,
        "full_subgraph_term": full_subgraph_term,
    }
    if name in ("prelie", "all"):
        params["prelie_samples"] = PRELIE_SAMPLES
    report = VerificationReport(suite=name, params=params)
    targets = _SUITES.values() if name == "all" else [_SUITES[name]]
    for fn in targets:
        try:
            fn(
                report,
                max_edges=max_edges,
                dim=dim,
                seed=seed,
                full_subgraph_term=full_subgraph_term,
            )
        finally:
            # the algebra memos serve the suite that filled them
            memo.clear(memo.SUITE)
    return report
