"""The graph Hopf algebra: coproduct, counit, antipode, pairing.

The coproduct of a connected graph sums extract(gamma) (x) G/gamma over
subgraphs, plus the two trivial terms; it encodes which divergent pieces can
be collapsed and what remains.  The antipode follows by the connected-graded
recursion.
"""

from fractions import Fraction

from ckhopf import hopf
from ckhopf.corpus import named_graph
from ckhopf.graphs import enumerate_graphs
from ckhopf.poly import GraphPoly, graph_from_key, product

loop1 = GraphPoly.from_graph(named_graph("loop1"))
bubble = GraphPoly.from_graph(named_graph("bubble"))

print("coproduct(loop1) has only the trivial terms:")
for (k1, k2), c in hopf.coproduct(loop1).written_terms():
    print("  ", c, "*", graph_from_key(k1).grade(), "(x)", graph_from_key(k2).grade())
print()

print("coproduct(bubble) adds 2 * twoleg (x) loop1 (two one-edge subgraphs):")
for (k1, k2), c in hopf.coproduct(bubble).written_terms():
    print("  ", c, "*", graph_from_key(k1).grade(), "(x)", graph_from_key(k2).grade())
print()

print("antipode(bubble) = -bubble + 2 * (twoleg u loop1):")
for key, c in hopf.antipode(bubble).written_terms():
    print("  ", c, "*", graph_from_key(key).grade())
print()

print("The Hopf axiom mu(S (x) id) coproduct = unit . counit, checked on all")
print("classes with up to two edges:")
ok = 0
for n in range(3):
    for g in enumerate_graphs(n, "all"):
        p = GraphPoly.from_graph(g)
        total = GraphPoly.zero()
        for (k1, k2), c in hopf.coproduct(p).terms():
            s = hopf.antipode(GraphPoly({k1: Fraction(1)}))
            total = total + product(s, GraphPoly({k2: Fraction(1)})).scale(c)
        assert total == hopf.unit(hopf.counit(p))
        ok += 1
print(f"  verified on {ok} classes")
print()

print("The pairing <G1, G2> = [G1 iso G2] makes distinct edge degrees orthogonal:")
print("  <loop1, loop1> =", hopf.pairing(loop1, loop1))
print("  <loop1, bubble> =", hopf.pairing(loop1, bubble))
