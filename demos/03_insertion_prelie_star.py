"""Insertion pre-Lie product and its duality with the star product.

G1 o G2 grafts G2 into G1 at every internal vertex whose valency matches the
number of external edges of G2, summed over all attachment bijections.  The
star product is defined dually through the coproduct and automorphism-weighted
pairing; on connected graphs it reproduces disjoint union plus insertion.
"""

from ckhopf import hopf, insertion
from ckhopf.corpus import connected_corpus, named_graph
from ckhopf.poly import GraphPoly, graph_from_key, product

loop1 = GraphPoly.from_graph(named_graph("loop1"))
twoleg = GraphPoly.from_graph(named_graph("twoleg"))
bubble = GraphPoly.from_graph(named_graph("bubble"))

print("Inserting twoleg into the loop vertex (valency 2, two bijections):")
print("  loop1 o twoleg == 2 * bubble:", insertion.insertion_product(loop1, twoleg) == bubble.scale(2))
print("  twoleg o loop1 == 0 (no 0-valent site):", insertion.insertion_product(twoleg, loop1).is_zero())
print()

print("The star product is computed from the coproduct alone, whose")
print("multiplicativity gives the candidate graphs; inserting is never consulted:")
star = hopf.star_product(twoleg, loop1)
for key, c in star.written_terms():
    print("  ", c, "*", graph_from_key(key).grade())
print("  twoleg * loop1 - twoleg u loop1 == 2 * bubble:",
      star - product(twoleg, loop1) == bubble.scale(2))
print()

print("Across every ordered pair of connected two-edge graphs with an internal")
print("edge, the dual route agrees with grafting:")
plus = connected_corpus(2)
checked = 0
for g1 in plus:
    for g2 in plus:
        a, b = GraphPoly.from_graph(g1), GraphPoly.from_graph(g2)
        assert hopf.star_product(a, b) == product(a, b) + insertion.insertion_product(b, a)
        checked += 1
print(f"  verified on {checked} ordered pairs")
print()

print("The associator of o is symmetric in its last two slots (pre-Lie), so the")
print("commutator bracket satisfies Jacobi:")
a, b, c = loop1, twoleg, GraphPoly.from_graph(named_graph("tadpole2"))
print("  prelie_check(loop1, twoleg, tadpole2):", insertion.prelie_check(a, b, c))
jac = (
    hopf.lie_bracket(hopf.lie_bracket(a, b), c)
    + hopf.lie_bracket(hopf.lie_bracket(b, c), a)
    + hopf.lie_bracket(hopf.lie_bracket(c, a), b)
)
print("  Jacobi sum vanishes:", jac.is_zero())
