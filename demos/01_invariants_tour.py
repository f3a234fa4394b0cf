"""Tour of the exact invariants on a few small graphs.

Every number printed here is exact: resistances are rationals from an
integer-only Laplacian solve, distance indices come from bitset ball
growth, and the spanning-tree count is a fraction-free determinant.
"""

from invkit import (
    PrismSpec,
    cycle,
    full_report,
    parse_edge_list,
    path,
    prism_family,
    resistance_matrix,
    strong_double,
)


def show(name, g):
    rep = full_report(g)
    print(f"{name}: {g.vertex_count} vertices, {g.edge_count} edges")
    print(f"  Kirchhoff index          {rep.kf}")
    print(f"  degree-weighted version  {rep.kf_star}")
    print(f"  Wiener index             {rep.wiener}")
    print(f"  Gutman index             {rep.gutman}")
    print(f"  spanning trees           {rep.tree_count}")


show("path P5", path(5))
show("cycle C6", cycle(6))

# strong_double(h) is the strong product P2 boxtimes h of an edge with h. With a
# triangle it is the complete graph K6: any two of its 6 vertices are equal or
# adjacent in each coordinate.
k6 = strong_double(cycle(3))
show("P2 boxtimes C3 (= K6)", k6)

# The same graph through the family generator, then with one vertical cut.
show("prism family, n=3, nothing deleted", prism_family(PrismSpec(3)))
show("prism family, n=5, vertical 2 deleted", prism_family(PrismSpec(5, frozenset({2}))))

# Resistances directly: on a cycle the two arcs act as parallel resistors,
# so adjacent vertices of C4 see 1*3/(1+3) = 3/4 ohm.
rm = resistance_matrix(cycle(4))
print("\nresistance across one edge of C4:", rm.entry(0, 1))
print("resistance across the diagonal of C4:", rm.entry(0, 2))

# Graphs round-trip through a plain text edge list.
text = "4 4\n0 1\n1 2\n2 3\n0 3\n"
assert parse_edge_list(text) == cycle(4)
print("\nedge-list round trip ok:")
print(text)
