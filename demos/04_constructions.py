# Walkthrough: the constructive colorings and the dispatcher.
#
# Every construction verifies its own output before returning, so each
# result below is certified by the all-pairs walk checker.
# Run with:  python demos/04_constructions.py

from properwalk import (Graph, classify_cycle_feet, color_bipartite2,
                        color_bridgeless2, color_cycle_feet2, color_tree,
                        color_two_odd_cycles2, color_unicyclic3, complete,
                        cycle, cycle_with_feet, disjoint_odd_cycles, pw_auto,
                        star, theta, two_triangles_shared_vertex,
                        TwoOddLayout)


def show(result):
    print(f"  k={result.k} [{result.status}] via {result.provenance}")


# ## Trees: exactly max-degree colors

print("star K(1,4):")
show(color_tree(star(5)))

# ## Any cyclic graph: at most three colors
#
# Properly color one retained cycle, give pendant edges a color its cycle
# vertex is missing, alternate down the branches.

print("five-cycle, three-color construction:")
show(color_unicyclic3(cycle(5)))

# ## Bipartite graphs: two colors iff the two-bridge rule holds
#
# Orient each nontrivial core component strongly (the low-link DFS arcs of
# its blocks), color arcs by head class, then orient the bridges by a BFS
# forest grown from an end core and color each by its head's class.

print("six-cycle:")
show(color_bipartite2(cycle(6)))
print("star K(1,3):")
print(" ", color_bipartite2(star(4)))

# ## Two edge-disjoint odd cycles: two colors
#
# Both junction edges of the first cycle red, connector alternating from
# blue, far junction red or blue by connector parity.

bow = two_triangles_shared_vertex()
layout = TwoOddLayout(*disjoint_odd_cycles(bow))
print("two triangles sharing a vertex:")
show(color_two_odd_cycles2(bow, layout))

# ## Bridgeless graphs: at most two colors
#
# Complete graphs take one color; otherwise the nonbipartite block count
# picks the route (two-odd, bipartite, or the theta construction).

print("theta(2,4,1):")
show(color_bridgeless2(theta(2, 4, 1)))
print("K5:")
show(color_bridgeless2(complete(5)))
petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
print("Petersen graph:")
show(color_bridgeless2(petersen))

# ## Odd cycles with feet: the two-color boundary for bridged graphs
#
# Two colors work exactly when three consecutive cycle vertices u, v, w
# capture all the feet, with at most one each on u and w.

easy = cycle_with_feet(5, [2, 0, 0, 0, 0])
hard = cycle_with_feet(3, [2, 2, 0])
shape = classify_cycle_feet(easy)
print("C5 with two feet on one vertex:", "2-colorable" if shape.two_colors else "needs 3")
show(color_cycle_feet2(easy, shape))
print("triangle with 2+2 feet:",
      "2-colorable" if classify_cycle_feet(hard).two_colors else "needs 3")

# ## The dispatcher
#
# Routes to the strongest construction and reports exactness honestly.

for name, g in [("K6", complete(6)),
                ("star K(1,5)", star(6)),
                ("C7", cycle(7)),
                ("triangle with 2+2 feet", hard),
                ("two triangles + bridge",
                 Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3),
                           (4, 5), (5, 6), (4, 6), (3, 4)]))]:
    print(f"{name}:")
    show(pw_auto(g))
