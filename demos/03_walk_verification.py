# Walkthrough: deciding properly-colored-walk reachability.
#
# A walk is properly colored when consecutive edges always differ in color;
# vertices and edges may repeat, but the same edge never repeats twice in a
# row.  Run with:  python demos/03_walk_verification.py

from properwalk import (EdgeColoring, cycle, directed_cycle, path_graph,
                        path_reachable, star, verify_all_pairs,
                        verify_all_pairs_directed, walk_reachable,
                        walk_reachable_directed)

# ## Single pairs, with witnesses
#
# The decision procedure is a BFS over (vertex, last color) states, so the
# witness has at most n*k edges.

g = path_graph(3)
mono = EdgeColoring(1, {(0, 1): 1, (1, 2): 1})
alt = EdgeColoring(2, {(0, 1): 1, (1, 2): 2})
print("0->2 all one color:", walk_reachable(g, mono, 0, 2)[0])
ok, witness = walk_reachable(g, alt, 0, 2)
print("0->2 alternating:", ok, "witness:", witness.vertices)

# ## Prescribed first and last colors
#
# The constructions rely on entering and leaving subgraphs with specific
# colors, so the checker takes optional start/end color sets.

print("start with 2:", walk_reachable(g, alt, 0, 2, start_colors={2})[0])
print("end with 2:", walk_reachable(g, alt, 0, 2, end_colors={2})[0])

# ## All pairs at once
#
# One strongly-connected-component pass over the states, read one source at
# a time; on failure you get the lexicographically first failing pair back.

c4 = cycle(4)
bad = EdgeColoring(1, {e: 1 for e in c4.edges})
good = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
print("\nmonochromatic C4:", verify_all_pairs(c4, bad))
print("alternating C4:", verify_all_pairs(c4, good))

s = star(4)
rainbow = EdgeColoring(3, {(0, 1): 1, (0, 2): 2, (0, 3): 3})
print("rainbow star:", verify_all_pairs(s, rainbow))

# ## Paths instead of walks
#
# The path variant enumerates simple paths exhaustively (desk scale only);
# walks can exist where paths cannot once cycles are odd.

print("\npath 0->2 all one color:", path_reachable(g, mono, 0, 2))
print("path 0->2 alternating:", path_reachable(g, alt, 0, 2))

# ## Digraphs
#
# Arcs only move forward; an odd directed cycle colored with three colors
# connects all ordered pairs.

d = directed_cycle(3)
arc_colors = EdgeColoring(3, {(0, 1): 1, (1, 2): 2, (2, 0): 3})
print("\ndirected all pairs:", verify_all_pairs_directed(d, arc_colors))
print("walk 1->0 wraps:", walk_reachable_directed(d, arc_colors, 1, 0)[1].vertices)
