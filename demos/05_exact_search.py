# Walkthrough: the exhaustive solver that anchors every exactness claim.
#
# Run with:  python demos/05_exact_search.py

from properwalk import (bowtie_digraph, canonical_colorings, complete,
                        connected_graphs, cycle, directed_cycle, exact_directed,
                        exact_pp, exact_pw, pw_auto, star)

# ## Canonical enumeration
#
# Color permutations are pure symmetry, so colorings are enumerated with the
# first edge pinned to color 1 and every new color index appearing in edge
# order: for two colors that is exactly 2^(m-1) candidates.

print("canonical 3-edge colorings with up to 3 colors:")
for colors in canonical_colorings(3, 3):
    print(" ", colors)
print("count for m=10, k=2:", sum(1 for _ in canonical_colorings(10, 2)))

# ## Exact values
#
# The witness is the canonically smallest passing coloring and is re-checked
# by the independent walk verifier before being returned.

for name, g in [("K4", complete(4)), ("star K(1,3)", star(4)), ("C4", cycle(4)),
                ("C5", cycle(5))]:
    res = exact_pw(g, max_k=4)
    print(f"{name}: pW = {res.k} (explored {res.explored} colorings)")

# ## Paths are harder than walks
#
# Path connectivity can need more colors than walk connectivity; candidates
# are filtered through the walk check first, since every path is a walk.

print("\nC5 walks:", exact_pw(cycle(5)).k, "paths:", exact_pp(cycle(5)).k)

# ## Digraphs
#
# An odd directed cycle needs three colors either way, but the bow-tie
# (two directed triangles sharing a vertex) separates the two parameters.

c5 = directed_cycle(5)
bow = bowtie_digraph()
print("\ndirected C5: walks", exact_directed(c5, "walk").k,
      "paths", exact_directed(c5, "path").k)
print("bow-tie: walks", exact_directed(bow, "walk").k,
      "paths", exact_directed(bow, "path").k)

# ## Auditing the constructions
#
# The solver is the referee: on every labeled connected graph with up to
# five vertices, the dispatcher's exact claims match it.

mismatches = 0
checked = 0
for n in range(1, 6):
    for g in connected_graphs(n):
        res = pw_auto(g)
        truth = exact_pw(g, max_k=max(3, g.max_degree())).k
        if res.status == "exact" and res.k != truth:
            mismatches += 1
        checked += 1
print(f"\naudited {checked} graphs, exact-claim mismatches: {mismatches}")
