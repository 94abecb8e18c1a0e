"""Golden determinism tests.

``tests/data/pw_auto_golden.json`` pins ``pw_auto``'s k, status, provenance
and sorted edge assignment for every connected graph with n <= 5 and for
each undirected ``generate()`` family at two sizes.

``tests/data/construct_golden.json`` pins, on the same graphs plus forty
sparse random ones, what the direct constructions and the decompositions
they share return:
``bipartition``, ``shortest_odd_cycle``, ``cycle_connector``,
``color_tree`` on the trees, ``color_unicyclic3`` on the cyclic graphs,
``color_two_odd_cycles2`` on the layouts ``disjoint_odd_cycles`` finds,
``color_theta_block2`` on the 2-connected, nonbipartite, noncomplete graphs,
``color_bipartite2`` (a coloring or a violation) on the bipartite graphs with
n >= 3, ``color_bridgeless2`` on the bridgeless graphs with n >= 2,
``classify_cycle_feet`` (every field) on every graph, ``color_cycle_feet2``
on the members it colors with two, ``color_spanning_odd_cycle2`` where the
shortest odd cycle spans, and ``reduce_theta`` on the 2-connected,
nonbipartite, noncomplete graphs whose shortest odd cycle does not span.

A refactor of the decompositions or the constructions must leave every line
of both files unchanged.  Regenerate them only for an intended change of
output, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

It prints one line per case it rewrites, with the top-level fields that
differ, so the changed entries can be listed; unchanged cases print nothing.
"""

import json
from pathlib import Path

from properwalk import (ColoringResult, Graph, ThetaSubgraph, TwoOddLayout,
                        bipartition, blocks, bridges, classify_cycle_feet,
                        color_bipartite2, color_bridgeless2, color_cycle_feet2,
                        color_spanning_odd_cycle2, color_theta_block2,
                        color_tree, color_two_odd_cycles2, color_unicyclic3,
                        connected_graphs, cycle_connector, cycle_with_feet,
                        disjoint_odd_cycles, generate, pw_auto,
                        random_connected, reduce_theta, shortest_odd_cycle,
                        theta)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "pw_auto_golden.json"
CONSTRUCT_GOLDEN = DATA / "construct_golden.json"

# (family, params, seed): two sizes per undirected family; two_triangles
# takes no parameters, so it appears once.  The extra random draws reach the
# dispatcher routes the small graphs miss: a three-bridge core, an
# exhaustive refutation, edge-disjoint odd cycles in a bridged and in a
# bridgeless graph, and the plain upper bound.
FAMILIES = [
    ("path", (2,), None), ("path", (9,), None),
    ("cycle", (7,), None), ("cycle", (12,), None),
    ("complete", (4,), None), ("complete", (6,), None),
    ("star", (5,), None), ("star", (9,), None),
    ("theta", (3, 1, 2), None), ("theta", (4, 2, 3), None),
    ("cycle_with_feet", (5, 1, 0, 1, 0, 0), None),
    ("cycle_with_feet", (7, 2, 0, 0, 1, 0, 0, 0), None),
    ("two_triangles", (), None),
    ("random_connected", (8, 0.4), 1), ("random_connected", (12, 0.3), 2),
    ("random_connected", (8, 0.3), 22), ("random_connected", (10, 0.2), 7),
    ("random_connected", (8, 0.3), 12), ("random_connected", (12, 0.18), 27),
    ("random_connected", (16, 0.13), 22),
]


def cases():
    for n in range(1, 6):
        for g in connected_graphs(n):
            yield f"n={n} edges={list(g.edges)}", g
    for family, params, seed in FAMILIES:
        yield f"{family}{params} seed={seed}", generate(family, *params, seed=seed)


# Graphs no other case reaches: bridgeless graphs of several blocks (a
# triangle or a K4 minus an edge beside even blocks, whose lowest vertex lies
# at even or odd BFS depth), bipartite chains of cores joined by bridges, the
# two theta blocks whose inverter traps a region off the outer cycle, and a
# theta block whose first inverter meets a stray odd cycle, so the reduction
# descends once, and odd cycles with feet whose witness triple wraps past
# cycle index 0 on either side.
_TRAPPED = list(theta(4, 4, 5).edges)   # outer 8-cycle, inverter 0-8-9-10-11-4
EXTRA = [
    ("triangle and C4 at vertex 2",
     Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (2, 5)])),
    ("triangle and C4 at vertex 1",
     Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (4, 5), (1, 5)])),
    ("n=6 blocks a", Graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3)])),
    ("n=6 blocks b", Graph(6, [(0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (2, 4), (2, 5)])),
    ("n=6 blocks c", Graph(6, [(0, 1), (0, 5), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)])),
    ("n=6 blocks d", Graph(6, [(0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (4, 5)])),
    ("n=6 blocks e",
     Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])),
    ("K4 minus an edge and C4",
     Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6)])),
    ("C4, triangle, C6 in a chain",
     Graph(11, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (3, 5), (5, 6),
                (6, 7), (7, 8), (8, 9), (9, 10), (5, 10)])),
    ("C4, bridge, C4, bridge, path",
     Graph(10, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (4, 5), (5, 6), (6, 7),
                (4, 7), (5, 8), (8, 9)])),
    ("edge, C6, bridge, C4, bridge",
     Graph(12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (4, 7),
                (7, 8), (8, 9), (9, 10), (7, 10), (9, 11)])),
    ("trapped region", Graph(14, _TRAPPED + [(8, 12), (12, 10), (9, 13), (13, 11)])),
    ("trapped region two deep",
     Graph(14, _TRAPPED + [(8, 12), (12, 10), (12, 13), (13, 9)])),
    ("C5 with ears 0-5-2 and 4-6-7-8-3: one theta descent",
     Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (2, 5),
               (4, 6), (6, 7), (7, 8), (3, 8)])),
    ("C7 with feet 1,1,0,0,0,0,1: witness (6, 0, 1)",
     cycle_with_feet(7, [1, 1, 0, 0, 0, 0, 1])),
    ("C7 with feet 1,0,0,0,0,1,2: witness (5, 6, 0)",
     cycle_with_feet(7, [1, 0, 0, 0, 0, 1, 2])),
    ("C5 with feet 2,1,0,0,1: witness (4, 0, 1)", cycle_with_feet(5, [2, 1, 0, 0, 1])),
]


def construct_cases():
    """``cases()``, forty sparse random draws, which reach two-odd-cycle
    layouts whose connector is a path and not a shared vertex, and EXTRA."""
    yield from cases()
    for seed in range(40):
        n = 9 + seed % 6
        yield f"random_connected({n}, 0.22) seed={seed}", random_connected(n, 0.22, seed)
    yield from EXTRA


def _pairs(coloring) -> list:
    return sorted([u, v, c] for (u, v), c in coloring.assignment.items())


def record(name, g) -> str:
    res = pw_auto(g)
    return json.dumps({"case": name, "k": res.k, "status": res.status,
                       "provenance": res.provenance, "assignment": _pairs(res.coloring)})


def construct_record(name, g) -> str:
    classes = bipartition(g)
    odd = shortest_odd_cycle(g)
    row = {"case": name,
           "bipartition": classes and [sorted(side) for side in classes],
           "shortest_odd_cycle": odd and list(odd)}
    if g.n >= 2:
        # the connector's BFS branch: sets that share no vertex
        row["connector"] = [list(cycle_connector(g, (0,), (g.n - 1,)))]
        if g.n >= 4:
            row["connector"].append(list(cycle_connector(g, (0, 1), (g.n - 2, g.n - 1))))
        if g.m == g.n - 1:
            res = color_tree(g)
            row["tree"] = [res.k, _pairs(res.coloring)]
    if g.m >= g.n:
        res = color_unicyclic3(g)
        row["unicyclic"] = [res.k, _pairs(res.coloring)]
    found = disjoint_odd_cycles(g)
    if found is not None:
        row["layout"] = [list(part) for part in found]
        row["connector"].append(list(cycle_connector(g, found[0], found[1])))
        if not g.is_complete():
            row["two_odd"] = _pairs(color_two_odd_cycles2(g, TwoOddLayout(*found)).coloring)
    if odd is not None and len(blocks(g)) == 1 and not g.is_complete():
        res = color_theta_block2(g)
        row["theta_block"] = [res.provenance, _pairs(res.coloring)]
    if classes is not None and g.n >= 3:
        res = color_bipartite2(g)
        row["bipartite2"] = ([res.k, _pairs(res.coloring)] if isinstance(res, ColoringResult)
                             else [sorted(res.component), res.bridge_count])
    if g.n >= 2 and not bridges(g):
        res = color_bridgeless2(g)
        row["bridgeless2"] = [res.k, res.provenance, _pairs(res.coloring)]
    shape = classify_cycle_feet(g)
    row["cycle_feet"] = [shape.member, shape.cycle, shape.feet, shape.witness, shape.reason]
    if shape.two_colors:
        row["cycle_feet2"] = _pairs(color_cycle_feet2(g, shape).coloring)
    if odd is not None and len(odd) == g.n >= 5:
        row["spanning"] = _pairs(color_spanning_odd_cycle2(g, odd).coloring)
    elif odd is not None and len(blocks(g)) == 1 and not g.is_complete():
        out = reduce_theta(g)
        row["reduce_theta"] = (["theta", out.cycle, out.inverter]
                               if isinstance(out, ThetaSubgraph) else
                               ["layout", out.cycle_a, out.cycle_b, out.connector])
    return json.dumps(row)


def current_lines() -> list[str]:
    return [record(name, g) for name, g in cases()]


def current_construct_lines() -> list[str]:
    return [construct_record(name, g) for name, g in construct_cases()]


def _matches(path, got):
    expected = path.read_text().splitlines()
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want


def test_pw_auto_matches_golden():
    _matches(GOLDEN, current_lines())


def test_constructions_match_golden():
    _matches(CONSTRUCT_GOLDEN, current_construct_lines())


def test_rewrite_lists_changed_cases(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"case": "a", "k": 2, "x": [1]}\n{"case": "b", "k": 3}\n')
    lines = ['{"case": "a", "k": 2, "x": [2], "y": 0}', '{"case": "c", "k": 1}']
    _rewrite(path, lines)
    assert capsys.readouterr().out == "g.json: a: x, y\ng.json: c: new\ng.json: b: gone\n"
    assert path.read_text() == "\n".join(lines) + "\n"
    _rewrite(path, lines)
    assert capsys.readouterr().out == ""


def _rewrite(path, lines) -> None:
    """Write ``lines`` to ``path``, printing the file, the case and the
    differing top-level fields of every case that is new, gone or changed."""
    old = {}
    if path.exists():
        old = {json.loads(line)["case"]: line for line in path.read_text().splitlines()}
    for line in lines:
        row = json.loads(line)
        prev = old.pop(row["case"], None)
        if prev is None:
            print(f"{path.name}: {row['case']}: new")
        elif prev != line:
            was = json.loads(prev)
            fields = sorted(f for f in row.keys() | was.keys() if row.get(f) != was.get(f))
            print(f"{path.name}: {row['case']}: {', '.join(fields)}")
    for case in old:
        print(f"{path.name}: {case}: gone")
    path.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    _rewrite(GOLDEN, current_lines())
    _rewrite(CONSTRUCT_GOLDEN, current_construct_lines())
