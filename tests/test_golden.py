"""Golden determinism test: ``pw_auto``'s k, status, provenance and sorted
edge assignment are pinned for every connected graph with n <= 5 and for each
undirected ``generate()`` family at two sizes.

A refactor of the decompositions or the constructions must leave every line
of ``tests/data/pw_auto_golden.json`` unchanged.  Regenerate the file only
for an intended change of output, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from properwalk import connected_graphs, generate, pw_auto

GOLDEN = Path(__file__).parent / "data" / "pw_auto_golden.json"

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


def record(name, g) -> str:
    res = pw_auto(g)
    assignment = sorted([u, v, c] for (u, v), c in res.coloring.assignment.items())
    return json.dumps({"case": name, "k": res.k, "status": res.status,
                       "provenance": res.provenance, "assignment": assignment})


def current_lines() -> list[str]:
    return [record(name, g) for name, g in cases()]


def test_pw_auto_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    got = current_lines()
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(current_lines()) + "\n")
