"""Regenerate expectations.json from the library at the current commit.

    python3 bench/make_expectations.py

The small-graph tables come from properwalk's exhaustive solvers (the
oracle) and the exhaustive-branch catalog from pw_auto; the per-family rows
for large graphs and refutations are fixed by how gen.py builds each family
and are written out as they stand.  Run it only when a change is meant to
alter these answers, and say so in CHANGES.md.  test_bench.py checks that
the committed file matches the library.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from properwalk import Digraph, Graph, exact_directed, exact_pp, exact_pw, pw_auto  # noqa: E402

TREE = {"k": "max_degree", "status": "exact", "route": "tree"}
ONE_ODD_BLOCK = {"k": 2, "status": "exact", "route": "bridgeless: one odd block"}
LARGE = {
    "path": TREE,
    "tree": TREE,
    "odd_cycle": ONE_ODD_BLOCK,
    "sparse3": {"k": 2, "status": "exact", "route": "two odd cycles"},
    "sparse10": ONE_ODD_BLOCK,
    "bip_paths": {"k": 2, "status": "exact", "route": "bipartite"},
    "bip_bridges": {"k": 3, "status": "exact",
                    "route": "unicyclic (three-bridge core rules out two)"},
    "theta": ONE_ODD_BLOCK,
    "odd_core_trees": {"k": 3, "status": "upper-bound", "route": "unicyclic"},
}
REFUTE = {"cycle_feet_three": {"max_k": 2}, "spider4": {"max_k": 3}}

# Odd cycles with pendant paths (one at least two long, so not a
# cycle-with-feet member): unicyclic with bridges and m <= 18, so pw_auto
# reaches its exhaustive two-color search.
CATALOG_M = (10, 13)
SHAPES_PER_M = 4


def _shapes(m, rng):
    seen = set()
    while len(seen) < SHAPES_PER_M:
        length = rng.choice((3, 5, 7))
        rest = m - length
        count = rng.randint(1, min(3, length, rest // 2))
        cuts = sorted(rng.sample(range(1, rest), count - 1)) if count > 1 else []
        lengths = [b - a for a, b in zip([0] + cuts, cuts + [rest])]
        if max(lengths) < 2:
            continue
        anchors = sorted(rng.sample(range(length), count))
        seen.add((length, tuple(zip(anchors, lengths))))
    return sorted(seen)


def catalog():
    rng = random.Random(0)
    rows = []
    for m in CATALOG_M:
        for length, legs in _shapes(m, rng):
            nn, edges = gen.odd_cycle_paths(length, legs, random.Random(0))
            res = pw_auto(Graph(nn, edges))
            assert res.provenance.startswith("exhaustive"), res.provenance
            rows.append({"m": m, "cycle": length, "legs": [list(x) for x in legs],
                         "k": res.k, "status": res.status, "route": res.provenance})
    return rows


def small_tables():
    pw, pp, directed = {}, {}, {}
    for n in range(1, 6):
        graphs = [Graph(n, gen.edges_of_mask(n, mask)) for mask in gen.connected_masks(n)]
        pw[str(n)] = "".join(str(exact_pw(g, max_k=max(3, g.max_degree())).k) for g in graphs)
        pp[str(n)] = "".join(str(exact_pp(g, max_k=max(3, g.max_degree())).k) for g in graphs)
    for n in (2, 3, 4):
        directed[str(n)] = "".join(
            str(exact_directed(Digraph(n, gen.arcs_of_mask(n, mask)), "walk", max_k=3).k)
            for mask in gen.strong_masks(n))
    return {"pw": pw, "pp": pp, "directed_walk": directed}


def build():
    return {"large": LARGE, "refute": REFUTE, "exhaustive_catalog": catalog(),
            "small": small_tables()}


if __name__ == "__main__":
    (HERE / "expectations.json").write_text(json.dumps(build(), indent=1) + "\n")
