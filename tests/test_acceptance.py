"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers (run with -s to see them).  Expensive shared work (exact
values for every connected graph on up to six vertices) is computed once per
module.

All checks are integer equalities; there are no tolerances to calibrate.
"""

import random

import pytest

from properwalk import (Graph, TwoOddLayout, bridgeless_core,
                        bridges, bowtie_digraph, classify_cycle_feet,
                        color_bridgeless2, color_two_odd_cycles2,
                        connected_bipartite_graphs, connected_graphs, cycle_with_feet,
                        directed_cycle, exact_directed, exact_pw, exact_pw_pp,
                        labeled_trees, meets_two_bridge_rule, pw_auto,
                        verify_all_pairs)

MAX_N = 6


@pytest.fixture(scope="module")
def small_graphs():
    """Every connected labeled graph on 1..6 vertices, with its exact walk
    color count (searched up to the maximum degree, which always suffices)."""
    table = []
    for n in range(1, MAX_N + 1):
        for g in connected_graphs(n):
            res = exact_pw(g, max_k=max(3, g.max_degree()))
            assert res is not None
            table.append((g, res.k))
    return table


def test_criterion_1_cyclic_bound(small_graphs):
    """Every connected cyclic graph on <= 6 vertices needs at most 3 colors."""
    cyclic = 0
    worst = 0
    for g, k in small_graphs:
        if g.is_tree():
            continue
        cyclic += 1
        worst = max(worst, k)
        assert k <= 3, f"cyclic graph above three colors: {g.edges}"
    print(f"\nACCEPTANCE 1 PASS: exact pW <= 3 on all {cyclic} connected cyclic "
          f"graphs up to {MAX_N} vertices (max seen {worst})")


def test_criterion_2_trees():
    """Trees take exactly max-degree colors, for walks and for paths."""
    checked = 0
    for n in range(2, 8):
        for t in labeled_trees(n):
            delta = t.max_degree()
            rw, rp = exact_pw_pp(t, max_k=delta)
            assert rw is not None and rw.k == delta, t.edges
            assert rp is not None and rp.k == delta, t.edges
            checked += 1
    print(f"\nACCEPTANCE 2 PASS: exact pW = pP = max degree on all {checked} "
          f"trees with 2..7 vertices")


def test_criterion_3_bipartite_characterization():
    """On connected bipartite graphs of order 3..7 (orders 1 and 2 are
    complete graphs): two colors suffice exactly when every core component
    touches at most two bridges, and the walk and path counts coincide."""
    checked = 0
    twos = 0
    for n in range(3, 8):
        for g in connected_bipartite_graphs(n):
            cond = meets_two_bridge_rule(bridgeless_core(g))
            rw, rp = exact_pw_pp(g, max_k=max(3, g.max_degree()))
            kw, kp = rw.k, rp.k
            assert (kw == 2) == cond, (g.edges, kw, cond)
            assert kw == kp, (g.edges, kw, kp)
            checked += 1
            twos += kw == 2
    print(f"\nACCEPTANCE 3 PASS: two-bridge rule matches exact pW = 2 and "
          f"pW = pP on all {checked} connected bipartite graphs of order 3..7 "
          f"({twos} with pW = 2)")


def test_criterion_4_bridgeless(small_graphs):
    """Connected bridgeless noncomplete graphs on <= 6 vertices: exact pW = 2
    and the bridgeless construction verifies on each."""
    checked = 0
    for g, k in small_graphs:
        if g.n < 2 or bridges(g) or g.is_complete():
            continue
        assert k == 2, (g.edges, k)
        res = color_bridgeless2(g)
        ok, pair = verify_all_pairs(g, res.coloring)
        assert ok and res.k == 2, (g.edges, pair)
        checked += 1
    print(f"\nACCEPTANCE 4 PASS: exact pW = 2 and verified 2-colorings on all "
          f"{checked} connected bridgeless noncomplete graphs up to {MAX_N} vertices")


def _two_odd_instance(rng):
    """Two odd cycles (lengths 3/5/7) joined by a path of length 0..3, plus
    random pendant trees, at most 14 vertices."""
    l1 = rng.choice((3, 5, 7))
    l2 = rng.choice((3, 5, 7))
    plen = rng.randrange(0, 4)
    edges = [(i, (i + 1) % l1) for i in range(l1)]
    c1 = tuple(range(l1))
    if plen == 0:
        ids = [0] + list(range(l1, l1 + l2 - 1))
        nxt = l1 + l2 - 1
        conn = (0,)
    else:
        path = [0] + list(range(l1, l1 + plen))
        edges += list(zip(path, path[1:]))
        ids = [path[-1]] + list(range(l1 + plen, l1 + plen + l2 - 1))
        nxt = l1 + plen + l2 - 1
        conn = tuple(path)
    edges += [(ids[i], ids[(i + 1) % l2]) for i in range(l2)]
    c2 = tuple(ids)
    while nxt < 14 and rng.random() < 0.7:
        edges.append((rng.randrange(nxt), nxt))
        nxt += 1
    return Graph(nxt, edges), TwoOddLayout(c1, c2, conn)


def test_criterion_5_two_odd_random():
    """Fifty seeded two-odd-cycle instances: the construction's 2-coloring is
    accepted and the solver confirms the value."""
    rng = random.Random(20250810)
    for trial in range(50):
        g, layout = _two_odd_instance(rng)
        res = color_two_odd_cycles2(g, layout)
        ok, pair = verify_all_pairs(g, res.coloring)
        assert ok and res.k == 2, (trial, pair)
        assert g.m <= 18
        confirmed = exact_pw(g, max_k=2)
        assert confirmed is not None and confirmed.k == 2, (trial, g.edges)
    print("\nACCEPTANCE 5 PASS: 50 seeded two-odd-cycle instances colored, "
          "verified, and confirmed at exactly 2 colors")


def _feet_vectors(slots, total):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _feet_vectors(slots - 1, total - first):
            yield (first,) + rest


def test_criterion_6_cycle_feet():
    """The consecutive-triple classification agrees with the solver on every
    odd cycle with feet (lengths 3/5/7, 1..4 feet), including three-color
    members such as a triangle with two feet on each of two vertices."""
    checked = 0
    threes = 0
    for length in (3, 5, 7):
        for total in range(1, 5):
            for feet in _feet_vectors(length, total):
                g = cycle_with_feet(length, feet)
                shape = classify_cycle_feet(g)
                assert shape.member
                verdict = 2 if shape.two_colors else 3
                exact = exact_pw(g, max_k=3).k
                assert verdict == exact, (length, feet, verdict, exact)
                checked += 1
                threes += verdict == 3
    assert not classify_cycle_feet(cycle_with_feet(3, [2, 2, 0])).two_colors
    assert threes > 0
    print(f"\nACCEPTANCE 6 PASS: classification equals exact pW on all "
          f"{checked} odd-cycle-with-feet members ({threes} of them need 3 colors)")


def test_criterion_7_directed():
    """Directed values: an odd directed cycle needs three colors for walks and
    paths; the two-triangle digraph splits (walks 2, paths 3)."""
    c5 = directed_cycle(5)
    assert exact_directed(c5, "walk").k == 3
    assert exact_directed(c5, "path").k == 3
    bow = bowtie_digraph()
    assert exact_directed(bow, "walk").k == 2
    assert exact_directed(bow, "path").k == 3
    print("\nACCEPTANCE 7 PASS: directed C5 has pW = pP = 3; the bow-tie "
          "digraph has pW = 2 and pP = 3")


def test_criterion_8_self_certification(small_graphs):
    """Every dispatcher result re-verifies, exact claims match the solver, and
    upper bounds never undercut it."""
    exact_claims = 0
    upper_claims = 0
    for g, k in small_graphs:
        res = pw_auto(g)
        ok, pair = verify_all_pairs(g, res.coloring)
        assert ok, (g.edges, pair)
        if res.status == "exact":
            assert res.k == k, (g.edges, res.k, res.provenance, k)
            exact_claims += 1
        else:
            assert res.k >= k, (g.edges, res.k, k)
            upper_claims += 1
    print(f"\nACCEPTANCE 8 PASS: {exact_claims + upper_claims} dispatcher "
          f"colorings re-verified on all connected graphs up to {MAX_N} vertices; "
          f"{exact_claims} exact claims all equal the solver "
          f"({upper_claims} upper bounds, none below)")
