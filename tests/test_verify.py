import ast
import random
from itertools import product
from pathlib import Path

import pytest

from properwalk import verify
from properwalk import (Digraph, EdgeColoring, Graph, bipartition,
                        bowtie_digraph, connected_bipartite_graphs,
                        connected_graphs, cycle, directed_cycle, path_graph,
                        path_reachable, path_reachable_directed,
                        random_connected, star, verify_all_pairs,
                        verify_all_pairs_directed, walk_reachable,
                        walk_reachable_directed)
from properwalk.graphs import ColoringMismatchError, Walk


def naive_walk_exists(g, coloring, u, v, max_len):
    """Independent oracle: dynamic program over walk length.  reach[v][c] at
    step L holds iff some properly colored length-L walk from u ends at v
    with last color c."""
    if u == v:
        return True
    adj = [[] for _ in range(g.n)]
    for a, b in g.edges:
        col = coloring.color(a, b)
        adj[a].append((b, col))
        adj[b].append((a, col))
    frontier = {(u, 0)}
    seen_any = set()
    for _ in range(max_len):
        nxt = set()
        for x, last in frontier:
            for y, col in adj[x]:
                if col != last:
                    nxt.add((y, col))
        frontier = nxt
        seen_any |= {x for x, _ in frontier}
        if v in seen_any:
            return True
    return v in seen_any


def all_colorings(m, k):
    return product(range(1, k + 1), repeat=m)


def first_failing_pair(g, col):
    """Pairwise oracle for verify_all_pairs: one witness BFS per pair."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not walk_reachable(g, col, u, v)[0]:
                return u, v
    return None


def first_failing_ordered_pair(d, col):
    """Pairwise oracle for verify_all_pairs_directed."""
    for u in range(d.n):
        for v in range(d.n):
            if u != v and not walk_reachable_directed(d, col, u, v)[0]:
                return u, v
    return None


def expect(pair):
    return (pair is None, pair)


class TestWalkReachable:
    def test_equal_colors_block(self):
        g = path_graph(3)
        col = EdgeColoring(1, {(0, 1): 1, (1, 2): 1})
        ok, w = walk_reachable(g, col, 0, 2)
        assert not ok and w is None

    def test_alternating_path(self):
        g = path_graph(3)
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2})
        ok, w = walk_reachable(g, col, 0, 2)
        assert ok and w.vertices == (0, 1, 2)
        assert w.is_properly_colored(col)

    def test_monochromatic_triangle_adjacent(self):
        g = cycle(3)
        col = EdgeColoring(1, {e: 1 for e in g.edges})
        for u in range(3):
            for v in range(3):
                if u != v:
                    ok, w = walk_reachable(g, col, u, v)
                    assert ok and w.num_edges == 1

    def test_empty_walk_for_same_vertex(self):
        g = path_graph(2)
        col = EdgeColoring(1, {(0, 1): 1})
        ok, w = walk_reachable(g, col, 0, 0)
        assert ok and w.vertices == (0,)

    def test_color_constraints(self):
        g = path_graph(3)
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2})
        assert walk_reachable(g, col, 0, 2, start_colors={1}, end_colors={2}) == (
            True, Walk((0, 1, 2)))
        assert not walk_reachable(g, col, 0, 2, start_colors={2})[0]
        assert not walk_reachable(g, col, 0, 2, end_colors={1})[0]

    def test_closed_walk_with_constraints(self):
        g = cycle(4)
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
        ok, w = walk_reachable(g, col, 0, 0, start_colors={1}, end_colors={2})
        assert ok and w.num_edges >= 1 and w.is_properly_colored(col)
        # start_colors binds the first step alone, and a closed walk asked
        # for with a constraint is never the empty walk
        assert w.vertices == (0, 1, 2, 3, 0)
        assert walk_reachable(g, col, 0, 0, start_colors={2})[1].vertices == (0, 3, 2, 1, 0)
        assert walk_reachable(g, col, 0, 0, end_colors={1})[1].vertices == (0, 3, 2, 1, 0)
        assert walk_reachable(g, col, 0, 0, start_colors={1}, end_colors={1}) == (False, None)

    # a triangle 0 1 2 colored 1, 2, 3 around with a pendant edge 2-3 of
    # color 1, and the bowtie digraph colored 1 2 1 on one triangle and
    # 2 1 2 on the other: the BFS's witnesses, shortest and first found
    TRIANGLE_LEG = (Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
                    {(0, 1): 1, (1, 2): 2, (0, 2): 3, (2, 3): 1}, 3)
    BOWTIE = (bowtie_digraph(),
              {(0, 1): 1, (1, 2): 2, (2, 0): 1, (0, 3): 2, (3, 4): 1, (4, 0): 2}, 2)

    @pytest.mark.parametrize("graph, u, v, start, end, witness", [
        (TRIANGLE_LEG, 3, 3, None, None, (3,)),
        (TRIANGLE_LEG, 3, 3, {1}, None, (3, 2, 0, 1, 2, 3)),
        (TRIANGLE_LEG, 3, 3, {1}, {1}, (3, 2, 0, 1, 2, 3)),
        (TRIANGLE_LEG, 2, 2, {2}, {3}, (2, 1, 0, 2)),
        (TRIANGLE_LEG, 2, 2, None, {1}, None),
        (TRIANGLE_LEG, 0, 3, {3}, None, (0, 2, 3)),
        (TRIANGLE_LEG, 0, 3, {1}, {1}, (0, 1, 2, 3)),
        (TRIANGLE_LEG, 1, 0, {1, 2}, {3}, (1, 2, 0)),
        (BOWTIE, 1, 4, None, None, (1, 2, 0, 3, 4)),
        (BOWTIE, 0, 0, {1}, None, (0, 1, 2, 0)),
        (BOWTIE, 0, 0, {2}, {2}, (0, 3, 4, 0)),
        (BOWTIE, 2, 3, None, {2}, (2, 0, 3)),
        (BOWTIE, 3, 1, {1}, {1}, (3, 4, 0, 1)),
    ])
    def test_pinned_witnesses(self, graph, u, v, start, end, witness):
        g, colors, k = graph
        got = walk_reachable(g, EdgeColoring(k, colors), u, v, start, end)
        assert got == (witness is not None, witness and Walk(witness))

    def test_unknown_vertex(self):
        g = path_graph(2)
        col = EdgeColoring(1, {(0, 1): 1})
        with pytest.raises(ValueError):
            walk_reachable(g, col, 0, 9)

    def test_coloring_mismatch(self):
        g = path_graph(3)
        with pytest.raises(ColoringMismatchError):
            walk_reachable(g, EdgeColoring(1, {(0, 1): 1}), 0, 1)

    def test_witness_length_bound(self):
        for seed in range(20):
            rng = random.Random(seed)
            g = random_connected(6, 0.4, seed=seed)
            k = rng.choice((2, 3))
            col = EdgeColoring(k, {e: rng.randint(1, k) for e in g.edges})
            for u in range(g.n):
                for v in range(g.n):
                    ok, w = walk_reachable(g, col, u, v)
                    if ok and u != v:
                        assert w.num_edges <= g.n * k
                        assert w.is_properly_colored(col)
                        assert w.start == u and w.end == v


class TestVerifyAllPairs:
    def test_alternating_cycle(self):
        g = cycle(4)
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
        assert verify_all_pairs(g, col) == (True, None)

    def test_monochromatic_cycle_fails_antipodal(self):
        g = cycle(4)
        col = EdgeColoring(1, {e: 1 for e in g.edges})
        assert verify_all_pairs(g, col) == (False, (0, 2))

    def test_rainbow_star(self):
        g = star(4)
        col = EdgeColoring(3, {(0, 1): 1, (0, 2): 2, (0, 3): 3})
        assert verify_all_pairs(g, col) == (True, None)

    def test_agrees_with_bounded_walk_oracle(self):
        # every coloring with k <= 2 of every connected graph on <= 5 vertices
        for n in range(2, 6):
            for g in connected_graphs(n):
                for colors in all_colorings(g.m, 2):
                    col = EdgeColoring(2, dict(zip(g.edges, colors)))
                    ok, pair = verify_all_pairs(g, col)
                    if ok:
                        assert all(naive_walk_exists(g, col, u, v, 2 * g.n * 2)
                                   for u in range(n) for v in range(u + 1, n))
                    else:
                        u, v = pair
                        assert not naive_walk_exists(g, col, u, v, 2 * g.n * 2)

    def test_monotone_under_extra_edges(self):
        # extending an accepted coloring to a supergraph keeps it accepted
        rng = random.Random(7)
        count = 0
        for seed in range(40):
            g = random_connected(6, 0.35, seed=seed)
            col = EdgeColoring(2, {e: rng.randint(1, 2) for e in g.edges})
            ok, _ = verify_all_pairs(g, col)
            if not ok:
                continue
            missing = [(u, v) for u in range(6) for v in range(u + 1, 6)
                       if not g.has_edge(u, v)]
            extra = [e for e in missing if rng.random() < 0.5]
            g2 = Graph(6, list(g.edges) + extra)
            a2 = dict(col.assignment)
            a2.update({e: rng.randint(1, 2) for e in extra})
            assert verify_all_pairs(g2, EdgeColoring(2, a2))[0]
            count += 1
        assert count > 3


class TestPathReachable:
    def test_path_needs_distinct_colors(self):
        g = path_graph(3)
        col1 = EdgeColoring(1, {(0, 1): 1, (1, 2): 1})
        col2 = EdgeColoring(2, {(0, 1): 1, (1, 2): 2})
        assert not path_reachable(g, col1, 0, 2)
        assert path_reachable(g, col2, 0, 2)

    def test_adjacent_always(self):
        g = cycle(3)
        col = EdgeColoring(2, {(0, 1): 1, (0, 2): 1, (1, 2): 2})
        for u, v in g.edges:
            assert path_reachable(g, col, u, v)

    def test_size_guard(self):
        g = path_graph(17)
        col = EdgeColoring(1, {e: 1 for e in g.edges})
        with pytest.raises(ValueError, match="limited"):
            path_reachable(g, col, 0, 1)

    def test_walk_equals_path_on_bipartite_two_colorings(self):
        # with two colors on a bipartite graph, walks shortcut to paths;
        # exhaustive over every coloring of every graph up to 6 vertices,
        # with the adjacency hoisted out of the pair loop for speed
        from properwalk.verify import _path_dfs, _walk_reach
        for n in range(2, 7):
            for g in connected_bipartite_graphs(n):
                if g.m == 0:
                    continue
                assert bipartition(g) is not None
                for colors in all_colorings(g.m, 2):
                    adj = [[] for _ in range(n)]
                    for (a, b), col in zip(g.edges, colors):
                        adj[a].append((b, col))
                        adj[b].append((a, col))
                    for u, walk_ok in _walk_reach(adj, 2):
                        for v in range(u + 1, n):
                            path_ok = _path_dfs(adj, u, v, 1 << u, 0)
                            assert bool(walk_ok >> v & 1) == path_ok

    def test_walk_equals_path_matches_public_functions(self):
        # spot-check that the hoisted loop above matches the public API
        g = cycle(6)
        for colors in all_colorings(6, 2):
            col = EdgeColoring(2, dict(zip(g.edges, colors)))
            for u, v in ((0, 3), (1, 4)):
                assert (walk_reachable(g, col, u, v)[0]
                        == path_reachable(g, col, u, v))


class TestDirected:
    def test_monochromatic_directed_triangle(self):
        d = directed_cycle(3)
        col = EdgeColoring(1, {a: 1 for a in d.arcs})
        ok, _ = walk_reachable_directed(d, col, 0, 2)
        assert not ok  # needs two consecutive arcs
        ok, w = walk_reachable_directed(d, col, 0, 1)
        assert ok and w.num_edges == 1

    def test_rainbow_directed_triangle(self):
        d = directed_cycle(3)
        col = EdgeColoring(3, {(0, 1): 1, (1, 2): 2, (2, 0): 3})
        assert verify_all_pairs_directed(d, col) == (True, None)

    def test_direction_respected(self):
        d = directed_cycle(3)
        col = EdgeColoring(3, {(0, 1): 1, (1, 2): 2, (2, 0): 3})
        assert path_reachable_directed(d, col, 0, 1)
        # 1 -> 0 needs the long way around
        ok, w = walk_reachable_directed(d, col, 1, 0)
        assert ok and w.vertices == (1, 2, 0)

    def test_bowtie_needs_care(self):
        d = bowtie_digraph()
        col = EdgeColoring(1, {a: 1 for a in d.arcs})
        ok, pair = verify_all_pairs_directed(d, col)
        assert not ok


class TestAllPairsAgainstPairwiseOracle:
    """The all-pairs SCC pass against one BFS per pair, on the verdict and
    the lexicographically first failing pair."""

    def test_every_coloring_of_small_graphs(self):
        # every connected graph with n <= 4 under every coloring with k <= 3
        checked = 0
        for n in range(1, 5):
            for g in connected_graphs(n):
                for k in (1, 2, 3):
                    for colors in all_colorings(g.m, k):
                        col = EdgeColoring(k, dict(zip(g.edges, colors)))
                        assert verify_all_pairs(g, col) == expect(first_failing_pair(g, col))
                        checked += 1
        assert checked > 4000

    def test_every_two_coloring_of_small_digraphs(self):
        # every digraph with n <= 3, strongly connected or not
        for n in range(1, 4):
            slots = [(u, v) for u in range(n) for v in range(n) if u != v]
            for mask in range(1 << len(slots)):
                d = Digraph(n, [a for i, a in enumerate(slots) if mask >> i & 1])
                for colors in all_colorings(d.m, 2):
                    col = EdgeColoring(2, dict(zip(d.arcs, colors)))
                    assert (verify_all_pairs_directed(d, col)
                            == expect(first_failing_ordered_pair(d, col)))

    def test_long_path(self):
        # an alternating path passes; recoloring edge (i, i+1) gives it the
        # color of both neighbouring edges, so no walk crosses it.  On a path
        # every walk from 0 to i passes 1..i-1, so (0, i+1) is the first
        # failing pair exactly when 0 reaches i and not i+1.
        n, i = 5000, 2500
        g = path_graph(n)
        assignment = {(v, v + 1): 1 + v % 2 for v in range(n - 1)}
        assert verify_all_pairs(g, EdgeColoring(2, assignment)) == (True, None)
        assignment[(i, i + 1)] = 3 - assignment[(i, i + 1)]
        col = EdgeColoring(2, assignment)
        assert walk_reachable(g, col, 0, i)[0]
        assert not walk_reachable(g, col, 0, i + 1)[0]
        assert verify_all_pairs(g, col) == (False, (0, i + 1))


def first_path_failure_by_pairs(g, col, directed=False):
    """Pairwise oracle for verify._first_path_failure: path_reachable per
    pair, u < v on a graph and ordered on a digraph."""
    for u in range(g.n):
        for v in range(g.n):
            if (u != v if directed else u < v) and not path_reachable(g, col, u, v):
                return u, v
    return None


class TestFirstPathFailure:
    def test_every_coloring_of_small_graphs(self):
        # every connected graph with n <= 4 under every coloring with k <= 3
        failed = 0
        for n in range(1, 5):
            for g in connected_graphs(n):
                for k in (1, 2, 3):
                    for colors in all_colorings(g.m, k):
                        col = EdgeColoring(k, dict(zip(g.edges, colors)))
                        pair = verify._first_path_failure(g, col)
                        assert pair == first_path_failure_by_pairs(g, col)
                        failed += pair is not None
        assert failed > 900

    def test_every_two_coloring_of_small_digraphs(self):
        # every digraph with n <= 3, strongly connected or not
        for n in range(1, 4):
            slots = [(u, v) for u in range(n) for v in range(n) if u != v]
            for mask in range(1 << len(slots)):
                d = Digraph(n, [a for i, a in enumerate(slots) if mask >> i & 1])
                for colors in all_colorings(d.m, 2):
                    col = EdgeColoring(2, dict(zip(d.arcs, colors)))
                    assert (verify._first_path_failure(d, col)
                            == first_path_failure_by_pairs(d, col, directed=True))

    def test_guard_and_coloring_check(self):
        g = path_graph(17)
        with pytest.raises(ValueError, match="limited"):
            verify._first_path_failure(g, EdgeColoring(1, {e: 1 for e in g.edges}))
        with pytest.raises(ColoringMismatchError):
            verify._first_path_failure(path_graph(3), EdgeColoring(1, {(0, 1): 1}))


# An edge missing, an extra key, an edge keyed in both orientations; a
# digraph missing an arc, and one with an arc reversed.  C_4's edges are
# (0, 1), (0, 3), (1, 2) and (2, 3).
MALFORMED = [
    (cycle(4), {(0, 1): 1, (1, 2): 2, (2, 3): 1}),
    (cycle(4), {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2, (0, 2): 1}),
    (cycle(4), {(0, 1): 1, (1, 0): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}),
    (directed_cycle(3), {(0, 1): 1, (1, 2): 2}),
    (directed_cycle(3), {(0, 1): 1, (1, 2): 2, (0, 2): 1}),
]


@pytest.mark.parametrize("g, assignment", MALFORMED)
def test_malformed_coloring_raises_what_validate_for_raises(g, assignment):
    # every entry point checks the coloring in the pass that builds its
    # adjacency, before the vertex range, and raises exactly what
    # validate_for raises
    col = EdgeColoring(2, assignment)
    with pytest.raises(ColoringMismatchError) as want:
        col.validate_for(g)
    full = verify_all_pairs_directed if isinstance(g, Digraph) else verify_all_pairs
    checks = [lambda: full(g, col),
              lambda: walk_reachable(g, col, 0, 0),
              lambda: walk_reachable(g, col, 0, 2, start_colors={1}),
              lambda: walk_reachable(g, col, 0, g.n),
              lambda: path_reachable(g, col, 0, 2),
              lambda: path_reachable(g, col, 0, g.n),
              lambda: verify._first_path_failure(g, col)]
    for check in checks:
        with pytest.raises(ColoringMismatchError) as got:
            check()
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_pairs_and_adjacency_stay_in_verify():
    """cli.py and exact.py ask verify for answers; how the vertex pairs are
    enumerated and the colored adjacency is built stays inside verify."""
    hidden = {"_colored_adjacency", "_colored_out_adjacency", "_path_adjacency", "_path_dfs"}
    for name in ("cli.py", "exact.py"):
        tree = ast.parse(Path(verify.__file__).with_name(name).read_text())
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        assert not used & hidden, (name, sorted(used & hidden))
