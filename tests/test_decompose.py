import math
import random
from collections import deque
from itertools import combinations, islice

import networkx as nx
import pytest

from properwalk import decompose
from properwalk import (Graph, bipartition, blocks, bridgeless_core, bridges,
                        complete, connected_graphs, contract_core_graph,
                        cycle, disjoint_odd_cycles, meets_two_bridge_rule,
                        path_graph, pw_auto, random_connected, shortest_odd_cycle, star, theta,
                        two_disjoint_paths, two_triangles_shared_vertex)
from properwalk.graphs import canonical_edge


def two_squares_with_middle():
    """Two 4-cycles joined by a 2-edge path through a middle vertex."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3),
             (5, 6), (6, 7), (7, 8), (5, 8),
             (0, 4), (4, 5)]
    return Graph(9, edges)


def connects_without(g, e):
    """Are e's endpoints still joined once e is removed?  (Independent bridge
    oracle: an edge is a bridge exactly when it lies on no cycle.)"""
    u, v = e
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if canonical_edge(x, y) == e or y in seen:
                continue
            seen.add(y)
            queue.append(y)
    return v in seen


def all_starts_odd_cycle(g):
    """Reference for shortest_odd_cycle: a BFS over the parity double cover
    from every vertex in turn, each cut off at the best length so far,
    keeping the first start that attains it.  O(n*m), with no pruning of
    starts."""
    best_len = None
    for s in range(g.n):
        parent = {(s, 0): None}
        queue = deque([(s, 0, 0)])
        while queue:
            x, par, d = queue.popleft()
            if best_len is not None and d + 1 >= best_len:
                break
            for y in g.neighbors(x):
                state = (y, par ^ 1)
                if state not in parent:
                    parent[state] = (x, par)
                    queue.append((y, par ^ 1, d + 1))
                    if y == s and not par:
                        best_len, best_start, best_parent = d + 1, s, parent
    if best_len is None:
        return None
    walk = []
    state = (best_start, 1)
    while state is not None:
        walk.append(state[0])
        state = best_parent[state]
    walk.reverse()
    return tuple(walk[:-1])


def flow_network_disjoint_paths(g, w, targets):
    """Reference for two_disjoint_paths: the same two augmentations of
    unit-capacity max flow, on an explicit vertex-split network with
    capacity and flow dicts and its own sorted adjacency, and the paths read
    by decomposing the flow.  Raises the same ValueErrors."""
    targets = set(targets)
    if w in targets:
        raise ValueError("start vertex lies in the target set")
    if len(targets) < 2:
        raise ValueError("need at least two target vertices")
    n = g.n

    # Node encoding: in(v) = 2v, out(v) = 2v + 1, sink = 2n.  Targets have no
    # in->out arc, so paths cannot pass through them.
    sink = 2 * n
    source = 2 * w + 1
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {}

    def add(a, b, c):
        if (a, b) not in cap:
            cap[(a, b)] = 0
            cap[(b, a)] = cap.get((b, a), 0)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        cap[(a, b)] += c

    for v in range(n):
        if v in targets:
            add(2 * v, sink, 1)
        elif v != w:
            add(2 * v, 2 * v + 1, 1)
    for u, v in g.edges:
        add(2 * u + 1, 2 * v, 1)
        add(2 * v + 1, 2 * u, 1)
    for a in adj:
        adj[a] = sorted(set(adj[a]))

    flow: dict[tuple[int, int], int] = {e: 0 for e in cap}

    def augment() -> bool:
        prev = {source: None}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            if x == sink:
                break
            for y in adj.get(x, ()):
                if y not in prev and cap.get((x, y), 0) - flow[(x, y)] > 0:
                    prev[y] = x
                    queue.append(y)
        if sink not in prev:
            return False
        y = sink
        while prev[y] is not None:
            x = prev[y]
            flow[(x, y)] += 1
            flow[(y, x)] -= 1
            y = x
        return True

    got = 0
    while got < 2 and augment():
        got += 1
    if got < 2:
        raise ValueError(f"no two internally disjoint paths from {w} to the targets")

    # Decompose the flow into two vertex paths.
    paths = []
    for _ in range(2):
        path = [w]
        node = source
        while node != sink:
            nxt = None
            for y in adj.get(node, ()):
                if flow.get((node, y), 0) > 0:
                    nxt = y
                    break
            if nxt is None:
                raise AssertionError("flow decomposition ran dry")
            flow[(node, nxt)] -= 1
            node = nxt
            if node != sink and node % 2 == 0:
                path.append(node // 2)
        paths.append(tuple(path))
    paths.sort(key=lambda p: (p[-1], p))
    p1, p2 = paths

    if (p1[-1] == p2[-1] or not set(p1[1:]).isdisjoint(p2[1:])
            or not targets.isdisjoint(p1[1:-1] + p2[1:-1])):
        raise AssertionError(f"paths {p1} and {p2} are not internally disjoint")
    return p1, p2


def disjoint_paths_outcome(fn, g, w, targets):
    """fn's pair of paths, or the message of the ValueError it raises."""
    try:
        return fn(g, w, targets)
    except ValueError as exc:
        return str(exc)


def grid(rows, cols):
    return Graph(rows * cols, [(r * cols + c, r * cols + c + 1)
                               for r in range(rows) for c in range(cols - 1)]
                 + [(r * cols + c, (r + 1) * cols + c)
                    for r in range(rows - 1) for c in range(cols)])


def dense_block_with_cycle(a, length):
    """K_{a,a} on vertices 0..2a-1 and C_length on the ids above, joined by
    the edges (a - 2, 2a) and (a - 1, 2a + length // 2): one block, whose
    shortest odd cycle runs through both joins."""
    return Graph(2 * a + length, [(u, a + v) for u in range(a) for v in range(a)]
                 + [(2 * a + i, 2 * a + (i + 1) % length) for i in range(length)]
                 + [(a - 2, 2 * a), (a - 1, 2 * a + length // 2)])


def count_walks(monkeypatch):
    """Count the double-cover BFS runs shortest_odd_cycle makes."""
    runs = []
    inner = decompose._odd_walk

    def counted(g, s, limit):
        runs.append(s)
        return inner(g, s, limit)

    monkeypatch.setattr(decompose, "_odd_walk", counted)
    return runs


class TestBridges:
    def test_path(self):
        g = path_graph(4)
        assert bridges(g) == frozenset(g.edges)

    def test_cycle(self):
        assert bridges(cycle(5)) == frozenset()

    def test_two_triangles_joined_by_edge(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert bridges(g) == frozenset({(2, 3)})

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            bridges(Graph(3, [(0, 1)]))

    def test_against_cycle_membership_oracle(self):
        for n in range(2, 7):
            for g in connected_graphs(n):
                expect = frozenset(e for e in g.edges if not connects_without(g, e))
                assert bridges(g) == expect


class TestBlocks:
    def test_two_triangles_shared_vertex(self):
        got = blocks(two_triangles_shared_vertex())
        assert got == (frozenset({0, 1, 2}), frozenset({0, 3, 4}))

    def test_path3(self):
        assert blocks(path_graph(3)) == (frozenset({0, 1}), frozenset({1, 2}))

    def test_cycle6(self):
        assert blocks(cycle(6)) == (frozenset(range(6)),)

    def test_every_edge_in_exactly_one_block(self):
        # ... and the low-link arcs the two-color constructions head-color
        # orient every edge once, span their block, and strongly connect
        # every block of 3 or more vertices and every nontrivial core
        graphs = [g for n in range(2, 7) for g in connected_graphs(n)]
        graphs += [random_connected(7 + seed % 24, 0.06 + 0.01 * (seed % 20), seed)
                   for seed in range(60)]
        for g in graphs:
            dec = decompose.decomposition(g)
            count = {e: 0 for e in g.edges}
            for blk in dec.blocks:
                for e in g.edges:
                    if e[0] in blk and e[1] in blk:
                        count[e] += 1
            assert all(c == 1 for c in count.values()), g.edges
            assert sorted(canonical_edge(*a) for arcs in dec.arcs for a in arcs) == list(g.edges)
            for blk, arcs in zip(dec.blocks, dec.arcs):
                assert {x for a in arcs for x in a} == blk, g.edges
                if len(blk) > 2:
                    assert nx.is_strongly_connected(nx.DiGraph(arcs)), g.edges
            for comp in dec.cores:
                if not comp.trivial:
                    arcs = [a for blk, blk_arcs in zip(dec.blocks, dec.arcs)
                            if blk <= comp.vertices for a in blk_arcs]
                    core = nx.DiGraph(arcs)
                    assert set(core) == comp.vertices and nx.is_strongly_connected(core)


class TestOddBlocks:
    def test_whole_graph_block_is_searched_in_place(self, monkeypatch):
        # the layering decomposition(g) keeps starts the odd-girth search of
        # a block that is the whole graph, and of a graph with several
        # blocks: one _layers run each; a smaller block is searched in its
        # induced copy and mapped back
        c5, bowtie = cycle(5), two_triangles_shared_vertex()
        want = {g: shortest_odd_cycle(g) for g in (c5, bowtie)}
        runs = []
        real = decompose._layers
        monkeypatch.setattr(decompose, "_layers", lambda h: runs.append(h) or real(h))
        dec = decompose.decomposition(c5)
        assert list(dec.odd_blocks()) == [(frozenset(range(5)), want[c5])]
        assert dec.odd_cycle == want[c5]
        assert len(runs) == 1 and runs[0] is c5
        runs.clear()
        dec = decompose.decomposition(bowtie)
        assert dec.odd_cycle == want[bowtie]
        assert len(runs) == 1 and runs[0] is bowtie
        assert list(dec.odd_blocks()) == [(frozenset({0, 1, 2}), (0, 1, 2)),
                                          (frozenset({0, 3, 4}), (0, 3, 4))]
        assert [h.n for h in runs] == [5, 3, 3]

    def test_block_classes_are_shifted_depth_parities(self):
        # shortest paths from vertex 0 enter a block at one cut vertex and
        # stay inside it, so on a bipartite block the depth parity, taken
        # relative to the block's lowest vertex, is its bipartition class
        for n in range(2, 7):
            for g in connected_graphs(n):
                depth = decompose._layers(g)[0]
                for blk in blocks(g):
                    sub, old = g.induced(blk)
                    classes = bipartition(sub)
                    if classes is None:
                        continue
                    base = depth[old[0]]
                    assert [(depth[v] ^ base) & 1 for v in old] == [
                        0 if x in classes[0] else 1 for x in range(sub.n)]


class TestCore:
    def test_two_squares_with_middle(self):
        g = two_squares_with_middle()
        cores = bridgeless_core(g)
        nontrivial = [c for c in cores if not c.trivial]
        trivial = [c for c in cores if c.trivial]
        assert len(nontrivial) == 2 and len(trivial) == 1
        assert trivial[0].vertices == frozenset({4})
        assert len(trivial[0].incident_bridges) == 2
        assert all(len(c.incident_bridges) == 1 for c in nontrivial)
        assert meets_two_bridge_rule(cores)

    def test_star_fails_rule(self):
        cores = bridgeless_core(star(4))
        assert len(cores) == 4 and all(c.trivial for c in cores)
        center = next(c for c in cores if c.vertices == frozenset({0}))
        assert len(center.incident_bridges) == 3
        assert not meets_two_bridge_rule(cores)

    def test_cycle_single_component(self):
        cores = bridgeless_core(cycle(4))
        assert len(cores) == 1 and not cores[0].trivial
        assert cores[0].incident_bridges == ()
        assert meets_two_bridge_rule(cores)

    def test_nontrivial_components_are_two_edge_connected(self):
        for n in range(2, 7):
            for g in connected_graphs(n):
                for comp in bridgeless_core(g):
                    if comp.trivial:
                        continue
                    sub, _ = g.induced(comp.vertices)
                    assert sub.is_connected() and not bridges(sub)


class TestBipartition:
    def test_even_cycle(self):
        assert bipartition(cycle(4)) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_odd_cycle(self):
        assert bipartition(cycle(5)) is None

    def test_single_edge(self):
        assert bipartition(path_graph(2)) == (frozenset({0}), frozenset({1}))

    def test_iff_no_odd_cycle(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                assert (bipartition(g) is None) == (shortest_odd_cycle(g) is not None)


class TestShortestOddCycle:
    def test_c5(self):
        cyc = shortest_odd_cycle(cycle(5))
        assert sorted(cyc) == [0, 1, 2, 3, 4]

    def test_c6_none(self):
        assert shortest_odd_cycle(cycle(6)) is None

    def test_k4_triangle(self):
        assert len(shortest_odd_cycle(complete(4))) == 3

    def test_is_shortest_and_valid(self):
        for n in range(3, 7):
            for g in connected_graphs(n):
                cyc = shortest_odd_cycle(g)
                if cyc is None:
                    continue
                assert len(cyc) % 2 == 1
                assert len(set(cyc)) == len(cyc)
                for i in range(len(cyc)):
                    assert g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])
                # no shorter odd cycle: check all vertex subsets of odd size
                from itertools import combinations, permutations
                for size in range(3, len(cyc), 2):
                    for sub in combinations(range(n), size):
                        for perm in permutations(sub[1:]):
                            order = (sub[0],) + perm
                            if all(g.has_edge(order[i], order[(i + 1) % size])
                                   for i in range(size)):
                                raise AssertionError(f"shorter odd cycle {order} in {g.edges}")


    def test_matches_all_starts_on_atlas(self):
        # every graph with at most 7 vertices, connected or not
        for G in nx.graph_atlas_g():
            if G.number_of_nodes():
                g = Graph(G.number_of_nodes(), list(G.edges()))
                assert shortest_odd_cycle(g) == all_starts_odd_cycle(g), g.edges

    def test_matches_all_starts_on_random_graphs(self):
        rng = random.Random(2016)
        for _ in range(600):
            n = rng.randint(2, 120)
            p = rng.choice((1.5, 2.5, 4, 8)) / n
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            half, _ = g.induced(sorted(rng.sample(range(n), n // 2)))
            for h in (g, half):
                assert shortest_odd_cycle(h) == all_starts_odd_cycle(h), (h.n, h.edges)

    def test_matches_all_starts_on_families(self):
        graphs = [cycle(n) for n in range(3, 42, 2)]
        graphs += [theta(a, b, p) for a, b, p in
                   ((2, 2, 1), (3, 3, 2), (5, 7, 4), (9, 9, 10), (20, 22, 7))]
        for length in (10, 41):
            # a triangle on the highest ids, behind a long path from vertex 0
            graphs.append(Graph(length + 3, [(i, i + 1) for i in range(length + 2)]
                                + [(length, length + 2)]))
        graphs += [dense_block_with_cycle(a, 15) for a in (3, 6)]
        for g in graphs:
            assert shortest_odd_cycle(g) == all_starts_odd_cycle(g), g.edges

    def test_bipartite_runs_no_odd_walk(self, monkeypatch):
        runs = count_walks(monkeypatch)
        for g in (cycle(40), grid(7, 9), path_graph(5), Graph(3)):
            assert shortest_odd_cycle(g) is None
        assert runs == []

    def test_long_odd_cycle_runs_two_walks(self, monkeypatch):
        # the one edge inside a BFS layer of C_101 joins 50 and 51, and 50,
        # expanded first, covers it: one run finds the girth, and start 0,
        # 50 steps from the cover, attains it
        runs = count_walks(monkeypatch)
        assert len(shortest_odd_cycle(cycle(101))) == 101
        assert runs == [50, 0]

    def test_dense_block_below_the_cycle_runs_two_walks(self, monkeypatch):
        # K_{a,a} on the lowest ids and C_L on the highest, joined from a - 2
        # and a - 1: the one cover vertex lies on the cycle, and no block
        # vertex below a - 2 is within (girth - 1) / 2 of it, so none is
        # tried as a start; pw_auto searches the block and its rest graphs
        # the same way
        runs = count_walks(monkeypatch)
        for a, length in ((3, 15), (6, 15), (100, 101)):
            g = dense_block_with_cycle(a, length)
            runs.clear()
            assert len(shortest_odd_cycle(g)) < length
            assert len(runs) <= 2, (a, length, runs)
        runs.clear()
        assert pw_auto(g).k == 2
        assert len(runs) <= 4, runs

class TestTwoDisjointPaths:
    def test_complete4(self):
        p1, p2 = two_disjoint_paths(complete(4), 3, {0, 1, 2})
        assert p1 == (3, 0) and p2 == (3, 1)

    def test_theta_cycle_vertex(self):
        g = theta(2, 2, 1)  # outer 0-1-2-3, chord 0-2
        p1, p2 = two_disjoint_paths(g, 1, {0, 2})
        assert p1 == (1, 0) and p2 == (1, 2)

    def test_small_target_rejected(self):
        with pytest.raises(ValueError):
            two_disjoint_paths(path_graph(3), 0, {2})

    def test_no_pair_signalled(self):
        with pytest.raises(ValueError, match="no two"):
            two_disjoint_paths(path_graph(4), 0, {2, 3})

    def test_properties_on_two_connected_graphs(self):
        for g in connected_graphs(5):
            if bridges(g) or len(blocks(g)) != 1:
                continue
            for w in range(g.n):
                targets = set(range(g.n)) - {w}
                p1, p2 = two_disjoint_paths(g, w, targets)
                assert p1[0] == w and p2[0] == w
                assert p1[-1] != p2[-1]
                assert not (set(p1[1:]) & set(p2[1:]))

    @pytest.mark.parametrize("g, w, targets, want", [
        # the first augmentation takes 1-0-3; the second runs 1-2-3, back
        # along 3-0, cancelling 0's unit to 3, and on to 4
        (Graph(5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]), 1, {3, 4},
         ((1, 2, 3), (1, 0, 4))),
        # the first augmentation takes 0-1-2-3-4; the second runs 0-5-6-7-3,
        # back along 3-2-1 through vertex 2, cancelling both of its arcs, and
        # on by 1-8-9-10-11
        (Graph(12, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 3),
                    (1, 8), (8, 9), (9, 10), (10, 11)]), 0, {4, 11},
         ((0, 5, 6, 7, 3, 4), (0, 1, 8, 9, 10, 11))),
        # the first augmentation takes 0-1-2-3; the second reaches out(2)
        # through 0-4-5-3, and from there in(2) (back along 2's unit) and
        # in(6) both lead to 7.  The sorted network lists in(2) first, so
        # 1 takes 7 before 6 can
        (Graph(9, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3), (2, 6), (6, 7),
                   (1, 7), (7, 8)]), 0, {3, 8},
         ((0, 4, 5, 3), (0, 1, 7, 8))),
    ])
    def test_second_augmentation_cancels_flow(self, g, w, targets, want):
        assert two_disjoint_paths(g, w, targets) == want
        assert flow_network_disjoint_paths(g, w, targets) == want

    def test_matches_flow_network_on_atlas(self):
        # every graph with 3 to 7 vertices, connected or not, every start
        # and every target set of 2 or 3 other vertices
        checked = 0
        for G in nx.graph_atlas_g():
            n = G.number_of_nodes()
            if n < 3:
                continue
            g = Graph(n, list(G.edges()))
            for w in range(n):
                others = [v for v in range(n) if v != w]
                for size in (2, 3):
                    for targets in combinations(others, size):
                        assert (disjoint_paths_outcome(two_disjoint_paths, g, w, targets)
                                == disjoint_paths_outcome(flow_network_disjoint_paths,
                                                          g, w, targets)), (g.edges, w, targets)
                        checked += 1
        assert checked > 250000

    def test_matches_flow_network_on_random_graphs(self):
        rng = random.Random(1956)
        for trial in range(400):
            n = rng.randint(6, 60)
            g = random_connected(n, min(1.0, (math.log(n) + rng.choice((1, 2, 4))) / n),
                                 seed=trial)
            for w in rng.sample(range(n), 3):
                others = [v for v in range(n) if v != w]
                targets = rng.sample(others, rng.randint(2, max(2, n // 3)))
                assert (disjoint_paths_outcome(two_disjoint_paths, g, w, targets)
                        == disjoint_paths_outcome(flow_network_disjoint_paths, g, w, targets)
                        ), (g.edges, w, targets)


class TestDisjointOddCycles:
    def test_shared_vertex(self):
        c1, c2, conn = disjoint_odd_cycles(two_triangles_shared_vertex())
        assert conn == (0,)
        assert c1[0] == 0 and c2[0] == 0
        assert {frozenset(c1), frozenset(c2)} == {frozenset({0, 1, 2}), frozenset({0, 3, 4})}

    def test_joined_by_path(self):
        g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                      (4, 5), (5, 6), (4, 6)])
        c1, c2, conn = disjoint_odd_cycles(g)
        assert conn == (2, 3, 4)
        assert set(c1) == {0, 1, 2} and set(c2) == {4, 5, 6}

    def test_single_odd_cycle_absent(self):
        assert disjoint_odd_cycles(cycle(5)) is None

    def test_one_odd_block_gives_the_whole_graph_cycle(self):
        # the other blocks are bipartite, so the odd block's own search
        # finds the cycle the whole graph's search would
        checked = 0
        for G in nx.graph_atlas_g():
            n = G.number_of_nodes()
            if n < 3 or not nx.is_connected(G):
                continue
            g = Graph(n, list(G.edges()))
            odd = list(decompose.decomposition(g).odd_blocks())
            if len(odd) == 1:
                assert odd[0][1] == shortest_odd_cycle(g), g.edges
                checked += 1
        assert checked == 865

    def test_one_odd_block_skips_the_whole_graph_search(self, monkeypatch):
        # a triangle with a square hung on vertex 2, and K5 with a leaf:
        # each block of 3 or more vertices is searched in its induced copy,
        # then the odd block minus its cycle, never the whole graph
        runs = []
        real = decompose._shortest_odd_cycle
        monkeypatch.setattr(decompose, "_shortest_odd_cycle",
                            lambda h, ends: runs.append(h) or real(h, ends))
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
        assert disjoint_odd_cycles(g) is None
        assert [h.n for h in runs] == [3, 4, 3] and g not in runs
        runs.clear()
        g = Graph(6, complete(5).edges + ((0, 5),))
        c1, c2, conn = disjoint_odd_cycles(g)
        assert {frozenset(c1), frozenset(c2)} == {frozenset({0, 1, 2}), frozenset({0, 3, 4})}
        assert conn == (0,)
        assert [h.n for h in runs] == [5, 5] and g not in runs

    def test_one_odd_block_matches_the_whole_graph_search(self):
        # the second cycle is searched in the odd block minus the first
        # cycle; the reference searches the whole graph minus its edges
        def reference(g, c1):
            used = {canonical_edge(x, c1[i - 1]) for i, x in enumerate(c1)}
            c2 = shortest_odd_cycle(Graph(g.n, [e for e in g.edges if e not in used]))
            return c2 and decompose._connect(g, c1, c2)

        def relabeled(n, edges, rng):
            perm = list(range(n))
            rng.shuffle(perm)
            return Graph(n, [(perm[u], perm[v]) for u, v in edges])

        def random_tree(vs, rng):
            return [(vs[i], vs[rng.randrange(i)]) for i in range(1, len(vs))]

        graphs = [Graph(G.number_of_nodes(), list(G.edges())) for G in nx.graph_atlas_g()
                  if G.number_of_nodes() >= 3 and nx.is_connected(G)]
        rng = random.Random(21)
        for _ in range(300):
            # a random tree plus up to n / 4 chords
            n = rng.randint(3, 120)
            edges = {canonical_edge(*e) for e in random_tree(list(range(n)), rng)}
            target = n - 1 + rng.randint(1, max(1, n // 4))
            while len(edges) < target:
                edges.add(canonical_edge(*rng.sample(range(n), 2)))
            graphs.append(relabeled(n, sorted(edges), rng))
        for n in (40, 80, 120, 160, 200):
            # auto-large's odd_core_trees: an odd cycle on a quarter of the
            # vertices with random trees hung from it
            length = (n // 4) | 1
            edges = [(i, (i + 1) % length) for i in range(length)]
            nxt = length
            while nxt < n:
                size = min(rng.randint(1, 12), n - nxt)
                edges += random_tree([rng.randrange(length)] + list(range(nxt, nxt + size)), rng)
                nxt += size
            graphs.append(relabeled(n, edges, rng))
            # auto-large's sparse3: a random tree, two planted triangles,
            # n / 2 chords and a pendant vertex
            body = list(range(n - 1))
            edges = {canonical_edge(*e) for e in random_tree(body, rng)}
            a = rng.sample(body, 6)
            edges |= {canonical_edge(a[i], a[j]) for i, j in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))}
            target = len(edges) + n // 2
            while len(edges) < target:
                edges.add(canonical_edge(*rng.sample(body, 2)))
            graphs.append(relabeled(n, sorted(edges) + [(rng.choice(body), n - 1)], rng))
        checked = found = 0
        for g in graphs:
            odd = list(islice(decompose.decomposition(g).odd_blocks(), 2))
            if len(odd) == 1:
                got = disjoint_odd_cycles(g)
                assert got == reference(g, odd[0][1]), (g.n, g.edges)
                checked += 1
                found += got is not None
        assert (checked, found) == (1100, 742)

    def test_postconditions_everywhere(self):
        for n in range(3, 7):
            for g in connected_graphs(n):
                found = disjoint_odd_cycles(g)
                if found is None:
                    continue
                c1, c2, conn = found
                e1 = {canonical_edge(c1[i], c1[(i + 1) % len(c1)]) for i in range(len(c1))}
                e2 = {canonical_edge(c2[i], c2[(i + 1) % len(c2)]) for i in range(len(c2))}
                assert len(c1) % 2 == 1 and len(c2) % 2 == 1
                assert not (e1 & e2)
                assert conn[0] in c1 and conn[-1] in c2
                assert not (set(conn[1:-1]) & (set(c1) | set(c2)))
                for i in range(len(conn) - 1):
                    assert g.has_edge(conn[i], conn[i + 1])


class TestContraction:
    def test_two_squares_middle_is_path3(self):
        cc = contract_core_graph(two_squares_with_middle())
        assert cc.graph.n == 3 and cc.graph.m == 2
        assert cc.is_path

    def test_cycle_contracts_to_point(self):
        cc = contract_core_graph(cycle(4))
        assert cc.graph.n == 1 and cc.graph.m == 0
        assert cc.is_path

    def test_star_not_path(self):
        cc = contract_core_graph(star(4))
        assert cc.graph.n == 4 and cc.graph.m == 3
        assert not cc.is_path

    def test_path_flag_iff_two_bridge_rule(self):
        for n in range(2, 7):
            for g in connected_graphs(n):
                cc = contract_core_graph(g)
                assert cc.is_path == meets_two_bridge_rule(bridgeless_core(g))
                # contraction is a tree
                assert cc.graph.m == cc.graph.n - 1
