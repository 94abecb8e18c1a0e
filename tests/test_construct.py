import os
import subprocess
import sys
from pathlib import Path

import pytest

from properwalk import (ConditionViolation, Graph, ThetaSubgraph, TwoOddLayout,
                        bipartition, bridges, classify_cycle_feet,
                        color_bipartite2, color_bridgeless2, color_cycle_feet2,
                        color_spanning_odd_cycle2, color_theta_block2,
                        color_tree, color_two_odd_cycles2, color_unicyclic3,
                        complete, connected_graphs, cycle, cycle_with_feet,
                        disjoint_odd_cycles, exact_pw, path_graph, pw_auto,
                        random_connected, reduce_theta, star, theta,
                        two_triangles_shared_vertex, verify_all_pairs)
from properwalk.graphs import canonical_edge


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


class TestColorTree:
    def test_star_needs_degree(self):
        res = color_tree(star(4))
        assert res.k == 3 and res.status == "exact"

    def test_path_alternates(self):
        res = color_tree(path_graph(4))
        assert res.k == 2
        cols = [res.coloring.color(i, i + 1) for i in range(3)]
        assert cols[0] != cols[1] and cols[1] != cols[2]

    def test_single_edge(self):
        assert color_tree(path_graph(2)).k == 1

    def test_not_tree_rejected(self):
        with pytest.raises(ValueError):
            color_tree(cycle(4))

    def test_proper_at_every_vertex(self):
        from properwalk import labeled_trees
        for t in labeled_trees(6):
            res = color_tree(t)
            assert res.k == t.max_degree()
            for v in range(t.n):
                seen = [res.coloring.color(v, w) for w in t.neighbors(v)]
                assert len(seen) == len(set(seen))


class TestColorUnicyclic3:
    def test_c5(self):
        res = color_unicyclic3(cycle(5))
        assert res.k == 3 and res.status == "upper-bound"

    def test_c6(self):
        assert color_unicyclic3(cycle(6)).k == 2

    def test_triangle_with_pendants(self):
        g = cycle_with_feet(3, [1, 1, 1])
        assert color_unicyclic3(g).k == 3

    def test_acyclic_rejected(self):
        with pytest.raises(ValueError):
            color_unicyclic3(path_graph(4))

    def test_at_most_three_on_all_cyclic(self):
        for n in range(3, 7):
            for g in connected_graphs(n):
                if g.is_tree():
                    continue
                assert color_unicyclic3(g).k <= 3


class TestColorBipartite2:
    def test_even_cycle(self):
        res = color_bipartite2(cycle(6))
        assert res.k == 2 and res.status == "exact"

    def test_star_violates(self):
        res = color_bipartite2(star(4))
        assert isinstance(res, ConditionViolation)
        assert res.component == frozenset({0}) and res.bridge_count == 3

    def test_two_squares_with_middle_bridges_differ(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3),
                 (5, 6), (6, 7), (7, 8), (5, 8),
                 (0, 4), (4, 5)]
        g = Graph(9, edges)
        res = color_bipartite2(g)
        assert res.k == 2
        # both bridges attach to the middle vertex, which is a single class;
        # equal classes force different bridge colors
        assert res.coloring.color(0, 4) != res.coloring.color(4, 5)

    def test_nonbipartite_rejected(self):
        with pytest.raises(ValueError, match="bipartite"):
            color_bipartite2(cycle(5))

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            color_bipartite2(path_graph(2))

    def test_exactness_against_solver(self):
        from properwalk import connected_bipartite_graphs
        for g in connected_bipartite_graphs(6):
            res = color_bipartite2(g)
            if isinstance(res, ConditionViolation):
                assert exact_pw(g, max_k=6).k != 2
            else:
                assert exact_pw(g, max_k=6).k <= 2

    def test_doubles_as_path_coloring(self):
        # on a bipartite graph a 2-colored walk shortcuts to a path, so the
        # same coloring connects all pairs by properly colored simple paths
        from properwalk import path_reachable
        for g in (cycle(6), cycle(8), path_graph(5),
                  Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (4, 5), (3, 5)]),
                  Graph(9, [(0, 1), (1, 2), (2, 3), (0, 3),
                            (5, 6), (6, 7), (7, 8), (5, 8), (0, 4), (4, 5)])):
            res = color_bipartite2(g)
            assert not isinstance(res, ConditionViolation)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert path_reachable(g, res.coloring, u, v), (g.edges, u, v)


class TestColorTwoOddCycles2:
    def test_shared_vertex(self):
        g = two_triangles_shared_vertex()
        layout = TwoOddLayout(*disjoint_odd_cycles(g))
        assert color_two_odd_cycles2(g, layout).k == 2

    def test_odd_connector_far_edges_red(self):
        # two triangles joined by a single edge: connector length 1 is odd
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)])
        layout = TwoOddLayout(*disjoint_odd_cycles(g))
        res = color_two_odd_cycles2(g, layout)
        u2 = layout.connector[-1]
        cyc = layout.cycle_b
        c_first = res.coloring.color(cyc[0], cyc[1])
        c_last = res.coloring.color(cyc[-1], cyc[0])
        assert (len(layout.connector) - 1) % 2 == 1
        assert u2 == cyc[0] and c_first == c_last == 1  # red

    def test_even_connector_far_edges_blue(self):
        # two pentagons joined by a length-2 path
        e = [(i, (i + 1) % 5) for i in range(5)]
        e += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        e += [(0, 10), (10, 5)]
        g = Graph(11, e)
        layout = TwoOddLayout(*disjoint_odd_cycles(g))
        res = color_two_odd_cycles2(g, layout)
        cyc = layout.cycle_b
        assert (len(layout.connector) - 1) % 2 == 0
        assert res.coloring.color(cyc[0], cyc[1]) == 2  # blue

    def test_hub_vertices_touch_both_colors(self):
        g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                      (4, 5), (5, 6), (4, 6)])
        layout = TwoOddLayout(*disjoint_odd_cycles(g))
        res = color_two_odd_cycles2(g, layout)
        hub_edges = set()
        for cyc in (layout.cycle_a, layout.cycle_b):
            hub_edges |= {canonical_edge(cyc[i], cyc[(i + 1) % len(cyc)])
                          for i in range(len(cyc))}
        conn = layout.connector
        hub_edges |= {canonical_edge(conn[i], conn[i + 1]) for i in range(len(conn) - 1)}
        seen = {v: set() for v in set(layout.cycle_a) | set(layout.cycle_b) | set(conn)}
        for u, v in hub_edges:
            col = res.coloring.color(u, v)
            seen[u].add(col)
            seen[v].add(col)
        assert all(s == {1, 2} for s in seen.values())

    def test_complete_rejected(self):
        g = complete(5)
        found = disjoint_odd_cycles(g)
        assert found is not None
        with pytest.raises(ValueError, match="complete"):
            color_two_odd_cycles2(g, TwoOddLayout(*found))


class TestSpanningOddCycle:
    def test_c5_break_pattern(self):
        res = color_spanning_odd_cycle2(cycle(5), (0, 1, 2, 3, 4))
        cols = [res.coloring.color(i, (i + 1) % 5) for i in range(5)]
        assert cols == [1, 2, 1, 2, 2]

    def test_c7_with_chord(self):
        g = Graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
        res = color_spanning_odd_cycle2(g, tuple(range(7)))
        assert res.k == 2 and res.coloring.color(0, 3) == 1

    def test_triangle_rejected(self):
        with pytest.raises(ValueError):
            color_spanning_odd_cycle2(cycle(3), (0, 1, 2))


class TestReduceTheta:
    def test_theta_fixed_point(self):
        g = theta(2, 2, 1)
        t = reduce_theta(g)
        assert isinstance(t, ThetaSubgraph)
        assert sorted(t.cycle) == [0, 1, 2, 3]
        assert set(t.inverter) == {0, 2}

    def test_complete4(self):
        t = reduce_theta(complete(4))
        assert isinstance(t, ThetaSubgraph)
        assert len(t.cycle) == 4 and len(t.inverter) == 2

    def test_k4_minus_edge(self):
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        t = reduce_theta(g)
        assert isinstance(t, ThetaSubgraph)
        assert set(t.inverter) == {2, 3}

    def test_descent_shortens_inverter(self):
        # 8-cycle, inverter 0-8-9-4, plus a triangle chord path 8-11-9 that
        # forces one descent step down to the single edge (8, 9)
        e = [(i, (i + 1) % 8) for i in range(8)]
        e += [(0, 8), (8, 9), (9, 4)]
        e += [(8, 10), (10, 9)]
        g = Graph(11, e)
        t = reduce_theta(g)
        assert isinstance(t, ThetaSubgraph)
        assert set(t.inverter) == {8, 9}

    def test_escape_to_two_odd_layout(self):
        # a pentagon living entirely off the outer cycle shares no edge with
        # the inverter, so the reduction hands back two odd cycles instead
        e = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3),
             (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (4, 8), (2, 6)]
        g = Graph(9, e)
        out = reduce_theta(g)
        assert isinstance(out, TwoOddLayout)
        assert sorted(out.cycle_a) == [4, 5, 6, 7, 8]
        assert sorted(out.cycle_b) == [0, 1, 2]
        assert color_two_odd_cycles2(g, out).k == 2
        assert color_theta_block2(g).k == 2

    def test_broken_theta_rejected_under_python_O(self):
        # every theta the descent builds is checked before a coloring is
        # assembled on it, so the check must not be an assert
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = ("from properwalk import Graph, ThetaSubgraph, theta\n"
                "from properwalk.construct import _check_theta\n"
                "g = theta(2, 2, 1)\n"       # outer 0-1-2-3, chord 0-2
                "h = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])\n"
                "for graph, t in [(g, ThetaSubgraph((0, 1, 2), (0, 2))),\n"
                "                 (g, ThetaSubgraph((0, 1, 2, 3), (1, 3))),\n"
                "                 (h, ThetaSubgraph(tuple(range(6)), (0, 3))),\n"
                "                 (g, ThetaSubgraph((0, 1, 2, 3), (0, 2)))]:\n"
                "    try:\n        _check_theta(graph, t)\n"
                "    except AssertionError as exc:\n        print('raised:', exc)\n"
                "    else:\n        print('passed')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised: not a theta subgraph: outer cycle has odd length or fewer than 4 vertices: (0, 1, 2)",
            "raised: not a theta subgraph: inverter edge (1, 3) missing",
            "raised: not a theta subgraph: inverter and outer arc close an even cycle,"
            " so the theta is bipartite",
            "passed",
        ]

    def test_descent_guard_raises_under_python_O(self):
        # a stray odd cycle that meets the inverter in under two vertices
        # cannot be descended along; the guard must not be an assert
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = ("from properwalk import ThetaSubgraph, theta\n"
                "from properwalk.construct import _descend\n"
                "g = theta(2, 2, 1)\n"       # outer 0-1-2-3, chord 0-2
                "try:\n    _descend(g, ThetaSubgraph((0, 1, 2, 3), (0, 2)), (1, 3, 2))\n"
                "except AssertionError as exc:\n    print('raised:', exc)\n"
                "else:\n    print('returned')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised: stray cycle shares an edge but not two inverter vertices"]


class TestColorThetaBlock2:
    def test_spanning_branch(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)])
        assert color_theta_block2(g).k == 2

    def test_theta_family(self):
        for params in ((2, 2, 1), (2, 4, 1), (4, 4, 3), (3, 3, 2), (1, 3, 2)):
            g = theta(*params)
            res = color_theta_block2(g)
            assert res.k == 2 and res.status == "exact"

    def test_petersen(self):
        res = color_theta_block2(petersen())
        assert res.k == 2 and res.status == "exact"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            color_theta_block2(complete(4))
        with pytest.raises(ValueError):
            color_theta_block2(cycle(6))
        with pytest.raises(ValueError):
            color_theta_block2(two_triangles_shared_vertex())

    def test_trapped_region_behind_inverter(self):
        # vertices reaching the outer cycle only through the inverter
        # interior take the oriented head coloring; too big to appear in the
        # exhaustive small-graph sweeps, so exercised directly
        base = theta(4, 4, 5)  # outer 8-cycle, inverter 0-8-9-10-11-4
        g = Graph(14, list(base.edges) + [(8, 12), (12, 10), (9, 13), (13, 11)])
        t = reduce_theta(g)
        assert isinstance(t, ThetaSubgraph)
        trapped = set(range(g.n)) - set(t.cycle) - set(t.interior)
        assert trapped == {12, 13}
        assert color_theta_block2(g).k == 2
        # chained two deep
        g2 = Graph(14, list(base.edges) + [(8, 12), (12, 10), (12, 13), (13, 9)])
        assert color_theta_block2(g2).k == 2

    def test_all_two_connected_nonbipartite(self):
        from properwalk import blocks
        for n in range(3, 7):
            for g in connected_graphs(n):
                if (g.is_complete() or bridges(g) or len(blocks(g)) != 1
                        or bipartition(g) is not None):
                    continue
                res = color_theta_block2(g)
                assert res.k == 2


class TestColorBridgeless2:
    def test_even_cycle(self):
        res = color_bridgeless2(cycle(6))
        assert res.k == 2 and res.provenance == "bridgeless: bipartite"

    def test_two_triangles(self):
        res = color_bridgeless2(two_triangles_shared_vertex())
        assert res.k == 2 and "two odd" in res.provenance

    def test_triangle_with_square(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
        res = color_bridgeless2(g)
        assert res.k == 2 and "one odd block" in res.provenance

    def test_complete_one_color(self):
        res = color_bridgeless2(complete(5))
        assert res.k == 1 and res.status == "exact"

    def test_bridge_rejected(self):
        with pytest.raises(ValueError, match="bridge"):
            color_bridgeless2(path_graph(3))


class TestCycleFeet:
    def test_two_feet_one_vertex(self):
        g = cycle_with_feet(3, [2, 0, 0])
        shape = classify_cycle_feet(g)
        assert shape.member and shape.two_colors
        assert shape.witness[1] == 0  # the loaded vertex is the center

    def test_two_feet_on_two_vertices(self):
        shape = classify_cycle_feet(cycle_with_feet(3, [2, 2, 0]))
        assert shape.member and not shape.two_colors

    def test_two_feet_always_two_colors_on_c5(self):
        # any two single feet on a 5-cycle sit inside some consecutive
        # triple, so two colors always suffice (confirmed by the solver)
        for feet in ([1, 0, 1, 0, 0], [1, 1, 0, 0, 0], [1, 0, 0, 1, 0]):
            g = cycle_with_feet(5, feet)
            shape = classify_cycle_feet(g)
            assert shape.member and shape.two_colors
            assert color_cycle_feet2(g, shape).k == 2
            assert exact_pw(g).k == 2

    def test_three_spread_feet_need_three(self):
        g = cycle_with_feet(5, [1, 0, 1, 0, 1])
        shape = classify_cycle_feet(g)
        assert shape.member and not shape.two_colors
        assert exact_pw(g).k == 3

    def test_adjacent_feet_ok(self):
        # feet on vertices two apart: u and w of a centered triple
        g = cycle_with_feet(5, [1, 0, 0, 0, 1])
        shape = classify_cycle_feet(g)
        assert shape.two_colors
        assert color_cycle_feet2(g, shape).k == 2

    def test_non_members(self):
        assert not classify_cycle_feet(cycle(5)).member          # no feet
        assert not classify_cycle_feet(complete(4)).member
        assert not classify_cycle_feet(path_graph(4)).member
        shape = classify_cycle_feet(Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]))
        assert not shape.member                                   # even core

    def test_coloring_examples(self):
        for n, feet in ((3, [1, 1, 1]), (5, [2, 0, 0, 0, 0]), (5, [1, 1, 0, 0, 0])):
            g = cycle_with_feet(n, feet)
            shape = classify_cycle_feet(g)
            assert shape.two_colors, (n, feet)
            assert color_cycle_feet2(g, shape).k == 2

    def test_witness_required(self):
        g = cycle_with_feet(3, [2, 2, 0])
        with pytest.raises(ValueError):
            color_cycle_feet2(g, classify_cycle_feet(g))


class TestPwAuto:
    def test_complete(self):
        res = pw_auto(complete(5))
        assert (res.k, res.status) == (1, "exact")

    def test_star(self):
        res = pw_auto(star(5))
        assert (res.k, res.status) == (4, "exact")

    def test_single_vertex_and_edge(self):
        assert pw_auto(Graph(1)).k == 1
        assert pw_auto(path_graph(2)).k == 1

    def test_two_triangles_with_pendant_bridge(self):
        g = Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (2, 6), (6, 3), (6, 7)])
        res = pw_auto(g)
        assert res.k == 2 and res.status == "exact"
        assert exact_pw(g).k == 2

    def test_bipartite_violator_is_three(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6)])
        res = pw_auto(g)
        assert (res.k, res.status) == (3, "exact")
        assert exact_pw(g).k == 3

    def test_everything_verifies(self):
        for seed in range(30):
            g = random_connected(7, 0.35, seed=seed)
            res = pw_auto(g)
            assert verify_all_pairs(g, res.coloring)[0]
            assert res.status in ("exact", "upper-bound")

    def test_cyclic_bound_three(self):
        for n in range(3, 7):
            for g in connected_graphs(n):
                if not g.is_tree():
                    assert pw_auto(g).k <= 3

    def test_upper_bound_route_for_large_bridged_graphs(self):
        # complete bipartite 4x5 plus one odd chord: every odd cycle uses
        # that chord, so no two edge-disjoint odd cycles exist; a pendant
        # adds a bridge and the 22 edges exceed the exhaustive budget
        edges = [(a, 4 + b) for a in range(4) for b in range(5)]
        edges += [(0, 1), (4, 9)]
        g = Graph(10, edges)
        assert bridges(g) and bipartition(g) is None
        res = pw_auto(g)
        assert res.status == "upper-bound"
        assert verify_all_pairs(g, res.coloring)[0]
        # with a raised budget the same graph resolves exactly
        res2 = pw_auto(g, exhaustive_budget=22)
        assert res2.status == "exact" and res2.k == 2
