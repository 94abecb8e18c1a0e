import os
import subprocess
import sys
from pathlib import Path

import pytest

from properwalk import (Graph, bridges, blocks, complete, connected_graphs,
                        cycle, path_anchored_orientation, path_graph,
                        robbins_orientation, theta)
from properwalk.orient import reaches


class TestRobbins:
    def test_cycle4_is_directed_cycle(self):
        d = robbins_orientation(cycle(4))
        assert all(len(d.out_neighbors(v)) == 1 for v in range(4))
        assert d.is_strongly_connected()

    def test_complete4_strong(self):
        d = robbins_orientation(complete(4))
        assert d.m == 6
        for v in range(4):
            assert reaches(d, v) == set(range(4))

    def test_bridge_rejected(self):
        with pytest.raises(ValueError, match="bridge"):
            robbins_orientation(path_graph(3))

    def test_bridge_rejected_under_python_O(self):
        # the strong-connectivity check is the only bridge check, so it must
        # not be an assert
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = ("from properwalk import path_graph, robbins_orientation\n"
                "try:\n    robbins_orientation(path_graph(3))\n"
                "except ValueError as exc:\n    print('raised:', exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: graph has a bridge")

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            robbins_orientation(Graph(1))

    def test_all_two_edge_connected_up_to_six(self):
        for n in range(3, 7):
            for g in connected_graphs(n):
                if bridges(g):
                    continue
                d = robbins_orientation(g)
                assert d.m == g.m
                assert d.is_strongly_connected()


class TestPathAnchoredOrientation:
    def test_forced_example(self):
        # path 0-1-2 plus vertex 3 adjacent to both ends
        h = Graph(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
        lo = path_anchored_orientation(h, (0, 1, 2))
        assert set(lo.arcs.arcs) == {(0, 1), (1, 2), (2, 3), (3, 0)}
        assert lo.anchors == {3: (2, 0)}

    def test_path_only(self):
        h = path_graph(3)
        lo = path_anchored_orientation(h, (0, 1, 2))
        assert set(lo.arcs.arcs) == {(0, 1), (1, 2)}
        assert lo.anchors == {}

    def test_single_contact_rejected(self):
        # vertex 2 meets the anchor path only at vertex 0
        h = Graph(4, [(0, 1), (0, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError):
            path_anchored_orientation(h, (0, 1))

    def test_bad_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            path_anchored_orientation(path_graph(3), (0, 2))

    @staticmethod
    def _check_properties(h, p, lo):
        pos = {v: i for i, v in enumerate(p)}
        # (a) the anchor path is oriented first-to-last
        for i in range(len(p) - 1):
            assert (p[i], p[i + 1]) in set(lo.arcs.arcs)
        # (b) the path start reaches everything
        assert reaches(lo.arcs, p[0]) == set(range(h.n))
        # (c) each pair is joined in at least one direction
        reach = [reaches(lo.arcs, v) for v in range(h.n)]
        for a in range(h.n):
            for b in range(a + 1, h.n):
                assert b in reach[a] or a in reach[b]
        # anchor soundness
        for w, (q, r) in lo.anchors.items():
            assert pos[q] > pos[r]
            assert w in reaches(lo.arcs, q)
            assert r in reach[w]

    def test_properties_on_two_connected_graphs(self):
        checked = 0
        for g in connected_graphs(5):
            if bridges(g) or len(blocks(g)) != 1:
                continue
            for e in g.edges[:3]:
                lo = path_anchored_orientation(g, e)
                self._check_properties(g, e, lo)
                checked += 1
        assert checked > 100

    def test_properties_on_theta_interiors(self):
        g = theta(4, 4, 3)
        # anchor on one outer arc
        p = (0, 1, 2, 3, 4)
        lo = path_anchored_orientation(g, p)
        self._check_properties(g, p, lo)
