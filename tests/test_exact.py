import ast
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import properwalk.exact as exact
from properwalk import (BudgetExceededError, Digraph, EdgeColoring, Graph,
                        bowtie_digraph, canonical_colorings, complete,
                        connected_bipartite_graphs, connected_graphs, cycle,
                        cycle_with_feet, directed_cycle, exact_directed,
                        exact_pp, exact_pw, exact_pw_pp, labeled_trees,
                        path_graph, star,
                        theta, verify_all_pairs, verify_all_pairs_directed)


def unpruned_minimum(g, max_k):
    """Independent oracle: try every coloring (no symmetry reduction)."""
    for k in range(1, max_k + 1):
        for colors in product(range(1, k + 1), repeat=g.m):
            col = EdgeColoring(k, dict(zip(g.edges, colors)))
            if verify_all_pairs(g, col)[0]:
                return k
    return None


class TestCanonicalEnumeration:
    def test_two_color_count(self):
        for m in range(1, 10):
            assert sum(1 for _ in canonical_colorings(m, 2)) == 2 ** (m - 1)

    def test_first_edge_pinned_and_growth_restricted(self):
        for colors in canonical_colorings(5, 3):
            assert colors[0] == 1
            top = 1
            for c in colors:
                assert c <= top + 1
                top = max(top, c)

    def test_lexicographic_order(self):
        seqs = list(canonical_colorings(3, 3))
        assert seqs == sorted(seqs)
        assert seqs[0] == (1, 1, 1) and seqs[-1] == (1, 2, 3)


class TestExactPw:
    def test_complete4(self):
        res = exact_pw(complete(4))
        assert res.k == 1

    def test_star_explored_count(self):
        # levels: 1 coloring at k=1, 4 at k=2, then the fifth canonical
        # 3-coloring (1,2,3) is the first to pass
        res = exact_pw(star(4))
        assert res.k == 3 and res.explored == 10

    def test_cycle4(self):
        assert exact_pw(cycle(4)).k == 2

    def test_heavy_feet_need_three(self):
        assert exact_pw(cycle_with_feet(3, [2, 2, 0])).k == 3

    def test_witness_verifies(self):
        for g in (cycle(5), theta(2, 2, 1), star(5), path_graph(6)):
            res = exact_pw(g, max_k=5)
            assert verify_all_pairs(g, res.witness)[0]
            assert res.witness.k == res.k

    def test_explored_counter_matches_independent_replay(self):
        # replay the enumeration order with the BFS verifier and count how
        # many candidates the solver must have tested
        for g in (cycle(4), cycle(5), theta(2, 2, 1)):
            expected = 1  # the single level-1 coloring fails (noncomplete)
            for colors in canonical_colorings(g.m, 2):
                expected += 1
                col = EdgeColoring(2, dict(zip(g.edges, colors)))
                if verify_all_pairs(g, col)[0]:
                    break
            assert exact_pw(g).explored == expected

    def test_level_two_exhausts_all_candidates(self):
        g = cycle_with_feet(3, [2, 2, 0])  # needs three colors, 7 edges
        res = exact_pw(g)
        assert res.k == 3
        assert res.explored > 1 + 2 ** (g.m - 1)

    def test_witness_is_canonically_smallest(self):
        g = cycle(4)
        res = exact_pw(g)
        seq = tuple(res.witness.assignment[e] for e in g.edges)
        for colors in canonical_colorings(g.m, res.k):
            if colors == seq:
                break
            col = EdgeColoring(res.k, dict(zip(g.edges, colors)))
            assert not verify_all_pairs(g, col)[0]

    def test_exceeds_max_k(self):
        assert exact_pw(star(5), max_k=3) is None

    def test_budget_guard(self):
        big = complete(8)
        g = Graph(8, [e for e in big.edges if e != (6, 7)])  # 27 edges, not complete
        with pytest.raises(BudgetExceededError):
            exact_pw(g, max_k=2)

    def test_budget_override(self):
        g = cycle(6)
        res = exact_pw(g, max_k=2, budgets={2: 6})
        assert res.k == 2
        with pytest.raises(BudgetExceededError):
            exact_pw(g, max_k=2, budgets={2: 5})

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            exact_pw(Graph(3, [(0, 1)]))

    def test_single_vertex(self):
        res = exact_pw(Graph(1))
        assert res.k == 1

    def test_agrees_with_unpruned_enumerator(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                if g.m > 4:
                    continue
                want = unpruned_minimum(g, 4)
                got = exact_pw(g, max_k=4)
                assert got.k == want


class TestExactPp:
    def test_path3(self):
        assert exact_pp(path_graph(3)).k == 2

    def test_complete4(self):
        assert exact_pp(complete(4)).k == 1

    def test_never_below_walk_count(self):
        for g in (path_graph(4), cycle(5), cycle(6), star(4), theta(2, 2, 1),
                  cycle_with_feet(3, [1, 1, 1])):
            w = exact_pw(g, max_k=4).k
            p = exact_pp(g, max_k=4).k
            assert w <= p

    def test_matches_walk_count_on_bipartite(self):
        for g in connected_bipartite_graphs(5):
            assert exact_pp(g, max_k=5).k == exact_pw(g, max_k=5).k

    def test_vertex_guard(self):
        with pytest.raises(ValueError, match="limited"):
            exact_pp(path_graph(11))


def bipartite_sample(n, count, seed):
    """Seeded connected bipartite graphs on n vertices: a random side for
    each vertex but 0, then each cross pair an edge with probability 1/2."""
    rng = random.Random(seed)
    while count:
        side = {0} | {v for v in range(1, n) if rng.random() < 0.5}
        g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                      if (a in side) != (b in side) and rng.random() < 0.5])
        if g.is_connected():
            count -= 1
            yield g


class TestExactPwPp:
    """One enumeration for both answers, byte for byte what exact_pw and
    exact_pp return one after the other."""

    @staticmethod
    def check(g, max_k, budgets=None):
        want = (fingerprint(exact_pw(g, max_k, budgets)), fingerprint(exact_pp(g, max_k, budgets)))
        assert tuple(map(fingerprint, exact_pw_pp(g, max_k, budgets))) == want, g.edges

    def test_every_small_graph(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                self.check(g, max(3, g.max_degree()))
                self.check(g, 2)            # also the searches that fail

    def test_trees(self):
        # every tree up to 6 vertices; the 16 807 labeled 7-vertex trees
        # would take 40 s, so a seeded fifteenth of them
        rng = random.Random(7)
        for n in range(2, 8):
            for t in labeled_trees(n):
                if n < 7 or rng.random() < 1 / 15:
                    self.check(t, t.max_degree())

    def test_seven_vertex_bipartite_sample(self):
        for g in bipartite_sample(7, 300, 7):
            self.check(g, max(3, g.max_degree()))

    def test_raises_what_either_raises(self):
        with pytest.raises(ValueError, match="not connected"):
            exact_pw_pp(Graph(3, [(0, 1)]))
        with pytest.raises(ValueError, match="limited"):
            exact_pw_pp(path_graph(11))
        # pW = 2 here, pP = 3: only the path search reaches level 3
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        assert exact_pw(g, budgets={3: 4}).k == 2
        with pytest.raises(BudgetExceededError):
            exact_pp(g, budgets={3: 4})
        with pytest.raises(BudgetExceededError, match="k=3"):
            exact_pw_pp(g, budgets={3: 4})
        with pytest.raises(BudgetExceededError, match="k=2"):
            exact_pw_pp(g, budgets={2: 4})


class TestExactDirected:
    def test_directed_odd_cycle_needs_three(self):
        d = directed_cycle(5)
        assert exact_directed(d, "walk").k == 3
        assert exact_directed(d, "path").k == 3

    def test_bowtie_split(self):
        d = bowtie_digraph()
        walk = exact_directed(d, "walk")
        assert walk.k == 2
        assert verify_all_pairs_directed(d, walk.witness)[0]
        assert exact_directed(d, "path").k == 3

    def test_not_strong_rejected(self):
        d = bowtie_digraph()
        from properwalk import Digraph
        broken = Digraph(5, [a for a in d.arcs if a != (2, 0)])
        with pytest.raises(ValueError, match="strongly"):
            exact_directed(broken, "walk")

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            exact_directed(directed_cycle(3), "stroll")


class TestIterators:
    def test_connected_counts(self):
        # classic labeled connected graph counts
        assert sum(1 for _ in connected_graphs(1)) == 1
        assert sum(1 for _ in connected_graphs(2)) == 1
        assert sum(1 for _ in connected_graphs(3)) == 4
        assert sum(1 for _ in connected_graphs(4)) == 38
        assert sum(1 for _ in connected_graphs(5)) == 728

    def test_tree_counts_match_cayley(self):
        for n in range(1, 7):
            assert sum(1 for _ in labeled_trees(n)) == max(1, n ** (n - 2))

    def test_trees_are_trees(self):
        for t in labeled_trees(5):
            assert t.is_tree()

    def test_bipartite_iterator_sound_and_complete(self):
        from properwalk import bipartition
        got = set(connected_bipartite_graphs(5))
        expect = {g for g in connected_graphs(5) if bipartition(g) is not None}
        assert got == expect


def scc_digraphs(max_n):
    """Every strongly connected labeled digraph with 2..max_n vertices."""
    for n in range(2, max_n + 1):
        slots = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1, 1 << len(slots)):
            d = Digraph(n, [a for i, a in enumerate(slots) if mask >> i & 1])
            if d.is_strongly_connected():
                yield d


def spider(legs, length):
    edges, nxt = [], 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Graph(nxt, edges)


class TestBlockKernel:
    """The numpy block kernel against the per-coloring check, verify's SCC
    pass, lane by lane."""

    @staticmethod
    def assert_lanes_match(n, pairs, bidirectional, ks=(1, 2, 3)):
        nbrs = exact._neighbor_table(n, pairs, bidirectional)
        for k in ks:
            seqs = list(canonical_colorings(len(pairs), k))
            lanes = np.array(seqs, dtype=np.uint8).reshape(len(seqs), len(pairs))
            want = [exact._first_failure([[(y, s[e]) for y, e in row] for row in nbrs], k) is None
                    for s in seqs]
            assert exact._block_ok(k, nbrs, lanes).tolist() == want, (pairs, k)

    def test_every_coloring_of_small_graphs(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                self.assert_lanes_match(g.n, g.edges, True)

    def test_every_coloring_of_small_digraphs(self):
        for d in scc_digraphs(3):
            self.assert_lanes_match(d.n, d.arcs, False)

    def test_four_colors(self):
        # k = 4 is the first level whose avail rows OR three other colors
        for n in range(1, 5):
            for g in connected_graphs(n):
                self.assert_lanes_match(g.n, g.edges, True, ks=(4,))
        for d in scc_digraphs(3):
            self.assert_lanes_match(d.n, d.arcs, False, ks=(4,))

    def test_blocks_follow_canonical_order(self, monkeypatch):
        # fake checks that pass chosen colorings, several per 16-lane block,
        # across block and prefix boundaries and on both sides of _HEAD: the
        # level must yield exactly those, in order, at their positions, with
        # the numpy blocks and without them
        monkeypatch.setattr(exact, "_LANES", 16)
        for numpy in (np, None):
            monkeypatch.setattr(exact, "_np", numpy)
            blocks = []
            for m, k in ((8, 2), (9, 2), (6, 3), (7, 3), (6, 4)):
                seqs = list(canonical_colorings(m, k))
                chosen = sorted({p for p in range(len(seqs)) if p % 5 == 0 or p % 7 == 3}
                                | {exact._HEAD - 1, exact._HEAD, len(seqs) - 1})
                passing = {seqs[p] for p in chosen}
                # vertex 0 carries every edge, so its colored row spells the coloring
                nbrs = [[(1, e) for e in range(m)], []]
                pairs = [(0, e + 1) for e in range(m)]
                monkeypatch.setattr(exact, "_first_failure", lambda adj, k:
                                    None if tuple(c for _, c in adj[0]) in passing else (0, 1))
                monkeypatch.setattr(exact, "_block_ok", lambda k, nbrs, lanes: blocks.append(1)
                                    or np.array([tuple(row) in passing for row in lanes.tolist()]))
                stream, count = drain(exact._level(k, pairs, nbrs, [], 100))
                assert count == len(seqs)
                assert [(r.k, r.explored, tuple(c for _, c in sorted(r.witness.assignment.items())))
                        for r in stream] == [(k, 100 + p + 1, seqs[p]) for p in chosen]
            assert bool(blocks) == (numpy is not None)


class TestKernelFieldWidths:
    """The block kernel against verify's SCC pass, lane by lane, where the
    number of vertices changes the width of a lane's field."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 63])
    def test_boundaries(self, n, directed):
        # n = 8/9, 16/17 and 32/33 straddle the 1-, 2- and 4-byte lane fields
        # and 63 nearly fills the 8-byte one; 37 lanes are not a multiple of 8.
        # The base is a path 0 - 1 - ... - n-1, both arcs of each step on a
        # digraph, plus n // 2 random chords; a lane that alternates colors
        # 1 and 2 along the path passes whatever the chords get, and the lane
        # of all ones fails.
        rng = random.Random(n)
        path = [(i, i + 1) for i in range(n - 1)]
        chords = rng.sample([(u, v) for u in range(n) for v in range(u + 2, n)], n // 2)
        if directed:
            path += [(v, u) for u, v in path]
            chords = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in chords]
        pairs = path + chords
        nbrs = exact._neighbor_table(n, pairs, not directed)
        for k in (1, 2, 3, 4):
            rows = [[1] * len(pairs)]
            for i in range(36):
                chord_colors = [rng.randint(1, k) for _ in chords]
                if i % 3 == 0 and k >= 2:
                    rows.append([1 + min(u, v) % 2 for u, v in path] + chord_colors)
                else:
                    rows.append([rng.randint(1, k) for _ in path] + chord_colors)
            rng.shuffle(rows)
            lanes = np.array(rows, dtype=np.uint8)
            want = [exact._first_failure([[(y, s[e]) for y, e in row] for row in nbrs], k) is None
                    for s in rows]
            assert exact._block_ok(k, nbrs, lanes).tolist() == want, k
            assert (True in want) == (k >= 2) and False in want
        # with one color only a complete graph or digraph passes
        pairs = [(u, v) for u in range(n) for v in range(n) if u < v or directed and u != v]
        nbrs = exact._neighbor_table(n, pairs, not directed)
        lanes = np.ones((5, len(pairs)), dtype=np.uint8)
        assert exact._block_ok(1, nbrs, lanes).tolist() == [True] * 5


def drain(gen):
    """The items a generator yields and the value it returns."""
    items = []
    while True:
        try:
            items.append(next(gen))
        except StopIteration as stop:
            return items, stop.value


class TestDeadEnds:
    """The leaf rule may reject only colorings that verify's SCC pass also
    rejects, and the lane filter must agree with it row by row."""

    @staticmethod
    def fired(n, pairs, bidirectional):
        nbrs = exact._neighbor_table(n, pairs, bidirectional)
        dead = exact._dead_ends(nbrs)
        count = 0
        for k in (1, 2, 3):
            seqs = list(canonical_colorings(len(pairs), k))
            stranded = [exact._strands_leaf(dead, s) for s in seqs]
            for s, hit in zip(seqs, stranded):
                if hit:
                    adj = [[(y, s[e]) for y, e in row] for row in nbrs]
                    assert exact._first_failure(adj, k) is not None, (pairs, s)
            lanes = np.array(seqs, dtype=np.uint8).reshape(len(seqs), len(pairs))
            live = [i for i, hit in enumerate(stranded) if not hit]
            assert exact._live_lanes(dead, lanes).tolist() == live, (pairs, k)
            count += sum(stranded)
        return count

    def test_sound_on_every_small_coloring(self):
        fired = sum(self.fired(g.n, g.edges, True) for n in range(1, 6)
                    for g in connected_graphs(n))
        fired += sum(self.fired(d.n, d.arcs, False) for d in scc_digraphs(3))
        assert fired > 0

    def test_silent_on_two_vertices(self):
        # both walks of P_2 and of the 2-cycle end at once, yet every pair
        # is joined: the rule needs a third vertex
        assert self.fired(2, [(0, 1)], True) == 0
        assert self.fired(2, [(0, 1), (1, 0)], False) == 0


def fingerprint(res):
    if res is None:
        return None
    return res.k, res.explored, sorted(res.witness.assignment.items())


CWF_REFUTED = [cycle_with_feet(3, legs) for legs in ([3, 3, 2], [3, 3, 3], [4, 3, 3])]
PP_RESUMED = [Graph(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3)]),
              Graph(8, [(0, 7), (1, 6), (2, 3), (2, 6), (2, 7), (3, 7), (4, 6), (5, 6), (5, 7)]),
              Graph(9, [(0, 6), (0, 8), (1, 2), (1, 4), (1, 8), (2, 3), (2, 6), (4, 5),
                        (4, 7), (4, 8), (7, 8)])]
DIRECTED_RESUMED = Digraph(5, [(0, 3), (1, 0), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2),
                               (4, 1), (4, 3)])


class TestBlockSearchMatchesPython:
    """Solvers with the numpy blocks against the same solvers with the
    one-at-a-time SCC-pass search forced, on searches that run past the
    head."""

    @pytest.fixture
    def both(self, monkeypatch):
        calls = []
        block_ok = exact._block_ok
        monkeypatch.setattr(exact, "_block_ok", lambda *args: calls.append(1) or block_ok(*args))

        def run(solve):
            calls.clear()
            batched = solve()
            assert calls, "the search never reached the numpy blocks"
            with monkeypatch.context() as py:
                py.setattr(exact, "_np", None)
                reference = solve()
            return batched, reference
        return run

    def test_refutations_past_the_head(self, both):
        # level 2 is refuted in full: compare the whole level's search
        for g in CWF_REFUTED:
            assert g.m in (11, 12, 13)

            def level2(g=g):
                nbrs = exact._neighbor_table(g.n, g.edges, True)
                return drain(exact._level(2, g.edges, nbrs, exact._dead_ends(nbrs), 0))
            batched, reference = both(level2)
            assert batched == reference == ([], 2 ** (g.m - 1))
        batched, reference = both(lambda: exact_pw(CWF_REFUTED[0], max_k=3))
        assert batched.k == 3 and fingerprint(batched) == fingerprint(reference)

    def test_spider(self, both):
        g = spider(4, 2)
        assert g.m == 8
        batched, reference = both(lambda: exact_pw(g, max_k=4))
        assert batched.k == 4 and fingerprint(batched) == fingerprint(reference)

    def test_pp_resumes_after_a_path_failure(self, both):
        for g in PP_RESUMED:
            batched, reference = both(lambda g=g: exact_pp(g, max_k=3))
            assert fingerprint(batched) == fingerprint(reference)

    def test_directed_walk_and_path(self, both):
        # in path mode the first walk-passing coloring fails the path check
        for mode in ("walk", "path"):
            batched, reference = both(lambda: exact_directed(DIRECTED_RESUMED, mode))
            assert fingerprint(batched) == fingerprint(reference)

    def test_blocks_with_every_lane_stranded(self, both, monkeypatch):
        # with 8 lanes a block of spider(3, 3) holds several prefixes,
        # and a prefix that colors a leaf's edge like the other edge at its
        # neighbour strands the leaf in every lane; such blocks skip the
        # kernel, and in others stranded lanes come before the passing one
        monkeypatch.setattr(exact, "_LANES", 8)
        sizes = []
        live_lanes = exact._live_lanes

        def recorded(dead, lanes):
            live = live_lanes(dead, lanes)
            sizes.append(len(live))
            return live
        monkeypatch.setattr(exact, "_live_lanes", recorded)
        g = spider(3, 3)
        batched, reference = both(lambda: exact_pw(g, max_k=3))
        assert 0 in sizes
        assert batched.k == 3 and fingerprint(batched) == fingerprint(reference)


KERNEL_LIES = """
import numpy
import properwalk.exact as exact
from properwalk import cycle, cycle_with_feet
assert not __debug__, "asserts are on"
exact._first_failure = lambda *args: None  # a head that accepts everything
try:
    exact.exact_pw(cycle(5), max_k=2)
except AssertionError as exc:
    print("raised:", exc)
else:
    print("returned")
# the Python head rejects everything and the block kernel accepts every lane
exact._first_failure = lambda *args: (0, 1)
exact._block_ok = lambda k, nbrs, lanes: numpy.ones(len(lanes), dtype=bool)
try:
    exact.exact_pw(cycle_with_feet(3, [3, 3, 2]), max_k=2)
except AssertionError as exc:
    print("raised:", exc)
else:
    print("returned")
"""


def run_snippet(code, *flags):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_kernel_check_survives_python_O():
    """The verifier's veto on a kernel witness is an explicit raise, so it
    still guards exact_pw when python -O strips asserts."""
    lines = run_snippet(KERNEL_LIES, "-O").splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("raised: kernel accepted a coloring the verifier rejects")


WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
import properwalk.exact as exact
from properwalk import cycle_with_feet
assert exact._np is None
res = exact.exact_pw(cycle_with_feet(3, [3, 3, 2]), max_k=3)
print(repr((res.k, res.explored, sorted(res.witness.assignment.items()))))
"""


def test_without_numpy_matches_numpy():
    res = exact_pw(cycle_with_feet(3, [3, 3, 2]), max_k=3)
    assert res.explored > exact._HEAD
    assert run_snippet(WITHOUT_NUMPY).strip() == repr(fingerprint(res))


def test_oracle_imports_no_construction_code():
    """The oracle that tests the paper's theorems must not lean on the code
    that implements them: exact.py imports only .graphs and .verify."""
    tree = ast.parse(Path(exact.__file__).read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.startswith("properwalk")]
    assert relative == {"graphs", "verify"} and not absolute
