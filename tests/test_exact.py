import ast
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import properwalk.exact as exact
from properwalk import (BudgetExceededError, Digraph, EdgeColoring, Graph,
                        bowtie_digraph, canonical_colorings, complete,
                        connected_bipartite_graphs, connected_graphs, cycle,
                        cycle_with_feet, directed_cycle, exact_directed,
                        exact_pp, exact_pw, exact_pw_pp, labeled_trees,
                        path_graph, star,
                        theta, verify_all_pairs, verify_all_pairs_directed)
from properwalk.verify import _first_failure, _first_path_failure


@pytest.fixture(autouse=True)
def checked_kernel(monkeypatch):
    """Every kernel call in this module, the searches' own included, checks
    its layout first (assert_layout): a bad layout fails the test instead
    of making the kernel sweep forever."""
    kernel = exact._block_ok

    def checked(k, core, picks, live, order, peel):
        assert_layout(core, order, peel)
        return kernel(k, core, picks, live, order, peel)
    monkeypatch.setattr(exact, "_block_ok", checked)


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

    def test_rejects_bad_arguments(self):
        # raised at the call, before any coloring is read
        with pytest.raises(ValueError, match="m must be at least 0, got -1"):
            canonical_colorings(-1, 2)
        for max_color in (0, -2):
            with pytest.raises(ValueError, match=f"max_color must be at least 1, got {max_color}"):
                canonical_colorings(3, max_color)
        # the empty sequence needs no color
        assert list(canonical_colorings(0, 0)) == [()]
        assert list(canonical_colorings(1, 1)) == [(1,)]


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

    def test_many_edges_level_one(self):
        # level 1 has one coloring whatever m is; 1225 edges once blew
        # the recursion limit
        res = exact_pw(complete(50))
        assert (res.k, res.explored) == (1, 1)
        g = Graph(50, [e for e in complete(50).edges if sum(e) % 6])  # 1025 edges
        with pytest.raises(BudgetExceededError) as err:
            exact_pw(g)
        assert err.value.k == 2

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


@pytest.mark.parametrize("max_k", [0, -1])
@pytest.mark.parametrize("solve", [
    lambda g, d, max_k: exact_pw(g, max_k=max_k),
    lambda g, d, max_k: exact_pp(g, max_k=max_k),
    lambda g, d, max_k: exact_pw_pp(g, max_k=max_k),
    lambda g, d, max_k: exact_directed(d, "walk", max_k=max_k),
    lambda g, d, max_k: exact_directed(d, "path", max_k=max_k)])
def test_max_k_below_one_rejected(solve, max_k):
    # a single vertex, whose only coloring has no edge, and larger graphs
    for g, d in ((Graph(1), Digraph(1)), (cycle(5), directed_cycle(3))):
        with pytest.raises(ValueError, match=f"max_k must be at least 1, got {max_k}"):
            solve(g, d, max_k)


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
        for n in range(1, 6):
            got = list(connected_bipartite_graphs(n))
            expect = {g for g in connected_graphs(n) if bipartition(g) is not None}
            assert len(got) == len(expect) and set(got) == expect

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices_rejected_at_the_call(self, n):
        for iterator in (connected_graphs, connected_bipartite_graphs, labeled_trees):
            with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
                iterator(n)


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


def pack(n, k, rows):
    """(picks, live) for a block whose lane j colors the edges as rows[j]
    does, in the layout of exact._suffixes: lane j owns bits j (n + 1) to
    j (n + 1) + n, n data bits and a guard bit."""
    data = (1 << n) - 1
    picks = [[0] * k for _ in rows[0]]
    for j, row in enumerate(rows):
        for e, c in enumerate(row):
            picks[e][c - 1] |= data << j * (n + 1)
    return picks, sum(data << j * (n + 1) for j in range(len(rows)))


def unpack(n, picks, live):
    """{lane: its row of colors} for the lanes of ``live``: pack's inverse."""
    lanes = [j for j in range(live.bit_length() // (n + 1) + 1) if live >> j * (n + 1) & 1]
    return {j: tuple(next(c + 1 for c, pick in enumerate(row) if pick >> j * (n + 1) & 1)
                     for row in picks) for j in lanes}


def walk_passing(nbrs, k, rows):
    """The indices of the rows that verify's SCC pass accepts, one at a time."""
    return [j for j, s in enumerate(rows)
            if _first_failure([[(y, s[e]) for y, e in row] for row in nbrs], k) is None]


def layouts(nbrs, bidirectional):
    """The (table, order, peel) arguments of exact._block_ok that must give
    the same lanes: every arc swept in vertex order with no peel, and on a
    graph the search's layout, the pendant trees peeled and the core swept
    in breadth-first order.  Each is checked by assert_layout first."""
    yield assert_layout(nbrs, range(len(nbrs)), [])
    if bidirectional:
        core, peel = exact._peel(nbrs)
        yield assert_layout(core, [a for a in exact._bfs_order(core) if core[a]], peel)


def assert_layout(table, order, peel):
    """The kernel sweeps while any vertex is dirty but visits only the tails
    in order, so a layout that breaks one of these would make it sweep
    forever: every tail with arcs is in order, every head of an arc has
    arcs, and every peeled vertex has none."""
    assert {a for a, row in enumerate(table) if row} <= set(order), (table, order)
    assert all(table[b] for row in table for b, _ in row), table
    assert not any(table[t] for t, _, _ in peel), (table, peel)
    return table, order, peel


class TestBlockKernel:
    """The block kernel against the per-coloring check, verify's SCC pass,
    lane by lane."""

    @staticmethod
    def assert_lanes_match(n, pairs, bidirectional, ks=(1, 2, 3)):
        nbrs = exact._neighbor_table(n, pairs, bidirectional)
        for k in ks:
            seqs = list(canonical_colorings(len(pairs), k))
            picks, live = pack(n, k, seqs)
            want = walk_passing(nbrs, k, seqs)
            # a lane left out of live has no seed, so it never passes
            odd = sum((1 << n) - 1 << j * (n + 1) for j in range(1, len(seqs), 2))
            even = [j for j in want if j % 2 == 0]
            for table, order, peel in layouts(nbrs, bidirectional):
                got = exact._block_ok(k, table, picks, live, order, peel)
                assert list(got) == want, (pairs, k, peel)
                assert list(exact._block_ok(k, table, picks, live & ~odd, order, peel)) == even

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
        # a fake kernel that passes chosen colorings, several per block of
        # at most 16 lanes, across block boundaries: the level must yield
        # exactly those, in order, at their positions
        monkeypatch.setattr(exact, "_LANES", 16)
        for m, k in ((8, 2), (9, 2), (6, 3), (7, 3), (6, 4)):
            seqs = list(canonical_colorings(m, k))
            chosen = sorted({p for p in range(len(seqs)) if p % 5 == 0 or p % 7 == 3}
                            | {len(seqs) - 1})
            passing = {seqs[p] for p in chosen}
            blocks = []
            core, order, peel = [[], []], range(2), [(1, 0, 0)]

            def fake(k, table, picks, live, sweeps, peeled):
                assert (table, sweeps, peeled) == (core, order, peel)
                rows = unpack(2, picks, live)
                blocks.append((len(rows), [j for j, row in rows.items() if row in passing]))
                return blocks[-1][1]
            monkeypatch.setattr(exact, "_block_ok", fake)
            # the fake reads each coloring off the picks, so only n = 2 matters,
            # and it checks that the level hands on its layout unchanged
            pairs = [(0, e + 1) for e in range(m)]
            stream, count = drain(exact._level(k, pairs, core, [], 100, order, peel))
            assert count == len(seqs) == sum(size for size, _ in blocks) and len(blocks) > 2
            assert any(lanes[:1] == [0] for _, lanes in blocks[1:])
            assert any(lanes[-1:] == [size - 1] for size, lanes in blocks[:-1])
            assert [(r.k, r.explored, tuple(r.witness.assignment[e] for e in pairs))
                    for r in stream] == [(k, 100 + p + 1, seqs[p]) for p in chosen]


class TestSweepOrder:
    """The kernel's sweeps may visit the tails in any order: the answer is
    the least fixpoint, so only the number of sweeps depends on it."""

    @staticmethod
    def assert_order_free(n, pairs, bidirectional):
        nbrs = exact._neighbor_table(n, pairs, bidirectional)
        for k in (1, 2, 3):
            seqs = list(canonical_colorings(len(pairs), k))
            picks, live = pack(n, k, seqs)
            want = walk_passing(nbrs, k, seqs)
            # each layout's tails in breadth-first order, reversed, shuffled
            for table, tails, peel in layouts(nbrs, bidirectional):
                bfs = [a for a in exact._bfs_order(table) if a in tails]
                shuffled = random.Random(len(pairs)).sample(bfs, len(bfs))
                for order in (bfs, bfs[::-1], shuffled):
                    got = exact._block_ok(k, table, picks, live, order, peel)
                    assert list(got) == want, (pairs, k, order, peel)

    def test_every_coloring_of_small_graphs(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                self.assert_order_free(g.n, g.edges, True)

    def test_every_coloring_of_small_digraphs(self):
        for d in scc_digraphs(3):
            self.assert_order_free(d.n, d.arcs, False)

    def test_order_is_breadth_first_permutation(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                order = exact._bfs_order(exact._neighbor_table(n, g.edges, True))
                assert sorted(order) == list(range(n)) and order[0] == 0
        for d in scc_digraphs(3):
            assert sorted(exact._bfs_order(exact._neighbor_table(d.n, d.arcs, False))) \
                == list(range(d.n))
        g = Graph(5, [(0, 1), (0, 3), (1, 4), (2, 3)])      # the path 4 1 0 3 2
        assert exact._bfs_order(exact._neighbor_table(5, g.edges, True)) == [0, 1, 3, 4, 2]
        # along out-arcs 0 reaches only 3 and 4; 1 is next, then 2 via 1
        arcs = [(0, 4), (1, 2), (1, 0), (2, 0), (4, 3)]
        assert exact._bfs_order(exact._neighbor_table(5, arcs, False)) == [0, 4, 3, 1, 2]


class TestKernelFieldWidths:
    """The block kernel against verify's SCC pass, lane by lane, on graphs
    and digraphs of up to 100 vertices."""

    @staticmethod
    def check(n, directed, hung):
        """A base path 0 - 1 - ... - b-1, b = n - hung, both arcs of each
        step on a digraph, plus n // 2 random chords between its vertices;
        vertices b to n-1 each hang off a random earlier vertex of degree at
        most 2 in the base, so they make pendant paths and trees.  A lane
        that colors the base properly, alternating 1 and 2 along the path
        and taking a free color of three for each hung edge, passes whatever
        the chords get; the lane of all ones fails."""
        rng = random.Random(n)
        b = n - hung
        base = [(i, i + 1) for i in range(b - 1)]
        chords = rng.sample([(u, v) for u in range(b) for v in range(u + 2, b)], n // 2)
        proper = [1 + i % 2 for i in range(b - 1)]
        colors_at = [{c for c in proper[max(v - 1, 0):v + 1]} for v in range(b)]
        for v in range(b, n):
            u = rng.choice([x for x in range(v) if len(colors_at[x]) < 3 - (x in (0, b - 1))])
            base.append((u, v))
            proper.append(min({1, 2, 3} - colors_at[u]))
            colors_at[u].add(proper[-1])
            colors_at.append({proper[-1]})
        top = max(proper)
        if directed:
            base += [(v, u) for u, v in base]
            proper += proper
            chords = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in chords]
        pairs = base + chords
        nbrs = exact._neighbor_table(n, pairs, not directed)
        for k in (1, 2, 3, 4):
            rows = [[1] * len(pairs)]
            for i in range(36):
                chord_colors = [rng.randint(1, k) for _ in chords]
                if i % 3 == 0 and k >= 2:
                    rows.append([min(c, k) for c in proper] + chord_colors)
                else:
                    rows.append([rng.randint(1, k) for _ in base] + chord_colors)
            rng.shuffle(rows)
            want = walk_passing(nbrs, k, rows)
            for table, order, peel in layouts(nbrs, not directed):
                got = exact._block_ok(k, table, *pack(n, k, rows), order, peel)
                assert list(got) == want, (k, peel)
            assert len(want) < len(rows) and (k >= top) <= bool(want) and (k > 1 or not want)
        return nbrs

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 63, 64, 65, 100])
    def test_boundaries(self, n, directed):
        # a lane's field has n + 1 bits, so fields cross the 30-bit digits of
        # Python ints at every offset; 37 lanes, and n from 64 on, where an
        # 8-byte field could no longer hold a lane
        self.check(n, directed, 0)
        # with one color only a complete graph or digraph passes
        pairs = [(u, v) for u in range(n) for v in range(n) if u < v or directed and u != v]
        nbrs = exact._neighbor_table(n, pairs, not directed)
        rows = [[1] * len(pairs)] * 5
        assert list(exact._block_ok(1, nbrs, *pack(n, 1, rows), range(n), [])) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 63, 64, 65, 100])
    def test_pendant_trees(self, n, directed):
        # the same widths with a quarter of the vertices in pendant trees,
        # which the search's layout peels off a graph
        nbrs = self.check(n, directed, n // 4)
        if not directed:
            core, peel = exact._peel(nbrs)
            assert {t for t, _, _ in peel} >= set(range(n - n // 4, n))


class TestPeel:
    """exact._peel removes exactly the pendant trees, each vertex after its
    children, and leaves the core's arcs."""

    @staticmethod
    def peel(g):
        nbrs = exact._neighbor_table(g.n, g.edges, True)
        assert len(list(layouts(nbrs, True))) == 2
        core, peel = exact._peel(nbrs)
        removed = [t for t, _, _ in peel]
        assert len(set(removed)) == len(removed)
        for i, (t, p, e) in enumerate(peel):
            # t's one neighbor left is p, along e: its others went before it
            assert (p, e) in nbrs[t] and p not in removed[:i + 1]
            assert {y for y, _ in nbrs[t]} - {p} <= set(removed[:i])
        kept = set(range(g.n)) - set(removed)
        assert core == [[(y, e) for y, e in row if y in kept] if x in kept else []
                        for x, row in enumerate(nbrs)]
        return kept, peel

    def test_tree_peels_to_one_vertex(self):
        for n in range(2, 7):
            for t in labeled_trees(n):
                kept, peel = self.peel(t)
                assert len(kept) == 1 and len(peel) == n - 1
                assert sorted(e for _, _, e in peel) == list(range(t.m))
        # a path peels from both ends toward the middle
        assert self.peel(path_graph(5))[1] == [(0, 1, 0), (4, 3, 3), (1, 2, 1), (3, 2, 2)]

    def test_odd_cycle_with_feet_peels_to_its_cycle(self):
        for legs in ([1, 0, 0], [2, 2, 0], [3, 3, 2], [1, 1, 1, 0, 2]):
            g = cycle_with_feet(len(legs), legs)
            kept, peel = self.peel(g)
            assert kept == set(range(len(legs))) and len(peel) == sum(legs)
        # a spider's legs hang off its cycle's vertex as pendant paths
        g = Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7)])
        kept, peel = self.peel(g)
        assert kept == {0, 1, 2} and [p for _, p, _ in peel] == [4, 6, 3, 2, 2]

    def test_bridgeless_graph_peels_nothing(self):
        for g in (cycle(5), complete(4), theta(2, 2, 1)):
            nbrs = exact._neighbor_table(g.n, g.edges, True)
            assert exact._peel(nbrs) == (nbrs, [])
        # two cycles joined by a path keep the path: no vertex of it is a leaf
        g = Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)])
        assert self.peel(g) == (set(range(8)), [])

    def test_layout_of_every_small_graph(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                assert len(list(layouts(exact._neighbor_table(n, g.edges, True), True))) == 2

    def test_one_and_two_vertices(self):
        assert exact._peel([[]]) == ([[]], [])
        assert self.peel(Graph(2, [(0, 1)])) == ({1}, [(0, 1, 0)])


def drain(gen):
    """The items a generator yields and the value it returns."""
    items = []
    while True:
        try:
            items.append(next(gen))
        except StopIteration as stop:
            return items, stop.value


class TestDeadEnds:
    """The packed leaf rule may drop only lanes that verify's SCC pass
    rejects."""

    @staticmethod
    def fired(n, pairs, bidirectional):
        nbrs = exact._neighbor_table(n, pairs, bidirectional)
        dead = exact._dead_ends(nbrs)
        count = 0
        for k in (1, 2, 3):
            seqs = list(canonical_colorings(len(pairs), k))
            picks, ones = pack(n, k, seqs)
            live = exact._live(picks, dead, ones)
            assert live & ~ones == 0
            data = (1 << n) - 1
            assert all(live >> j * (n + 1) & data in (0, data) for j in range(len(seqs)))
            stranded = [s for j, s in enumerate(seqs) if not live >> j * (n + 1) & 1]
            assert walk_passing(nbrs, k, stranded) == [], (pairs, k)
            count += len(stranded)
        return count

    def test_sound_on_every_small_coloring(self):
        fired = sum(self.fired(g.n, g.edges, True) for n in range(1, 6)
                    for g in connected_graphs(n))
        fired += sum(self.fired(d.n, d.arcs, False) for d in scc_digraphs(3))
        assert fired > 0

    def test_one_entry_per_edge_set(self):
        # every leaf at a vertex y gives the set of y's edges, so a star
        # has one entry; out-degree-1 vertices of a digraph give one each
        for n in range(3, 6):
            for g in connected_graphs(n):
                dead = exact._dead_ends(exact._neighbor_table(n, g.edges, True))
                sets = [frozenset([e, *others]) for e, others in dead]
                assert len(set(sets)) == len(sets), g.edges
        star_table = exact._neighbor_table(5, star(5).edges, True)
        assert exact._dead_ends(star_table) == [(0, [1, 2, 3])]
        arcs = [(0, 1), (0, 2), (1, 0), (2, 0)]
        assert exact._dead_ends(exact._neighbor_table(3, arcs, False)) == [
            (2, [0, 1]), (3, [0, 1])]

    def test_silent_on_two_vertices(self):
        # both walks of P_2 and of the 2-cycle end at once, yet every pair
        # is joined: the rule needs a third vertex
        assert self.fired(2, [(0, 1)], True) == 0
        assert self.fired(2, [(0, 1), (1, 0)], False) == 0


def fingerprint(res):
    if res is None:
        return None
    return res.k, res.explored, sorted(res.witness.assignment.items())


def one_at_a_time(g, pairs, bidirectional, max_k, accept):
    """The exact search without blocks or leaf rule: every canonical
    coloring in turn through verify's SCC pass, then ``accept``; explored
    numbers the colorings tried."""
    nbrs = exact._neighbor_table(g.n, pairs, bidirectional)
    explored = 0
    for k in range(1, max_k + 1):
        for colors in canonical_colorings(len(pairs), k):
            explored += 1
            col = EdgeColoring(k, dict(zip(pairs, colors)))
            if walk_passing(nbrs, k, [colors]) and accept(g, col):
                return k, explored, sorted(col.assignment.items())
    return None


def walks(g, col):
    return True


def paths(g, col):
    return _first_path_failure(g, col) is None


CWF_REFUTED = [cycle_with_feet(3, legs) for legs in ([3, 3, 2], [3, 3, 3], [4, 3, 3])]
PP_RESUMED = [Graph(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3)]),
              Graph(8, [(0, 7), (1, 6), (2, 3), (2, 6), (2, 7), (3, 7), (4, 6), (5, 6), (5, 7)]),
              Graph(9, [(0, 6), (0, 8), (1, 2), (1, 4), (1, 8), (2, 3), (2, 6), (4, 5),
                        (4, 7), (4, 8), (7, 8)])]
DIRECTED_RESUMED = Digraph(5, [(0, 3), (1, 0), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2),
                               (4, 1), (4, 3)])


class TestBlockSearchMatchesPython:
    """Solvers against a one-at-a-time search of the same canonical order
    through verify's SCC pass: the same k, witness and explored count."""

    def test_refutations_in_full(self):
        # level 2 is refuted in full, over several blocks
        for g in CWF_REFUTED:
            assert g.m in (11, 12, 13)
            nbrs = exact._neighbor_table(g.n, g.edges, True)
            for table, order, peel in layouts(nbrs, True):
                level = exact._level(2, g.edges, table, exact._dead_ends(nbrs), 0, order, peel)
                assert drain(level) == ([], 2 ** (g.m - 1))
            assert one_at_a_time(g, g.edges, True, 2, walks) is None
        g = CWF_REFUTED[0]
        res = exact_pw(g, max_k=3)
        assert res.k == 3 and fingerprint(res) == one_at_a_time(g, g.edges, True, 3, walks)

    def test_spider(self):
        g = spider(4, 2)
        assert g.m == 8
        res = exact_pw(g, max_k=4)
        assert res.k == 4 and fingerprint(res) == one_at_a_time(g, g.edges, True, 4, walks)

    def test_pp_resumes_after_a_path_failure(self):
        for g in PP_RESUMED:
            assert fingerprint(exact_pp(g, max_k=3)) == one_at_a_time(g, g.edges, True, 3, paths)

    def test_directed_walk_and_path(self):
        # in path mode the first walk-passing coloring fails the path check
        d = DIRECTED_RESUMED
        for mode, accept in (("walk", walks), ("path", paths)):
            want = one_at_a_time(d, d.arcs, False, 3, accept)
            assert fingerprint(exact_directed(d, mode)) == want

    def test_blocks_with_every_lane_stranded(self, monkeypatch):
        # with 8 lanes a level of spider(3, 3) spans many prefixes, and a
        # prefix that colors a leaf's edge like the other edge at its
        # neighbour strands the leaf in every lane; such blocks skip the
        # kernel, and in others stranded lanes come before the passing one
        monkeypatch.setattr(exact, "_LANES", 8)
        lives, kernel = [], []
        live_of, block_ok = exact._live, exact._block_ok
        monkeypatch.setattr(exact, "_live", lambda picks, dead, ones:
                            lives.append((live_of(picks, dead, ones), ones)) or lives[-1][0])
        monkeypatch.setattr(exact, "_block_ok", lambda *args: kernel.append(1) or block_ok(*args))
        g = spider(3, 3)
        res = exact_pw(g, max_k=3)
        assert res.k == 3 and fingerprint(res) == one_at_a_time(g, g.edges, True, 3, walks)
        assert any(live == 0 for live, _ in lives)
        assert any(0 < live < ones for live, ones in lives)
        assert len(kernel) == sum(live > 0 for live, _ in lives)


KERNEL_LIES = """
import properwalk.exact as exact
from properwalk import cycle, cycle_with_feet, directed_cycle
assert not __debug__, "asserts are on"
block_ok = exact._block_ok
def lie(*args):  # runs the kernel on the layout it is handed, then passes lane 0
    list(block_ok(*args))
    return [0]
exact._block_ok = lie
for search in (lambda: exact.exact_pw(cycle(5), max_k=2),
               lambda: exact.exact_pw(cycle_with_feet(3, [2, 1, 0]), max_k=2),
               lambda: exact.exact_directed(directed_cycle(3), "walk")):
    try:
        search()
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
    still guards exact_pw and exact_directed when python -O strips asserts."""
    lines = run_snippet(KERNEL_LIES, "-O").splitlines()
    assert len(lines) == 3
    for line in lines:
        assert line.startswith("raised: kernel accepted a coloring the verifier rejects")


def test_import_leaves_numpy_out():
    """The package, its exact search and its CLI run on the standard
    library alone."""
    code = "import sys, properwalk, properwalk.cli; print(sorted({'numpy'} & set(sys.modules)))"
    assert run_snippet(code).strip() == "[]"


def test_oracle_imports_no_construction_code():
    """The oracle that tests the paper's theorems must not lean on the code
    that implements them: exact.py imports only .graphs and .verify."""
    tree = ast.parse(Path(exact.__file__).read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.startswith("properwalk")]
    assert relative == {"graphs", "verify"} and not absolute
