import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from properwalk import (Digraph, EdgeColoring, Graph, GraphFormatError, Walk,
                        bowtie_digraph, complete, cycle, cycle_with_feet,
                        directed_cycle, emit_graph, generate, parse_coloring,
                        parse_graph, path_graph, random_connected, star, theta,
                        two_triangles_shared_vertex)


class TestParse:
    def test_plain_edge_lines(self):
        g = parse_graph("0 1\n1 2")
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))

    def test_triangle(self):
        g = parse_graph("0 1\n1 2\n2 0")
        assert g == cycle(3)

    def test_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="loop"):
            parse_graph("0 0")

    def test_duplicate_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_graph("0 1\n1 0")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="two integers"):
            parse_graph("0 1\n1 two")
        with pytest.raises(GraphFormatError, match="two integers"):
            parse_graph("0 1 2")

    def test_header_detected(self):
        g = parse_graph("3 3\n0 1\n0 2\n1 2")
        assert g == cycle(3)

    def test_header_declares_isolated_vertices(self):
        g = parse_graph("5 2\n0 1\n1 2")
        assert g.n == 5 and g.m == 2

    def test_header_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="declares"):
            parse_graph("3 3\n0 1")

    def test_header_id_overflow(self):
        with pytest.raises(GraphFormatError, match="inconsistent"):
            parse_graph("3 2\n0 1\n4 5")

    def test_single_vertex_header(self):
        g = parse_graph("1 0")
        assert g.n == 1 and g.m == 0

    def test_comments_and_blanks(self):
        g = parse_graph("# a triangle\n\n0 1\n# middle\n1 2\n2 0\n")
        assert g == cycle(3)

    def test_directed(self):
        d = parse_graph("0 1\n1 0\n1 2", directed=True)
        assert isinstance(d, Digraph)
        assert d.arcs == ((0, 1), (1, 0), (1, 2))

    @pytest.mark.parametrize("text, why", [
        ("0 1\n-1 2\n", "line 2: negative vertex id in '-1 2'"),
        ("# only a comment\n\n", "no edges or header found")])
    def test_rejections(self, text, why):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert str(exc.value) == why

    @pytest.mark.parametrize("text, why", [
        ("# nothing\n", "empty coloring text"),
        ("colors 2\n0 1 1\n", "coloring must start with 'k <count>', got 'colors 2'"),
        ("k two\n", "bad color count 'two'"),
        ("k 2\n0 1\n", "line 2: expected 'u v c', got '0 1'"),
        ("k 2\n0 1 x\n", "line 2: expected 'u v c', got '0 1 x'"),
        ("k 2\n0 1 1\n1 0 2\n", "line 3: edge (0, 1) colored twice"),
        ("k 2\n0 1 3\n", "color 3 for edge (0, 1) outside 1..2")])
    def test_coloring_rejections(self, text, why):
        with pytest.raises(GraphFormatError) as exc:
            parse_coloring(text)
        assert str(exc.value) == why


class TestEmit:
    def test_triangle_edgelist(self):
        assert emit_graph(cycle(3)) == "3 3\n0 1\n0 2\n1 2\n"

    def test_dot_with_coloring(self):
        g = cycle(3)
        col = EdgeColoring(1, {e: 1 for e in g.edges})
        dot = emit_graph(g, col, fmt="dot")
        assert dot.count("--") == 3
        assert dot.count('label="1"') == 3
        assert 'color="red"' in dot

    def test_coloring_file_roundtrip(self):
        g = path_graph(3)
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2})
        text = emit_graph(g, col)
        back = parse_coloring(text)
        assert back == col

    def test_absent_edge_rejected(self):
        g = path_graph(3)
        col = EdgeColoring(1, {(0, 1): 1, (0, 2): 1})
        with pytest.raises(ValueError):
            emit_graph(g, col)

    def test_roundtrip_seeded_random_graphs(self):
        for seed in range(100):
            g = random_connected(2 + seed % 9, 0.4, seed=seed)
            assert parse_graph(emit_graph(g)) == g

    def test_directed_roundtrip(self):
        d = bowtie_digraph()
        assert parse_graph(emit_graph(d), directed=True) == d

    def test_unknown_format(self):
        with pytest.raises(ValueError) as exc:
            emit_graph(cycle(3), fmt="svg")
        assert str(exc.value) == "unknown format 'svg'"


class TestGenerators:
    def test_cycle_regular(self):
        g = cycle(5)
        assert g.n == 5 and g.m == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_theta_2_2_1(self):
        g = theta(2, 2, 1)
        assert g.n == 4 and g.m == 5
        assert g.has_edge(0, 2)  # chord between antipodal junctions

    def test_theta_parity_rejected(self):
        with pytest.raises(ValueError, match="parity|nonbipartite"):
            theta(2, 2, 2)

    def test_theta_parallel_rejected(self):
        with pytest.raises(ValueError):
            theta(1, 1, 2)

    def test_cycle_with_feet_counts(self):
        g = cycle_with_feet(3, [2, 2, 0])
        assert g.n == 7 and g.m == 7
        for n, feet in ((3, [1, 0, 0]), (5, [0, 2, 0, 1, 0])):
            g = cycle_with_feet(n, feet)
            assert g.n == n + sum(feet) and g.m == n + sum(feet)

    def test_cycle_with_feet_validation(self):
        with pytest.raises(ValueError):
            cycle_with_feet(4, [0, 0, 0, 0])
        with pytest.raises(ValueError):
            cycle_with_feet(3, [1, 2])

    def test_bowtie(self):
        d = bowtie_digraph()
        assert d.n == 5 and d.m == 6
        assert set(d.arcs) == {(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)}
        assert d.is_strongly_connected()

    def test_directed_cycle(self):
        d = directed_cycle(5)
        assert d.m == 5 and d.is_strongly_connected()

    def test_two_triangles(self):
        g = two_triangles_shared_vertex()
        assert g.n == 5 and g.m == 6 and g.degree(0) == 4

    def test_random_connected_deterministic(self):
        a = random_connected(8, 0.3, seed=42)
        b = random_connected(8, 0.3, seed=42)
        assert a == b and a.is_connected()
        c = random_connected(8, 0.3, seed=43)
        assert a != c  # overwhelmingly likely under different seeds

    def test_random_connected_samples_as_before(self):
        # the argument checks draw nothing, so each seed keeps its sample
        assert random_connected(8, 0.3, seed=42).edges == (
            (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (1, 7), (2, 3), (2, 6),
            (3, 5), (4, 6), (5, 7), (6, 7))
        assert random_connected(6, 0.1, seed=3).edges == ((0, 3), (1, 3), (1, 4), (2, 5), (4, 5))
        assert random_connected(4, 1.0, seed=0) == complete(4)
        assert random_connected(1, 0.0, seed=0) == Graph(1)

    @pytest.mark.parametrize("n", [2, 50])
    def test_random_connected_fails_fast_without_edges(self, n):
        # G(n, 0) has no edges, so no sample on two or more vertices connects
        with pytest.raises(ValueError, match=f"^edge probability 0 never connects {n} vertices$"):
            random_connected(n, 0.0)

    def test_theta_two_connected_nonbipartite(self):
        from properwalk import bipartition, blocks, bridges
        for params in ((2, 2, 1), (1, 3, 2), (3, 5, 2), (4, 4, 3), (2, 4, 5)):
            g = theta(*params)
            assert not bridges(g)
            assert len(blocks(g)) == 1
            assert bipartition(g) is None

    def test_generate_dispatch(self):
        assert generate("cycle", 5) == cycle(5)
        assert generate("complete", 4) == complete(4)
        assert generate("star", 4) == star(4)
        assert generate("cycle_with_feet", 3, 2, 2, 0) == cycle_with_feet(3, [2, 2, 0])
        with pytest.raises(ValueError, match="unknown family"):
            generate("mystery", 3)


class TestTypes:
    def test_graph_invariants(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    def test_digraph_antiparallel_ok(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert d.m == 2
        with pytest.raises(ValueError):
            Digraph(2, [(0, 1), (0, 1)])

    @pytest.mark.parametrize("n, arcs, why", [
        (-1, [], "vertex count must be nonnegative"),
        (2, [(0, 5)], "arc (0, 5) out of range for n=2"),
        (2, [(1, 1)], "loop at vertex 1 not allowed"),
        (2, [(0, 1), (0, 1)], "duplicate arc (0, 1)")])
    def test_digraph_rejections(self, n, arcs, why):
        with pytest.raises(ValueError) as exc:
            Digraph(n, arcs)
        assert str(exc.value) == why

    def test_coloring_range(self):
        with pytest.raises(ValueError):
            EdgeColoring(2, {(0, 1): 3})
        with pytest.raises(ValueError):
            EdgeColoring(0, {})

    def test_coloring_validate_for(self):
        g = path_graph(3)
        EdgeColoring(1, {(0, 1): 1, (1, 2): 1}).validate_for(g)
        with pytest.raises(ValueError):
            EdgeColoring(1, {(0, 1): 1}).validate_for(g)

    def test_walk_properly_colored(self):
        col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2})
        assert Walk((0, 1, 2)).is_properly_colored(col)
        assert not Walk((0, 1, 0, 1)).is_properly_colored(col)
        assert Walk((0, 1, 2)).num_edges == 2


@st.composite
def any_graph(draw, max_n=9):
    """A graph on 1..max_n vertices with random edges, often disconnected."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return Graph(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})


def nx_connected(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.is_connected(G)


class TestConnectivityCache:
    def test_atlas_matches_networkx(self):
        # every graph with 1 to 7 vertices, connected or not
        seen = set()
        for G in nx.graph_atlas_g()[1:]:
            g = Graph(G.number_of_nodes(), list(G.edges()))
            want = nx.is_connected(G)
            assert g.is_connected() is want and g.is_connected() is want, g.edges
            seen.add(want)
        assert seen == {False, True}

    def test_empty_graph_connected(self):
        g = Graph(0)
        assert g.is_connected() and g.is_connected()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(any_graph(), st.data())
    def test_random_graphs(self, g, data):
        want = nx_connected(g)
        assert g.is_connected() is want and g.is_connected() is want
        sub, _ = g.induced(data.draw(st.sets(st.integers(0, g.n - 1))))
        assert sub.is_connected() is sub.is_connected() is (sub.n == 0 or nx_connected(sub))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(any_graph(), st.data())
    def test_equality_ignores_the_cache(self, g, data):
        sub, old = g.induced(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
        # induced builds its copy unchecked; the checked constructor, given
        # the relabeled edges reversed and in reverse order, agrees in every
        # field, not only in the n and edges that == compares
        new = {v: i for i, v in enumerate(old)}
        checked = Graph(len(old), [(new[v], new[u]) for u, v in reversed(g.edges)
                                   if u in new and v in new])
        assert sub.edges == checked.edges and sub.n == checked.n
        assert [sub.neighbors(v) for v in range(sub.n)] == [
            checked.neighbors(v) for v in range(sub.n)]
        assert sub.is_connected() is checked.is_connected()
        sub, _ = g.induced(old)
        fresh = Graph(sub.n, sub.edges)
        assert sub == fresh and hash(sub) == hash(fresh)
        sub.is_connected()          # cache filled on one side only
        assert sub == fresh and fresh == sub and hash(sub) == hash(fresh)
        fresh.is_connected()
        assert sub == fresh and hash(sub) == hash(fresh)
        assert len({sub, fresh, Graph(sub.n, sub.edges)}) == 1


def assert_sorted_adjacency(g, flips=()):
    """Neighbor lists and verify's colored adjacency come out sorted without
    a sort.  On a graph the coloring keys edge i as (v, u) when flips[i]
    is set; a digraph's arcs keep their orientation."""
    from properwalk.verify import _colored_adjacency
    directed = isinstance(g, Digraph)
    pairs = g.arcs if directed else g.edges
    flips = list(flips) + [False] * len(pairs)
    col = EdgeColoring(3, {((v, u) if flip else (u, v)): 1 + i % 3
                           for i, ((u, v), flip) in enumerate(zip(pairs, flips))})
    col.validate_for(g)
    if directed:
        lists = [g.out_neighbors(v) for v in range(g.n)] + [g.in_neighbors(v) for v in range(g.n)]
        want = [sorted((v, col.color(u, v)) for v in g.out_neighbors(u)) for u in range(g.n)]
    else:
        lists = [g.neighbors(v) for v in range(g.n)]
        want = [sorted((v, col.color(u, v)) for v in g.neighbors(u)) for u in range(g.n)]
    assert all(list(a) == sorted(a) for a in lists), pairs
    assert _colored_adjacency(g, col) == want, pairs


class TestSortedAdjacency:
    def test_atlas(self):
        # every graph with 1 to 7 vertices, edges given in both orientations,
        # and the digraph of its arcs u -> v plus every third one reversed
        for G in nx.graph_atlas_g()[1:]:
            edges = list(G.edges())
            flips = [i % 2 == 1 for i in range(len(edges))]
            g = Graph(G.number_of_nodes(), [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)])
            assert_sorted_adjacency(g, flips)
            arcs = [(max(u, v), min(u, v)) for u, v in edges]
            arcs += [(v, u) for u, v in arcs[::3]]
            assert_sorted_adjacency(Digraph(g.n, arcs))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(any_graph(max_n=12), st.data())
    def test_random(self, g, data):
        flips = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
        assert_sorted_adjacency(g, flips)
        vertex = st.integers(0, g.n - 1)
        arcs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * g.n))
        assert_sorted_adjacency(Digraph(g.n, {(u, v) for u, v in arcs if u != v}))
