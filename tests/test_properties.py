"""Property tests against independent oracles (test-only), on random
connected graphs drawn by hypothesis: networkx for the decompositions and
disjoint paths, one witness BFS per vertex pair for the all-pairs walk
checks, and verify's SCC pass for the exact search's block kernel."""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

import properwalk.exact as exact
from properwalk import (BudgetExceededError, Digraph, EdgeColoring, Graph,
                        bipartition, blocks, bridges, exact_pw, pw_auto,
                        shortest_odd_cycle, two_disjoint_paths, verify_all_pairs,
                        verify_all_pairs_directed, walk_reachable,
                        walk_reachable_directed)
from test_exact import layouts, pack, walk_passing

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def connected(draw, max_n=10):
    """A random spanning tree plus random extra edges, randomly relabeled."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def strongly_connected(draw, max_n=10):
    """A random Hamiltonian cycle plus random extra arcs, on 2..max_n vertices."""
    n = draw(st.integers(2, max_n))
    perm = draw(st.permutations(range(n)))
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        if u != v:
            arcs.add((u, v))
    return Digraph(n, arcs)


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def odd_girth(G: nx.Graph):
    """Length of a shortest odd cycle by plain cycle enumeration, or None."""
    if nx.is_bipartite(G):
        return None
    for bound in range(3, G.number_of_nodes() + 1, 2):
        if any(len(c) % 2 for c in nx.simple_cycles(G, length_bound=bound)):
            return bound
    raise AssertionError("a nonbipartite graph has an odd cycle")


@PROPERTY
@given(connected())
def test_bridges_match_networkx(g):
    assert bridges(g) == {tuple(sorted(e)) for e in nx.bridges(to_nx(g))}


@PROPERTY
@given(connected())
def test_blocks_match_networkx(g):
    want = {frozenset(c) for c in nx.biconnected_components(to_nx(g))}
    got = blocks(g)
    assert len(got) == len(want) and set(got) == want


@PROPERTY
@given(connected())
def test_bipartition_matches_networkx(g):
    classes = bipartition(g)
    assert (classes is not None) == nx.is_bipartite(to_nx(g))
    if classes is not None:
        a, b = classes
        assert a | b == set(range(g.n)) and not a & b
        assert all((u in a) != (v in a) for u, v in g.edges)


@PROPERTY
@given(connected())
def test_shortest_odd_cycle_length_matches_networkx(g):
    cyc = shortest_odd_cycle(g)
    assert (None if cyc is None else len(cyc)) == odd_girth(to_nx(g))


@PROPERTY
@given(connected(max_n=12), st.data())
def test_two_disjoint_paths_match_networkx(g, data):
    # Menger: the pair exists exactly when two internally disjoint paths
    # join w to a new vertex s adjacent to every target
    if g.n < 3:
        return
    w = data.draw(st.integers(0, g.n - 1))
    others = [v for v in range(g.n) if v != w]
    targets = set(data.draw(st.lists(st.sampled_from(others), min_size=2, unique=True)))
    G = to_nx(g)
    G.add_edges_from((g.n, t) for t in targets)
    try:
        p1, p2 = two_disjoint_paths(g, w, targets)
    except ValueError as exc:
        assert "no two" in str(exc)
        assert nx.node_connectivity(G, w, g.n) < 2
        return
    assert nx.node_connectivity(G, w, g.n) >= 2
    assert p1[0] == p2[0] == w and p1[-1] < p2[-1]
    assert {p1[-1], p2[-1]} <= targets
    assert targets.isdisjoint(p1[:-1] + p2[:-1])
    assert len(set(p1 + p2)) == len(p1) + len(p2) - 1
    assert all(g.has_edge(x, y) for p in (p1, p2) for x, y in zip(p, p[1:]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(connected(), st.data())
def test_pw_auto_invariant_under_relabeling(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    a, b = pw_auto(g), pw_auto(h)
    assert (a.k, a.status) == (b.k, b.status)


def exact_k(g):
    try:
        res = exact_pw(g, max_k=max(3, g.max_degree()))
    except BudgetExceededError as exc:
        return "budget", exc.k
    return res.k


@PROPERTY
@given(connected(max_n=7), st.data())
def test_exact_pw_invariant_under_relabeling(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert exact_k(g) == exact_k(h)


@PROPERTY
@given(connected(max_n=12), st.data())
def test_all_pairs_matches_pairwise_oracle(g, data):
    # random colorings, so most draws fail and the failing pair is compared
    k = data.draw(st.integers(1, 3))
    col = EdgeColoring(k, {e: data.draw(st.integers(1, k)) for e in g.edges})
    first = next(((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                  if not walk_reachable(g, col, u, v)[0]), None)
    assert verify_all_pairs(g, col) == (first is None, first)


@PROPERTY
@given(connected(max_n=12), st.data())
def test_all_pairs_directed_matches_pairwise_oracle(g, data):
    # each edge becomes one arc or an antiparallel pair
    arcs = []
    for u, v in g.edges:
        arcs += data.draw(st.sampled_from([[(u, v)], [(v, u)], [(u, v), (v, u)]]))
    d = Digraph(g.n, arcs)
    col = EdgeColoring(2, {a: data.draw(st.integers(1, 2)) for a in d.arcs})
    first = next(((u, v) for u in range(d.n) for v in range(d.n)
                  if u != v and not walk_reachable_directed(d, col, u, v)[0]), None)
    assert verify_all_pairs_directed(d, col) == (first is None, first)


@PROPERTY
@given(st.booleans(), st.data())
def test_block_kernel_matches_scc_pass(directed, data):
    # arbitrary rows of colors, not only canonical ones, lane by lane
    if directed:
        d = data.draw(strongly_connected(max_n=12))
        n, pairs = d.n, d.arcs
    else:
        g = data.draw(connected(max_n=12))
        n, pairs = g.n, g.edges
    k = data.draw(st.integers(2, 4))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    rows = [[rng.randint(1, k) for _ in pairs] for _ in range(data.draw(st.integers(1, 300)))]
    nbrs = exact._neighbor_table(n, pairs, not directed)
    want = walk_passing(nbrs, k, rows)
    for table, order, peel in layouts(nbrs, not directed):
        assert list(exact._block_ok(k, table, *pack(n, k, rows), order, peel)) == want


@PROPERTY
@given(st.booleans(), st.data())
def test_block_kernel_on_canonical_lanes(directed, data):
    # the rows the search hands the kernel: canonical colorings, here of
    # random graphs and digraphs with up to 20 vertices
    if directed:
        d = data.draw(strongly_connected(max_n=20))
        n, pairs = d.n, d.arcs
    else:
        g = data.draw(connected(max_n=20))
        n, pairs = g.n, g.edges
    k = data.draw(st.integers(1, 4))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(data.draw(st.integers(1, 200))):
        first = {}
        rows.append([first.setdefault(rng.randint(1, k), len(first) + 1) for _ in pairs])
    nbrs = exact._neighbor_table(n, pairs, not directed)
    want = walk_passing(nbrs, k, rows)
    # in breadth-first order, in vertex order, and on a graph with its
    # pendant trees peeled as the search does
    assert list(exact._block_ok(k, nbrs, *pack(n, k, rows), exact._bfs_order(nbrs), [])) == want
    for table, order, peel in layouts(nbrs, not directed):
        assert list(exact._block_ok(k, table, *pack(n, k, rows), order, peel)) == want
