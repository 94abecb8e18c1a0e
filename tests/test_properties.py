"""Property tests against networkx as an independent oracle (test-only), on
random connected graphs with at most 10 vertices drawn by hypothesis."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from properwalk import (Graph, bipartition, blocks, bridges, pw_auto,
                        shortest_odd_cycle)

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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(connected(), st.data())
def test_pw_auto_invariant_under_relabeling(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    a, b = pw_auto(g), pw_auto(h)
    assert (a.k, a.status) == (b.k, b.status)
