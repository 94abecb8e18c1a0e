"""Structural decompositions: blocks and bridges, the bridge-deleted core
and its contraction, bipartitions, odd cycles, disjoint paths.

``_low_link`` is the one DFS of a graph, a low-link pass (Hopcroft and
Tarjan 1973) that gives the blocks, the bridges, the arcs and the cores.
In a simple graph the bridges are exactly the 2-vertex blocks, and the
cores, the 2-edge-connected components, close where no back edge climbs
out of a DFS subtree.  It keeps each block's edges as the arcs it
traversed them along, a strong orientation of every block with at least 3
vertices (Robbins 1939), which ``orient.robbins_orientation`` and the
two-color constructions read.  A ``Decomposition`` bundles one such pass
with the one ``_layers`` result; the dispatcher builds one per call and
passes it to the constructions.  Its bipartition, core contraction and
shortest odd cycles, per block and of the whole graph, are computed lazily
and at most once.

``_layers`` is the one BFS layering (every vertex class, the
``shortest_odd_cycle`` cover), ``_ball`` the one depth-cut BFS (the
``shortest_odd_cycle`` starts), ``_bfs_forest`` the one forest BFS (the
``cycle_connector`` path, the constructions' trees and pendant forests).

All operations are pure functions of immutable graphs.  Ties are broken by
lowest vertex id and lexicographic edge order throughout, so results are
reproducible.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice

from .graphs import Graph, _steps, canonical_edge


def _bridges_of(blks) -> frozenset[tuple[int, int]]:
    return frozenset(tuple(sorted(b)) for b in blks if len(b) == 2)


def bridges(g: Graph) -> frozenset[tuple[int, int]]:
    """Cut edges of a connected graph: the blocks with two vertices."""
    return _bridges_of(blocks(g))


def blocks(g: Graph) -> tuple[frozenset[int], ...]:
    """Blocks of a connected graph, from one low-link DFS: maximal
    2-connected subgraphs plus bridge edges, each given by its vertex set
    (blocks are induced subgraphs)."""
    return _low_link(g)[0]


def _low_link(g: Graph):
    """The one low-link DFS, from vertex 0 in neighbor order: (``blocks``,
    each block's edges as the arcs the DFS traversed them along, the vertex
    sets of the cores in order of their lowest vertex).  Tree edges point
    away from vertex 0 and back edges toward the ancestor.  The strong
    components of such an orientation are the 2-edge-connected components,
    and a directed walk that leaves a block through a cut vertex must come
    back through it, so every block with at least 3 vertices, and every
    nontrivial core, is strongly connected under its arcs.

    A block closes at a tree arc (parent, v) with low[v] >= disc[parent].
    A core closes at v when low[v] == disc[v]: no back edge climbs out of
    v's subtree, so the arc into v is a bridge (or v is vertex 0), and v's
    core is the subtree less the cores that closed inside it."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    n = g.n
    if n <= 1:
        return (), (), [frozenset({v}) for v in range(n)]
    disc = [0] * n          # 1-based discovery index, 0 = unvisited
    low = [0] * n
    into = [0] * n          # edge_stack index of the tree arc into each vertex
    at = [0] * n            # vertex_stack index of each vertex
    disc[0] = low[0] = 1
    counter = 2
    edge_stack: list[tuple[int, int]] = []
    vertex_stack = [0]
    found: list[tuple[frozenset[int], tuple[tuple[int, int], ...]]] = []
    cores: list[frozenset[int]] = []
    stack = [(0, -1, iter(g.neighbors(0)))]     # (vertex, parent, its neighbors left)
    while stack:
        v, parent, rest = stack[-1]
        for w in rest:
            if w == parent:
                continue
            if disc[w]:
                if disc[w] < disc[v]:     # back edge, seen once from below
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                disc[w] = low[w] = counter
                counter += 1
                into[w], at[w] = len(edge_stack), len(vertex_stack)
                edge_stack.append((v, w))
                vertex_stack.append(w)
                stack.append((w, v, iter(g.neighbors(w))))
                break
        else:
            stack.pop()
            if low[v] == disc[v]:
                cores.append(frozenset(vertex_stack[at[v]:]))
                del vertex_stack[at[v]:]
            if parent >= 0:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    # parent closes a block: its arcs are (parent, v) and
                    # every arc stacked above it
                    i = into[v]
                    arcs = tuple(edge_stack[i:])
                    del edge_stack[i:]
                    found.append((frozenset(chain.from_iterable(arcs)), arcs))
    found.sort(key=lambda f: sorted(f[0]))
    cores.sort(key=min)
    return tuple(f[0] for f in found), tuple(f[1] for f in found), cores


@dataclass(frozen=True)
class CoreComponent:
    """One component of the graph minus its bridges."""

    vertices: frozenset[int]
    incident_bridges: tuple[tuple[int, int], ...]

    @property
    def trivial(self) -> bool:
        return len(self.vertices) == 1


def bridgeless_core(g: Graph) -> tuple[CoreComponent, ...]:
    """Components of the spanning subgraph left after deleting every bridge,
    each tagged with the bridges incident to it.

    The components are 2-edge-connected unless they are single vertices.
    """
    return decomposition(g).cores


def meets_two_bridge_rule(cores) -> bool:
    """True when every core component touches at most two bridges."""
    return all(len(c.incident_bridges) <= 2 for c in cores)


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two vertex classes with no internal edge, or None if an odd cycle
    exists.  The classes are the parities of the ``_layers`` depths, so the
    lowest id of each component lands in the first class; an edge inside one
    layer closes an odd cycle."""
    depth, cover = _layers(g)
    return None if cover else _parity_classes(depth)


def _parity_classes(depth) -> tuple[frozenset[int], frozenset[int]]:
    return (frozenset(v for v, d in enumerate(depth) if not d & 1),
            frozenset(v for v, d in enumerate(depth) if d & 1))


def shortest_odd_cycle(g: Graph) -> tuple[int, ...] | None:
    """A shortest odd cycle as a vertex tuple, or None if the graph is
    bipartite.

    The cycle is read from a BFS over the parity double cover, whose states
    are (vertex, parity of the walk so far): the first walk from (s, 0) to
    (s, 1) is a shortest odd closed walk through s.  Let L be the odd girth.
    A closed odd walk of length L is a simple cycle, since a repeated vertex
    would split it into two closed walks, one of them odd and shorter.  The
    answer is the cycle that BFS gives from the lowest start s whose shortest
    odd closed walk has length L, found in two steps.

    1. The odd girth.  Each component is laid out in BFS layers from its
       lowest vertex, and ``_layers`` gives a vertex cover of the edges
       inside one layer.  L is the least length found by the double-cover
       BFS from the cover vertices, each run cut off at the best length so
       far.  It is the odd girth: an edge between adjacent layers changes
       the layer parity and a closed walk changes it an even number of
       times, so a shortest odd cycle has an edge inside one layer, hence a
       cover vertex, whose run attains L.  With an empty cover the graph is
       bipartite, and no BFS runs at all: O(n + m).
    2. The start.  The vertices within (L - 1) / 2 of the cover, found by
       one multi-source BFS, are tried in increasing order, with the BFS
       cut off at depth L; the first s that reaches (s, 1) is the start.
       No start that attains L is skipped: every vertex of a shortest odd
       cycle is at most (L - 1) / 2 steps along it from its cover vertex.
       The run from s stops at that first reach, so the parent map holds
       exactly what an uncut BFS from s holds at that moment.  A search
       that tries every start in turn, each run cut off at the best length
       so far, also keeps the first start that attains L and reads its
       cycle from the same parent map, so the two return the same cycle.

    Step 1 runs few BFS: on a long odd cycle one, on dense graphs a short
    L cuts every run early.  Step 2 costs one BFS of depth L per start
    tried, so the worst case stays O(n*m), the classic bound for shortest
    cycles (Itai and Rodeh 1978), but only vertices near an edge inside a
    layer are tried.
    """
    return _shortest_odd_cycle(g, _layers(g)[1])


def _shortest_odd_cycle(g: Graph, cover) -> tuple[int, ...] | None:
    """``shortest_odd_cycle`` from the cover of the intra-layer edges that
    ``_layers`` gave."""
    if not cover:
        return None
    limit = 2 * g.n             # beyond any shortest odd closed walk
    for v in cover:
        found = _odd_walk(g, v, limit)
        if found is not None:
            girth = found[0]
            limit = girth - 2
            if limit < 3:       # no odd cycle is shorter than a triangle
                break
    for s in sorted(_ball(g, cover, girth // 2)):
        found = _odd_walk(g, s, girth)
        if found is not None:
            break
    parent = found[1]
    walk = []
    state = 2 * s + 1
    while state is not None:
        walk.append(state >> 1)
        state = parent[state]
    walk.reverse()              # s .. s, odd number of edges
    cyc = tuple(walk[:-1])
    if (len(cyc) != girth or len(set(cyc)) != len(cyc)
            or not all(g.has_edge(*e) for e in _steps(cyc, closed=True))):
        raise AssertionError(f"shortest odd closed walk {cyc} is not an odd cycle")
    return cyc


def _layers(g: Graph) -> tuple[list[int], list[int]]:
    """The one BFS layering: each component is laid out in layers from its
    lowest vertex.  Returns the depth of every vertex and, in order, a
    vertex cover of the edges inside one layer: the endpoint expanded first
    joins it unless the other one already has.  It is empty exactly when
    the graph is bipartite."""
    depth = [-1] * g.n
    cover = set()
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for x in queue:
            for y in g.neighbors(x):
                if depth[y] < 0:
                    depth[y] = depth[x] + 1
                    queue.append(y)
                elif depth[y] == depth[x] and y not in cover:
                    cover.add(x)
    return depth, sorted(cover)


def _ball(g: Graph, sources, radius: int) -> set[int]:
    """The vertices at most ``radius`` steps from ``sources``, by one
    multi-source BFS cut off at that depth."""
    seen = set(sources)
    frontier = list(seen)
    for _ in range(radius):
        reached = []
        for x in frontier:
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
        frontier = reached
    return seen


def _bfs_forest(g: Graph, roots, skip=frozenset()):
    """The one multi-source BFS forest: (parent map, the vertices it reaches
    in discovery order), from the roots in increasing order.  Roots have no
    parent; ``skip`` vertices are neither visited nor crossed."""
    parent: dict[int, int] = {}
    seen = set(roots) | set(skip)
    order: list[int] = []
    queue = deque(sorted(roots))
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y not in seen:
                seen.add(y)
                parent[y] = x
                order.append(y)
                queue.append(y)
    return parent, order


def _odd_walk(g: Graph, s: int, limit: int):
    """BFS over the parity double cover from (s, 0), one depth at a time,
    up to its first reach of (s, 1).  Returns (depth, parent), where parent
    maps each state 2x + parity reached to the state it was reached from,
    or None when (s, 1) is more than ``limit`` steps away."""
    home = 2 * s + 1
    parent = {2 * s: None}
    frontier = [2 * s]
    depth = 0
    while frontier and depth < limit:
        depth += 1
        reached = []
        for state in frontier:
            x, flip = state >> 1, (state & 1) ^ 1
            for y in g.neighbors(x):
                t = 2 * y + flip
                if t not in parent:
                    parent[t] = state
                    if t == home:
                        return depth, parent
                    reached.append(t)
        frontier = reached
    return None


# ---------------------------------------------------------------------------
# Two internally disjoint paths via unit-capacity max flow
# ---------------------------------------------------------------------------

def two_disjoint_paths(g: Graph, w: int, targets) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two paths from w to the target set that share only w, end at distinct
    targets, and avoid targets internally.

    Computed by two augmentations of unit-capacity max flow with vertex
    splitting (Menger; Ford and Fulkerson); raises ValueError when no such
    pair exists.  Every vertex but w carries at most one unit, so the whole
    flow is one map, pred[v] = u when the unit entering v comes from u, and
    the residual arcs are generated from g's adjacency.
    """
    targets = set(targets)
    if w in targets:
        raise ValueError("start vertex lies in the target set")
    if len(targets) < 2:
        raise ValueError("need at least two target vertices")

    # Residual nodes: in(v) = 2v, out(v) = 2v + 1; a BFS reaches the sink
    # when it expands in(t) for a target t that carries no unit.  Targets
    # have no in->out arc, so paths cannot pass through them.
    source = 2 * w + 1
    pred: dict[int, int] = {}
    for _ in range(2):
        prev = {source: None}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            v = x >> 1
            if x & 1:
                # out(v) -> in(u) for every neighbor u, and back to in(v) if
                # v carries a unit, in node-id order: the order decides which
                # shortest augmenting path is found.  The arc to in(u) with
                # pred[u] == v is saturated but needs no test: in(u) is then
                # out(v)'s only way in, so already reached, or v = w and
                # in(u) leads only back to the source.  No target's out-node
                # is ever reached, as targets feed no vertex.
                nxt = [2 * u for u in g.neighbors(v)]
                if v in pred:
                    insort(nxt, x - 1)
            elif v in pred:
                nxt = (2 * pred[v] + 1,)        # cancel v's unit
            elif v in targets:
                break
            else:
                nxt = (x + 1,)      # for v = w the source, already reached
            for y in nxt:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        else:
            raise ValueError(f"no two internally disjoint paths from {w} to the targets")
        while x != source:          # record the path's arcs in pred
            u = prev[x]
            if u >> 1 != x >> 1:
                if u & 1:
                    pred[x >> 1] = u >> 1
                else:
                    # The unit entering this vertex is cancelled; the arc
                    # before it on the path, if forward, gives it a new one.
                    # Kept so that pred stays the exact flow, although a
                    # stale entry would lie off both paths read below.
                    del pred[u >> 1]
            x = u

    paths = []
    for t in targets & pred.keys():
        path = [t]
        while path[-1] != w:
            path.append(pred[path[-1]])
        paths.append(tuple(reversed(path)))
    paths.sort(key=lambda p: (p[-1], p))
    p1, p2 = paths

    if (p1[-1] == p2[-1] or not set(p1[1:]).isdisjoint(p2[1:])
            or not targets.isdisjoint(p1[1:-1] + p2[1:-1])):
        raise AssertionError(f"paths {p1} and {p2} are not internally disjoint")
    return p1, p2


# ---------------------------------------------------------------------------
# Two edge-disjoint odd cycles (semi-decision)
# ---------------------------------------------------------------------------

def _cycle_edges(vs, closed=True) -> set[tuple[int, int]]:
    """The canonical edges of the cycle vs (of the path vs unless ``closed``)."""
    return {canonical_edge(x, y) for x, y in _steps(vs, closed)}


def cycle_connector(g: Graph, c1, c2) -> tuple[int, ...]:
    """Lowest shared vertex as a singleton, else a shortest path from c1 to
    c2 whose interior avoids both cycles."""
    shared = sorted(set(c1) & set(c2))
    if shared:
        return (shared[0],)
    parent, order = _bfs_forest(g, c1)
    side2 = set(c2)
    end = next((v for v in order if v in side2), None)
    if end is None:
        raise AssertionError("cycles lie in different components")
    path = [end]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def _connect(g: Graph, c1, c2):
    """(c1, c2, their ``cycle_connector``), each cycle rotated to start at
    its end of the connector."""
    conn = cycle_connector(g, c1, c2)
    return rotate_cycle(c1, conn[0]), rotate_cycle(c2, conn[-1]), conn


def disjoint_odd_cycles(g: Graph):
    """Two edge-disjoint odd cycles plus a connector, or None if not found.

    Returns (cycle1, cycle2, connector) where the connector is a vertex path
    whose first vertex lies on cycle1 and last on cycle2; a single-vertex
    connector means the cycles share that vertex.  Detection is a
    semi-decision: None means "not found", never a proof of absence.
    """
    return _disjoint_odd_cycles(g, decomposition(g))


def _disjoint_odd_cycles(g: Graph, dec: Decomposition):
    found = list(islice(dec.odd_blocks(), 2))
    if len(found) == 2:
        # Two nonbipartite blocks give cycles in different blocks immediately.
        (_, c1), (_, c2) = found
    else:
        # Otherwise remove the one odd block's shortest odd cycle and search
        # the rest of that block.  The other blocks are bipartite, so every
        # odd cycle of the graph minus c1 lies in the block, and a BFS
        # excursion out of it comes back through the same cut vertex at the
        # same parity, never reaching a block state first: the whole graph's
        # search would find the same cycles.
        if not found:
            return None
        blk, c1 = found[0]
        used = _cycle_edges(c1)
        old = sorted(blk)
        index = {v: i for i, v in enumerate(old)}
        c2 = shortest_odd_cycle(Graph.__new__(Graph)._build(len(old), [
            (index[u], index[v]) for u, v in g.edges
            if u in index and v in index and (u, v) not in used]))
        if c2 is None:
            return None
        c2 = tuple(old[v] for v in c2)
    return _connect(g, c1, c2)


def rotate_cycle(cyc, v):
    i = cyc.index(v)
    return tuple(cyc[i:] + cyc[:i])


# ---------------------------------------------------------------------------
# Core contraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoreContraction:
    """The graph obtained by contracting each nontrivial bridgeless-core
    component to a single vertex; its edges are exactly the bridges."""

    graph: Graph
    is_path: bool


def contract_core_graph(g: Graph) -> CoreContraction:
    """Contract every nontrivial core component; the result is a tree, and it
    is a path exactly when every component touches at most two bridges."""
    return decomposition(g).contraction


@dataclass(frozen=True)
class Decomposition:
    """The structural facts the coloring constructions rely on, for one
    connected graph; the bipartition, contraction and odd cycles are
    computed on demand.  ``arcs`` holds each block's edges as the
    ``_low_link`` DFS oriented them, aligned with ``blocks``.  ``depth`` and
    ``ends`` are its ``_layers``: ``ends`` is the vertex cover of the edges
    inside one layer, empty exactly when the graph is bipartite.  On a
    bipartite block the depth parities are the block's classes up to one
    swap, as shortest paths from vertex 0 enter it at one cut vertex."""

    bridges: frozenset[tuple[int, int]]
    blocks: tuple[frozenset[int], ...]
    arcs: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)
    cores: tuple[CoreComponent, ...]
    depth: tuple[int, ...] = field(repr=False)
    ends: tuple[int, ...]
    graph: Graph = field(repr=False)
    _block_cycles: dict[frozenset[int], tuple[int, ...] | None] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def two_bridge_rule(self) -> bool:
        return meets_two_bridge_rule(self.cores)

    @cached_property
    def contraction(self) -> CoreContraction:
        vmap = [0] * self.graph.n
        for cid, comp in enumerate(self.cores):
            for v in comp.vertices:
                vmap[v] = cid
        f = Graph(len(self.cores), [(vmap[u], vmap[v]) for u, v in sorted(self.bridges)])
        if f.m != f.n - 1:
            raise AssertionError("contraction of the bridgeless core must be a tree")
        return CoreContraction(f, f.max_degree() <= 2)

    @cached_property
    def bipartition(self) -> tuple[frozenset[int], frozenset[int]] | None:
        """What ``bipartition`` gives for the graph, read from ``depth``."""
        return None if self.ends else _parity_classes(self.depth)

    def odd_blocks(self):
        """Yield (block, a shortest odd cycle of it) for each nonbipartite
        block in block order.  A block is searched when the iteration first
        reaches it, and never again: the whole graph as ``odd_cycle``, a
        smaller block in its induced copy."""
        if not self.ends:
            return
        for blk in self.blocks:
            if blk not in self._block_cycles and len(blk) > 2:
                if len(blk) == self.graph.n:    # the block is the whole graph
                    cyc = self.odd_cycle
                else:
                    sub, old = self.graph.induced(blk)
                    cyc = shortest_odd_cycle(sub)
                    cyc = cyc and tuple(old[v] for v in cyc)
                self._block_cycles[blk] = cyc
            if self._block_cycles.get(blk):
                yield blk, self._block_cycles[blk]

    @cached_property
    def odd_cycle(self) -> tuple[int, ...] | None:
        """The shortest odd cycle ``shortest_odd_cycle`` gives for the whole
        graph, or None when it is bipartite."""
        return _shortest_odd_cycle(self.graph, self.ends)


def decomposition(g: Graph) -> Decomposition:
    """Bridges, blocks with their arcs, cores and BFS layering of a connected
    graph, from one low-link pass and one ``_layers`` run."""
    blks, arcs, comps = _low_link(g)
    cut = _bridges_of(blks)
    comp = [0] * g.n
    for cid, vs in enumerate(comps):
        for v in vs:
            comp[v] = cid
    incident: list[list[tuple[int, int]]] = [[] for _ in comps]
    for u, v in sorted(cut):
        incident[comp[u]].append((u, v))
        incident[comp[v]].append((u, v))
    cores = tuple(CoreComponent(vs, tuple(inc)) for vs, inc in zip(comps, incident))
    return Decomposition(cut, blks, arcs, cores, *map(tuple, _layers(g)), g)
