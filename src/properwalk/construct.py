"""Constructive 2- and 3-colorings with properly colored walks, and the
dispatcher that routes a graph to the right construction.

Every operation here verifies its own output with the all-pairs walk checker
before returning; a rejected coloring is an internal error, never a result.
Exactness claims are explicit: ``status == "exact"`` means no smaller color
count can work for this graph, either because the exhaustive solver said so
or because the routing established matching lower and upper bounds.

The searches come from ``decompose``: ``_low_link`` is the one graph DFS,
``_layers`` the one BFS layering and ``_bfs_forest`` the one forest BFS.
``_hang_trees`` colors every pendant forest, which ``_bfs_forest`` grows off
a colored core.  ``_head_colored`` colors every oriented bipartite part (the
cores and blocks along their low-link arcs) by its arc heads' classes.
``graphs._steps`` is the one split of a vertex sequence into its edges, and
``_alternate`` the one alternation rule: every cycle and path a construction
colors alternates, and a construction then recolors at most its break edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

from .graphs import (ColoringResult, EdgeColoring, Graph, _steps,
                     canonical_edge, emit_graph)
from .decompose import (Decomposition, _bfs_forest, _connect, _cycle_edges,
                        _disjoint_odd_cycles, _layers, decomposition,
                        rotate_cycle, shortest_odd_cycle, two_disjoint_paths)
from .orient import path_anchored_orientation
from .verify import verify_all_pairs
from . import exact as _exact


def _finalize(g: Graph, assignment, k: int, status: str, provenance: str) -> ColoringResult:
    coloring = EdgeColoring(k, assignment)
    ok, pair = verify_all_pairs(g, coloring)
    if not ok:
        raise AssertionError(
            f"internal error: '{provenance}' coloring rejected at pair {pair} for graph:\n"
            + emit_graph(g))
    return ColoringResult(k, coloring, status, provenance)


def _hang_trees(g: Graph, assignment: dict, hub, hub_color: dict, skip=frozenset()):
    """Color the BFS forest that hangs off the ``hub`` vertices, without
    crossing ``skip``: an edge at hub vertex x takes hub_color[x], and every
    deeper edge differs from its parent edge (2 after 1, else 1).  Returns
    the forest's parent map."""
    parent, order = _bfs_forest(g, hub, skip)
    into: dict[int, int] = {}      # color of the forest edge into each vertex
    for child in order:
        par = parent[child]
        col = hub_color[par] if par not in into else 2 if into[par] == 1 else 1
        into[child] = col
        assignment[canonical_edge(par, child)] = col
    return parent


def _alternate(assignment: dict, vs, phase: int = 0, closed: bool = False) -> None:
    """The one alternation rule: color step i of ``_steps(vs, closed)``
    1 + (i + phase) % 2."""
    for i, (x, y) in enumerate(_steps(vs, closed)):
        assignment[canonical_edge(x, y)] = 1 + (i + phase) % 2


# ---------------------------------------------------------------------------
# Trees and the general three-color construction
# ---------------------------------------------------------------------------

def color_tree(t: Graph) -> ColoringResult:
    """Properly edge-color a tree with exactly max-degree colors.

    In a tree every properly colored walk is a path, so a proper edge
    coloring is both necessary and sufficient, and the maximum degree is the
    exact answer.
    """
    if not t.is_tree() or t.n < 2:
        raise ValueError("input must be a tree with at least one edge")
    delta = t.max_degree()
    root = min(v for v in range(t.n) if t.degree(v) == delta)
    parent, order = _bfs_forest(t, [root])
    assignment = {}
    into = {root: 0}        # color of the edge into each vertex
    nxt: dict[int, int] = {}
    for w in order:         # children in neighbor order, skipping into[v]
        v = parent[w]
        col = nxt.get(v, 1)
        if col == into[v]:
            col += 1
        assignment[canonical_edge(v, w)] = into[w] = col
        nxt[v] = col + 1
    return _finalize(t, assignment, delta, "exact", "tree")


def _cycle_through_first_chord(g: Graph):
    """A cycle of g: spanning-tree paths closed by the first non-tree edge."""
    parent = _bfs_forest(g, [0])[0]
    tree = {canonical_edge(x, p) for x, p in parent.items()}
    a, b = next(e for e in g.edges if e not in tree)
    up_a = [a]
    while up_a[-1] in parent:
        up_a.append(parent[up_a[-1]])
    mark = {v: i for i, v in enumerate(up_a)}
    path_b = [b]
    while path_b[-1] not in mark:
        path_b.append(parent[path_b[-1]])
    lca = path_b[-1]
    cyc = up_a[:mark[lca] + 1] + list(reversed(path_b[:-1]))
    return tuple(cyc)


def color_unicyclic3(g: Graph) -> ColoringResult:
    """Color any connected cyclic graph with at most three colors.

    Properly color one retained cycle; every pendant-forest edge at a cycle
    vertex takes a color missing from that vertex's two cycle edges, deeper
    forest edges just differ from their parent edge, and every other edge is
    color 1 (extra edges never break accepted walks).
    """
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if g.m == g.n - 1:
        raise ValueError("graph is acyclic; use the tree construction")
    cyc = _cycle_through_first_chord(g)
    assignment = {}
    _alternate(assignment, cyc, closed=True)
    if len(cyc) % 2:
        assignment[canonical_edge(cyc[-1], cyc[0])] = 3
    cols = [assignment[canonical_edge(x, y)] for x, y in _steps(cyc, closed=True)]
    hub_color = {v: min({1, 2, 3} - {cols[i - 1], cols[i]}) for i, v in enumerate(cyc)}
    _hang_trees(g, assignment, cyc, hub_color)
    for e in g.edges:
        assignment.setdefault(e, 1)
    k = max(assignment.values())
    return _finalize(g, assignment, k, "upper-bound", "unicyclic")


# ---------------------------------------------------------------------------
# Bipartite graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionViolation:
    """A bridgeless-core component touching three or more bridges.

    For a connected bipartite graph this certifies that no 2-coloring can
    give properly colored walks between all pairs.
    """

    component: frozenset[int]
    bridge_count: int

    def __str__(self):
        return (f"core component {sorted(self.component)} touches "
                f"{self.bridge_count} bridges (more than two)")


def _head_colored(assignment: dict, arcs, depth, base: int = 0) -> None:
    """Color each arc a -> b of an oriented bipartite part by the class of
    its head, 1 + ((depth[b] ^ base) & 1), where the parities of ``depth``
    are the part's classes; directed walks then alternate colors."""
    for a, b in arcs:
        assignment[canonical_edge(a, b)] = 1 + ((depth[b] ^ base) & 1)


def color_bipartite2(g: Graph):
    """Two-color a connected bipartite graph (at least 3 vertices), or report
    the violating core component when some component touches three or more
    bridges (in which case two colors cannot suffice).

    Each nontrivial bridgeless-core component is head-colored along the
    low-link arcs of its blocks, a strong orientation; each bridge, oriented
    away from an end of the contracted path, takes its head's class relative
    to the first bridge's head, so consecutive bridges share a color exactly
    when their attachment vertices in the shared component lie in different
    classes.
    """
    dec = decomposition(g)
    if g.n < 3:
        raise ValueError("need at least 3 vertices")
    if dec.bipartition is None:
        raise ValueError("graph is not bipartite")
    return _bipartite2(g, dec)


def _bipartite2(g: Graph, dec: Decomposition):
    for comp in dec.cores:
        if len(comp.incident_bridges) > 2:
            return ConditionViolation(comp.vertices, len(comp.incident_bridges))

    depth = dec.depth
    assignment = {}
    for blk, arcs in zip(dec.blocks, dec.arcs):
        if len(blk) > 2:            # the blocks of the nontrivial cores
            _head_colored(assignment, arcs, depth)
    if dec.bridges:
        # a bridge lies in every spanning forest, so the forest grown from
        # an end core reaches the bridges' heads in path order
        first = next(c for c in dec.cores if len(c.incident_bridges) == 1)
        parent, order = _bfs_forest(g, first.vertices)
        heads = [h for h in order if canonical_edge(parent[h], h) in dec.bridges]
        for h in heads:
            assignment[canonical_edge(parent[h], h)] = 1 + ((depth[h] ^ depth[heads[0]]) & 1)
    return _finalize(g, assignment, 2, "exact", "bipartite")


# ---------------------------------------------------------------------------
# Two edge-disjoint odd cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoOddLayout:
    """Two edge-disjoint odd cycles plus the connector between them.

    Cycles are rotated so the connector runs from cycle_a[0] to cycle_b[0];
    a single-vertex connector means the cycles share that vertex.
    """

    cycle_a: tuple[int, ...]
    cycle_b: tuple[int, ...]
    connector: tuple[int, ...]


def _check_layout(g: Graph, layout: TwoOddLayout) -> None:
    ca, cb, conn = layout.cycle_a, layout.cycle_b, layout.connector
    if len(ca) % 2 == 0 or len(cb) % 2 == 0:
        raise ValueError("cycles must be odd")
    if _cycle_edges(ca) & _cycle_edges(cb):
        raise ValueError("cycles share an edge")
    for x, y in _steps(ca, closed=True) + _steps(cb, closed=True):
        if not g.has_edge(x, y):
            raise ValueError(f"cycle edge {canonical_edge(x, y)} missing from graph")
    if ca[0] != conn[0] or cb[0] != conn[-1]:
        raise ValueError("connector must run from cycle_a[0] to cycle_b[0]")
    if not all(g.has_edge(*e) for e in _steps(conn)):
        raise ValueError("connector is not a path in the graph")
    interior = set(conn[1:-1])
    if interior & (set(ca) | set(cb)):
        raise ValueError("connector passes through a cycle")


def color_two_odd_cycles2(g: Graph, layout: TwoOddLayout) -> ColoringResult:
    """Exact 2-coloring of a connected noncomplete graph holding two
    edge-disjoint odd cycles.

    Both first-cycle edges at the junction are red and the cycle alternates
    elsewhere; the connector alternates starting blue; the far cycle gets
    both junction edges red for an odd connector and blue otherwise, again
    alternating elsewhere.  Every vertex of the union then touches both
    colors, which is checked.
    """
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if g.is_complete():
        raise ValueError("complete graphs take one color, not this construction")
    _check_layout(g, layout)
    ca, cb, conn = layout.cycle_a, layout.cycle_b, layout.connector
    assignment = {}
    _alternate(assignment, ca, closed=True)
    _alternate(assignment, conn, phase=1)
    _alternate(assignment, cb, phase=len(conn) % 2, closed=True)

    hub = sorted(set(ca) | set(cb) | set(conn))
    seen_colors = {v: set() for v in hub}
    for (x, y), col in list(assignment.items()):
        seen_colors[x].add(col)
        seen_colors[y].add(col)
    if any(seen_colors[v] != {1, 2} for v in hub):
        raise AssertionError("every vertex of the two-cycle union must touch both colors")

    _hang_trees(g, assignment, hub, dict.fromkeys(hub, 1))
    for e in g.edges:
        assignment.setdefault(e, 1)
    return _finalize(g, assignment, 2, "exact", "two odd cycles")


def layout_from_cycles(g: Graph, c1, c2) -> TwoOddLayout:
    """Build a layout from two edge-disjoint odd cycles, connecting them by
    their lowest shared vertex or a shortest path."""
    return TwoOddLayout(*_connect(g, c1, c2))


# ---------------------------------------------------------------------------
# Spanning odd cycles and theta subgraphs
# ---------------------------------------------------------------------------

def color_spanning_odd_cycle2(g: Graph, cyc) -> ColoringResult:
    """Exact 2-coloring when an odd cycle spans every vertex: give the cycle
    exactly one break vertex (one vertex seeing the same color twice), color
    every chord 1."""
    cyc = tuple(cyc)
    if len(cyc) != g.n or len(set(cyc)) != g.n:
        raise ValueError("cycle must span every vertex exactly once")
    if len(cyc) % 2 == 0 or len(cyc) < 5:
        raise ValueError("need an odd spanning cycle of length at least 5")
    for x, y in _steps(cyc, closed=True):
        if not g.has_edge(x, y):
            raise ValueError(f"cycle edge ({x}, {y}) missing from graph")
    assignment = {}
    _alternate(assignment, cyc, closed=True)
    assignment[canonical_edge(cyc[-1], cyc[0])] = 2
    for e in g.edges:
        assignment.setdefault(e, 1)
    return _finalize(g, assignment, 2, "exact", "spanning odd cycle")


@dataclass(frozen=True)
class ThetaSubgraph:
    """An even outer cycle plus an inverter path joining two cycle vertices,
    with the union nonbipartite.  Crossing the inverter flips the direction
    in which a 2-colored walk can circulate, which is what makes the
    construction work."""

    cycle: tuple[int, ...]
    inverter: tuple[int, ...]

    @property
    def u(self) -> int:
        return self.inverter[0]

    @property
    def v(self) -> int:
        return self.inverter[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.inverter[1:-1]


def _cycle_arcs(cycle, u, v):
    """The two u..v arcs of a cycle through u and v, each as a vertex tuple."""
    rc = rotate_cycle(cycle, u)
    iv = rc.index(v)
    return rc[:iv + 1], (u,) + tuple(reversed(rc[iv:]))


def _check_theta(g: Graph, t: ThetaSubgraph) -> None:
    """Raise AssertionError, also under python -O, unless t is a theta
    subgraph of g: the descent builds every coloring of a theta block on it."""
    cyc, inv = t.cycle, t.inverter

    def fail(why):
        raise AssertionError(f"not a theta subgraph: {why}")

    if len(cyc) % 2 or len(cyc) < 4:
        fail(f"outer cycle has odd length or fewer than 4 vertices: {cyc}")
    if len(set(cyc)) != len(cyc):
        fail(f"outer cycle repeats a vertex: {cyc}")
    if len(set(inv)) != len(inv) or len(inv) < 2:
        fail(f"inverter repeats a vertex or has fewer than 2: {inv}")
    for what, steps in (("outer cycle", _steps(cyc, closed=True)), ("inverter", _steps(inv))):
        for x, y in steps:
            if not g.has_edge(x, y):
                fail(f"{what} edge ({x}, {y}) missing")
    if t.u not in cyc or t.v not in cyc:
        fail(f"inverter ends {t.u} and {t.v} are not both on the outer cycle")
    if set(inv[1:-1]) & set(cyc):
        fail("inverter interior meets the outer cycle")
    arc1, _ = _cycle_arcs(cyc, t.u, t.v)
    if (len(inv) - 1 + len(arc1) - 1) % 2 == 0:
        fail("inverter and outer arc close an even cycle, so the theta is bipartite")


def reduce_theta(g: Graph):
    """Find a theta subgraph whose removal of outer-cycle vertices leaves a
    bipartite graph, or two edge-disjoint odd cycles when the descent escapes.

    Starts from a shortest odd cycle plus two disjoint paths off a missing
    vertex; while some odd cycle survives off the outer cycle, either that
    cycle avoids the inverter's edges (escape: it is edge-disjoint from the
    odd cycle formed by the inverter and one outer arc) or one of its
    segments makes an odd cycle with the inverter and replaces part of it,
    strictly shortening the inverter.
    """
    soc = shortest_odd_cycle(g)
    if soc is None:
        raise ValueError("graph is bipartite")
    if len(soc) == g.n:
        raise ValueError("shortest odd cycle is spanning; no theta reduction needed")
    return _reduce_theta(g, soc)


def _reduce_theta(g: Graph, soc: tuple[int, ...]):
    on_cycle = set(soc)
    w = min(v for v in range(g.n) if v not in on_cycle)
    q1, q2 = two_disjoint_paths(g, w, on_cycle)
    third = tuple(reversed(q1)) + q2[1:]          # u .. w .. v
    u, v = third[0], third[-1]
    arc_a, arc_b = _cycle_arcs(soc, u, v)
    if (len(third) - len(arc_a)) % 2 == 0:
        outer = third + tuple(reversed(arc_a[1:-1]))
        inverter = arc_b
    else:
        outer = third + tuple(reversed(arc_b[1:-1]))
        inverter = arc_a
    theta = ThetaSubgraph(outer, inverter)
    _check_theta(g, theta)

    while True:     # each descent strictly shortens the inverter
        cyc_set = set(theta.cycle)
        rest = sorted(set(range(g.n)) - cyc_set)
        odd = None
        if rest:
            sub, old = g.induced(rest)
            found = shortest_odd_cycle(sub)
            if found is not None:
                odd = tuple(old[x] for x in found)
        if odd is None:
            return theta

        p = theta.inverter
        if not (_cycle_edges(odd) & _cycle_edges(p, closed=False)):
            # Escape: the inverter plus either outer arc is an odd cycle
            # edge-disjoint from the stray odd cycle.
            arc = min(_cycle_arcs(theta.cycle, theta.u, theta.v))
            second = p + tuple(reversed(arc[1:-1]))
            if len(second) % 2 == 0:
                raise AssertionError(f"escape cycle {second} has even length")
            return layout_from_cycles(g, odd, second)

        theta = _descend(g, theta, odd)


def _descend(g: Graph, theta: ThetaSubgraph, odd) -> ThetaSubgraph:
    """Replace the inverter span between two contact vertices by a segment of
    the stray odd cycle so the new inverter is strictly shorter."""
    p = theta.inverter
    pos = {x: i for i, x in enumerate(p)}
    p_edges = _cycle_edges(p, closed=False)
    length = len(odd)
    contacts = [i for i, x in enumerate(odd) if x in pos]
    if len(contacts) < 2:
        raise AssertionError("stray cycle shares an edge but not two inverter vertices")

    chosen = None
    for i, j in _steps(contacts, closed=True):
        seg = [odd[(i + t) % length] for t in range(((j - i) % length) + 1)]
        if len(seg) == 2 and canonical_edge(seg[0], seg[1]) in p_edges:
            continue
        span = abs(pos[seg[0]] - pos[seg[-1]])
        if span == 0:
            continue
        if (len(seg) - 1 + span) % 2 == 1:
            chosen = seg
            break
    if chosen is None:
        raise AssertionError("some segment must close an odd cycle with the inverter")

    if pos[chosen[0]] > pos[chosen[-1]]:
        chosen = list(reversed(chosen))
    x, y = chosen[0], chosen[-1]
    new_inverter = p[pos[x]:pos[y] + 1]
    arc = min(_cycle_arcs(theta.cycle, theta.u, theta.v))
    outer = (tuple(chosen)
             + p[pos[y] + 1:]
             + tuple(reversed(arc))[1:]
             + p[1:pos[x]])
    new_theta = ThetaSubgraph(outer, new_inverter)
    _check_theta(g, new_theta)
    if len(new_inverter) >= len(p):
        raise AssertionError(f"descent did not shorten the inverter {p}")
    return new_theta


def _assemble_theta_coloring(g: Graph, theta: ThetaSubgraph,
                             dirflag: int, cphase: int, hphase: int) -> dict:
    """One candidate 2-coloring for a fixed phase choice: which rotation of
    the outer cycle counts as forward, which alternation the cycle takes, and
    which global swap the inverter-side coloring takes."""
    cyc = theta.cycle if dirflag == 0 else tuple(reversed(theta.cycle))
    assignment = {}
    _alternate(assignment, cyc, phase=cphase, closed=True)
    forward_color = {x: assignment[canonical_edge(x, y)] for x, y in _steps(cyc, closed=True)}

    interior = set(theta.interior)
    parent = _hang_trees(g, assignment, cyc, forward_color, interior)

    outside = set(range(g.n)) - set(cyc) - interior
    inner_b = outside - set(parent)           # cannot reach the cycle off the interior
    p = theta.inverter
    if not inner_b:
        _alternate(assignment, p, phase=hphase)
    else:
        if len(p) < 4:
            raise AssertionError("inner vertices need at least two interior contact points")
        hverts = sorted(interior | inner_b)
        sub, old = g.induced(hverts)
        new_id = {o: i for i, o in enumerate(old)}
        oriented = path_anchored_orientation(sub, [new_id[x] for x in theta.interior])
        depth, ends = _layers(sub)
        if ends:
            raise AssertionError("region off the outer cycle must be bipartite after descent")
        _head_colored(assignment, [(old[a], old[b]) for a, b in oriented.arcs.arcs],
                      dict(zip(old, depth)), hphase)
        assignment[canonical_edge(p[0], p[1])] = 3 - assignment[canonical_edge(p[1], p[2])]
        assignment[canonical_edge(p[-2], p[-1])] = 3 - assignment[canonical_edge(p[-3], p[-2])]

    for e in g.edges:
        assignment.setdefault(e, 1)
    return assignment


def color_theta_block2(g: Graph) -> ColoringResult:
    """Exact 2-coloring of a 2-connected nonbipartite noncomplete graph.

    Routes spanning odd cycles and escaped two-odd-cycle layouts to their own
    constructions; otherwise colors around the reduced theta subgraph, trying
    the eight phase alignments and returning the first one the verifier
    accepts (at least one must pass)."""
    dec = decomposition(g)
    if g.is_complete():
        raise ValueError("graph is complete")
    if len(dec.blocks) != 1 or g.n < 3:
        raise ValueError("graph is not 2-connected")
    if dec.odd_cycle is None:
        raise ValueError("graph is bipartite")
    return _theta_block2(g, dec.odd_cycle)


def _theta_block2(g: Graph, soc: tuple[int, ...]) -> ColoringResult:
    if len(soc) == g.n:
        return color_spanning_odd_cycle2(g, soc)
    reduced = _reduce_theta(g, soc)
    if isinstance(reduced, TwoOddLayout):
        return color_two_odd_cycles2(g, reduced)
    for dirflag, cphase, hphase in product((0, 1), (0, 1), (0, 1)):
        assignment = _assemble_theta_coloring(g, reduced, dirflag, cphase, hphase)
        ok, _ = verify_all_pairs(g, EdgeColoring(2, assignment))
        if ok:
            return ColoringResult(2, EdgeColoring(2, assignment), "exact", "theta block")
    raise AssertionError(
        "internal error: no phase alignment verified for graph:\n" + emit_graph(g))


# ---------------------------------------------------------------------------
# Bridgeless graphs
# ---------------------------------------------------------------------------

def color_bridgeless2(g: Graph) -> ColoringResult:
    """Color a connected bridgeless graph: one color when complete, two
    otherwise, routed by how many blocks are nonbipartite."""
    dec = decomposition(g)
    if g.n < 2:
        raise ValueError("need at least 2 vertices")
    if dec.bridges:
        raise ValueError("graph has a bridge")
    return _bridgeless2(g, dec)


def _bridgeless2(g: Graph, dec: Decomposition) -> ColoringResult:
    if g.is_complete():
        return _finalize(g, {e: 1 for e in g.edges}, 1, "exact", "complete graph")

    odd = list(islice(dec.odd_blocks(), 2))
    if len(odd) == 2:
        inner = color_two_odd_cycles2(g, layout_from_cycles(g, odd[0][1], odd[1][1]))
        return ColoringResult(2, inner.coloring, "exact", "bridgeless: two odd cycles")

    if not odd:
        inner = _bipartite2(g, dec)
        if not isinstance(inner, ColoringResult):
            raise AssertionError("bridgeless graphs have no bridge rule to violate")
        return ColoringResult(2, inner.coloring, "exact", "bridgeless: bipartite")

    blk, cyc = odd[0]
    if len(dec.blocks) == 1:
        inner = _theta_block2(g, cyc)
        return ColoringResult(2, inner.coloring, "exact", "bridgeless: one odd block")

    sub, old = g.induced(blk)
    assignment = {}
    if sub.is_complete():
        # One hop crosses a complete block, so a single color on it suffices.
        assignment.update({canonical_edge(old[a], old[b]): 1 for a, b in sub.edges})
    else:
        new_id = {v: i for i, v in enumerate(old)}
        inner = _theta_block2(sub, tuple(new_id[v] for v in cyc))
        for (a, b), col in inner.coloring.assignment.items():
            assignment[canonical_edge(old[a], old[b])] = col
    # odd_blocks has searched every block, so the others are bipartite; a
    # class is the depth parity against the block's lowest vertex
    depth = dec.depth
    for other, arcs in zip(dec.blocks, dec.arcs):
        if other != blk:
            _head_colored(assignment, arcs, depth, depth[min(other)])
    return _finalize(g, assignment, 2, "exact", "bridgeless: one odd block")


# ---------------------------------------------------------------------------
# Odd cycles with feet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleFeetShape:
    """Classification of a graph as an odd cycle with pendant feet.

    Membership requires at least one foot.  A member takes two colors exactly
    when some cycle vertex v with cycle neighbors u and w captures all the
    feet: at most one foot each on u and w, none elsewhere beyond v.
    """

    member: bool
    cycle: tuple[int, ...] | None = None
    feet: tuple[int, ...] | None = None
    witness: tuple[int, int, int] | None = None
    reason: str | None = None

    @property
    def two_colors(self) -> bool:
        return self.member and self.witness is not None


def classify_cycle_feet(g: Graph) -> CycleFeetShape:
    """Decide membership in the odd-cycle-with-feet family and, for members,
    whether two colors suffice (with the witness triple) or three are needed."""
    if g.n < 4 or not g.is_connected():
        return CycleFeetShape(False, reason="too small or disconnected")
    if g.m != g.n:
        return CycleFeetShape(False, reason="edge count does not match a cycle with feet")
    core = [v for v in range(g.n) if g.degree(v) >= 2]
    if len(core) == g.n:
        return CycleFeetShape(False, reason="no feet")
    if len(core) % 2 == 0:          # m = n puts a cycle in the core: 3 or more
        return CycleFeetShape(False, reason="core is not an odd cycle")
    # Deleting the leaves of a connected graph leaves it connected, so a
    # closed walk along the core through vertices with two core neighbors
    # is the whole core, and each of its vertices has degree - 2 feet.
    cyc, prev = [core[0]], -1
    while True:
        ahead = [x for x in g.neighbors(cyc[-1]) if g.degree(x) >= 2]
        if len(ahead) != 2:
            return CycleFeetShape(False, reason="core is not an odd cycle")
        nxt = min(x for x in ahead if x != prev)
        if nxt == cyc[0]:
            break
        prev = cyc[-1]
        cyc.append(nxt)
    cyc, feet = tuple(cyc), tuple(g.degree(v) - 2 for v in cyc)
    # v's triple holds every foot, so v is the first footed vertex or next
    # to it; trying those in cycle order finds the first witness
    length, footed = len(cyc), [i for i, f in enumerate(feet) if f]
    for i in sorted({(footed[0] + d) % length for d in (-1, 0, 1)}):
        h, j = i - 1, (i + 1) % length
        if feet[h] <= 1 and feet[j] <= 1 and len(footed) == (
                (feet[h] > 0) + (feet[i] > 0) + (feet[j] > 0)):
            return CycleFeetShape(True, cyc, feet, (cyc[h], cyc[i], cyc[j]))
    return CycleFeetShape(True, cyc, feet, None,
                          reason="no consecutive triple captures all feet")


def color_cycle_feet2(g: Graph, shape: CycleFeetShape) -> ColoringResult:
    """Exact 2-coloring of a member with a witness triple (u, v, w): break
    the cycle at v, color feet at u and w like the uv edge and feet at v the
    other color."""
    if not shape.two_colors:
        raise ValueError("shape carries no two-color witness")
    u, v, w = shape.witness
    rc = rotate_cycle(shape.cycle, v)
    if rc[1] != w:
        rc = rotate_cycle(tuple(reversed(shape.cycle)), v)
    if rc[1] != w or rc[-1] != u:
        raise ValueError(f"witness {shape.witness} is not a path u-v-w on the cycle")
    assignment = {}
    _alternate(assignment, rc, closed=True)
    for foot in range(g.n):
        if g.degree(foot) != 1:
            continue
        anchor = g.neighbors(foot)[0]
        col = 2 if anchor == v else 1
        if anchor not in (u, v, w):
            raise ValueError(f"foot {foot} hangs off {anchor}, outside the witness triple")
        assignment[canonical_edge(foot, anchor)] = col
    return _finalize(g, assignment, 2, "exact", "cycle with feet")


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def pw_auto(g: Graph, exhaustive_budget: int = 18) -> ColoringResult:
    """Route a connected graph to the strongest applicable construction and
    report honestly whether the color count is exact or an upper bound.

    Order: complete, tree, bipartite (with the three-bridge lower bound on
    violation), bridgeless, cycle-with-feet, two edge-disjoint odd cycles,
    then an exhaustive two-color search when the graph is small enough, and
    finally the three-color construction as a plain upper bound.  Past the
    complete and tree exits the graph is decomposed once, and every later
    route reads that one ``Decomposition``.
    """
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if g.is_complete():
        return _finalize(g, {e: 1 for e in g.edges}, 1, "exact", "complete graph")
    if g.m == g.n - 1:                  # connected, so a tree
        return color_tree(g)
    dec = decomposition(g)
    if dec.bipartition is not None:
        res = _bipartite2(g, dec)
        if isinstance(res, ColoringResult):
            return res
        return _three_colors_exact(g, "unicyclic (three-bridge core rules out two)")
    if not dec.bridges:
        return _bridgeless2(g, dec)
    shape = classify_cycle_feet(g)
    if shape.member:
        if shape.two_colors:
            return color_cycle_feet2(g, shape)
        return _three_colors_exact(g, "unicyclic (feet placement rules out two)")
    found = _disjoint_odd_cycles(g, dec)
    if found is not None:
        return color_two_odd_cycles2(g, TwoOddLayout(*found))
    if g.m <= exhaustive_budget:
        res = _exact.exact_pw(g, max_k=2, budgets={2: exhaustive_budget})
        if res is not None:
            return ColoringResult(res.k, res.witness, "exact", "exhaustive search")
        return _three_colors_exact(g, "exhaustive refutation + unicyclic")
    return color_unicyclic3(g)


def _three_colors_exact(g: Graph, provenance: str) -> ColoringResult:
    """The three-color construction as an exact answer, once two colors are
    ruled out; it must then use all three."""
    uc = color_unicyclic3(g)
    if uc.k != 3:
        raise AssertionError(f"internal error: '{provenance}' used {uc.k} colors, not 3")
    return ColoringResult(3, uc.coloring, "exact", provenance)
