"""Brute-force ground truth: exact minimum color counts for properly colored
walk/path connectivity on small graphs and digraphs.

Colorings are enumerated in canonical form: the first edge (in canonical
order) is color 1 and each new color index first appears in edge order, which
removes the k! color-permutation symmetry.  The reported witness is always
the canonically smallest passing coloring.

Each level splits the edges into a prefix and a suffix and checks one
block per canonical prefix: its canonical suffixes, one lane each, in
lexicographic order.  A lane owns a field of n + 1 bits, n data bits and a
guard bit, and one Python int per (vertex, last color) state packs the
fields of every lane: the block kernel is a bit-parallel fixpoint over the
arcs, seeded with the empty walk, over every lane and every source at once.
What depends only on the suffixes is built once per table and cached with
it (_suffixes): the rows, the seed ints, and each edge's step list, its
nonzero (color, pick) pairs.  On a graph the pendant trees are peeled off
once per search (_peel): the kernel passes up each tree once, sweeps the
rest, the core, until nothing changes, and passes down each tree once.
Its sweeps visit the core's tails in breadth-first order, forward then
back, and skip a tail whose ints are unchanged; each visit costs one AND,
one OR and one compare per arc out of the tail and color the arc's edge
takes in some lane, so a zero pick costs nothing.  Every lane is seeded;
lanes that strand a leaf (see _dead_ends) are masked where the cover
starts, and a block whose lanes all do skips the kernel.  Passing lanes
come out lowest first, so witnesses and explored counts follow the
canonical order.  The search reads nothing from the verifiers, which
re-check each witness.

Pendant-tree lemma.  Let _peel remove t with parent p along edge e, and
let T be t's tree: t and the vertices removed before it on t's side of e.
No properly colored walk enters T along e and later leaves it.  Proof: e is
the only edge between T and the rest, so the walk leaves along e, and
between those two steps it makes a closed walk W in T from t.  If W is
empty, the walk takes e twice in a row.  Otherwise let x be a vertex of W
farthest from t: W enters x from its neighbor toward t and must leave to a
neighbor no farther from t, which is that one again.  Either way the walk
takes one edge twice in a row, in one color.  The lemma uses nothing but
the definition of a walk.  Lane by lane, with R the least fixpoint (R[v][c]
holds v and the sources of the walks to v whose last edge has color c + 1),
it makes each pass of the kernel exact:

- up: a walk to t whose last edge is not e comes from a child s of t, so
  by the lemma for s it starts in s's tree and stays there until that
  last step.  Taken in peel order, t's ints, seeded and fed by its
  children alone, hold R[t] in every color but e's, and those that may
  take e give p every walk that comes up out of T;
- sweeps: a walk that ends in the core never enters a tree once it is in
  the core, so it comes up out of at most one tree, at its start, and then
  follows the core's arcs: sweeps over those arcs alone complete R there;
- down: taken in reverse peel order, p holds R[p] when t is reached, and
  the walks to t along e are those of R[p] that may take e, in e's color
  alone.  With the walks from t's children that is R[t].

Each level is one generator, _level, that yields its walk-passing colorings
in order; _solve chains the levels, _guarded is the solvers' one checked
entry to it, exact_pw, exact_pp and exact_directed take the first coloring
their acceptor passes, and exact_pw_pp reads pW and pP off one stream.
The solver uses no theorem about the answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, product
from operator import or_

from .graphs import Digraph, EdgeColoring, Graph, _reached, canonical_edge
from .verify import _first_path_failure, verify_all_pairs, verify_all_pairs_directed


PATH_VERTEX_LIMIT = 10
_LANES = 1024       # most colorings in one block


class BudgetExceededError(ValueError):
    """An enumeration level would exceed its edge budget."""

    def __init__(self, k: int, m: int, limit: int):
        super().__init__(f"level k={k} needs {m} <= {limit} edges")
        self.k = k
        self.m = m
        self.limit = limit


def _edge_budget(k: int, budgets) -> int:
    if budgets and k in budgets:
        return budgets[k]
    if k == 1:
        return 10 ** 9
    return 20 if k == 2 else 13


@dataclass(frozen=True)
class ExactResult:
    k: int
    witness: EdgeColoring
    explored: int


# ---------------------------------------------------------------------------
# Canonical enumeration
# ---------------------------------------------------------------------------

def _advance_py(colors, maxp, k) -> int:
    """Step to the next canonical coloring in lexicographic order; returns
    the lowest index it changed (at least 1), or 0 when the level ends."""
    m = len(colors)
    i = m - 1
    while i >= 1:
        cap = maxp[i - 1] + 1
        if cap > k:
            cap = k
        if colors[i] < cap:
            colors[i] += 1
            mp = colors[i] if colors[i] > maxp[i - 1] else maxp[i - 1]
            maxp[i] = mp
            for j in range(i + 1, m):
                colors[j] = 1
                maxp[j] = mp
            return i
        i -= 1
    return 0


def canonical_colorings(m: int, max_color: int):
    """Yield every canonical color sequence of length m with at most
    ``max_color`` colors, in lexicographic order.  For max_color = 2 there
    are exactly 2**(m-1) of them (the first edge is pinned to color 1).
    Raises ValueError at the call when m < 0, or max_color < 1 while m >= 1."""
    if m < 0:
        raise ValueError(f"m must be at least 0, got {m}")
    if m and max_color < 1:
        raise ValueError(f"max_color must be at least 1, got {max_color}")
    return _canonical(m, max_color)


def _canonical(m, max_color):
    if m == 0:
        yield ()
        return
    colors = [1] * m
    maxp = [1] * m
    while True:
        yield tuple(colors)
        if not _advance_py(colors, maxp, max_color):
            return


def _level(k, pairs, core, dead, before, order, peel):
    """Yield ExactResult(k, witness, before + explored) for each canonical
    coloring of level k that passes the all-pairs walk check, in canonical
    order, and return the level's count of colorings.  ``dead`` is the
    _dead_ends table of the _neighbor_table of ``pairs``; ``core`` and
    ``peel`` are that table split by _peel (the table itself and no peel
    list on a digraph), and ``order`` the core's tails in the order of
    _block_ok's sweeps.  The peel changes no lane's answer (see the
    pendant-tree lemma in the module docstring).

    The last s edges are the suffix, with max(k, 2) ** s <= _LANES (the
    first edge is always in the prefix); k = 1 sizes as k = 2, which keeps
    s, and so _suffixes' recursion, small on graphs with many edges.  Each
    canonical prefix, in lexicographic order, makes one block: its
    canonical suffixes, one lane each, in lexicographic order.  The block
    reads its rows, seeds and tail from the cached table of its prefix's
    largest color, and a prefix edge of color c takes that table's
    one-color picks and step list; _live drops the lanes that strand a
    leaf, and _block_ok checks the rest at once."""
    m, n = len(pairs), len(core)
    s = 0
    while s < m - 1 and max(k, 2) ** (s + 1) <= _LANES:
        s += 1
    prefix, pmax = [1] * (m - s), [1] * (m - s)
    explored = 0
    while True:
        rows, tail, tail_steps, solid, units, seeds = _suffixes(s, k, pmax[-1], n)
        picks = [solid[c - 1] for c in prefix]
        picks += tail
        live = _live(picks, dead, solid[0][0])
        if live:
            steps = [units[c - 1] for c in prefix]
            steps += tail_steps
            for lane in _block_ok(k, core, steps, seeds, live, order, peel):
                witness = dict(zip(pairs, prefix + list(rows[lane])))
                yield ExactResult(k, EdgeColoring(k, witness), before + explored + lane + 1)
        explored += len(rows)
        if not _advance_py(prefix, pmax, k):
            return explored


@lru_cache(maxsize=256)
def _suffixes(s, k, top, n):
    """(rows, picks, steps, solid, units, seeds): the table of a block whose
    prefix's largest color is ``top``, as _packed lays it out, with what
    every block that reads it would otherwise build again.  steps[i] is
    the step list of suffix edge i, the (c, picks[i][c]) pairs whose pick
    is nonzero, in color order.  solid[c] is the picks of an edge that has
    color c + 1 in every lane, and units[c] its step list; solid[0][0] has
    every data bit of every lane set.  seeds[v] has bit v of every lane's
    field set: the empty walk at v.  Read-only."""
    rows, picks, ones = _packed(s, k, top, n)
    steps = tuple(tuple((c, pick) for c, pick in enumerate(row) if pick) for row in picks)
    solid = tuple((0,) * c + (ones,) + (0,) * (k - 1 - c) for c in range(k))
    units = tuple(((c, ones),) for c in range(k))
    low = ones & ~(ones << 1)
    return rows, picks, steps, solid, units, tuple(low << v for v in range(n))


@lru_cache(maxsize=256)
def _packed(s, k, top, n):
    """(rows, picks, ones) for the canonical color sequences of length s
    that may follow a prefix whose largest color is ``top``.  ``rows``
    lists them in lexicographic order, and row j is lane j, the field of
    bits j (n + 1) to j (n + 1) + n: n data bits, then a guard bit.
    picks[i][c] has every data bit of lane j set when rows[j][i] = c + 1,
    and ``ones`` every data bit of every lane (read-only)."""
    if s == 0:
        return ((),), (), (1 << n) - 1
    rows, picks, ones, shift = [], [[0] * k for _ in range(s)], 0, 0
    for c in range(1, min(top + 1, k) + 1):
        sub_rows, sub_picks, sub_ones = _packed(s - 1, k, max(top, c), n)
        picks[0][c - 1] = sub_ones << shift
        for row, sub in zip(picks[1:], sub_picks):
            for d, pick in enumerate(sub):
                row[d] |= pick << shift
        rows += [(c,) + row for row in sub_rows]
        ones |= sub_ones << shift
        shift += len(sub_rows) * (n + 1)
    return tuple(rows), tuple(map(tuple, picks)), ones


def _dead_ends(nbrs):
    """(e, others) for each vertex x whose only entry in ``nbrs`` is (y, e):
    a leaf, or a vertex of out-degree 1.  ``others`` lists the other edges
    or arcs leaving y.

    A coloring that gives all of them e's color strands x: a walk from x
    enters y along e and must leave y along a color other than e's, so it
    reaches only x and y.  It fails when n >= 3, so the table is empty
    when n < 3.  This follows from the definition of a walk alone.  Each
    set of edges {e} + others is listed once: on a graph, every leaf at y
    gives the set of y's edges."""
    if len(nbrs) < 3:
        return []
    found = {}
    for row in nbrs:
        if len(row) == 1:
            (y, e), = row
            others = [f for _, f in nbrs[y] if f != e]
            found.setdefault(frozenset(others + [e]), (e, others))
    return list(found.values())


def _live(picks, dead, ones):
    """The data bits of the lanes in ``ones`` that strand no leaf of the
    _dead_ends table ``dead``, under the picks of _suffixes."""
    live = ones
    for e, others in dead:
        for c, stranded in enumerate(picks[e]):
            for f in others:
                stranded &= picks[f][c]
            live &= ~stranded
    return live


def _block_ok(k, core, steps, seeds, live, order, peel):
    """The all-pairs walk check on every lane of a block at once: the lanes
    whose data bits are set in ``live``, each a coloring of the edges of
    the graph given by the step lists ``steps`` (see _suffixes), seeded by
    ``seeds``.  ``core`` and ``peel`` are its _neighbor_table split by
    _peel, or the table and no peel list, and ``order`` lists the core's
    tails.  Yields the passing lanes in increasing order.

    One Python int per (vertex v, color c) packs the fields of all lanes:
    bit u of lane i's field says that source u reaches v by a walk ending
    in color c + 1, or u = v.  The empty walk seeds bit v into every field
    of v, since it may leave v along any color.  Every lane is seeded and
    filled; the lanes outside ``live`` are masked where the cover starts,
    so they never pass.  avail[c] at a vertex a, the sources whose walks
    may leave a along color c + 1, is the seed alone at k = 1, the other
    color's int at k = 2 and the OR of the other colors' ints at k >= 3.
    A step a -> b along edge e then costs, per pair (c, pick) of e's step
    list, one AND of avail[c] with pick and one OR into b's int; a color
    that e takes in no lane costs nothing.

    The up pass steps from each peeled vertex t to its parent, in peel
    order, once.  The sweeps then visit the tails a in ``order``, then in
    reverse, and so on, skipping those whose ints are unchanged since
    their last visit, over the core's arcs alone, with a compare per step;
    with the _bfs_order that _solve passes, reach spreads along a sweep
    rather than one edge per sweep, in both directions.  They repeat
    until no int changes: the least fixpoint on the core, so the order
    sets only the number of sweeps.  Every head of a core arc must be a
    tail in ``order``, or it would stay dirty with no sweep to visit it: a
    sweep that visits no dirty tail while a vertex is dirty raises
    AssertionError.  The down pass steps from each parent
    to its peeled t, in reverse peel order, once.  By the pendant-tree
    lemma (module docstring) the ints then hold the least fixpoint of the
    whole graph, the same as sweeping every arc.  A lane passes when all
    n data bits of the AND over v of v's OR over colors are set: adding 1
    to its field then carries into the guard bit, and _lanes reads the
    passing guard bits lowest first."""
    n = len(core)
    reach = [[seed] * k for seed in seeds]
    for t, p, e in peel:
        avail, target = _others(k, reach[t], seeds[t]), reach[p]
        for c, pick in steps[e]:
            target[c] |= avail[c] & pick
    dirty = [False] * n
    for a in order:
        dirty[a] = True
    while True in dirty:
        swept = False
        for a in order:
            if not dirty[a]:
                continue
            swept = True
            dirty[a] = False
            avail = _others(k, reach[a], seeds[a])
            for b, e in core[a]:
                target = reach[b]
                for c, pick in steps[e]:
                    old = target[c]
                    new = old | (avail[c] & pick)
                    if new != old:
                        target[c] = new
                        dirty[b] = True
        if not swept:
            raise AssertionError("exact kernel: an arc enters a vertex that is not a tail in the sweep order")
        order = order[::-1]
    for t, p, e in reversed(peel):
        avail, target = _others(k, reach[p], seeds[p]), reach[t]
        for c, pick in steps[e]:
            target[c] |= avail[c] & pick
    cover = live
    for states in reach:
        cover &= reduce(or_, states)
    low = seeds[0]
    yield from _lanes((cover + low) & (low << n), n)


def _lanes(guards, n):
    """The lanes whose guard bit is set in ``guards``, lowest first, with
    fields of n + 1 bits: one x & -x per lane read, so a caller that stops
    at the first lane pays for one."""
    while guards:
        guard = guards & -guards
        yield guard.bit_length() // (n + 1) - 1
        guards ^= guard


def _others(k, ints, seed):
    """For each color c, the OR of ``ints`` over the colors other than c;
    the seed alone at k = 1.  At k >= 4 each is the OR of the colors
    before c and of those after it, built up from both ends."""
    if k == 1:
        return (seed,)
    if k == 2:
        return ints[1], ints[0]
    if k == 3:
        a, b, c = ints
        return b | c, a | c, a | b
    out, acc = [0] * k, 0
    for c in range(k - 1):
        acc |= ints[c]
        out[c + 1] = acc
    acc = 0
    for c in range(k - 1, 0, -1):
        acc |= ints[c]
        out[c - 1] |= acc
    return out


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------

def _neighbor_table(n, pairs, bidirectional):
    """nbrs[x] lists (y, edge index) for each edge or arc x -> y of pairs."""
    nbrs = [[] for _ in range(n)]
    for e, (u, v) in enumerate(pairs):
        nbrs[u].append((v, e))
        if bidirectional:
            nbrs[v].append((u, e))
    return nbrs


def _bfs_order(nbrs):
    """The vertices of ``nbrs`` in breadth-first order along its arcs, from
    vertex 0 and again from the lowest vertex not yet reached."""
    seen = [False] * len(nbrs)
    order = []
    for root in range(len(nbrs)):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for x in queue:
            for y, _ in nbrs[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        order += queue
    return order


def _peel(nbrs):
    """(core, peel) for the _neighbor_table of a connected graph: peel
    lists (t, parent, edge) for each vertex t removed while it had one
    neighbor left, its parent, along that edge, in the order of removal,
    until no vertex has one neighbor left or one vertex is left.  core is
    the table without the arcs of the removed edges, so a removed vertex
    has no arcs, and neither has the last vertex of a tree.  Each vertex
    comes after its children, so the removed vertices are the pendant
    trees.  With no leaf, core is nbrs itself."""
    leaves = [t for t, row in enumerate(nbrs) if len(row) == 1]
    if not leaves:
        return nbrs, []
    core, peel, left = nbrs[:], [], len(nbrs)
    for t in leaves:
        if left == 1:
            break
        (p, e), = core[t]
        core[t] = []
        left -= 1
        peel.append((t, p, e))
        row = core[p] = [arc for arc in core[p] if arc[0] != t]
        if len(row) == 1:
            leaves.append(p)
    return core, peel


def _solve(n, pairs, bidirectional, max_k, budgets):
    """The level loop behind every solver: yield ExactResult(k, witness,
    colorings explored so far) for each canonical coloring of ``pairs`` that
    passes the all-pairs walk check, level by level up to max_k.  Raises
    ValueError when max_k < 1, before any level.  A graph's pendant trees
    are peeled once here, for every level."""
    if max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {max_k}")
    m = len(pairs)
    if m == 0:
        yield ExactResult(1, EdgeColoring(1, {}), 1)
        return
    nbrs = _neighbor_table(n, pairs, bidirectional)
    dead = _dead_ends(nbrs)
    core, peel = _peel(nbrs) if bidirectional else (nbrs, [])
    order = [a for a in _bfs_order(core) if core[a]]
    total = 0
    for k in range(1, max_k + 1):
        limit = _edge_budget(k, budgets)
        if m > limit:
            raise BudgetExceededError(k, m, limit)
        total += yield from _level(k, pairs, core, dead, total, order, peel)


def _first(results, accept) -> ExactResult | None:
    """The first of ``results`` whose witness ``accept`` passes, or None.
    An iterator is left open, so a later call reads on from there."""
    for res in results:
        if accept(res.witness):
            return res
    return None


def _verified(verifier, graph):
    """Walk-mode acceptor: the search's witness must pass the public
    verifier, which shares no code with the block kernel.  A rejection
    is a kernel fault, raised even under python -O."""
    def accept(witness):
        ok, pair = verifier(graph, witness)
        if not ok:
            raise AssertionError(f"kernel accepted a coloring the verifier rejects at {pair}")
        return True
    return accept


def _guarded(g: Graph | Digraph, max_k: int, budgets, directed=False, paths=False):
    """The solvers' one entry to _solve: raises ValueError unless the graph
    is connected, or the ``directed`` solver's digraph strongly connected,
    and, when the solver searches ``paths``, unless it has at most
    PATH_VERTEX_LIMIT vertices."""
    if directed:
        if not g.is_strongly_connected():
            raise ValueError("digraph is not strongly connected")
    elif not g.is_connected():
        raise ValueError("graph is not connected")
    if paths and g.n > PATH_VERTEX_LIMIT:
        raise ValueError(f"path solver is limited to {PATH_VERTEX_LIMIT} vertices")
    return _solve(g.n, g.arcs if directed else g.edges, not directed, max_k, budgets)


def exact_pw(g: Graph, max_k: int = 3, budgets=None) -> ExactResult | None:
    """Smallest k <= max_k admitting an all-pairs properly-colored-walk
    coloring, or None when every level fails.  The witness is re-verified
    with verify_all_pairs before returning."""
    return _first(_guarded(g, max_k, budgets), _verified(verify_all_pairs, g))


def _paths_all_pairs(g: Graph | Digraph, coloring: EdgeColoring) -> bool:
    """Path-mode acceptor: a properly colored simple path joins every pair,
    unordered on a graph and ordered on a digraph."""
    return _first_path_failure(g, coloring) is None


def exact_pp(g: Graph, max_k: int = 3, budgets=None) -> ExactResult | None:
    """Smallest k admitting properly colored simple paths between all pairs.

    Candidates must pass the walk check first (every path is a walk), so the
    expensive path search only runs on walk-passing colorings.
    """
    return _first(_guarded(g, max_k, budgets, paths=True), partial(_paths_all_pairs, g))


def exact_pw_pp(g: Graph, max_k: int = 3, budgets=None):
    """(exact_pw(g, ...), exact_pp(g, ...)) from one enumeration, raising what
    either raises; pP is the first candidate from pW's on that has paths."""
    stream = _guarded(g, max_k, budgets, paths=True)
    pw = _first(stream, _verified(verify_all_pairs, g))
    return pw, pw and _first(chain([pw], stream), partial(_paths_all_pairs, g))


def exact_directed(d: Digraph, mode: str = "walk", max_k: int = 3,
                   budgets=None) -> ExactResult | None:
    """Exact arc-coloring count for a strongly connected digraph, over all
    ordered vertex pairs; mode "walk" or "path"."""
    if mode not in ("walk", "path"):
        raise ValueError(f"mode must be 'walk' or 'path', got {mode!r}")
    accept = (_verified(verify_all_pairs_directed, d) if mode == "walk"
              else partial(_paths_all_pairs, d))
    return _first(_guarded(d, max_k, budgets, directed=True, paths=mode == "path"), accept)


# ---------------------------------------------------------------------------
# Small-graph iterators (test support)
# ---------------------------------------------------------------------------

def _at_least_one_vertex(n):
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def _connected_subgraphs(n, edge_lists):
    """Graph(n, edges) for each subset of each list, in the order of its bit
    mask, that connects all n vertices."""
    for pairs in edge_lists:
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            adj = [[] for _ in range(n)]
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            if len(_reached(adj.__getitem__, 0)) == n:
                yield Graph(n, edges)


def connected_graphs(n: int):
    """All labeled connected graphs on exactly n vertices (desk scale).
    Raises ValueError at the call when n < 1."""
    _at_least_one_vertex(n)
    return _connected_subgraphs(n, [list(combinations(range(n), 2))])


def connected_bipartite_graphs(n: int):
    """All labeled connected bipartite graphs on exactly n vertices.
    Raises ValueError at the call when n < 1.

    Enumerates the side containing vertex 0 and all cross-edge subsets; a
    connected bipartite graph has a unique bipartition, so each graph shows
    up exactly once.
    """
    _at_least_one_vertex(n)
    sides = [{0} | {v for v in range(1, n) if pick >> (v - 1) & 1} for pick in range(1 << (n - 1))]
    crossing = [sorted(canonical_edge(a, b) for a in side for b in range(n) if b not in side)
                for side in sides]
    return _connected_subgraphs(n, crossing)


def labeled_trees(n: int):
    """All labeled trees on n vertices, decoded from Pruefer sequences.
    Raises ValueError at the call when n < 1."""
    _at_least_one_vertex(n)
    if n == 1:
        return iter([Graph(1)])
    return map(partial(_pruefer_tree, n), product(range(n), repeat=n - 2))


def _pruefer_tree(n, seq):
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    # classic decode: repeatedly join the smallest leaf to the next
    # sequence element
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return Graph(n, edges)
