"""Brute-force ground truth: exact minimum color counts for properly colored
walk/path connectivity on small graphs and digraphs.

Colorings are enumerated in canonical form: the first edge (in canonical
order) is color 1 and each new color index first appears in edge order, which
removes the k! color-permutation symmetry.  The reported witness is always
the canonically smallest passing coloring.

Each search checks its first _HEAD colorings one at a time with the
verifiers' all-pairs walk check, one SCC pass over the (vertex, last color)
states.  With numpy and at most 63 vertices, the rest of the level goes
through a numpy kernel in blocks of consecutive colorings, one uint64 lane
per coloring: a bit-parallel fixpoint over the arcs.  The lowest passing
lane is taken, so witness and explored count match the one-at-a-time
search.  Without numpy the whole search runs on the SCC pass.

Before either check, a coloring that strands a leaf is rejected: if x has
a single edge or arc e, to y, and every other edge leaving y has e's color,
then a walk from x must leave y along a color other than e's and cannot,
so with n >= 3 some vertex is unreachable from x.  This follows from the
definition of a walk alone.

exact_pw, exact_pp and exact_directed share one level loop, _solve, and
differ only in the acceptor a walk-passing coloring must also satisfy.  The
solver uses no theorem about the answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, combinations, product

from .graphs import Digraph, EdgeColoring, Graph
from .verify import (_colored_adjacency, _colored_out_adjacency, _first_failure,
                     _path_dfs, verify_all_pairs, verify_all_pairs_directed)

try:
    import numpy as _np
except ImportError:        # pragma: no cover - exercised in a subprocess test
    _np = None


PATH_VERTEX_LIMIT = 10
# Colorings each search checks one at a time before batching: one numpy
# block of the rest of a level, leaf filter included, costs as much as about
# 53 (k = 2) to 77 (k = 3) of those checks, median 72, on 6-vertex graphs
# (2-vCPU x86 VM).
_HEAD = 64
_LANES = 1024       # most colorings in one numpy block


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
    are exactly 2**(m-1) of them (the first edge is pinned to color 1)."""
    if m == 0:
        yield ()
        return
    colors = [1] * m
    maxp = [1] * m
    while True:
        yield tuple(colors)
        if not _advance_py(colors, maxp, max_color):
            return


def _find_pass(k, nbrs, dead, colors, maxp, skip_current):
    """Advance through canonical colorings until one passes the all-pairs
    walk check; returns (found, explored) with the witness left in colors
    and maxp.  ``nbrs`` is the _neighbor_table of the edges and ``dead``
    their _dead_ends table.  The first _HEAD candidates go one at a time
    through verify's SCC pass; the rest of the level goes through
    _search_blocks.

    A candidate that strands a leaf fails without the SCC pass, and still
    counts as explored: a walk from x, whose only edge or arc e runs to y,
    enters y along e and must leave y along a color other than e's, so if
    every other edge leaving y has e's color it reaches only x and y, and
    n >= 3.  The colored adjacency is built once per call; before each SCC
    pass only the entries of the edges changed since the last one are
    rewritten."""
    explored = 0
    if skip_current and not _advance_py(colors, maxp, k):
        return False, explored
    adj = [[] for _ in nbrs]
    slots = [[] for _ in colors]    # slots[e]: (row, position, head) of e's entries
    for row, out in zip(nbrs, adj):
        for y, e in row:
            slots[e].append((out, len(out), y))
            out.append((y, colors[e]))
    m = len(colors)
    stale = m                       # the entries of edges from here on are stale
    while True:
        explored += 1
        if not _strands_leaf(dead, colors):
            for e in range(stale, m):
                c = colors[e]
                for out, j, y in slots[e]:
                    out[j] = (y, c)
            stale = m
            if _first_failure(adj, k) is None:
                return True, explored
        low = _advance_py(colors, maxp, k)
        if not low:
            return False, explored
        if low < stale:
            stale = low
        if explored == _HEAD and _np is not None and len(nbrs) < 64:
            found, more = _search_blocks(k, nbrs, dead, colors, maxp)
            return found, explored + more


def _dead_ends(nbrs):
    """(e, others) for each vertex x whose only entry in ``nbrs`` is (y, e):
    a leaf, or a vertex of out-degree 1.  ``others`` lists the other edges
    or arcs leaving y.  A coloring that gives all of them e's color fails
    when n >= 3 (see _find_pass), so the table is empty when n < 3."""
    if len(nbrs) < 3:
        return []
    return [(e, [f for _, f in nbrs[y] if f != e])
            for row in nbrs if len(row) == 1 for y, e in row]


def _strands_leaf(dead, colors) -> bool:
    """Does some entry of the _dead_ends table fail under colors?"""
    for e, others in dead:
        c = colors[e]
        for f in others:
            if colors[f] != c:
                break
        else:
            return True
    return False


def _live_lanes(dead, lanes):
    """Indices of the rows of ``lanes`` that _strands_leaf passes."""
    live = _np.ones(len(lanes), dtype=bool)
    for e, others in dead:
        live &= (lanes[:, others] != lanes[:, e, None]).any(axis=1)
    return _np.flatnonzero(live)


def _search_blocks(k, nbrs, dead, colors, maxp):
    """Check the canonical colorings from ``colors`` to the end of the level
    in numpy blocks.  Returns (found, explored) like _find_pass: the lowest
    passing lane is the canonically smallest passing coloring, and it is
    written back to colors and maxp.  Only the lanes that strand no leaf
    reach the kernel."""
    m = len(colors)
    s = 0
    while s < m - 1 and k ** (s + 1) <= _LANES:
        s += 1
    p = m - s
    table = _suffix_table(s, k, maxp[p - 1])
    start = int(_np.flatnonzero((table == colors[p:]).all(axis=1))[0])
    explored = 0
    for lanes in _blocks(k, s, colors[:p], maxp[:p], start):
        live = _live_lanes(dead, lanes)
        if len(live):
            ok = _block_ok(k, nbrs, lanes[live])
            if ok.any():
                lane = int(live[ok.argmax()])
                colors[:] = lanes[lane].tolist()
                maxp[:] = accumulate(colors, max)
                return True, explored + lane + 1
        explored += len(lanes)
    return False, explored


@lru_cache(maxsize=64)
def _suffix_table(s, k, top):
    """Every color sequence of length s that can follow a canonical prefix
    whose largest color is ``top``, in lexicographic order (read-only)."""
    rows = _np.zeros((1, 0), dtype=_np.min_scalar_type(k))
    run = _np.array([top])
    palette = _np.arange(1, k + 1, dtype=rows.dtype)
    for _ in range(s):
        r, c = _np.nonzero(palette <= _np.minimum(run + 1, k)[:, None])
        rows = _np.column_stack((rows[r], palette[c]))
        run = _np.maximum(run[r], palette[c])
    rows.flags.writeable = False
    return rows


def _blocks(k, s, prefix, pmax, start):
    """Yield the level's canonical colorings from prefix + table[start] on,
    in lexicographic order, as arrays of at most _LANES rows: each prefix of
    length m - s in turn, times the suffixes its running maximum allows.
    k ** s <= _LANES, so one prefix's suffixes always fit in a block."""
    heads, tails, size = [], [], 0
    tail = _suffix_table(s, k, pmax[-1])[start:]
    while True:
        if size + len(tail) > _LANES:
            yield _assemble(heads, tails)
            heads, tails, size = [], [], 0
        heads.append(prefix[:])
        tails.append(tail)
        size += len(tail)
        if not _advance_py(prefix, pmax, k):
            yield _assemble(heads, tails)
            return
        tail = _suffix_table(s, k, pmax[-1])


def _assemble(heads, tails):
    left = _np.repeat(_np.array(heads, dtype=tails[0].dtype), [len(t) for t in tails], axis=0)
    return _np.hstack((left, _np.concatenate(tails)))


def _block_ok(k, nbrs, lanes):
    """The all-pairs walk check on every row of ``lanes`` (one coloring of
    the edges of ``nbrs`` per row) at once; returns one bool per row.
    reach[c, v] holds one uint64 per lane whose bit u says that source u
    reaches v by a walk ending in color c + 1.  Each sweep runs over every
    arc and repeats until no lane changes, so the arc order sets only the
    number of sweeps; an arc of color c updates only the lanes where its
    edge has color c, through an all-ones lane mask."""
    n = len(nbrs)
    size = len(lanes)
    picks = _np.where(lanes.T[:, None, :] == _np.arange(1, k + 1)[:, None],
                      _np.uint64(2 ** 64 - 1), _np.uint64(0))
    reach = _np.zeros((k, n, size), dtype=_np.uint64)
    zero = _np.zeros(size, dtype=_np.uint64)
    steps = []
    for a, row in enumerate(nbrs):
        bit = _np.uint64(1 << a)
        for b, e in row:
            for c in range(k):
                others = [reach[c2, a] for c2 in range(k) if c2 != c] or [zero]
                steps.append((bit, others[0], others[1:], picks[e, c], reach[c, b]))
    work = _np.empty(size, dtype=_np.uint64)
    seen = _np.empty_like(reach)
    while True:
        seen[...] = reach
        for bit, first, others, pick, target in steps:
            _np.bitwise_or(first, bit, out=work)
            for row in others:
                _np.bitwise_or(work, row, out=work)
            _np.bitwise_and(work, pick, out=work)
            _np.bitwise_or(target, work, out=target)
        if _np.array_equal(seen, reach):
            break
    cover = reach[0]
    for row in reach[1:]:
        cover |= row
    cover |= (_np.uint64(1) << _np.arange(n, dtype=_np.uint64))[:, None]
    return (cover == _np.uint64((1 << n) - 1)).all(axis=0)


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


def _solve(n, pairs, bidirectional, max_k, budgets, accept) -> ExactResult | None:
    """The level loop behind every solver: the smallest k <= max_k with a
    canonical coloring of ``pairs`` that passes the all-pairs walk check and
    ``accept``.  A rejected candidate resumes the search after it."""
    m = len(pairs)
    if m == 0:
        return ExactResult(1, EdgeColoring(1, {}), 1)
    nbrs = _neighbor_table(n, pairs, bidirectional)
    dead = _dead_ends(nbrs)
    total = 0
    for k in range(1, max_k + 1):
        limit = _edge_budget(k, budgets)
        if m > limit:
            raise BudgetExceededError(k, m, limit)
        colors = [1] * m
        maxp = [1] * m
        skip = False
        while True:
            found, explored = _find_pass(k, nbrs, dead, colors, maxp, skip)
            total += explored
            if not found:
                break
            witness = EdgeColoring(k, dict(zip(pairs, colors)))
            if accept(witness):
                return ExactResult(k, witness, total)
            skip = True
    return None


def _verified(verifier, graph):
    """Walk-mode acceptor: the search's witness must pass the public
    verifier, which shares no code with the numpy block kernel.  A rejection
    is a kernel fault, raised even under python -O."""
    def accept(witness):
        ok, pair = verifier(graph, witness)
        if not ok:
            raise AssertionError(f"kernel accepted a coloring the verifier rejects at {pair}")
        return True
    return accept


def exact_pw(g: Graph, max_k: int = 3, budgets=None) -> ExactResult | None:
    """Smallest k <= max_k admitting an all-pairs properly-colored-walk
    coloring, or None when every level fails.  The witness is re-verified
    with verify_all_pairs before returning."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    return _solve(g.n, g.edges, True, max_k, budgets, _verified(verify_all_pairs, g))


def _paths_all_pairs(g: Graph, coloring: EdgeColoring) -> bool:
    """Path-mode acceptor: a properly colored simple path joins every pair,
    by verify's simple-path DFS over one colored adjacency."""
    coloring.validate_for(g)
    adj = _colored_adjacency(g, coloring)
    return all(_path_dfs(adj, u, v, 1 << u, 0) for u, v in combinations(range(g.n), 2))


def exact_pp(g: Graph, max_k: int = 3, budgets=None) -> ExactResult | None:
    """Smallest k admitting properly colored simple paths between all pairs.

    Candidates must pass the walk check first (every path is a walk), so the
    expensive path search only runs on walk-passing colorings.
    """
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if g.n > PATH_VERTEX_LIMIT:
        raise ValueError(f"path solver is limited to {PATH_VERTEX_LIMIT} vertices")
    return _solve(g.n, g.edges, True, max_k, budgets, partial(_paths_all_pairs, g))


def _paths_all_pairs_directed(d: Digraph, coloring: EdgeColoring) -> bool:
    coloring.validate_for(d)
    adj = _colored_out_adjacency(d, coloring)
    return all(_path_dfs(adj, u, v, 1 << u, 0)
               for u in range(d.n) for v in range(d.n) if u != v)


def exact_directed(d: Digraph, mode: str = "walk", max_k: int = 3,
                   budgets=None) -> ExactResult | None:
    """Exact arc-coloring count for a strongly connected digraph, over all
    ordered vertex pairs; mode "walk" or "path"."""
    if mode not in ("walk", "path"):
        raise ValueError(f"mode must be 'walk' or 'path', got {mode!r}")
    if not d.is_strongly_connected():
        raise ValueError("digraph is not strongly connected")
    if mode == "path" and d.n > PATH_VERTEX_LIMIT:
        raise ValueError(f"path solver is limited to {PATH_VERTEX_LIMIT} vertices")
    accept = (_verified(verify_all_pairs_directed, d) if mode == "walk"
              else partial(_paths_all_pairs_directed, d))
    return _solve(d.n, d.arcs, False, max_k, budgets, accept)


# ---------------------------------------------------------------------------
# Small-graph iterators (test support)
# ---------------------------------------------------------------------------

def _connected_edge_list(n, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def connected_graphs(n: int):
    """All labeled connected graphs on exactly n vertices (desk scale)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if _connected_edge_list(n, edges):
            yield Graph(n, edges)


def connected_bipartite_graphs(n: int):
    """All labeled connected bipartite graphs on exactly n vertices.

    Enumerates the side containing vertex 0 and all cross-edge subsets; a
    connected bipartite graph has a unique bipartition, so each graph shows
    up exactly once.
    """
    if n == 1:
        yield Graph(1)
        return
    others = list(range(1, n))
    for pick in range(1 << (n - 1)):
        side0 = [0] + [others[i] for i in range(n - 1) if pick >> i & 1]
        side1 = [v for v in others if v not in side0]
        if not side1:
            continue
        cross = [(min(a, b), max(a, b)) for a in side0 for b in side1]
        cross.sort()
        for mask in range(1 << len(cross)):
            edges = [cross[i] for i in range(len(cross)) if mask >> i & 1]
            if _connected_edge_list(n, edges):
                yield Graph(n, edges)


def labeled_trees(n: int):
    """All labeled trees on n vertices, decoded from Pruefer sequences."""
    if n == 1:
        yield Graph(1)
        return
    if n == 2:
        yield Graph(2, [(0, 1)])
        return
    for seq in product(range(n), repeat=n - 2):
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
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        edges.append((a, b))
        yield Graph(n, edges)
