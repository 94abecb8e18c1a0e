"""Brute-force ground truth: exact minimum color counts for properly colored
walk/path connectivity on small graphs and digraphs.

Colorings are enumerated in canonical form: the first edge (in canonical
order) is color 1 and each new color index first appears in edge order, which
removes the k! color-permutation symmetry.  The reported witness is always
the canonically smallest passing coloring.

Each search checks its first _HEAD colorings one at a time with the
verifiers' all-pairs walk check, one SCC pass over the (vertex, last color)
states.  With numpy and at most 63 vertices, the rest of the level goes
through a block kernel in blocks of consecutive colorings, one lane per
coloring.  Each lane owns a field of the fewest bytes that hold n bits, and
one Python int per (vertex, last color) state packs the fields of every
lane: the kernel is a bit-parallel fixpoint over the arcs, seeded with the
empty walk, at one AND, one OR and one compare per arc and color per sweep,
over every lane and every source at once.  numpy builds and filters the
blocks and decodes the answer.  Passing lanes come out in lane order, so
witnesses and explored counts match the one-at-a-time search.  Without
numpy the whole search runs on the SCC pass.

Before either check, a coloring that strands a leaf is rejected: if x has
a single edge or arc e, to y, and every other edge leaving y has e's color,
then a walk from x must leave y along a color other than e's and cannot,
so with n >= 3 some vertex is unreachable from x.  This follows from the
definition of a walk alone.

Each level is one generator, _level, that yields its walk-passing colorings
in order; _solve chains the levels, exact_pw, exact_pp and exact_directed
take the first coloring their acceptor passes, and exact_pw_pp reads pW and
pP off one stream.  The solver uses no theorem about the answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, product
from operator import or_

from .graphs import Digraph, EdgeColoring, Graph
from .verify import (_first_failure, _first_path_failure, verify_all_pairs,
                     verify_all_pairs_directed)

try:
    import numpy as _np
except ImportError:        # pragma: no cover - exercised in a subprocess test
    _np = None


PATH_VERTEX_LIMIT = 10
# Colorings each search checks one at a time before batching: one block of
# the rest of a level, leaf filter included, costs as much as about 11
# (k = 2) to 14 (k = 3) of those checks, median 13, on 6-vertex graphs
# (2-vCPU x86 VM).  Still, 32 lost on the many tiny searches, most of which
# pass within the head: on sweep-small their slowest calls took 17 % longer.
_HEAD = 64
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


def _level(k, pairs, nbrs, dead, before):
    """Yield ExactResult(k, witness, before + explored) for each canonical
    coloring of level k that passes the all-pairs walk check, in canonical
    order, and return the level's count of colorings.  ``nbrs`` is the
    _neighbor_table of ``pairs`` and ``dead`` its _dead_ends table.  The
    first _HEAD candidates go one at a time through verify's SCC pass; the
    rest of the level goes through _search_blocks.

    A candidate that strands a leaf fails without the SCC pass, and still
    counts as explored: a walk from x, whose only edge or arc e runs to y,
    enters y along e and must leave y along a color other than e's, so if
    every other edge leaving y has e's color it reaches only x and y, and
    n >= 3.  The colored adjacency is built once per level; before each SCC
    pass only the entries of the edges changed since the last one are
    rewritten."""
    m = len(pairs)
    colors = [1] * m
    maxp = [1] * m
    adj = [[] for _ in nbrs]
    slots = [[] for _ in colors]    # slots[e]: (row, position, head) of e's entries
    for row, out in zip(nbrs, adj):
        for y, e in row:
            slots[e].append((out, len(out), y))
            out.append((y, colors[e]))
    stale = m                       # the entries of edges from here on are stale
    explored = 0
    while True:
        explored += 1
        if not _strands_leaf(dead, colors):
            for e in range(stale, m):
                c = colors[e]
                for out, j, y in slots[e]:
                    out[j] = (y, c)
            stale = m
            if _first_failure(adj, k) is None:
                yield ExactResult(k, EdgeColoring(k, dict(zip(pairs, colors))),
                                  before + explored)
        low = _advance_py(colors, maxp, k)
        if not low:
            return explored
        if low < stale:
            stale = low
        if explored == _HEAD and _np is not None and len(nbrs) < 64:
            return explored + (yield from _search_blocks(
                k, pairs, nbrs, dead, colors, maxp, before + explored))


def _dead_ends(nbrs):
    """(e, others) for each vertex x whose only entry in ``nbrs`` is (y, e):
    a leaf, or a vertex of out-degree 1.  ``others`` lists the other edges
    or arcs leaving y.  A coloring that gives all of them e's color fails
    when n >= 3 (see _level), so the table is empty when n < 3."""
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


def _search_blocks(k, pairs, nbrs, dead, colors, maxp, before):
    """_level from ``colors`` on, in numpy blocks: yield one ExactResult per
    passing lane, in lane order, and return the count of colorings.
    ``before`` counts the colorings ahead of ``colors``; only the lanes that
    strand no leaf reach the kernel."""
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
            for lane in live[_block_ok(k, nbrs, lanes[live])].tolist():
                yield ExactResult(k, EdgeColoring(k, dict(zip(pairs, lanes[lane].tolist()))),
                                  before + explored + lane + 1)
        explored += len(lanes)
    return explored


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

    Each lane owns a field of the smallest little-endian width that holds n
    bits, and one Python int per (vertex v, color c) packs the fields of
    all lanes: bit u of lane i's field says that source u reaches v by a
    walk ending in color c + 1, or u = v.  The empty walk seeds bit v into
    every field of v, since it may leave v along any color.

    Each sweep visits the tails a in vertex order, skipping those whose
    ints are unchanged since their last visit.  avail[c], the sources whose
    walks may leave a along color c + 1, is the seed alone at k = 1, the
    other color's int at k = 2 and the OR of the other colors' ints at
    k >= 3.  Each arc a -> b of edge e then costs, per color c that e takes
    in some lane, one AND with the pick of (e, c), whose fields are all
    ones in the lanes where e has color c + 1, one OR into b's int and one
    compare.  Sweeps repeat until no int changes; the answer is the least
    fixpoint, so the order sets only the number of sweeps.  A lane passes
    when every field of the AND over v of v's OR over colors is full."""
    n = len(nbrs)
    width = next(w for w in (1, 2, 4, 8) if 8 * w >= n)
    field = _np.dtype(f"<u{width}")
    colored = (_np.ascontiguousarray(lanes.T)[:, None, :]
               == _np.arange(1, k + 1, dtype=lanes.dtype)[:, None])
    data = (colored.astype(field) * field.type(256 ** width - 1)).tobytes()
    step = len(lanes) * width
    ints = [int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)]
    picks = [[(c, pick) for c, pick in enumerate(ints[i:i + k]) if pick]
             for i in range(0, len(ints), k)]
    ones = int.from_bytes(_np.ones(len(lanes), field).tobytes(), "little")
    seeds = [ones << v for v in range(n)]
    reach = [[seed] * k for seed in seeds]
    tails = [[(reach[b], b, picks[e]) for b, e in row] for row in nbrs]
    dirty = [True] * n
    while True in dirty:
        for a, arcs in enumerate(tails):
            if not dirty[a]:
                continue
            dirty[a] = False
            avail = _others(k, reach[a], seeds[a])
            for target, b, steps in arcs:
                for c, pick in steps:
                    old = target[c]
                    new = old | (avail[c] & pick)
                    if new != old:
                        target[c] = new
                        dirty[b] = True
    cover = -1
    for states in reach:
        cover &= reduce(or_, states)
    fields = _np.frombuffer(cover.to_bytes(step, "little"), field)
    return fields == (1 << n) - 1


def _others(k, ints, seed):
    """For each color c, the OR of ``ints`` over the colors other than c;
    the seed alone at k = 1."""
    if k == 1:
        return (seed,)
    if k == 2:
        return ints[1], ints[0]
    return [reduce(or_, ints[:c] + ints[c + 1:]) for c in range(k)]


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


def _solve(n, pairs, bidirectional, max_k, budgets):
    """The level loop behind every solver: yield ExactResult(k, witness,
    colorings explored so far) for each canonical coloring of ``pairs`` that
    passes the all-pairs walk check, level by level up to max_k."""
    m = len(pairs)
    if m == 0:
        yield ExactResult(1, EdgeColoring(1, {}), 1)
        return
    nbrs = _neighbor_table(n, pairs, bidirectional)
    dead = _dead_ends(nbrs)
    total = 0
    for k in range(1, max_k + 1):
        limit = _edge_budget(k, budgets)
        if m > limit:
            raise BudgetExceededError(k, m, limit)
        total += yield from _level(k, pairs, nbrs, dead, total)


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


def exact_pw(g: Graph, max_k: int = 3, budgets=None) -> ExactResult | None:
    """Smallest k <= max_k admitting an all-pairs properly-colored-walk
    coloring, or None when every level fails.  The witness is re-verified
    with verify_all_pairs before returning."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    return _first(_solve(g.n, g.edges, True, max_k, budgets), _verified(verify_all_pairs, g))


def _paths_all_pairs(g: Graph | Digraph, coloring: EdgeColoring) -> bool:
    """Path-mode acceptor: a properly colored simple path joins every pair,
    unordered on a graph and ordered on a digraph."""
    return _first_path_failure(g, coloring) is None


def exact_pp(g: Graph, max_k: int = 3, budgets=None) -> ExactResult | None:
    """Smallest k admitting properly colored simple paths between all pairs.

    Candidates must pass the walk check first (every path is a walk), so the
    expensive path search only runs on walk-passing colorings.
    """
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if g.n > PATH_VERTEX_LIMIT:
        raise ValueError(f"path solver is limited to {PATH_VERTEX_LIMIT} vertices")
    return _first(_solve(g.n, g.edges, True, max_k, budgets), partial(_paths_all_pairs, g))


def exact_pw_pp(g: Graph, max_k: int = 3, budgets=None):
    """(exact_pw(g, ...), exact_pp(g, ...)) from one enumeration, raising what
    either raises; pP is the first candidate from pW's on that has paths."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if g.n > PATH_VERTEX_LIMIT:
        raise ValueError(f"path solver is limited to {PATH_VERTEX_LIMIT} vertices")
    stream = _solve(g.n, g.edges, True, max_k, budgets)
    pw = _first(stream, _verified(verify_all_pairs, g))
    return pw, pw and _first(chain([pw], stream), partial(_paths_all_pairs, g))


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
              else partial(_paths_all_pairs, d))
    return _first(_solve(d.n, d.arcs, False, max_k, budgets), accept)


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
