"""Brute-force ground truth: exact minimum color counts for properly colored
walk/path connectivity on small graphs and digraphs.

Colorings are enumerated in canonical form: the first edge (in canonical
order) is color 1 and each new color index first appears in edge order, which
removes the k! color-permutation symmetry.  The reported witness is always
the canonically smallest passing coloring.

The hot loop is a bit-parallel fixpoint: reach[c][v] is the bitmask of source
vertices that can reach vertex v by a properly colored walk ending in color
c.  A numba-compiled twin of the kernel is used when numba is importable;
the pure-Python kernel is the reference and the fallback.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations, product

from .graphs import Digraph, EdgeColoring, Graph
from .verify import (path_reachable, path_reachable_directed, verify_all_pairs,
                     verify_all_pairs_directed)

try:
    import numpy as _np
    from numba import njit as _njit
except ImportError:        # pragma: no cover - exercised only without numba
    _np = None
    _njit = None


PATH_VERTEX_LIMIT = 10


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

def _advance_py(colors, maxp, k) -> bool:
    """Step to the next canonical coloring in lexicographic order."""
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
            return True
        i -= 1
    return False


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


def _walk_ok_py(n, k, au, av, ae, colors, reach) -> bool:
    for c in range(1, k + 1):
        rc = reach[c]
        for v in range(n):
            rc[v] = 0
    changed = True
    while changed:
        changed = False
        for t in range(len(au)):
            a = au[t]
            c = colors[ae[t]]
            avail = 1 << a
            for c2 in range(1, k + 1):
                if c2 != c:
                    avail |= reach[c2][a]
            rcb = reach[c]
            b = av[t]
            if avail & ~rcb[b]:
                rcb[b] |= avail
                changed = True
    full = (1 << n) - 1
    for v in range(n):
        cover = 1 << v
        for c in range(1, k + 1):
            cover |= reach[c][v]
        if cover != full:
            return False
    return True


def _search_py(n, k, au, av, ae, colors, maxp, skip_current):
    """Advance through canonical colorings until one passes the all-pairs
    walk check; returns (found, explored) with the witness left in colors."""
    explored = 0
    if skip_current and not _advance_py(colors, maxp, k):
        return False, explored
    reach = [[0] * n for _ in range(k + 1)]
    while True:
        explored += 1
        if _walk_ok_py(n, k, au, av, ae, colors, reach):
            return True, explored
        if not _advance_py(colors, maxp, k):
            return False, explored


if _njit is not None:
    @_njit(cache=True)
    def _advance_nb(colors, maxp, k):         # pragma: no cover - numba twin
        m = colors.shape[0]
        i = m - 1
        while i >= 1:
            cap = maxp[i - 1] + 1
            if cap > k:
                cap = k
            if colors[i] < cap:
                colors[i] += 1
                mp = maxp[i - 1]
                if colors[i] > mp:
                    mp = colors[i]
                maxp[i] = mp
                for j in range(i + 1, m):
                    colors[j] = 1
                    maxp[j] = mp
                return True
            i -= 1
        return False

    @_njit(cache=True)
    def _search_nb(n, k, au, av, ae, colors, maxp, skip_current):  # pragma: no cover
        explored = 0
        if skip_current and not _advance_nb(colors, maxp, k):
            return False, explored
        reach = _np.zeros((k + 1, n), dtype=_np.int64)
        full = (_np.int64(1) << n) - 1
        na = au.shape[0]
        while True:
            explored += 1
            for c in range(1, k + 1):
                for v in range(n):
                    reach[c, v] = 0
            changed = True
            while changed:
                changed = False
                for t in range(na):
                    a = au[t]
                    c = colors[ae[t]]
                    avail = _np.int64(1) << a
                    for c2 in range(1, k + 1):
                        if c2 != c:
                            avail |= reach[c2, a]
                    b = av[t]
                    if avail & ~reach[c, b]:
                        reach[c, b] |= avail
                        changed = True
            ok = True
            for v in range(n):
                cover = _np.int64(1) << v
                for c in range(1, k + 1):
                    cover |= reach[c, v]
                if cover != full:
                    ok = False
                    break
            if ok:
                return True, explored
            if not _advance_nb(colors, maxp, k):
                return False, explored


def _find_pass(n, k, au, av, ae, colors, maxp, skip_current):
    if _njit is not None and n < 60:
        carr = _np.asarray(colors, dtype=_np.int64)
        marr = _np.asarray(maxp, dtype=_np.int64)
        found, explored = _search_nb(n, k,
                                     _np.asarray(au, dtype=_np.int64),
                                     _np.asarray(av, dtype=_np.int64),
                                     _np.asarray(ae, dtype=_np.int64),
                                     carr, marr, skip_current)
        colors[:] = [int(x) for x in carr]
        maxp[:] = [int(x) for x in marr]
        return found, int(explored)
    return _search_py(n, k, au, av, ae, colors, maxp, skip_current)


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------

def _arc_arrays(pairs, bidirectional):
    au, av, ae = [], [], []
    for i, (u, v) in enumerate(pairs):
        au.append(u)
        av.append(v)
        ae.append(i)
        if bidirectional:
            au.append(v)
            av.append(u)
            ae.append(i)
    return au, av, ae


def exact_pw(g: Graph, max_k: int = 3, budgets=None) -> ExactResult | None:
    """Smallest k <= max_k admitting an all-pairs properly-colored-walk
    coloring, or None when every level fails.  The witness is re-verified
    with the independent walk verifier before returning."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if g.m == 0:
        return ExactResult(1, EdgeColoring(1, {}), 1)
    au, av, ae = _arc_arrays(g.edges, bidirectional=True)
    total = 0
    for k in range(1, max_k + 1):
        limit = _edge_budget(k, budgets)
        if g.m > limit:
            raise BudgetExceededError(k, g.m, limit)
        colors = [1] * g.m
        maxp = [1] * g.m
        found, explored = _find_pass(g.n, k, au, av, ae, colors, maxp, False)
        total += explored
        if found:
            witness = EdgeColoring(k, dict(zip(g.edges, colors)))
            ok, pair = verify_all_pairs(g, witness)
            if not ok:
                raise AssertionError(f"kernel accepted a coloring the verifier rejects at {pair}")
            return ExactResult(k, witness, total)
    return None


def _paths_all_pairs(g: Graph, coloring: EdgeColoring) -> bool:
    for u in range(g.n - 1):
        for v in range(u + 1, g.n):
            if not path_reachable(g, coloring, u, v):
                return False
    return True


def exact_pp(g: Graph, max_k: int = 3, budgets=None) -> ExactResult | None:
    """Smallest k admitting properly colored simple paths between all pairs.

    Candidates must pass the walk check first (every path is a walk), so the
    expensive path search only runs on walk-passing colorings.
    """
    if not g.is_connected():
        raise ValueError("graph is not connected")
    if g.n > PATH_VERTEX_LIMIT:
        raise ValueError(f"path solver is limited to {PATH_VERTEX_LIMIT} vertices")
    if g.m == 0:
        return ExactResult(1, EdgeColoring(1, {}), 1)
    au, av, ae = _arc_arrays(g.edges, bidirectional=True)
    total = 0
    for k in range(1, max_k + 1):
        limit = _edge_budget(k, budgets)
        if g.m > limit:
            raise BudgetExceededError(k, g.m, limit)
        colors = [1] * g.m
        maxp = [1] * g.m
        skip = False
        while True:
            found, explored = _find_pass(g.n, k, au, av, ae, colors, maxp, skip)
            total += explored
            if not found:
                break
            witness = EdgeColoring(k, dict(zip(g.edges, colors)))
            if _paths_all_pairs(g, witness):
                return ExactResult(k, witness, total)
            skip = True
    return None


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
    if d.m == 0:
        return ExactResult(1, EdgeColoring(1, {}), 1)
    au, av, ae = _arc_arrays(d.arcs, bidirectional=False)
    total = 0
    for k in range(1, max_k + 1):
        limit = _edge_budget(k, budgets)
        if d.m > limit:
            raise BudgetExceededError(k, d.m, limit)
        colors = [1] * d.m
        maxp = [1] * d.m
        skip = False
        while True:
            found, explored = _find_pass(d.n, k, au, av, ae, colors, maxp, skip)
            total += explored
            if not found:
                break
            witness = EdgeColoring(k, dict(zip(d.arcs, colors)))
            if mode == "walk":
                ok, pair = verify_all_pairs_directed(d, witness)
                if not ok:
                    raise AssertionError(f"kernel accepted a coloring the verifier rejects at {pair}")
                return ExactResult(k, witness, total)
            if all(path_reachable_directed(d, witness, u, v)
                   for u in range(d.n) for v in range(d.n) if u != v):
                return ExactResult(k, witness, total)
            skip = True
    return None


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
