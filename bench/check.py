"""Independent correctness checks for benchmark outputs.

Nothing here imports ``properwalk.verify``: the walk check is a separate
algorithm (strongly connected components of the arc-state digraph, then
reachability bitsets over the condensation), so a defect shared by the
library's verifier and its constructions cannot pass the gate unnoticed.

States are arcs x -> y of the (symmetrized) graph; arc (x, y) steps to arc
(y, z) when their colors differ.  A properly colored walk from u to v exists
exactly when some arc leaving u reaches, through the state digraph, an arc
entering v.
"""

from __future__ import annotations

from math import comb, factorial


def first_failing_pair(n, pairs, color, directed=False):
    """Lexicographically first vertex pair with no properly colored walk, or
    None when every pair is joined.  Undirected graphs report (u, v) with
    u < v; digraphs report the first ordered pair.

    ``pairs`` are the graph's edges (or arcs); ``color`` maps each to its
    color.  Raises ValueError when the coloring is not total on ``pairs``.
    """
    arcs = []
    for u, v in pairs:
        c = color.get((u, v))
        if c is None and not directed:
            c = color.get((v, u))
        if c is None:
            raise ValueError(f"edge ({u}, {v}) is not colored")
        arcs.append((u, v, c))
        if not directed:
            arcs.append((v, u, c))
    out = [[] for _ in range(n)]
    for i, (u, _, _) in enumerate(arcs):
        out[u].append(i)
    succ = [[j for j in out[v] if arcs[j][2] != c] for _, v, c in arcs]
    reach = _closure(len(arcs), succ, [1 << v for _, v, _ in arcs])
    full = (1 << n) - 1
    for u in range(n):
        got = 1 << u
        for i in out[u]:
            got |= reach[i]
        missing = full & ~got
        if not directed:
            missing &= ~((1 << (u + 1)) - 1)
        if missing:
            return u, (missing & -missing).bit_length() - 1
    return None


def _closure(count, succ, own):
    """For each state, the OR of ``own`` over every state it reaches
    (itself included), via Tarjan's SCC algorithm; SCCs complete in reverse
    topological order, so every successor SCC is final when it is read."""
    index = [0] * count          # 1-based discovery index, 0 = unvisited
    low = [0] * count
    comp = [-1] * count
    comp_bits = []
    stack, on_stack = [], [False] * count
    counter = 1
    for root in range(count):
        if index[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            nbrs = succ[v]
            if i < len(nbrs):
                work[-1] = (v, i + 1)
                w = nbrs[i]
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work:
                p = work[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
            if low[v] == index[v]:
                cid = len(comp_bits)
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = cid
                    members.append(w)
                    if w == v:
                        break
                bits = 0
                for w in members:
                    bits |= own[w]
                    for x in succ[w]:
                        if comp[x] != cid:
                            bits |= comp_bits[comp[x]]
                comp_bits.append(bits)
    return [comp_bits[comp[i]] for i in range(count)]


def coloring_problems(n, pairs, k, color, directed=False):
    """Why a claimed k-coloring is unacceptable, or None if it is a total
    coloring with colors 1..k on exactly ``pairs`` that joins every pair."""
    keys = set(color)
    want = set(pairs)
    if not directed:
        keys = {(u, v) if u < v else (v, u) for u, v in keys}
    if keys != want or len(color) != len(want):
        return "coloring does not cover exactly the edge set"
    if any(not 1 <= c <= k for c in color.values()):
        return f"color outside 1..{k}"
    bad = first_failing_pair(n, pairs, color, directed)
    if bad is not None:
        return f"no properly colored walk for pair {bad}"
    return None


def path_connected(n, edges, color):
    """Does every pair have a properly colored simple path?  Exhaustive DFS
    over simple paths (small graphs only)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        c = color.get((u, v), color.get((v, u)))
        adj[u].append((v, c))
        adj[v].append((u, c))

    def reach_from(u):
        found = 1 << u
        stack = [(u, 1 << u, 0)]
        while stack:
            x, seen, last = stack.pop()
            for y, c in adj[x]:
                if c != last and not seen >> y & 1:
                    found |= 1 << y
                    stack.append((y, seen | 1 << y, c))
        return found

    full = (1 << n) - 1
    return all(reach_from(u) == full for u in range(n))


def stirling2(m, j):
    """Stirling number of the second kind S(m, j)."""
    return sum((-1) ** i * comb(j, i) * (j - i) ** m for i in range(j + 1)) // factorial(j)


def refutation_count(m, max_k):
    """Colorings exact_pw enumerates when it refutes every level 1..max_k:
    level l visits every canonical coloring with at most l colors, which
    number sum_{j <= l} S(m, j)."""
    return sum(stirling2(m, j) for level in range(1, max_k + 1) for j in range(1, level + 1))
