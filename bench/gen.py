"""Seeded input generators for the benchmark.

Every graph, digraph and broken coloring the benchmark feeds to properwalk is
built here from a ``random.Random``; nothing is drawn through the library's
own generators, so a change to them cannot change what the benchmark runs.
Graphs are returned as ``(n, edges)`` with ``edges`` a sorted list of
``(u, v)`` pairs, ``u < v`` (arcs keep their direction); the caller turns
them into ``properwalk.Graph`` / ``Digraph`` objects.

Each family is built so that its route through ``pw_auto`` is fixed by
construction (see the comments), which lets ``expectations.json`` state the
expected color count, status and route per family instead of per seed.
"""

from __future__ import annotations

from itertools import combinations


def _canon(u, v):
    return (u, v) if u < v else (v, u)


def relabel(n, edges, rng, directed=False):
    """Apply a seeded vertex permutation, so vertex order (and with it every
    tie-break in the library) varies with the seed."""
    perm = list(range(n))
    rng.shuffle(perm)
    if directed:
        return n, sorted((perm[u], perm[v]) for u, v in edges)
    return n, sorted(_canon(perm[u], perm[v]) for u, v in edges)


def _recursive_tree(vertices, rng):
    """Random recursive tree: each vertex after the first joins a uniformly
    chosen earlier one."""
    return [_canon(vertices[i], vertices[rng.randrange(i)]) for i in range(1, len(vertices))]


def _add_chords(n, edges, count, rng, allowed=None):
    """Add ``count`` random new edges among ``allowed`` vertices (default all);
    ``allowed`` may also be a pair of vertex lists, giving edges across them."""
    have = set(edges)
    while count > 0:
        if isinstance(allowed, tuple):
            u, v = rng.choice(allowed[0]), rng.choice(allowed[1])
        else:
            pool = allowed if allowed is not None else range(n)
            u, v = rng.choice(pool), rng.choice(pool)
        e = _canon(u, v)
        if u != v and e not in have:
            have.add(e)
            count -= 1
    return sorted(have)


def _cycle_edges(vs):
    return [_canon(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _path_edges(vs):
    return [_canon(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]


# ---------------------------------------------------------------------------
# Large families (auto-large, verify-files)
# ---------------------------------------------------------------------------

def path(n, rng):
    return relabel(n, _path_edges(list(range(n))), rng)


def tree(n, rng):
    return relabel(n, _recursive_tree(list(range(n)), rng), rng)


def odd_cycle(n, rng):
    n |= 1
    return relabel(n, _cycle_edges(list(range(n))), rng)


def sparse3(n, rng):
    """Average degree about 3: a random tree on n-1 vertices, two planted
    vertex-disjoint triangles, n/2 random chords and one pendant vertex.

    The pendant edge is a bridge and m != n, so pw_auto skips the bridgeless
    and cycle-with-feet routes; the planted triangles guarantee that removing
    any shortest odd cycle (a triangle) leaves an odd cycle, so the
    two-odd-cycles route is taken."""
    body = list(range(n - 1))
    edges = set(_recursive_tree(body, rng))
    a = rng.sample(body, 6)
    edges |= set(_cycle_edges(a[:3])) | set(_cycle_edges(a[3:]))
    edges = _add_chords(n, edges, n // 2, rng, allowed=body)
    edges.append(_canon(rng.choice(body), n - 1))
    return relabel(n, edges, rng)


def sparse10(n, rng):
    """Average degree about 10: a random Hamiltonian cycle, a planted
    triangle and 4n random chords.  The Hamiltonian cycle makes the graph
    2-connected (one block, no bridges) and the triangle makes it
    nonbipartite, so pw_auto takes the one-odd-block (theta) route."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set(_cycle_edges(order))
    edges |= set(_cycle_edges([order[0], order[2], order[4]]))
    return relabel(n, _add_chords(n, edges, 4 * n, rng), rng)


def _bipartite_core(size, rng):
    """2-edge-connected bipartite graph on 0..size-1 (size even): an even
    Hamiltonian cycle plus size/4 chords between the two classes."""
    order = list(range(size))
    rng.shuffle(order)
    edges = set(_cycle_edges(order))
    return order, _add_chords(size, edges, size // 4, rng, allowed=(order[0::2], order[1::2]))


def _hang_paths(n, core_vs, edges, nxt, count, rng):
    """Hang ``count`` pendant paths using vertices nxt..n-1, at distinct
    core vertices."""
    total = n - nxt
    cuts = sorted(rng.sample(range(1, total), count - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    for anchor, length in zip(rng.sample(core_vs, count), lengths):
        vs = [anchor] + list(range(nxt, nxt + length))
        edges += _path_edges(vs)
        nxt += length
    return edges


def bip_paths(n, rng):
    """Bipartite core (half the vertices) with two pendant paths: every core
    component touches at most two bridges, so the bipartite route applies."""
    size = (n // 2) & ~1
    order, edges = _bipartite_core(size, rng)
    return relabel(n, _hang_paths(n, order, edges, size, 2, rng), rng)


def bip_bridges(n, rng):
    """Bipartite core with three to five pendant paths: the core component
    touches three or more bridges, so two colors are ruled out."""
    size = (n // 2) & ~1
    order, edges = _bipartite_core(size, rng)
    return relabel(n, _hang_paths(n, order, edges, size, rng.randint(3, 5), rng), rng)


def theta(n, rng):
    """Theta graph: junctions joined by paths of lengths a, b (a + b even)
    and p (opposite parity), with a + b + p - 1 = n vertices.  The three
    paths stay near n/3 each, because the construction's cost depends on
    their lengths and should vary little with the seed."""
    while True:
        a = n // 3 + rng.randint(-3, 3)
        b = a + 2 * rng.randint(-1, 1)
        p = n + 1 - a - b
        if p >= 2 and p % 2 != a % 2:
            break
    u, v = 0, a
    edges = _path_edges([u] + list(range(1, a)) + [v])
    edges += _path_edges([v] + list(range(a + 1, a + b)) + [u])
    edges += _path_edges([u] + list(range(a + b, a + b + p - 1)) + [v])
    return relabel(a + b + p - 1, edges, rng)


def odd_core_trees(n, rng):
    """Odd cycle on about a quarter of the vertices with random trees hung
    from it, one of depth at least two.  Unicyclic, so there are no two
    edge-disjoint odd cycles, and the deep tree keeps it out of the
    cycle-with-feet family: pw_auto falls through to the three-color upper
    bound."""
    length = (n // 4) | 1
    cyc = list(range(length))
    edges = _cycle_edges(cyc)
    nxt = length
    # guaranteed depth-two branch
    edges += [(0, nxt), (nxt, nxt + 1)]
    nxt += 2
    while nxt < n:
        size = min(rng.randint(1, 12), n - nxt)
        root = rng.choice(cyc)
        vs = [root] + list(range(nxt, nxt + size))
        edges += _recursive_tree(vs, rng)
        nxt += size
    return relabel(n, edges, rng)


LARGE_FAMILIES = {
    "path": path,
    "tree": tree,
    "odd_cycle": odd_cycle,
    "sparse3": sparse3,
    "sparse10": sparse10,
    "bip_paths": bip_paths,
    "bip_bridges": bip_bridges,
    "theta": theta,
    "odd_core_trees": odd_core_trees,
}


# ---------------------------------------------------------------------------
# Exhaustive-search families (exact-refute)
# ---------------------------------------------------------------------------

def cycle_feet_three(m, rng):
    """Odd cycle (length 3, 5 or 7) with m - length pendant feet, at least
    two feet on each of two cycle vertices.  No consecutive cycle triple can
    then hold all feet with at most one at each end, so two colors do not
    suffice (the paper's feet rule) and exact_pw(max_k=2) must refute."""
    length = rng.choice([c for c in (3, 5, 7) if m - c >= 4])
    feet = [0] * length
    i, j = rng.sample(range(length), 2)
    feet[i] = feet[j] = 2
    for _ in range(m - length - 4):
        feet[rng.randrange(length)] += 1
    edges = _cycle_edges(list(range(length)))
    nxt = length
    for v, f in enumerate(feet):
        for _ in range(f):
            edges.append((v, nxt))
            nxt += 1
    return relabel(nxt, edges, rng)


def spider4(m, rng):
    """Spider with four legs and m edges: a tree of maximum degree 4, whose
    walk number is 4, so exact_pw(max_k=3) must refute."""
    cuts = sorted(rng.sample(range(1, m), 3))
    legs = [b - a for a, b in zip([0] + cuts, cuts + [m])]
    edges, nxt = [], 1
    for length in legs:
        vs = [0] + list(range(nxt, nxt + length))
        edges += _path_edges(vs)
        nxt += length
    return relabel(nxt, edges, rng)


def odd_cycle_paths(cycle_len, legs, rng):
    """Odd cycle with pendant paths of the given lengths at cycle vertices
    0, 1, ...; ``legs`` lists (cycle vertex, path length)."""
    edges = _cycle_edges(list(range(cycle_len)))
    nxt = cycle_len
    for anchor, length in legs:
        vs = [anchor] + list(range(nxt, nxt + length))
        edges += _path_edges(vs)
        nxt += length
    return relabel(nxt, edges, rng)


# ---------------------------------------------------------------------------
# Small graphs (sweep-small)
# ---------------------------------------------------------------------------

def connected_masks(n):
    """Edge masks over combinations(range(n), 2) of every labeled connected
    graph on n vertices, in mask order."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if _connected(n, edges):
            out.append(mask)
    return out


def edges_of_mask(n, mask):
    pairs = list(combinations(range(n), 2))
    return [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def uniform_connected(n, rng):
    """Uniformly random labeled connected graph on n vertices: uniform edge
    masks, rejecting disconnected ones.  These are the graphs the acceptance
    suite enumerates, drawn with their natural weights."""
    pairs = list(combinations(range(n), 2))
    while True:
        mask = rng.getrandbits(len(pairs))
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if _connected(n, edges):
            return n, edges


def arc_pairs(n):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def strong_masks(n):
    """Arc masks over arc_pairs(n) of every labeled strongly connected
    digraph on n vertices."""
    arcs = arc_pairs(n)
    out = []
    for mask in range(1 << len(arcs)):
        chosen = [arcs[i] for i in range(len(arcs)) if mask >> i & 1]
        if _strong(n, chosen):
            out.append(mask)
    return out


def arcs_of_mask(n, mask):
    arcs = arc_pairs(n)
    return [arcs[i] for i in range(len(arcs)) if mask >> i & 1]


def _strong(n, arcs):
    fwd = [[] for _ in range(n)]
    back = [[] for _ in range(n)]
    for u, v in arcs:
        fwd[u].append(v)
        back[v].append(u)
    for adj in (fwd, back):
        seen, stack = {0}, [0]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != n:
            return False
    return True


# ---------------------------------------------------------------------------
# Colorings for verify-files
# ---------------------------------------------------------------------------

def broken_tree_coloring(n, edges, rng):
    """A proper edge coloring of a tree with one planted defect: a leaf a of
    vertex v and another neighbor b of v get the same color.  In a tree the
    only a-b walk that never reverses along an edge is the path a, v, b, so
    the pair {a, b} has no properly colored walk.  Returns (k, {edge: color})."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = {}
    root = rng.randrange(n)
    seen = {root}
    stack = [(root, 0)]
    while stack:
        x, banned = stack.pop()
        c = 1
        for y in adj[x]:
            if y in seen:
                continue
            if c == banned:
                c += 1
            color[_canon(x, y)] = c
            seen.add(y)
            stack.append((y, c))
            c += 1
    leaves = lambda v: [y for y in adj[v] if len(adj[y]) == 1]
    # Prefer a vertex with two leaves: then {a, b} is the only failing pair,
    # and the verifier has to search up to min(a, b) before it rejects.
    hubs = ([v for v in range(n) if len(leaves(v)) >= 2]
            or [v for v in range(n) if len(adj[v]) >= 2 and leaves(v)])
    v = rng.choice(hubs)
    a = rng.choice(leaves(v))
    b = rng.choice([y for y in (leaves(v) if len(leaves(v)) >= 2 else adj[v]) if y != a])
    color[_canon(v, b)] = color[_canon(v, a)]
    return max(color.values()), color


def oriented_bipartite(n, rng):
    """Strongly connected digraph with a passing and a broken arc coloring.

    A bipartite core (directed Hamiltonian cycle plus randomly directed
    chords across the classes) is colored by the class of each arc's head, so
    consecutive arcs always differ and strong connectivity gives every
    ordered pair a properly colored walk.  The broken coloring recolors the
    only arc into a chord-free vertex y to match y's only out-arc y -> z,
    whose head z has no other in-arc: no walk can then reach z except from
    y.  Returns (n, arcs, good, broken) with colorings as {arc: color}."""
    n &= ~1
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    cls = {v: i % 2 for i, v in enumerate(order)}
    # keep order[1] (y) and order[2] (z) free of chords
    free = {order[1], order[2]}
    side0 = [v for v in order[0::2] if v not in free]
    side1 = [v for v in order[1::2] if v not in free]
    want = len(arcs) + n // 2
    while len(arcs) < want:
        u, v = rng.choice(side0), rng.choice(side1)
        if rng.random() < 0.5:
            u, v = v, u
        if (v, u) not in arcs:
            arcs.add((u, v))
    good = {(u, v): 1 + cls[v] for u, v in arcs}
    broken = dict(good)
    broken[(order[0], order[1])] = good[(order[1], order[2])]
    perm = list(range(n))
    rng.shuffle(perm)
    relab = lambda col: {(perm[u], perm[v]): c for (u, v), c in col.items()}
    return n, sorted((perm[u], perm[v]) for u, v in arcs), relab(good), relab(broken)
