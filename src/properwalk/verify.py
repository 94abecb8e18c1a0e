"""Decision procedures for properly colored walk and path reachability.

These are the acceptors every emitted coloring must pass.  Walks live in the
state digraph whose states are (vertex, color of the edge that entered it):
state (x, last) steps to (y, col) along every edge x-y of color col != last.

- The all-pairs check, ``_first_failure``, makes one pass of Tarjan's
  strongly connected components algorithm over that digraph (Tarjan 1972).
  Both public all-pairs verifiers call it, and the exact search re-checks
  each of its witnesses with them; the search's own per-coloring check is
  its block kernel, which shares no code with this module.  An SCC closes
  only after every SCC it points to, so its reach, the set of vertices of
  the states it can reach, is an n-bit Python int: its own vertices OR the
  reach of its successor SCCs (transitive closure through the
  condensation, Purdom 1970).  The states are numbered as the adjacency is
  built, y*(k+1)+col while n*(k+1) <= 8*(n + arcs) and in order of first
  appearance beyond, so the pass's flat per-state tables take O(n + m)
  space whatever k is.  A state expands the arcs of its vertex, and a
  vertex with more than ``_WIDE`` arcs out and more than ``_WIDE`` colors
  in shares its exits through chains of nodes (``_shared_exits``); every
  other vertex has at most ``_WIDE`` states or at most ``_WIDE`` arcs out.
  The pass thus takes O(n + m) node and arc steps whatever k is, each arc
  step at most one OR of n-bit ints, and holds one n-bit int per node.
- The pairwise walk checks run one BFS over the same states, from a
  virtual state (u, 0) that no edge enters, reading each vertex's arcs at
  most twice, and return a witness walk.
- The path variants do exhaustive simple-path search and are guarded to desk
  scale.
"""

from __future__ import annotations

from collections import deque

from .graphs import Digraph, EdgeColoring, Graph, Walk

PATH_SEARCH_LIMIT = 16


def _check_vertex(g, v):
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")


def _colored_adjacency(g: Graph | Digraph, c: EdgeColoring):
    """(adj, states): sorted (y, color, state id) lists per vertex, both
    directions of each edge of a graph, the out-arcs of a digraph, and the
    number of state ids.  The edges are sorted, so each list comes out
    sorted, as in Graph.  State (y, color) has id y*(k+1)+color while that
    range is at most 8 times n + arcs; beyond, the states are numbered in
    order of first appearance, so there are at most as many as arcs.

    The coloring is checked in the same pass, and the adjacency raises what
    ``c.validate_for(g)`` raises: it is total and exact exactly when every
    edge or arc is found (a graph's edge keyed in either orientation) and
    there are m keys, for m found keys are distinct and none is left over."""
    n = g.n
    directed = isinstance(g, Digraph)
    width = c.k + 1
    flat = n * width <= 8 * (n + (1 if directed else 2) * g.m)
    ids = {}
    adj = [[] for _ in range(n)]
    a = c.assignment
    try:
        if directed:
            for u, v in g.arcs:
                col = a[(u, v)]
                t = v * width + col
                if not flat:
                    t = ids.setdefault(t, len(ids))
                adj[u].append((v, col, t))
        else:
            for e in g.edges:
                u, v = e
                col = a.get(e) or a[(v, u)]
                s, t = u * width + col, v * width + col
                if not flat:
                    s = ids.setdefault(s, len(ids))
                    t = ids.setdefault(t, len(ids))
                adj[u].append((v, col, t))
                adj[v].append((u, col, s))
    except KeyError:
        pass
    else:
        if len(a) == g.m:
            return adj, n * width if flat else len(ids)
    c.validate_for(g)
    raise AssertionError("validate_for accepted a coloring the adjacency pass rejected")


def _state_search(adj, u, v, start_colors, end_colors):
    """BFS over (vertex, last color) states from the virtual state (u, 0);
    ``start_colors`` filters that state's steps alone.  Returns a witness
    vertex tuple or None.  Never uses the empty walk.

    Beyond the root, each vertex's arcs are read at most twice: two states
    at x entered along different colors allow every arc of x between them,
    so every state those arcs lead to is already found, and a later state
    at x would find nothing new.  The root allows every arc unless
    ``start_colors`` filters it, so it counts as both reads, or as none.
    The BFS finds the same states in the same order, and the same witness,
    in O(n + m) steps."""
    root = (u, 0)
    parent = {root: None}
    queue = deque([root])
    reads = [0] * len(adj)
    if start_colors is None:
        reads[u] = 2
    while queue:
        state = queue.popleft()
        x, last = state
        only = None
        if state is root:
            only = start_colors
        elif reads[x] < 2:
            reads[x] += 1
        else:
            continue
        for y, col, _ in adj[x]:
            if col == last or only is not None and col not in only:
                continue
            step = (y, col)
            if step not in parent:
                parent[step] = state
                if y == v and (end_colors is None or col in end_colors):
                    return _rebuild(parent, step)
                queue.append(step)
    return None


def _rebuild(parent, state):
    out = []
    while state is not None:
        out.append(state[0])
        state = parent[state]
    return tuple(reversed(out))


def walk_reachable(g: Graph | Digraph, c: EdgeColoring, u: int, v: int,
                   start_colors=None, end_colors=None) -> tuple[bool, Walk | None]:
    """Is there a properly colored u-v walk (directed on a digraph),
    optionally with prescribed first and last edge colors?  u = v with no
    constraints holds via the empty walk.

    Returns (answer, witness); the witness has at most n*k edges.
    """
    adj = _colored_adjacency(g, c)[0]
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u == v and start_colors is None and end_colors is None:
        return True, Walk((u,))
    witness = _state_search(adj, u, v, _as_color_set(start_colors), _as_color_set(end_colors))
    if witness is None:
        return False, None
    return True, Walk(witness)


def _as_color_set(colors):
    return None if colors is None else set(colors)


def verify_all_pairs(g: Graph, c: EdgeColoring) -> tuple[bool, tuple[int, int] | None]:
    """Does every unordered vertex pair have a properly colored walk?

    One SCC pass over the (vertex, last color) states, read one source at a
    time; on failure returns the lexicographically first failing pair.
    """
    if not g.is_connected():
        raise ValueError("graph is not connected")
    pair = _first_failure(*_colored_adjacency(g, c))
    return pair is None, pair


_WIDE = 16      # a vertex with more arcs out and more colors in is chained


def _first_failure(adj, states):
    """The lexicographically first ordered pair (src, v) with no properly
    colored walk from src to v, or None when every pair has one.

    ``adj`` and ``states`` are a colored adjacency and its number of state
    ids as ``_colored_adjacency`` returns them, of a graph (both directions
    of each edge) or of a digraph: ``adj[x]`` lists (y, col, t) for the
    edges or arcs leaving x, with colors in 1..k and t the id of state
    (y, col), whose arcs are the entries of ``adj[y]`` of another color,
    generated when it is expanded.  The per-state tables are lists indexed
    by id.  The sources are read in order, each as the OR of its own bit
    (the empty walk) and the reach of the states its arcs enter, and a
    source stops reading them once it reaches every vertex.  Results
    persist across sources: a state closed for one source is read, not
    searched, by the next.  On a graph, walks reverse: by the time src is
    read, every u < src has reached src, so src reaches u, and the pair
    found has src < v.
    """
    n = len(adj)
    owner = list(range(n))  # the vertex of each row
    # a simple graph's degrees are below n
    if n > _WIDE + 1 and max(map(len, adj)) > _WIDE:
        adj, states = _shared_exits(adj, owner, states)
    num = [0] * states
    reach = [None] * states
    full = (1 << n) - 1
    for src in range(n):
        got = 1 << src
        for y, col, t in adj[src]:
            if got == full:
                break
            sub = reach[t]
            if sub is None:
                sub = _close_from(adj, owner, num, reach, y, col, t)
            got |= sub
        if got != full:
            return src, _lowest_bit(full ^ got)
    return None


def _close_from(adj, owner, num, reach, y, last, s):
    """Iterative Tarjan from the unreached node s, entered at row ``adj[y]``
    along color ``last``; closes every SCC it reaches and returns the reach
    of s's SCC.  Nodes closed earlier are only read, so the DFS numbers
    start again at 1 on each call."""
    count = 1
    num[s] = low = count
    acc = 1 << owner[y]     # vertices seen from s, merged into its SCC's reach
    tstack = [s]            # Tarjan's stack of nodes whose SCC is still open
    it = iter(adj[y])
    frames = []
    while True:
        for y, col, t in it:
            if col == last:
                continue
            sub = reach[t]
            if sub is not None:
                acc |= sub
                continue
            nt = num[t]
            if nt:                  # reached, not closed: on Tarjan's stack
                if nt < low:
                    low = nt
                continue
            frames.append((s, last, it, low, acc))
            s, last = t, col
            count += 1
            num[s] = low = count
            acc = 1 << owner[y]
            tstack.append(s)
            it = iter(adj[y])
            break
        else:
            if low == num[s]:
                while True:
                    member = tstack.pop()
                    reach[member] = acc
                    if member == s:
                        break
            if not frames:
                return acc
            child_low, child_acc = low, acc
            s, last, it, low, acc = frames.pop()
            acc |= child_acc
            if child_low < low:
                low = child_low


def _shared_exits(adj, owner, states):
    """(rows, nodes): ``adj`` with every vertex x that has more than
    ``_WIDE`` arcs out and more than ``_WIDE`` colors in sharing its exits,
    and the number of node ids; the vertex of each new row is appended to
    ``owner``.

    x's color classes, in row order, are cut into blocks B_0..B_b-1 of
    ``_WIDE`` classes.  Chain node P_j steps to P_j-1 and along B_j's arcs,
    S_j to S_j+1 and along B_j's arcs, so by induction along each chain
    its reach is x's bit and the union of the reaches of its blocks'
    targets.  A state (x, c) with c in B_j steps to P_j-1, S_j+1 and along
    B_j's arcs of colors other than c; the states (x, c) with c on no arc
    of x have x's arcs alone, so they are one node, S_0.  So each state
    reaches what it reached before, no other state's arcs change, and
    no reach changes (a chain node is entered only from x's states, which
    have x's bit).  At most ``_WIDE`` colors enter each block's row, and
    each node of x steps along at most two chain arcs beyond its block, so
    the pass stays linear.  The arc into chain node t has the color
    -1 - t, which no other entry of t's row has, and state (x, c) is
    entered only along c: only the arcs of c itself are ever filtered.
    """
    size = max(_WIDE, 1)        # classes per block
    n = len(adj)
    into = {x: set() for x in range(n) if len(adj[x]) > _WIDE}
    for row in adj:
        for y, col, _ in row:
            if y in into:
                into[y].add(col)
    rows = [None] * n   # the vertex rows, then the chain rows
    entry = {}          # chained x -> (first new row, blocks, {color: its block's row})
    for x, colors in into.items():
        if len(colors) > _WIDE:
            classes = dict.fromkeys(col for _, col, _ in adj[x])
            first, blocks = len(rows), -(-len(classes) // size)
            entry[x] = first, blocks, {col: first + i // size for i, col in enumerate(classes)}
            rows += [None] * (3 * blocks - 1)   # blocks, then P_0..P_b-2, then S_0..S_b-1
            owner += [x] * (3 * blocks - 1)
    if not entry:
        return adj, states
    shift = states - n          # new row r is node r + shift
    for u in range(n):
        row = rows[u] = []
        for y, col, t in adj[u]:
            if y in entry:
                first, blocks, block_of = entry[y]
                y = block_of.get(col)
                if y is None:       # the one node S_0
                    y = first + 2 * blocks - 1
                    t = y + shift
            row.append((y, col, t))

    def link(r):
        return r, -1 - r - shift, r + shift

    for x, (first, blocks, block_of) in entry.items():
        parts = [[] for _ in range(blocks)]
        for arc in rows[x]:
            parts[block_of[arc[1]] - first].append(arc)
        p, s = first + blocks, first + 2 * blocks - 1
        for j, part in enumerate(parts):
            before = [link(p + j - 1)] if j else []
            after = [link(s + j + 1)] if j < blocks - 1 else []
            rows[first + j] = before + after + part
            if j < blocks - 1:
                rows[p + j] = before + part
            rows[s + j] = after + part
    return rows, len(rows) + shift


def _lowest_bit(bits):
    return (bits & -bits).bit_length() - 1


def path_reachable(g: Graph, c: EdgeColoring, u: int, v: int) -> bool:
    """Is there a properly colored simple u-v path?  Exhaustive DFS over
    simple paths; guarded to graphs with at most 16 vertices."""
    adj = _path_adjacency(g, c)
    _check_vertex(g, u)
    _check_vertex(g, v)
    return u == v or _path_dfs(adj, u, v, 1 << u, 0)


def _first_path_failure(g, c: EdgeColoring):
    """The first pair (u, v), u < v on a graph and ordered on a digraph, with
    no properly colored simple u-v path, or None; guarded like
    ``path_reachable``."""
    adj = _path_adjacency(g, c)
    directed = isinstance(g, Digraph)
    for u in range(g.n):
        for v in range(0 if directed else u + 1, g.n):
            if u != v and not _path_dfs(adj, u, v, 1 << u, 0):
                return u, v
    return None


def _path_adjacency(g, c: EdgeColoring):
    """The colored adjacency the simple-path search runs on (out-arcs on a
    digraph), after the size guard and the coloring check."""
    if g.n > PATH_SEARCH_LIMIT:
        raise ValueError(f"path search is limited to {PATH_SEARCH_LIMIT} vertices")
    return _colored_adjacency(g, c)[0]


def _path_dfs(adj, x, v, visited, last):
    for y, col, _ in adj[x]:
        if col == last or visited & (1 << y):
            continue
        if y == v:
            return True
        if _path_dfs(adj, y, v, visited | (1 << y), col):
            return True
    return False


def walk_reachable_directed(d: Digraph, c: EdgeColoring, u: int, v: int) -> tuple[bool, Walk | None]:
    """Directed variant: properly colored directed walk from u to v."""
    return walk_reachable(d, c, u, v)


def verify_all_pairs_directed(d: Digraph, c: EdgeColoring) -> tuple[bool, tuple[int, int] | None]:
    """All ordered pairs must be joined by a properly colored directed walk.

    The same SCC pass as ``verify_all_pairs``, over the arc states; on
    failure returns the lexicographically first failing ordered pair.
    """
    pair = _first_failure(*_colored_adjacency(d, c))
    return pair is None, pair


def path_reachable_directed(d: Digraph, c: EdgeColoring, u: int, v: int) -> bool:
    """Directed variant: properly colored simple directed path from u to v."""
    return path_reachable(d, c, u, v)
