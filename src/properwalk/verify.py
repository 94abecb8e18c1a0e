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
  condensation, Purdom 1970).  The pass takes O(k*m) state and arc steps,
  each arc step at most one OR of n-bit ints, and holds one n-bit int per
  SCC (at most n*k SCCs, since there are at most n*k states).
- The pairwise walk checks run one BFS over the same states, from a
  virtual state (u, 0) that no edge enters, and return a witness walk.
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
    """Sorted (y, color) lists per vertex: both directions of each edge of a
    graph, the out-arcs of a digraph.  The edges are sorted, so each list
    comes out sorted, as in Graph.

    The coloring is checked in the same pass, and the adjacency raises what
    ``c.validate_for(g)`` raises: it is total and exact exactly when every
    edge or arc is found (a graph's edge keyed in either orientation) and
    there are m keys, for m found keys are distinct and none is left over."""
    adj = [[] for _ in range(g.n)]
    a = c.assignment
    try:
        if isinstance(g, Digraph):
            for u, v in g.arcs:
                adj[u].append((v, a[(u, v)]))
        else:
            for e in g.edges:
                u, v = e
                col = a.get(e) or a[(v, u)]
                adj[u].append((v, col))
                adj[v].append((u, col))
    except KeyError:
        pass
    else:
        if len(a) == g.m:
            return adj
    c.validate_for(g)
    raise AssertionError("validate_for accepted a coloring the adjacency pass rejected")


def _state_search(adj, u, v, start_colors, end_colors):
    """BFS over (vertex, last color) states from the virtual state (u, 0);
    ``start_colors`` filters that state's steps alone.  Returns a witness
    vertex tuple or None.  Never uses the empty walk."""
    root = (u, 0)
    parent = {root: None}
    queue = deque([root])
    while queue:
        state = queue.popleft()
        x, last = state
        only = start_colors if state is root else None
        for y, col in adj[x]:
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
    adj = _colored_adjacency(g, c)
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
    pair = _first_failure(_colored_adjacency(g, c), c.k)
    return pair is None, pair


def _first_failure(adj, k):
    """The lexicographically first ordered pair (src, v) with no properly
    colored walk from src to v, or None when every pair has one.

    ``adj`` is a colored adjacency as ``_walk_reach`` takes it, of a graph
    (both directions of each edge) or of a digraph.  On a graph, walks
    reverse: by the time src is read, every u < src has reached src, so
    src reaches u, and the pair found has src < v.
    """
    full = (1 << len(adj)) - 1
    for src, reach in _walk_reach(adj, k):
        missing = full ^ reach
        if missing:
            return src, _lowest_bit(missing)
    return None


def _walk_reach(adj, k):
    """Yield (src, reach) for every vertex src in order, where bit v of
    ``reach`` is set when a properly colored walk runs from src to v; bit
    src is always set (the empty walk).

    ``adj[x]`` lists (y, col) for the edges or arcs leaving x, with colors in
    1..k.  State (y, col) has id y*(k+1)+col; its arcs are generated from
    ``adj`` when it is expanded.  The per-state tables are dicts, so memory
    follows the states reached (at most 2m), not the n*(k+1) id range.
    Results persist across sources: a state closed for one source is read,
    not searched, by the next.
    """
    width = k + 1
    num = {}        # DFS number of every state reached so far
    reach = {}      # closed state -> reach of its SCC
    tstack = []     # Tarjan's stack of states whose SCC is still open
    for src in range(len(adj)):
        got = 1 << src
        for y, col in adj[src]:
            state = y * width + col
            sub = reach.get(state)
            if sub is None:
                sub = _close_from(adj, width, state, num, reach, tstack)
            got |= sub
        yield src, got


def _close_from(adj, width, root, num, reach, tstack):
    """Iterative Tarjan from the unreached state ``root``; closes every SCC
    it reaches and returns the reach of root's SCC."""
    s = root
    x, last = divmod(s, width)
    num[s] = low = len(num)
    acc = 1 << x        # vertices seen from s, merged into its SCC's reach
    tstack.append(s)
    it = iter(adj[x])
    frames = []
    while True:
        for y, col in it:
            if col == last:
                continue
            t = y * width + col
            sub = reach.get(t)
            if sub is not None:
                acc |= sub
                continue
            nt = num.get(t)
            if nt is not None:      # reached, not closed: on Tarjan's stack
                if nt < low:
                    low = nt
                continue
            frames.append((s, last, it, low, acc))
            s, last = t, col
            num[s] = low = len(num)
            acc = 1 << y
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
    return _colored_adjacency(g, c)


def _path_dfs(adj, x, v, visited, last):
    for y, col in adj[x]:
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
    pair = _first_failure(_colored_adjacency(d, c), c.k)
    return pair is None, pair


def path_reachable_directed(d: Digraph, c: EdgeColoring, u: int, v: int) -> bool:
    """Directed variant: properly colored simple directed path from u to v."""
    return path_reachable(d, c, u, v)
