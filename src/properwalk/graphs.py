"""Graph data model, edge-list and DOT text formats, and named generators.

Everything downstream relies on the determinism guarantees made here:
edges are kept in canonical order (sorted pairs, smaller endpoint first)
and adjacency lists are sorted, so identical inputs always produce
identical traversals, colorings, and output text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations


class GraphFormatError(ValueError):
    """Malformed edge-list or coloring text."""


class ColoringMismatchError(ValueError):
    """A coloring does not match the edge (arc) set of its graph."""


# Display palette for DOT output; color indices are 1-based, so index 1 is
# red, 2 blue, 3 green.  Indices past the palette wrap around; the numeric
# label on each edge is authoritative either way.
DISPLAY_PALETTE = ("red", "blue", "green", "orange", "purple",
                   "brown", "cyan", "magenta", "gold", "gray")


def color_name(c: int) -> str:
    return DISPLAY_PALETTE[(c - 1) % len(DISPLAY_PALETTE)]


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _reached(neighbors, src: int) -> set[int]:
    """The one reachability search: the vertices reachable from src, where
    ``neighbors(x)`` lists the vertices one step from x."""
    seen = {src}
    stack = [src]
    while stack:
        for y in neighbors(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _checked_pairs(n: int, pairs, kind: str, key) -> list[tuple[int, int]]:
    """The one pair check of ``Graph`` and ``Digraph``: the distinct
    ``key(u, v)`` of the pairs, sorted, after rejecting a negative n and
    every out-of-range, loop or duplicate ``kind`` ("edge" or "arc")."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{kind} ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        e = key(u, v)
        if e in seen:
            raise ValueError(f"duplicate {kind} {e}")
        seen.add(e)
    return sorted(seen)


def _steps(vs, closed=False) -> list[tuple[int, int]]:
    """The one edge split: the consecutive pairs of the vertex sequence vs,
    and with ``closed`` also (last, first), which closes it into a cycle."""
    vs = tuple(vs)
    return list(zip(vs, vs[1:] + vs[:1] if closed else vs[1:]))


class Graph:
    """Immutable simple undirected graph on vertex ids 0..n-1."""

    __slots__ = ("n", "edges", "_adj", "_connected")

    def __init__(self, n: int, edges=()):
        self._build(n, _checked_pairs(n, edges, "edge", canonical_edge))

    def _build(self, n: int, edges) -> "Graph":
        """Fill in this graph from edges that are already canonical, unique
        and sorted, with no check; returns it.  ``__init__`` calls it after
        validating, and ``_subgraph`` on ``Graph.__new__(Graph)`` for its
        copies, filtered from a valid graph through an order-preserving
        relabeling."""
        self.n = n
        self.edges = tuple(edges)
        # sorted edges list each vertex's lower neighbors in increasing
        # order, then its higher ones: every list comes out sorted
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(map(tuple, adj))
        self._connected = None
        return self

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def is_connected(self) -> bool:
        """One search on the first call; the graph never changes, so the
        answer is kept for every later call."""
        if self._connected is None:
            self._connected = self.n <= 1 or len(_reached(self.neighbors, 0)) == self.n
        return self._connected

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def is_tree(self) -> bool:
        return self.is_connected() and self.m == self.n - 1

    def induced(self, vertices) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``vertices``; returns (subgraph, old id per new id)."""
        return self._subgraph(vertices)

    def _subgraph(self, vertices, drop=frozenset()) -> tuple["Graph", tuple[int, ...]]:
        """The one relabeled copy: the subgraph induced on ``vertices`` less
        the edges in ``drop`` (canonical pairs), with the vertices renumbered
        in increasing order; returns (subgraph, old id per new id)."""
        old = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(old)}
        edges = [e for e in self.edges if e not in drop] if drop else self.edges
        sub_edges = [(index[u], index[v]) for u, v in edges if u in index and v in index]
        return Graph.__new__(Graph)._build(len(old), sub_edges), old

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """Immutable simple digraph: no loops, no duplicate arcs; antiparallel pairs allowed."""

    __slots__ = ("n", "arcs", "_out", "_in")

    def __init__(self, n: int, arcs=()):
        self.arcs = tuple(_checked_pairs(n, arcs, "arc", lambda u, v: (u, v)))
        self.n = n
        out = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        for u, v in self.arcs:
            out[u].append(v)
            inc[v].append(u)
        self._out = tuple(map(tuple, out))      # sorted, as the arcs are
        self._in = tuple(map(tuple, inc))

    @property
    def m(self) -> int:
        return len(self.arcs)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def is_strongly_connected(self) -> bool:
        """Vertex 0 reaches every vertex, and every vertex reaches it."""
        return self.n <= 1 or all(len(_reached(step, 0)) == self.n
                                  for step in (self.out_neighbors, self.in_neighbors))

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.n == other.n and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.n, self.arcs))

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Walk:
    """A walk given by its vertex sequence; edges may repeat, vertices may repeat."""

    vertices: tuple[int, ...]

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    @property
    def num_edges(self) -> int:
        return len(self.vertices) - 1

    def edge_sequence(self) -> list[tuple[int, int]]:
        return _steps(self.vertices)

    def is_properly_colored(self, coloring: "EdgeColoring") -> bool:
        cs = [coloring.color(u, v) for u, v in self.edge_sequence()]
        return all(cs[i] != cs[i + 1] for i in range(len(cs) - 1))


class EdgeColoring:
    """Total mapping from edges (or arcs) to colors 1..k.

    Colors need not all be used, but every value must lie in 1..k.
    """

    __slots__ = ("k", "assignment")

    def __init__(self, k: int, assignment):
        if k < 1:
            raise ValueError("number of colors must be at least 1")
        amap = dict(assignment)
        for e, c in amap.items():
            if not isinstance(c, int) or not 1 <= c <= k:
                raise ValueError(f"color {c} for edge {e} outside 1..{k}")
        self.k = k
        self.assignment = amap

    def color(self, u: int, v: int) -> int:
        a = self.assignment
        if (u, v) in a:
            return a[(u, v)]
        if (v, u) in a:
            return a[(v, u)]
        raise KeyError(f"edge ({u}, {v}) is not colored")

    def validate_for(self, g) -> None:
        """Raise ColoringMismatchError unless this coloring is total on g and exact."""
        if isinstance(g, Digraph):
            keys = set(self.assignment)
            want = set(g.arcs)
        else:
            keys = {canonical_edge(u, v) for u, v in self.assignment}
            want = set(g.edges)
            if len(keys) != len(self.assignment):
                raise ColoringMismatchError("edge colored twice with opposite orders")
        missing = want - keys
        extra = keys - want
        if missing:
            raise ColoringMismatchError(f"uncolored edges: {sorted(missing)[:3]}")
        if extra:
            raise ColoringMismatchError(f"colored edges absent from graph: {sorted(extra)[:3]}")

    def __eq__(self, other):
        return (isinstance(other, EdgeColoring)
                and self.k == other.k and self.assignment == other.assignment)

    def __repr__(self):
        return f"EdgeColoring(k={self.k}, edges={len(self.assignment)})"


@dataclass(frozen=True)
class ColoringResult:
    """A coloring together with its color count, exactness status, and provenance."""

    k: int
    coloring: EdgeColoring
    status: str  # "exact" | "upper-bound"
    provenance: str

    def __post_init__(self):
        if self.status not in ("exact", "upper-bound"):
            raise ValueError(f"bad status {self.status!r}")


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_graph(text: str, directed: bool = False):
    """Parse edge-list text into a Graph (or Digraph when ``directed``).

    Lines hold "u v" vertex pairs; '#' starts a comment line.  An optional
    first line "n m" declares the vertex and edge counts.  Since a count line
    and an edge line look alike, the first line is taken as a header exactly
    when n >= 1 and m equals the number of remaining lines; a first line
    "a a" with a >= 1 can never be an edge, so a count mismatch there is
    reported as an inconsistency rather than reinterpreted.
    """
    rows = []
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected two integers, got {line!r}") from None
        if a < 0 or b < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id in {line!r}")
        rows.append((lineno, a, b))

    if not rows:
        raise GraphFormatError("no edges or header found")

    _, a0, b0 = rows[0]
    header = None
    if a0 >= 1 and len(rows) - 1 == b0:
        header = (a0, b0)
        body = rows[1:]
        for lineno, u, v in body:
            if u >= a0 or v >= a0:
                raise GraphFormatError(
                    f"line {lineno}: vertex id {max(u, v)} inconsistent with declared n={a0}")
    elif a0 == b0:
        if a0 >= 1:
            raise GraphFormatError(
                f"header declares {b0} edges but {len(rows) - 1} lines follow")
        raise GraphFormatError("line {}: loop edge ({} {})".format(rows[0][0], a0, b0))
    else:
        body = rows

    n = header[0] if header else max(max(u, v) for _, u, v in body) + 1
    cls = Digraph if directed else Graph
    try:
        return cls(n, [(u, v) for _, u, v in body])
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def parse_coloring(text: str, directed: bool = False) -> EdgeColoring:
    """Parse a coloring file: first line "k <k>", then "u v c" lines.
    Undirected keys are canonicalized; arc keys keep their direction."""
    lines = list(_data_lines(text))
    if not lines:
        raise GraphFormatError("empty coloring text")
    _, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "k":
        raise GraphFormatError(f"coloring must start with 'k <count>', got {head!r}")
    try:
        k = int(parts[1])
    except ValueError:
        raise GraphFormatError(f"bad color count {parts[1]!r}") from None
    assignment = {}
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v c', got {line!r}")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected 'u v c', got {line!r}") from None
        e = (u, v) if directed else canonical_edge(u, v)
        if e in assignment:
            raise GraphFormatError(f"line {lineno}: edge {e} colored twice")
        assignment[e] = c
    try:
        return EdgeColoring(k, assignment)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def emit_graph(g, coloring: EdgeColoring | None = None, fmt: str = "edgelist") -> str:
    """Render a graph as edge-list or DOT text.

    Edge-list output always carries the "n m" header and round-trips through
    parse_graph.  With a coloring, edge-list mode instead emits the coloring
    file format ("k <k>" header, then "u v c" lines in canonical edge order).
    """
    directed = isinstance(g, Digraph)
    pairs = g.arcs if directed else g.edges
    if coloring is not None:
        coloring.validate_for(g)

    if fmt == "edgelist":
        if coloring is None:
            lines = [f"{g.n} {len(pairs)}"]
            lines += [f"{u} {v}" for u, v in pairs]
        else:
            lines = [f"k {coloring.k}"]
            lines += [f"{u} {v} {coloring.color(u, v)}" for u, v in pairs]
        return "\n".join(lines) + "\n"

    if fmt == "dot":
        kind, sep = ("digraph", "->") if directed else ("graph", "--")
        lines = [f"{kind} g {{"]
        for v in range(g.n):
            lines.append(f"  {v};")
        for u, v in pairs:
            if coloring is None:
                lines.append(f"  {u} {sep} {v};")
            else:
                c = coloring.color(u, v)
                lines.append(f'  {u} {sep} {v} [color="{color_name(c)}", label="{c}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, _steps(range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, _steps(range(n), closed=True))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph(n, list(combinations(range(n), 2)))


def star(n: int) -> Graph:
    """Star on n vertices: center 0 joined to leaves 1..n-1."""
    if n < 2:
        raise ValueError("star needs at least 2 vertices")
    return Graph(n, [(0, i) for i in range(1, n)])


def theta(a: int, b: int, p: int) -> Graph:
    """Theta graph: two junction vertices joined by three internally disjoint
    paths of lengths a, b (forming the even outer cycle) and p (the inverter).

    Requires a + b even and parity(p) != parity(a) so the union is
    nonbipartite, and forbids a = b = 1 (parallel edges).
    """
    if a < 1 or b < 1 or p < 1:
        raise ValueError("theta path lengths must be at least 1")
    if (a + b) % 2 != 0:
        raise ValueError("outer cycle length a + b must be even")
    if p % 2 == a % 2:
        raise ValueError("inverter parity must differ from the outer arcs (result must be nonbipartite)")
    if a == 1 and b == 1:
        raise ValueError("a = b = 1 would create parallel edges")
    u, v = 0, a
    runs = ([u, *range(1, a), v],                   # arc of length a through 1..a-1
            [v, *range(a + 1, a + b), u],           # arc of length b through a+1..a+b-1
            [u, *range(a + b, a + b + p - 1), v])   # inverter through a+b..a+b+p-2
    return Graph(a + b + p - 1, [e for run in runs for e in _steps(run)])


def cycle_with_feet(n: int, feet) -> Graph:
    """Odd cycle on vertices 0..n-1 plus feet[i] pendant vertices hanging off
    cycle vertex i; pendants are labeled n, n+1, ... in cycle order."""
    feet = list(feet)
    if n < 3 or n % 2 == 0:
        raise ValueError("cycle length must be odd and at least 3")
    if len(feet) != n or any((not isinstance(f, int)) or f < 0 for f in feet):
        raise ValueError("feet must be n nonnegative counts")
    edges = _steps(range(n), closed=True)
    nxt = n
    for i, f in enumerate(feet):
        for _ in range(f):
            edges.append((i, nxt))
            nxt += 1
    return Graph(nxt, edges)


def two_triangles_shared_vertex() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


def bowtie_digraph() -> Digraph:
    """Two directed triangles sharing vertex 0."""
    return Digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


def directed_cycle(n: int) -> Digraph:
    if n < 2:
        raise ValueError("directed cycle needs at least 2 vertices")
    return Digraph(n, _steps(range(n), closed=True))


def _check_gnp(n: int, p: float) -> None:
    """Reject G(n, p) parameters that random_connected can never satisfy."""
    if n < 1:
        raise ValueError("need at least 1 vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    if p == 0 and n >= 2:
        raise ValueError(f"edge probability 0 never connects {n} vertices")


def random_connected(n: int, p: float, seed=None, max_tries: int = 100000) -> Graph:
    """Erdos-Renyi G(n, p) resampled until connected; deterministic under seed.

    When the first 100 draws all fail, raises ValueError at once if
    max_tries draws would find a connected one with probability below
    1e-6 (at most max_tries times P(G(n, p) is connected)).  The check
    draws nothing, so every sample that is returned is the one the same
    seed always gave."""
    _check_gnp(n, p)
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    for tries in range(max_tries):
        if tries == 100:
            chance = _connected_chance(n, p)
            if max_tries * chance < 1e-6:
                raise ValueError(f"G(n={n}, p={p}) is connected with probability {chance:.3g}, "
                                 f"so {max_tries} tries find a connected sample with "
                                 f"probability below 1e-6")
        edges = [e for e in pairs if rng.random() < p]
        g = Graph(n, edges)
        if g.is_connected():
            return g
    raise ValueError(f"no connected sample after {max_tries} tries (n={n}, p={p})")


def _connected_chance(n: int, p: float) -> float:
    """P(G(n, p) is connected), by Gilbert's recursion on the size j of
    vertex 1's component: C(1) = 1 and C(m) = 1 - sum over j < m of
    binom(m - 1, j - 1) C(j) (1 - p)^(j (m - j)).  Where C(m) is tiny the
    sum cancels to many digits, so it runs in decimal arithmetic, at
    doubling precision until two runs agree to 1e-3."""
    from decimal import Decimal, localcontext
    from math import comb
    prec, last = 32, None
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            q = 1 - Decimal(p)
            powers = [Decimal(1)]
            for _ in range(n * n // 4):
                powers.append(powers[-1] * q)
            chance = [None, Decimal(1)]
            for m in range(2, n + 1):
                chance.append(1 - sum(comb(m - 1, j - 1) * chance[j] * powers[j * (m - j)]
                                      for j in range(1, m)))
            value = chance[n]
        if last is not None and abs(value - last) <= abs(value) / 1000:
            return float(value)
        prec, last = 2 * prec, value


_FAMILIES = {
    "path": lambda params, seed: path_graph(*map(int, params)),
    "cycle": lambda params, seed: cycle(*map(int, params)),
    "complete": lambda params, seed: complete(*map(int, params)),
    "star": lambda params, seed: star(*map(int, params)),
    "theta": lambda params, seed: theta(*map(int, params)),
    "cycle_with_feet": lambda params, seed: cycle_with_feet(
        int(params[0]), [int(x) for x in params[1:]]),
    "two_triangles": lambda params, seed: two_triangles_shared_vertex(),
    "bowtie_digraph": lambda params, seed: bowtie_digraph(),
    "directed_cycle": lambda params, seed: directed_cycle(*map(int, params)),
    "random_connected": lambda params, seed: random_connected(
        int(params[0]), float(params[1]), seed),
}


def generate(family: str, *params, seed=None):
    """Build a named family member, e.g. generate("cycle", 5)."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(sorted(_FAMILIES))}") from None
    try:
        return builder(params, seed)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {family!r}: {exc}") from None


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))
