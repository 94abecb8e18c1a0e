"""Orientations: strongly connected orientations of 2-edge-connected graphs,
read from the one low-link DFS in ``decompose``, and the path-anchored
orientation used for coloring around an anchor path."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Digraph, Graph, _reached, _steps
from .decompose import _low_link, two_disjoint_paths


def robbins_orientation(h: Graph) -> Digraph:
    """Orient every edge of a 2-edge-connected graph so the result is
    strongly connected: the arcs of the ``decompose`` low-link DFS, whose
    tree edges point away from vertex 0 and whose other edges point back
    toward an ancestor.  Such an orientation of a connected graph is strong
    exactly when the graph has no bridge (Robbins), so the
    strong-connectivity check of the result is also the bridge check."""
    if h.n < 2:
        raise ValueError("need at least 2 vertices to orient")
    d = Digraph(h.n, [arc for arcs in _low_link(h)[1] for arc in arcs])
    if not d.is_strongly_connected():
        raise ValueError("graph has a bridge; no strongly connected orientation exists")
    return d


@dataclass(frozen=True)
class PathAnchoredOrientation:
    """A spanning oriented subgraph anchored on a directed path.

    ``anchors`` maps every vertex off the path to a pair (q, r) of path
    vertices with q strictly nearer the path's end: a directed walk exists
    from q to the vertex and from the vertex to r.
    """

    arcs: Digraph
    path: tuple[int, ...]
    anchors: dict[int, tuple[int, int]]


def path_anchored_orientation(h: Graph, p) -> PathAnchoredOrientation:
    """Orient a spanning subgraph of ``h`` so that the path ``p`` runs from
    its first vertex u to its last vertex v, u reaches everything, and every
    vertex pair is connected by a directed walk in at least one direction.

    Grows the oriented subgraph one missing vertex at a time: take the two
    internally disjoint paths from the lowest missing vertex to ``p``, cut
    each at its first contact with the current subgraph, orient the contact
    whose q-anchor sits nearer v toward the new vertex and the other one away
    from it.  Requires every off-path vertex to have two internally disjoint
    paths to ``p`` ending at distinct vertices.
    """
    p = tuple(p)
    if len(set(p)) != len(p):
        raise ValueError("anchor path repeats a vertex")
    arcs = _steps(p)
    for x, y in arcs:
        if not h.has_edge(x, y):
            raise ValueError(f"anchor path edge ({x}, {y}) missing from graph")
    pos = {v: i for i, v in enumerate(p)}

    in_sub = set(p)
    anchors: dict[int, tuple[int, int]] = {}

    def anchor_of(x: int) -> tuple[int, int]:
        return (x, x) if x in pos else anchors[x]

    while len(in_sub) < h.n:
        w = min(v for v in range(h.n) if v not in in_sub)
        pa, pb = two_disjoint_paths(h, w, set(p))
        trunc = []
        for full in (pa, pb):
            cut = [w]
            for x in full[1:]:
                cut.append(x)
                if x in in_sub:
                    break
            trunc.append(tuple(cut))
        ta, tb = trunc
        qa, ra = anchor_of(ta[-1])
        qb, rb = anchor_of(tb[-1])
        if pos[qa] > pos[rb]:
            toward, away, q, r = ta, tb, qa, rb
        elif pos[qb] > pos[ra]:
            toward, away, q, r = tb, ta, qb, ra
        else:
            raise AssertionError(
                f"no contact ordering with a strictly nearer q-anchor at vertex {w}; "
                f"contacts {ta[-1]}/{tb[-1]} anchored {qa, ra}/{qb, rb}")
        # "toward" carries flow from its contact down to w, "away" from w out.
        arcs += _steps(toward[::-1]) + _steps(away)
        for x in set(toward) | set(away):
            if x not in in_sub:
                in_sub.add(x)
                anchors[x] = (q, r)

    return PathAnchoredOrientation(Digraph(h.n, arcs), p, anchors)


def reaches(d: Digraph, src: int) -> set[int]:
    """Vertices reachable from src along arcs."""
    return _reached(d.out_neighbors, src)
