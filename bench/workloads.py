"""The four benchmark workloads.

A workload is built from the seed at every set-up: it generates its inputs
(and, for verify-files, writes them to files) and returns a ``Workload``
holding one fixed item list and a warm-up list.  The same seed always gives
the same items in the same order, so run.py can time each item several
times and keep its fastest time.

Every list holds at least 40 items, so that item_s.tail, the highest
percentile with ten items beyond it, is the 75th or higher; its sizes are
chosen so that a 30-second run repeats every item seven times or more.

An item's ``run`` is the timed call into properwalk.  Its ``check`` runs
after the round, untimed, and returns None or the reason the output is
wrong; it never uses ``properwalk.verify``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen

import properwalk
from properwalk import Digraph, Graph, cli

HERE = Path(__file__).resolve().parent
EXPECT = json.loads((HERE / "expectations.json").read_text())

# 9 families x 5 sizes = 45 items, about 2.5 s per round.  Larger graphs
# (one n = 400 pass takes 2.7 s, n = 800 about 12 s) could not be repeated
# often enough within a run.
LARGE_SIZES = (40, 80, 120, 160, 200)


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    fingerprint: Callable[[object], object]   # must not change between rounds or under tracing


@dataclass
class Workload:
    items: list[Item]
    warmup: list[Item]


def _rng(seed, *parts):
    return random.Random("/".join(map(str, (seed,) + parts)))


# ---------------------------------------------------------------------------
# Expectations shared by auto-large and verify-files
# ---------------------------------------------------------------------------

def _expected_k(rule, n, edges):
    if rule == "max_degree":
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg)
    return rule


def route_problem(expect, n, edges, k, status, route):
    """Compare a coloring's claim with a committed expectation row.  A row
    expected as an upper bound also accepts an exact answer no larger."""
    want_k = _expected_k(expect["k"], n, edges)
    if (k, status, route) == (want_k, expect["status"], expect["route"]):
        return None
    if expect["status"] == "upper-bound" and status == "exact" and k <= want_k:
        return None
    return (f"got k={k} {status} via {route!r}, expected k={want_k} "
            f"{expect['status']} via {expect['route']!r}")


def _coloring_fp(res):
    return (res.k, res.status, res.provenance, tuple(sorted(res.coloring.assignment.items())))


def _exact_fp(res):
    if res is None:
        return None
    return (res.k, res.explored, tuple(sorted(res.witness.assignment.items())))


# ---------------------------------------------------------------------------
# auto-large
# ---------------------------------------------------------------------------

def _large_item(family, n, rng):
    nn, edges = gen.LARGE_FAMILIES[family](n, rng)
    g = Graph(nn, edges)
    expect = EXPECT["large"][family]

    def check_out(res):
        why = route_problem(expect, nn, edges, res.k, res.status, res.provenance)
        return why or check.coloring_problems(nn, edges, res.k, res.coloring.assignment)

    return Item(f"{family}@{n}", lambda: properwalk.pw_auto(g), check_out, _coloring_fp)


def auto_large(seed, workdir):
    rng = _rng(seed, "auto-large")
    items = [_large_item(f, n, rng) for n in LARGE_SIZES for f in gen.LARGE_FAMILIES]
    rng.shuffle(items)
    rng = _rng(seed, "auto-large", "warmup")
    warm = [_large_item(f, 40, rng) for f in gen.LARGE_FAMILIES]
    return Workload(items, warm)


# ---------------------------------------------------------------------------
# exact-refute
# ---------------------------------------------------------------------------

def _refute_item(kind, m, rng):
    spec = EXPECT["refute"][kind]
    nn, edges = getattr(gen, kind)(m, rng)
    g = Graph(nn, edges)
    max_k = spec["max_k"]

    def check_out(res):
        if res is not None:
            return f"expected a refutation up to k={max_k}, got k={res.k}"
        return None

    return Item(f"{kind}@{m}", lambda: properwalk.exact_pw(g, max_k=max_k), check_out, _exact_fp)


def _catalog_item(row, rng):
    nn, edges = gen.odd_cycle_paths(row["cycle"], row["legs"], rng)
    g = Graph(nn, edges)

    def check_out(res):
        why = route_problem(row, nn, edges, res.k, res.status, res.provenance)
        return why or check.coloring_problems(nn, edges, res.k, res.coloring.assignment)

    return Item(f"odd_cycle_paths@{row['m']}", lambda: properwalk.pw_auto(g), check_out, _coloring_fp)


# 36 refutations plus the 8 catalog rows (m = 10 and 13) = 44 calls, 2 s to
# 3 s per round.  The 24 calls at k = 2, m = 11 and k = 3, m = 8 cost
# about the same (40 ms), so the median and the tail both fall inside one
# group of like calls.  Larger calls (k = 2 at m = 12 takes 0.1-0.15 s and
# at m = 17 4.4 s, spiders at m = 9 0.12-0.2 s) made rounds too long to
# repeat often within a run.
REFUTE_COUNTS = {("cycle_feet_three", 9): 6, ("cycle_feet_three", 11): 12,
                 ("spider4", 6): 6, ("spider4", 8): 12}


def exact_refute(seed, workdir):
    catalog = EXPECT["exhaustive_catalog"]
    rng = _rng(seed, "exact-refute")
    items = [_refute_item(kind, m, rng) for (kind, m), count in REFUTE_COUNTS.items()
             for _ in range(count)]
    items += [_catalog_item(row, rng) for row in catalog]
    rng.shuffle(items)
    rng = _rng(seed, "exact-refute", "warmup")
    warm = [_refute_item("cycle_feet_three", 9, rng), _refute_item("spider4", 6, rng),
            _catalog_item(catalog[0], rng)]
    return Workload(items, warm)


# ---------------------------------------------------------------------------
# sweep-small
# ---------------------------------------------------------------------------

def _table(name, n):
    return EXPECT["small"][name][str(n)]


def _pw_item(n, edges, want=None):
    g = Graph(n, edges)
    top = max(3, g.max_degree())

    def run():
        return properwalk.pw_auto(g), properwalk.exact_pw(g, max_k=top)

    def check_out(out):
        res, oracle = out
        if want is not None and oracle.k != want:
            return f"oracle says {oracle.k}, committed table says {want}"
        if res.status == "exact" and res.k != oracle.k:
            return f"pw_auto claims exact {res.k}, oracle {oracle.k}"
        if res.k < oracle.k:
            return f"pw_auto bound {res.k} below oracle {oracle.k}"
        return (check.coloring_problems(n, edges, res.k, res.coloring.assignment)
                or check.coloring_problems(n, edges, oracle.k, oracle.witness.assignment))

    return Item(f"pw@{n}", run, check_out,
                lambda out: (_coloring_fp(out[0]), _exact_fp(out[1])))


def _pp_item(n, edges, want):
    g = Graph(n, edges)
    top = max(3, g.max_degree())

    def check_out(res):
        if res.k != want:
            return f"exact_pp says {res.k}, committed table says {want}"
        col = res.witness.assignment
        if check.coloring_problems(n, edges, res.k, col) or not check.path_connected(n, edges, col):
            return "exact_pp witness has a pair without a properly colored path"
        return None

    return Item(f"pp@{n}", lambda: properwalk.exact_pp(g, max_k=top), check_out, _exact_fp)


def _directed_item(n, arcs, want):
    d = Digraph(n, arcs)

    def check_out(res):
        if res is None or res.k != want:
            return f"exact_directed says {res and res.k}, committed table says {want}"
        return check.coloring_problems(n, arcs, res.k, res.witness.assignment, directed=True)

    return Item(f"directed@{n}", lambda: properwalk.exact_directed(d, "walk", max_k=3), check_out, _exact_fp)


SWEEP_N = (1, 2, 3, 4, 5)
# The seeded sample stays at 6 vertices: 7-vertex graphs (sparse ones, trees
# above all) make the oracle's cost vary twentyfold with the draw, and the
# sample's heaviest items set item_s.tail.
SWEEP_SAMPLE = 400            # seeded labeled connected graphs with 6 vertices
DIRECTED_SAMPLE = 200         # seeded strongly connected digraphs with n <= 4


def sweep_small(seed, workdir):
    items = []
    for n in SWEEP_N:
        pw_tab, pp_tab = _table("pw", n), _table("pp", n)
        for i, mask in enumerate(gen.connected_masks(n)):
            edges = gen.edges_of_mask(n, mask)
            items.append(_pw_item(n, edges, int(pw_tab[i])))
            items.append(_pp_item(n, edges, int(pp_tab[i])))
    warm = [it for it in items if it.kind in ("pw@3", "pp@3", "pw@4")]
    digraphs = [(n, mask, int(_table("directed_walk", n)[i]))
                for n in (2, 3, 4) for i, mask in enumerate(gen.strong_masks(n))]
    rng = _rng(seed, "sweep-small")
    items += [_pw_item(*gen.uniform_connected(6, rng)) for _ in range(SWEEP_SAMPLE)]
    for n, mask, want in rng.sample(digraphs, DIRECTED_SAMPLE):
        items.append(_directed_item(*gen.relabel(n, gen.arcs_of_mask(n, mask), rng, directed=True),
                                    want))
    rng.shuffle(items)
    return Workload(items, warm)


# ---------------------------------------------------------------------------
# verify-files
# ---------------------------------------------------------------------------

def _read_coloring(path):
    """Parse a coloring file without the library: 'k K' then 'u v c' lines."""
    lines = [ln.split() for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    k = int(lines[0][1])
    return k, {(int(u), int(v)): int(c) for u, v, c in lines[1:]}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_item(kind, argv, check_out, written=None):
    """An in-process CLI command; its fingerprint is the exit code, stdout
    and the content of the file it writes, if any."""
    return Item(kind, lambda: _cli(argv), check_out,
                lambda out: (out[0], out[1], written and Path(written).read_text()))


def _verdict_check(expected_pair):
    want = "PASS\n" if expected_pair is None else f"FAIL {expected_pair[0]} {expected_pair[1]}\n"
    want_code = 0 if expected_pair is None else 1

    def check_out(out):
        code, stdout, stderr = out
        if (code, stdout) != (want_code, want):
            return f"verify printed {stdout!r} (exit {code}), expected {want!r} (exit {want_code})"
        return None

    return check_out


def _color_items(base, family, n, rng):
    nn, edges = gen.LARGE_FAMILIES[family](n, rng)
    g = Graph(nn, edges)
    gpath, cpath = f"{base}.txt", f"{base}.col"
    Path(gpath).write_text(properwalk.emit_graph(g))
    expect = EXPECT["large"][family]

    def check_color(out):
        code, stdout, stderr = out
        head = stdout.splitlines()[0] if stdout else ""
        if code != 0 or not head.startswith("pW <= "):
            return f"color failed: exit {code}, {head!r} {stderr.strip()!r}"
        claim, route = head[len("pW <= "):].split(" via ", 1)
        k, status = claim.split(" ", 1)
        why = route_problem(expect, nn, edges, int(k), status.strip("()"), route)
        if why:
            return why
        ck, col = _read_coloring(cpath)
        return check.coloring_problems(nn, edges, ck, col)

    items = [_cli_item(f"color:{family}@{n}", ["color", gpath, "--out", cpath], check_color, cpath),
             _cli_item(f"verify:{family}@{n}", ["verify", gpath, cpath], _verdict_check(None))]
    if family == "tree":
        k, col = gen.broken_tree_coloring(nn, edges, rng)
        bpath = f"{base}.broken.col"
        Path(bpath).write_text(properwalk.emit_graph(g, properwalk.EdgeColoring(k, col)))
        pair = check.first_failing_pair(nn, edges, col)
        items.append(_cli_item(f"verify-fail:{family}@{n}", ["verify", gpath, bpath],
                               _verdict_check(pair)))
    return items


def _directed_items(base, n, rng):
    nn, arcs, good, broken = gen.oriented_bipartite(n, rng)
    d = Digraph(nn, arcs)
    gpath = f"{base}.txt"
    Path(gpath).write_text(properwalk.emit_graph(d))
    items = []
    for tag, col in (("good", good), ("broken", broken)):
        cpath = f"{base}.{tag}.col"
        Path(cpath).write_text(properwalk.emit_graph(d, properwalk.EdgeColoring(2, col)))
        pair = check.first_failing_pair(nn, arcs, col, directed=True)
        kind = "verify-directed" if tag == "good" else "verify-directed-fail"
        items.append(_cli_item(f"{kind}@{n}", ["verify", gpath, cpath, "--directed"],
                               _verdict_check(pair)))
    return items


# Five variants of 9 commands = 45 commands, about 2 s per round.  At
# n = 300..400 a round took 3.5 s, too long to repeat often within a run.
FILE_CASES = (("tree", 300), ("sparse3", 200), ("bip_paths", 200))
FILE_VARIANTS = 5
DIRECTED_N = 200


def _file_items(tag, rng, workdir, cases, directed_n):
    items = []
    for i, (family, n) in enumerate(cases):
        items += _color_items(str(workdir / f"{tag}-{i}"), family, n, rng)
    items += _directed_items(str(workdir / f"{tag}-d"), directed_n, rng)
    return items


def verify_files(seed, workdir):
    """Commands run in list order: each verify reads the file the color
    command before it wrote."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, "verify-files")
    items = []
    for v in range(FILE_VARIANTS):
        items += _file_items(v, rng, workdir, FILE_CASES, DIRECTED_N)
    rng = _rng(seed, "verify-files", "warmup")
    warm = _file_items("warmup", rng, workdir, (("tree", 40), ("sparse3", 40)), 40)
    return Workload(items, warm)


WORKLOADS = {
    "auto-large": auto_large,
    "exact-refute": exact_refute,
    "sweep-small": sweep_small,
    "verify-files": verify_files,
}
