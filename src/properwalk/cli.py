"""Command-line surface: generate, analyze, color, verify, exact, experiment.

Exit codes: 0 success, 1 computed negative answer (verification FAIL, a
condition violation, or no coloring within limits), 2 usage or input errors.
All randomness comes from the explicit --seed flag, so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import construct, decompose, exact, graphs, verify
from .graphs import emit_graph, generate, parse_coloring, parse_graph


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str, directed: bool = False):
    return parse_graph(_read_text(path), directed=directed)


def _max_k(args) -> int:
    if args.max_k < 1:
        raise ValueError(f"--max-k must be at least 1, got {args.max_k}")
    return args.max_k


def _print_coloring(g, coloring, out_path=None):
    text = emit_graph(g, coloring, fmt="edgelist")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# what --directed makes of each family that has a directed form
_DIRECTED_FORM = {"cycle": "directed_cycle", "directed_cycle": "directed_cycle",
                  "bowtie_digraph": "bowtie_digraph"}


def _cmd_gen(args) -> int:
    family = args.family
    if args.directed:
        if family not in _DIRECTED_FORM:
            raise ValueError("--directed applies only to the families with a directed form: "
                             + ", ".join(sorted(_DIRECTED_FORM)))
        family = _DIRECTED_FORM[family]
    g = generate(family, *args.params, seed=args.seed)
    fmt = "dot" if args.dot else "edgelist"
    sys.stdout.write(emit_graph(g, fmt=fmt))
    return 0


def _cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    if not g.is_connected():
        print("error: graph is not connected", file=sys.stderr)
        return 2
    dec = decompose.decomposition(g)
    print(f"vertices {g.n}")
    print(f"edges {g.m}")
    print(f"bridges {len(dec.bridges)}:",
          " ".join(f"{u}-{v}" for u, v in sorted(dec.bridges)) or "-")
    print(f"blocks {len(dec.blocks)}:",
          " ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in dec.blocks) or "-")
    for comp in dec.cores:
        kind = "trivial" if comp.trivial else "nontrivial"
        print(f"core {{{','.join(map(str, sorted(comp.vertices)))}}}"
              f" {kind} incident-bridges {len(comp.incident_bridges)}")
    print("two-bridge rule:", "holds" if dec.two_bridge_rule else "fails")
    if dec.bipartition is None:
        print("bipartite: no; shortest odd cycle:", " ".join(map(str, dec.odd_cycle)))
    else:
        a, b = dec.bipartition
        print("bipartite: yes;",
              "{" + ",".join(map(str, sorted(a))) + "} /",
              "{" + ",".join(map(str, sorted(b))) + "}")
    print(f"contraction: {dec.contraction.graph.n} vertices,",
          "a path" if dec.contraction.is_path else "not a path")
    if args.orient:
        # the low-link arcs of the nontrivial blocks, as the constructions color them
        for comp in dec.cores:
            if comp.trivial:
                continue
            arcs = sorted(arc for blk, blk_arcs in zip(dec.blocks, dec.arcs)
                          if len(blk) > 2 and blk <= comp.vertices for arc in blk_arcs)
            print(f"orientation {{{','.join(map(str, sorted(comp.vertices)))}}}:",
                  " ".join(f"{a}->{b}" for a, b in arcs))
    return 0


def _cmd_color(args) -> int:
    g = _load_graph(args.graph)
    mode = args.mode
    if mode == "auto":
        result = construct.pw_auto(g)
    elif mode == "tree":
        result = construct.color_tree(g)
    elif mode == "bipartite":
        result = construct.color_bipartite2(g)
        if isinstance(result, construct.ConditionViolation):
            print(f"pW >= 3: {result}")
            return 1
    elif mode == "bridgeless":
        result = construct.color_bridgeless2(g)
    elif mode == "two-odd":
        found = decompose.disjoint_odd_cycles(g)
        if found is None:
            print("two edge-disjoint odd cycles: not found")
            return 1
        result = construct.color_two_odd_cycles2(g, construct.TwoOddLayout(*found))
    elif mode == "cycle-feet":
        shape = construct.classify_cycle_feet(g)
        if not shape.member:
            print(f"not an odd cycle with feet: {shape.reason}")
            return 1
        if not shape.two_colors:
            print(f"pW = 3 for this member: {shape.reason}")
            return 1
        result = construct.color_cycle_feet2(g, shape)
    elif mode == "unicyclic":
        result = construct.color_unicyclic3(g)
    elif mode == "exact":
        res = exact.exact_pw(g, max_k=_max_k(args))
        if res is None:
            print(f"no coloring with at most {args.max_k} colors")
            return 1
        result = graphs.ColoringResult(res.k, res.witness, "exact", "exhaustive search")
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(mode)
    print(f"pW <= {result.k} ({result.status}) via {result.provenance}")
    _print_coloring(g, result.coloring, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.witness and args.pair is None:
        raise ValueError("--witness needs --pair")
    if args.witness and args.path:
        raise ValueError("--witness does not apply to --path, which gives no witness")
    g = _load_graph(args.graph, directed=args.directed)
    coloring = parse_coloring(_read_text(args.coloring), directed=args.directed)

    if args.pair is not None:
        u, v = args.pair
        if args.path:
            ok, witness = verify.path_reachable(g, coloring, u, v), None
        else:
            ok, witness = verify.walk_reachable(g, coloring, u, v)
        if ok:
            print("PASS")
            if args.witness:
                print("witness:", " ".join(map(str, witness.vertices)))
            return 0
        print(f"FAIL {u} {v}")
        return 1

    if args.path:
        pair = verify._first_path_failure(g, coloring)
    elif args.directed:
        pair = verify.verify_all_pairs_directed(g, coloring)[1]
    else:
        pair = verify.verify_all_pairs(g, coloring)[1]
    if pair is None:
        print("PASS")
        return 0
    # a pair fails on every disconnected input: a usage error, as in
    # verify_all_pairs, checked only once a pair has failed
    if args.directed and not g.is_strongly_connected():
        raise ValueError("digraph is not strongly connected")
    if not args.directed and not g.is_connected():
        raise ValueError("graph is not connected")
    print(f"FAIL {pair[0]} {pair[1]}")
    return 1


def _cmd_exact(args) -> int:
    max_k = _max_k(args)
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"--budget must be at least 0, got {args.budget}")
    budgets = None if args.budget is None else dict.fromkeys(range(1, max_k + 1), args.budget)
    path_mode = args.param in ("pp", "path")
    if args.directed:
        d = _load_graph(args.graph, directed=True)
        res = exact.exact_directed(d, mode="path" if path_mode else "walk",
                                   max_k=max_k, budgets=budgets)
        target = d
    else:
        g = _load_graph(args.graph)
        fn = exact.exact_pp if path_mode else exact.exact_pw
        res = fn(g, max_k=max_k, budgets=budgets)
        target = g
    if res is None:
        print(f"no coloring with at most {max_k} colors")
        return 1
    print(f"k {res.k}")
    print(f"# explored {res.explored}")
    pairs = target.arcs if args.directed else target.edges
    for u, v in pairs:
        print(f"{u} {v} {res.witness.color(u, v)}")
    return 0


def _cmd_experiment(args) -> int:
    # every argument is checked before the table starts on stdout
    if args.trials < 0:
        raise ValueError("trials must be nonnegative")
    graphs._check_gnp(args.n, args.p)
    print("trial n m k status" + (" exact agree" if args.exact else ""))
    k_hist: dict[int, int] = {}
    statuses: dict[str, int] = {}
    mismatches = unsettled = 0
    for trial in range(args.trials):
        g = graphs.random_connected(args.n, args.p, seed=args.seed * 1000003 + trial)
        result = construct.pw_auto(g)
        k_hist[result.k] = k_hist.get(result.k, 0) + 1
        statuses[result.status] = statuses.get(result.status, 0) + 1
        row = f"{trial} {g.n} {g.m} {result.k} {result.status}"
        if args.exact:
            # pw_auto's verified coloring settles level result.k, so the
            # oracle searches only the levels below it; a level past its
            # edge budget leaves the row unsettled
            try:
                res = exact.exact_pw(g, max_k=result.k - 1) if result.k > 1 else None
            except exact.BudgetExceededError:
                unsettled += 1
                row += " unsettled unsettled"
            else:
                exact_k = result.k if res is None else res.k
                agree = (result.k == exact_k if result.status == "exact" else result.k >= exact_k)
                if not agree:
                    mismatches += 1
                row += f" {exact_k} {str(agree).lower()}"
        print(row)
    hist = " ".join(f"{k}:{k_hist[k]}" for k in sorted(k_hist))
    stat = " ".join(f"{s}={statuses[s]}" for s in sorted(statuses))
    line = f"summary: trials={args.trials} k[{hist}] status[{stat}]"
    if args.exact:
        line += f" exact-mismatch={mismatches}"
        if unsettled:
            line += f" exact-unsettled={unsettled}"
    print(line)
    return 0 if mismatches == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="properwalk",
                                 description="Colorings with properly colored walks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named family member as an edge list")
    p.add_argument("family", choices=graphs.family_names())
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of an edge list")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("analyze", help="print the structural decomposition")
    p.add_argument("graph")
    p.add_argument("--orient", action="store_true",
                   help="also print the core orientations the two-color constructions use")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("color", help="construct a coloring")
    p.add_argument("graph")
    p.add_argument("--mode", default="auto",
                   choices=["auto", "tree", "bipartite", "bridgeless", "two-odd",
                            "cycle-feet", "unicyclic", "exact"])
    p.add_argument("--out", help="write the coloring file here instead of stdout")
    p.add_argument("--max-k", type=int, default=3, help="limit for --mode exact")
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--pair", nargs=2, type=int, metavar=("U", "V"))
    p.add_argument("--path", action="store_true", help="simple paths instead of walks")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("exact", help="exhaustive minimum color count")
    p.add_argument("graph")
    p.add_argument("--param", choices=["pw", "pp", "walk", "path"], default="pw")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--budget", type=int, help="override the per-level edge budget")
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("experiment", help="random-graph agreement experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(fn=_cmd_experiment)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    May be called repeatedly in one process; the parser is built on the
    first call and reused.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:      # console-script wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
