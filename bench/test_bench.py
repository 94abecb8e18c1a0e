"""Self-tests for the benchmark (not part of Tier-1):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import make_expectations  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from properwalk import (Digraph, EdgeColoring, Graph, exact_pw, pw_auto,  # noqa: E402
                        verify_all_pairs, verify_all_pairs_directed)

EXPECT = workloads.EXPECT


@pytest.mark.parametrize("family", sorted(gen.LARGE_FAMILIES))
def test_large_generators_are_deterministic(family):
    build = gen.LARGE_FAMILIES[family]
    assert build(120, random.Random(5)) == build(120, random.Random(5))
    assert build(120, random.Random(5)) != build(120, random.Random(6))


def test_small_and_refutation_generators_are_deterministic():
    for make in (gen.cycle_feet_three, gen.spider4):
        assert make(13, random.Random(1)) == make(13, random.Random(1))
    assert gen.uniform_connected(7, random.Random(2)) == gen.uniform_connected(7, random.Random(2))
    assert gen.oriented_bipartite(60, random.Random(3)) == gen.oriented_bipartite(60, random.Random(3))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_depend_only_on_seed(name):
    """The same seed gives the same item list and warm-up outputs; every
    list has at least 40 items, so item_s.tail is p75 or higher."""
    out = HERE / "out" / f"selftest-{name}"

    def outputs(seed):
        wl = workloads.WORKLOADS[name](seed, out)
        return ([it.kind for it in wl.items],
                [(it.kind, repr(it.fingerprint(it.run()))) for it in wl.warmup])

    try:
        first = outputs(4)
        assert outputs(4) == first
        assert run.tail_level(len(first[0])) >= 75
    finally:
        shutil.rmtree(out, ignore_errors=True)


@pytest.mark.parametrize("seed", range(6))
def test_broken_colorings_fail_the_checker(seed):
    rng = random.Random(seed)
    n, edges = gen.tree(300, rng)
    k, col = gen.broken_tree_coloring(n, edges, rng)
    assert check.first_failing_pair(n, edges, col) is not None
    n, arcs, good, broken = gen.oriented_bipartite(200, rng)
    assert check.first_failing_pair(n, arcs, good, directed=True) is None
    assert check.first_failing_pair(n, arcs, broken, directed=True) is not None


def test_checker_agrees_with_library_verifier():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(2, 8)
        n, edges = gen.uniform_connected(n, rng)
        col = {e: rng.randint(1, 3) for e in edges}
        ok, pair = verify_all_pairs(Graph(n, edges), EdgeColoring(3, col))
        assert check.first_failing_pair(n, edges, col) == (None if ok else pair)
    for _ in range(200):
        n = rng.randint(2, 4)
        masks = gen.strong_masks(n)
        arcs = gen.arcs_of_mask(n, rng.choice(masks))
        col = {a: rng.randint(1, 2) for a in arcs}
        ok, pair = verify_all_pairs_directed(Digraph(n, arcs), EdgeColoring(2, col))
        assert check.first_failing_pair(n, arcs, col, directed=True) == (None if ok else pair)


def test_refutation_count_matches_solver():
    for m in (5, 7):
        n, edges = gen.spider4(m, random.Random(m))
        g = Graph(n, edges)
        # exact_pw(max_k=4) finds the 4-coloring after refuting levels 1..3
        assert exact_pw(g, max_k=4).explored > check.refutation_count(m, 3)
    assert check.refutation_count(13, 2) == 1 + 2 ** 12
    assert [check.stirling2(5, j) for j in range(1, 6)] == [1, 15, 25, 10, 1]


@pytest.mark.parametrize("seed", range(3))
def test_large_families_meet_expectations(seed):
    rng = random.Random(seed)
    for family, build in gen.LARGE_FAMILIES.items():
        n, edges = build(80, rng)
        res = pw_auto(Graph(n, edges))
        expect = EXPECT["large"][family]
        assert workloads.route_problem(expect, n, edges, res.k, res.status, res.provenance) is None
        assert check.coloring_problems(n, edges, res.k, res.coloring.assignment) is None


def test_refutation_families_are_refuted():
    rng = random.Random(0)
    for kind, spec in EXPECT["refute"].items():
        n, edges = getattr(gen, kind)(10, rng)
        assert exact_pw(Graph(n, edges), max_k=spec["max_k"]) is None


def test_committed_expectations_match_this_commit():
    assert EXPECT["large"] == make_expectations.LARGE
    assert EXPECT["refute"] == make_expectations.REFUTE
    assert EXPECT["small"] == make_expectations.small_tables()
    assert EXPECT["exhaustive_catalog"] == make_expectations.catalog()


def test_tail_level():
    assert run.tail_level(19) is None
    assert run.tail_level(20) == 50
    assert run.tail_level(40) == 75
    assert run.tail_level(1_000) == 99
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([0.0, 10.0], 90) == 9.0


def test_run_fails_without_the_library():
    """In a directory holding only the benchmark, run.py exits non-zero and
    prints no result."""
    scratch = HERE / "out" / "selftest-bare"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        shutil.copytree(HERE, scratch / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", scratch)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "auto-large",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=scratch, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    from spans import Tracer
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(Tracer().metrics(1, 1.0, 1.0))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
