import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from properwalk import cli
from properwalk.cli import main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestGen:
    def test_cycle(self, run):
        code, out, _ = run("gen", "cycle", "5")
        assert code == 0
        assert out == "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"

    def test_directed_cycle_flag(self, run):
        code, out, _ = run("gen", "cycle", "3", "--directed")
        assert code == 0 and out.splitlines()[0] == "3 3"
        assert "2 0" in out  # wraparound arc kept in arc order

    def test_directed_needs_a_directed_form(self, run):
        code, out, err = run("gen", "path", "3", "--directed")
        assert (code, out) == (2, "")
        assert err == ("error: --directed applies only to the families with a directed "
                       "form: bowtie_digraph, cycle, directed_cycle\n")
        code, out, _ = run("gen", "bowtie_digraph", "--directed")
        assert code == 0 and out.splitlines()[0] == "5 6"

    def test_random_connected_without_edges_exit2(self, run):
        assert run("gen", "random_connected", "50", "0") == (
            2, "", "error: edge probability 0 never connects 50 vertices\n")

    def test_dot(self, run):
        code, out, _ = run("gen", "complete", "3", "--dot")
        assert code == 0 and out.startswith("graph g {")

    def test_seeded_random_reproducible(self, run):
        a = run("gen", "random_connected", "7", "0.4", "--seed", "11")
        b = run("gen", "random_connected", "7", "0.4", "--seed", "11")
        assert a == b and a[0] == 0

    def test_unknown_family(self, run):
        code, _, _ = run("gen", "moebius", "5")
        assert code == 2

    def test_bad_params(self, run):
        code, _, err = run("gen", "theta", "2", "2", "2")
        assert code == 2 and "error:" in err


class TestAnalyze:
    def test_report(self, run, tmp_path):
        path = write(tmp_path, "g.txt", "0 1\n1 2\n2 0\n2 3\n")
        code, out, _ = run("analyze", path)
        assert code == 0
        assert "bridges 1: 2-3" in out
        assert "two-bridge rule: holds" in out
        assert "bipartite: no" in out

    def test_bipartite_report(self, run, tmp_path):
        path = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run("analyze", path)
        assert code == 0
        assert "bipartite: yes; {0,2} / {1,3}\n" in out
        assert out.endswith("contraction: 1 vertices, a path\n")

    def test_disconnected_exit2(self, run, tmp_path):
        path = write(tmp_path, "g.txt", "0 1\n2 3\n")
        assert run("analyze", path) == (2, "", "error: graph is not connected\n")

    def test_orient_flag(self, run, tmp_path):
        path = write(tmp_path, "g.txt", "0 1\n1 2\n2 0\n")
        code, out, _ = run("analyze", path, "--orient")
        assert code == 0 and "orientation {0,1,2}:" in out

    def test_orient_skips_trivial_cores(self, run, tmp_path):
        path = write(tmp_path, "g.txt", "0 1\n1 2\n2 0\n2 3\n")
        code, out, _ = run("analyze", path, "--orient")
        assert code == 0
        assert "core {3} trivial incident-bridges 1\n" in out
        assert out.endswith("contraction: 2 vertices, a path\n"
                            "orientation {0,1,2}: 0->1 1->2 2->0\n")

    def test_orient_shows_the_low_link_arcs(self, run, tmp_path):
        # the core {1,2,3} is entered through the bridge at vertex 2, so its
        # arcs start there, as the ones the two-color constructions color
        path = write(tmp_path, "g.txt", "0 2\n1 2\n1 3\n2 3\n")
        code, out, _ = run("analyze", path, "--orient")
        assert code == 0
        assert out.endswith("orientation {1,2,3}: 1->3 2->1 3->2\n")

    def test_unreadable(self, run, tmp_path):
        code, _, err = run("analyze", str(tmp_path / "missing.txt"))
        assert code == 2 and "error:" in err


class TestColor:
    def test_auto_summary_and_roundtrip(self, run, tmp_path):
        gpath = write(tmp_path, "g.txt", "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        cpath = str(tmp_path / "c.txt")
        code, out, _ = run("color", gpath, "--mode", "auto", "--out", cpath)
        assert code == 0
        assert out.startswith("pW <= 2 (exact) via ")
        code, out, _ = run("verify", gpath, cpath)
        assert code == 0 and out == "PASS\n"

    def test_bipartite_violation_exit1(self, run, tmp_path):
        gpath = write(tmp_path, "star.txt", "0 1\n0 2\n0 3\n")
        code, out, _ = run("color", gpath, "--mode", "bipartite")
        assert code == 1 and "pW >= 3" in out

    def test_two_odd_not_found_exit1(self, run, tmp_path):
        gpath = write(tmp_path, "c5.txt", "0 1\n1 2\n2 3\n3 4\n4 0\n")
        code, out, _ = run("color", gpath, "--mode", "two-odd")
        assert code == 1 and "not found" in out

    def test_mode_tree(self, run, tmp_path):
        gpath = write(tmp_path, "t.txt", "0 1\n0 2\n0 3\n")
        code, out, _ = run("color", gpath, "--mode", "tree")
        assert code == 0 and "pW <= 3 (exact) via tree" in out

    def test_mode_exact(self, run, tmp_path):
        gpath = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run("color", gpath, "--mode", "exact")
        assert code == 0 and "pW <= 2 (exact) via exhaustive search" in out

    @pytest.mark.parametrize("mode, text, summary", [
        ("bridgeless", "0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n",
         "pW <= 2 (exact) via bridgeless: two odd cycles"),
        ("two-odd", "0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n", "pW <= 2 (exact) via two odd cycles"),
        ("unicyclic", "0 1\n1 2\n2 0\n2 3\n", "pW <= 3 (upper-bound) via unicyclic"),
        ("cycle-feet", "0 1\n1 2\n2 3\n3 4\n4 0\n0 5\n",
         "pW <= 2 (exact) via cycle with feet"),
    ])
    def test_constructive_modes(self, run, tmp_path, mode, text, summary):
        gpath = write(tmp_path, "g.txt", text)
        cpath = str(tmp_path / "c.txt")
        code, out, _ = run("color", gpath, "--mode", mode, "--out", cpath)
        assert (code, out) == (0, summary + "\n")
        code, out, _ = run("verify", gpath, cpath)
        assert (code, out) == (0, "PASS\n")

    @pytest.mark.parametrize("text, want", [
        # C3 with two feet on each of two cycle vertices
        ("0 1\n1 2\n0 2\n0 3\n0 4\n1 5\n1 6\n",
         "pW = 3 for this member: no consecutive triple captures all feet\n"),
        ("0 1\n1 2\n2 3\n3 4\n4 0\n", "not an odd cycle with feet: no feet\n"),
    ])
    def test_cycle_feet_refusals_exit1(self, run, tmp_path, text, want):
        gpath = write(tmp_path, "g.txt", text)
        assert run("color", gpath, "--mode", "cycle-feet") == (1, want, "")

    def test_mode_exact_max_k_exit1(self, run, tmp_path):
        gpath = write(tmp_path, "p3.txt", "0 1\n1 2\n")
        code, out, _ = run("color", gpath, "--mode", "exact", "--max-k", "1")
        assert (code, out) == (1, "no coloring with at most 1 colors\n")

    def test_graph_from_stdin(self, run, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n1 2\n2 3\n3 0\n"))
        assert run("color", "-") == (
            0, "pW <= 2 (exact) via bipartite\nk 2\n0 1 2\n0 3 1\n1 2 1\n2 3 2\n", "")

    def test_coloring_text_on_stdout(self, run, tmp_path):
        gpath = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run("color", gpath)
        lines = out.splitlines()
        assert lines[1] == "k 2" and len(lines) == 6


class TestVerify:
    def test_fail_pair_and_exit1(self, run, tmp_path):
        gpath = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n0 3\n")
        cpath = write(tmp_path, "all1.txt", "k 1\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n")
        code, out, _ = run("verify", gpath, cpath)
        assert code == 1 and out == "FAIL 0 2\n"

    def test_single_pair_witness(self, run, tmp_path):
        gpath = write(tmp_path, "p3.txt", "0 1\n1 2\n")
        cpath = write(tmp_path, "c.txt", "k 2\n0 1 1\n1 2 2\n")
        code, out, _ = run("verify", gpath, cpath, "--pair", "0", "2", "--witness")
        assert code == 0
        assert out == "PASS\nwitness: 0 1 2\n"

    def test_path_mode(self, run, tmp_path):
        gpath = write(tmp_path, "p3.txt", "0 1\n1 2\n")
        cpath = write(tmp_path, "c.txt", "k 1\n0 1 1\n1 2 1\n")
        code, out, _ = run("verify", gpath, cpath, "--path")
        assert code == 1 and out == "FAIL 0 2\n"

    def test_directed(self, run, tmp_path):
        gpath = write(tmp_path, "d.txt", "0 1\n1 2\n2 0\n")
        cpath = write(tmp_path, "c.txt", "k 3\n0 1 1\n1 2 2\n2 0 3\n")
        code, out, _ = run("verify", gpath, cpath, "--directed")
        assert code == 0 and out == "PASS\n"

    @pytest.mark.parametrize("colors, flags, want", [
        ("1 2 3", ("--pair", "0", "2", "--witness"), (0, "PASS\nwitness: 0 1 2\n")),
        ("1 1 1", ("--pair", "0", "2", "--witness"), (1, "FAIL 0 2\n")),
        ("1 2 3", ("--pair", "0", "2", "--path"), (0, "PASS\n")),
        ("1 1 1", ("--pair", "2", "1", "--path"), (1, "FAIL 2 1\n")),
        ("1 2 3", ("--path",), (0, "PASS\n")),
        ("2 1 1", ("--path",), (1, "FAIL 1 0\n")),
    ])
    def test_directed_pair_and_path(self, run, tmp_path, colors, flags, want):
        gpath = write(tmp_path, "d.txt", "0 1\n1 2\n2 0\n")
        c01, c12, c20 = colors.split()
        cpath = write(tmp_path, "c.txt", f"k 3\n0 1 {c01}\n1 2 {c12}\n2 0 {c20}\n")
        code, out, _ = run("verify", gpath, cpath, "--directed", *flags)
        assert (code, out) == want

    @pytest.mark.parametrize("flags, err", [
        ((), "error: graph is not connected\n"),
        (("--path",), "error: graph is not connected\n"),
        (("--directed",), "error: digraph is not strongly connected\n"),
        (("--directed", "--path"), "error: digraph is not strongly connected\n"),
    ])
    def test_disconnected_is_usage_error(self, run, tmp_path, flags, err):
        gpath = write(tmp_path, "g.txt", "0 1\n2 3\n")
        cpath = write(tmp_path, "c.txt", "k 1\n0 1 1\n2 3 1\n")
        assert run("verify", gpath, cpath, *flags) == (2, "", err)

    @pytest.mark.parametrize("flags", [(), ("--path",)])
    def test_weakly_connected_digraph_is_usage_error(self, run, tmp_path, flags):
        gpath = write(tmp_path, "d.txt", "0 1\n1 2\n")
        cpath = write(tmp_path, "c.txt", "k 2\n0 1 1\n1 2 2\n")
        assert run("verify", gpath, cpath, "--directed", *flags) == (
            2, "", "error: digraph is not strongly connected\n")

    def test_disconnected_pair_is_an_answer(self, run, tmp_path):
        gpath = write(tmp_path, "g.txt", "0 1\n2 3\n")
        cpath = write(tmp_path, "c.txt", "k 1\n0 1 1\n2 3 1\n")
        assert run("verify", gpath, cpath, "--pair", "0", "2")[:2] == (1, "FAIL 0 2\n")
        assert run("verify", gpath, cpath, "--pair", "0", "1")[:2] == (0, "PASS\n")

    def test_coloring_mismatch_is_usage_error(self, run, tmp_path):
        gpath = write(tmp_path, "p3.txt", "0 1\n1 2\n")
        cpath = write(tmp_path, "c.txt", "k 1\n0 1 1\n")
        code, _, err = run("verify", gpath, cpath)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("graph, colors, flags, err", [
        ("0 1\n1 2\n2 3\n0 3\n", "0 1 1\n1 2 2\n2 3 1\n", (),
         "uncolored edges: [(0, 3)]"),
        ("0 1\n1 2\n2 3\n0 3\n", "0 1 1\n1 2 2\n2 3 1\n0 3 2\n0 2 1\n", (),
         "colored edges absent from graph: [(0, 2)]"),
        ("0 1\n1 2\n2 0\n", "0 1 1\n1 2 2\n", ("--directed",),
         "uncolored edges: [(2, 0)]"),
        ("0 1\n1 2\n2 0\n", "0 1 1\n1 2 2\n0 2 1\n", ("--directed",),
         "uncolored edges: [(2, 0)]"),
    ])
    @pytest.mark.parametrize("mode", [(), ("--path",), ("--pair", "0", "0"), ("--pair", "0", "2"),
                                      ("--pair", "0", "2", "--path")])
    def test_coloring_mismatch_message(self, run, tmp_path, graph, colors, flags, err, mode):
        # verify's adjacency pass raises what validate_for raises, in every mode
        gpath = write(tmp_path, "g.txt", graph)
        cpath = write(tmp_path, "c.txt", "k 2\n" + colors)
        assert run("verify", gpath, cpath, *flags, *mode) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize("directed", [False, True])
    def test_path_mode_checks_coloring_without_pairs(self, run, tmp_path, directed):
        # one vertex has no pairs to search, but a coloring of an absent
        # edge is still a mismatch
        gpath = write(tmp_path, "k1.txt", "1 0\n")
        cpath = write(tmp_path, "c.txt", "k 1\n0 1 1\n")
        flags = ("--directed",) if directed else ()
        code, out, err = run("verify", gpath, cpath, "--path", *flags)
        assert (code, out) == (2, "")
        assert err == "error: colored edges absent from graph: [(0, 1)]\n"

    def test_path_mode_too_large(self, run, tmp_path):
        n = 17
        gpath = write(tmp_path, "p.txt", "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        cpath = write(tmp_path, "c.txt", "k 1\n0 1 1\n")
        code, _, err = run("verify", gpath, cpath, "--path")
        assert code == 2 and err == "error: path search is limited to 16 vertices\n"


class TestExact:
    def test_pw(self, run, tmp_path):
        gpath = write(tmp_path, "c5.txt", "0 1\n1 2\n2 3\n3 4\n4 0\n")
        code, out, _ = run("exact", gpath)
        lines = out.splitlines()
        assert code == 0 and lines[0] == "k 2"
        assert lines[1].startswith("# explored ")
        assert len(lines) == 7

    def test_pp(self, run, tmp_path):
        gpath = write(tmp_path, "p3.txt", "0 1\n1 2\n")
        code, out, _ = run("exact", gpath, "--param", "pp")
        assert code == 0 and out.splitlines()[0] == "k 2"

    def test_directed_bowtie(self, run, tmp_path):
        arcs = "0 1\n1 2\n2 0\n0 3\n3 4\n4 0\n"
        gpath = write(tmp_path, "bow.txt", arcs)
        code, out, _ = run("exact", gpath, "--directed", "--param", "walk")
        assert code == 0 and out.splitlines()[0] == "k 2"
        code, out, _ = run("exact", gpath, "--directed", "--param", "path")
        assert code == 0 and out.splitlines()[0] == "k 3"

    def test_exceeds_max_k_exit1(self, run, tmp_path):
        gpath = write(tmp_path, "star.txt", "0 1\n0 2\n0 3\n0 4\n")
        code, out, _ = run("exact", gpath, "--max-k", "3")
        assert code == 1 and "no coloring" in out

    def test_budget_exit2(self, run, tmp_path):
        gpath = write(tmp_path, "c6.txt", "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        code, _, err = run("exact", gpath, "--budget", "5")
        assert code == 2 and "edges" in err

    def test_many_edges_exit2(self, run, tmp_path):
        # level 1 runs on all 1025 edges and fails; level 2's budget stops it
        edges = "".join(f"{u} {v}\n" for u in range(50)
                        for v in range(u + 1, 50) if (u + v) % 6)
        code, out, err = run("exact", write(tmp_path, "big.txt", edges))
        assert code == 2 and out == "" and "level k=2 needs 1025" in err

    def test_budget_zero_applied(self, run, tmp_path):
        gpath = write(tmp_path, "c3.txt", "0 1\n1 2\n2 0\n")
        assert run("exact", gpath, "--budget", "2")[0] == 2
        code, out, err = run("exact", gpath, "--budget", "0")
        assert code == 2 and out == "" and "edges" in err

    def test_negative_budget_exit2(self, run, tmp_path):
        # an invalid request, not a budget the search exceeded
        gpath = write(tmp_path, "c3.txt", "0 1\n1 2\n2 0\n")
        assert run("exact", gpath, "--budget", "-1") == (
            2, "", "error: --budget must be at least 0, got -1\n")

    @pytest.mark.parametrize("argv", [("exact",), ("color", "--mode", "exact")])
    @pytest.mark.parametrize("max_k", ["0", "-1"])
    def test_max_k_below_one_exit2(self, run, tmp_path, argv, max_k):
        gpath = write(tmp_path, "c3.txt", "0 1\n1 2\n2 0\n")
        assert run(argv[0], gpath, *argv[1:], "--max-k", max_k) == (
            2, "", f"error: --max-k must be at least 1, got {max_k}\n")


class TestExperiment:
    def test_deterministic(self, run):
        args = ("experiment", "--n", "6", "--p", "0.5", "--trials", "10",
                "--seed", "7", "--exact")
        a = run(*args)
        b = run(*args)
        assert a == b
        code, out, _ = a
        assert code == 0
        assert "exact-mismatch=0" in out
        assert len(out.splitlines()) == 12  # header + 10 trials + summary

    def test_hundred_trials_all_agree(self, run):
        code, out, _ = run("experiment", "--n", "6", "--p", "0.5",
                           "--trials", "100", "--seed", "7", "--exact")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 102
        assert all(line.endswith(" true") for line in lines[1:-1])
        assert "exact-mismatch=0" in lines[-1]

    def test_without_exact(self, run):
        assert run("experiment", "--n", "6", "--p", "0.5", "--trials", "3",
                   "--seed", "2") == (0, "trial n m k status\n"
                                         "0 6 9 2 exact\n"
                                         "1 6 6 2 exact\n"
                                         "2 6 7 2 exact\n"
                                         "summary: trials=3 k[2:3] status[exact=3]\n", "")

    def test_zero_trials(self, run):
        code, out, _ = run("experiment", "--n", "5", "--p", "0.5",
                           "--trials", "0", "--seed", "1")
        assert code == 0
        assert out.splitlines()[-1].startswith("summary: trials=0")

    def test_usage_error(self, run):
        code, _, _ = run("experiment", "--n", "5")
        assert code == 2

    @pytest.mark.parametrize("n, p, trials, why", [
        ("0", "0.5", "1", "need at least 1 vertex"),
        ("5", "1.5", "1", "edge probability must lie in [0, 1]"),
        ("5", "-0.1", "0", "edge probability must lie in [0, 1]"),
        ("5", "0.5", "-1", "trials must be nonnegative"),
        ("50", "0", "3", "edge probability 0 never connects 50 vertices")])
    def test_bad_arguments_print_no_table(self, run, n, p, trials, why):
        assert run("experiment", "--n", n, "--p", p, "--trials", trials,
                   "--seed", "1") == (2, "", f"error: {why}\n")


class TestUsage:
    def test_unknown_command(self, run):
        assert run("frobnicate")[0] == 2

    def test_malformed_graph(self, run, tmp_path):
        gpath = write(tmp_path, "bad.txt", "0 0\n")
        code, _, err = run("color", gpath)
        assert code == 2 and "loop" in err


class TestParserReuse:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Count parser builds from a cleared cache."""
        count = []
        real = cli.build_parser

        def counting():
            count.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        yield count
        cli._parser.cache_clear()

    def test_many_calls_build_once(self, builds, run, tmp_path):
        gpath = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n3 0\n")
        cpath = str(tmp_path / "c.txt")
        assert run("gen", "cycle", "4")[0] == 0
        assert run("color", gpath, "--out", cpath)[0] == 0
        for _ in range(5):
            assert run("verify", gpath, cpath) == (0, "PASS\n", "")
        assert run("frobnicate")[0] == 2
        assert run("exact", gpath)[0] == 0
        assert len(builds) == 1

    def test_build_parser_returns_a_fresh_parser(self, builds):
        main(["gen", "cycle", "3"])
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_max_k_default_restored(self, builds, run, tmp_path):
        path = write(tmp_path, "p3.txt", "0 1\n1 2\n")
        star = write(tmp_path, "star.txt", "0 1\n0 2\n0 3\n0 4\n")
        assert run("exact", path, "--max-k", "1") == (1, "no coloring with at most 1 colors\n", "")
        code, out, _ = run("exact", path)
        assert code == 0 and out.splitlines()[0] == "k 2"
        assert run("exact", star) == (1, "no coloring with at most 3 colors\n", "")

    def test_directed_flag_not_kept(self, builds, run, tmp_path):
        # the directed reading of this file lacks a 0 -> 2 walk; the
        # undirected reading passes
        gpath = write(tmp_path, "c3.txt", "0 1\n1 2\n2 0\n")
        cpath = write(tmp_path, "c.txt", "k 2\n0 1 1\n1 2 1\n2 0 2\n")
        assert run("verify", gpath, cpath, "--directed") == (1, "FAIL 0 2\n", "")
        assert run("verify", gpath, cpath) == (0, "PASS\n", "")
        assert run("verify", gpath, cpath, "--directed") == (1, "FAIL 0 2\n", "")

    def test_usage_error_then_success(self, builds, run):
        code, out, err = run("exact")
        assert code == 2 and out == ""
        assert err.startswith("usage: properwalk exact") and "required: graph" in err
        assert run("gen", "cycle", "3") == (0, "3 3\n0 1\n0 2\n1 2\n", "")

    def test_help_then_success(self, builds, run):
        code, out, err = run("--help")
        assert code == 0 and out.startswith("usage: properwalk") and err == ""
        assert run("gen", "cycle", "3") == (0, "3 3\n0 1\n0 2\n1 2\n", "")
        assert len(builds) == 1


class TestProcess:
    def test_import_is_lazy_and_module_runs(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

        def python(*args):
            return subprocess.run([sys.executable, *args], env=env,
                                  capture_output=True, text=True, timeout=120)

        proc = python("-c", "import properwalk.cli as c; print(c._parser.cache_info().currsize)")
        assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr
        proc = python("-m", "properwalk.cli", "--help")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: properwalk"), proc.stderr
        proc = python("-m", "properwalk.cli", "frobnicate")
        assert proc.returncode == 2 and "invalid choice: 'frobnicate'" in proc.stderr
