"""properwalk benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload auto-large --seed 1 --seconds 30 --trace 0

A workload is a fixed item list built from ``--seed`` (workloads.py).  The
run repeats the whole list in rounds until the next round would end past
``--seconds`` (at least MIN_ROUNDS rounds), and each item's time is the
fastest of its rounds.  On the shared 2-vCPU VM this was built on, a fixed
pure-Python loop runs at one of two speeds about 1.7x apart, switching
every one to thirty seconds; an item's fastest time over rounds spread
across the run is the estimate such switches move least.  Set-up (import,
input generation, file writing, warm-up) runs before each of the first
SETUP_REPEATS rounds, so its samples spread over the run; ``setup_s`` is
their median.  Every output is checked after its round, outside the timed
region, and must match the first round's output for that item.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the rounds alternate untraced and traced by
spans.Tracer, every output must match across both, and the last line
carries the per-layer metrics, per traced round.  A run record goes to
bench/out/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata, util
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
MIN_ROUNDS = 4

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import properwalk, properwalk.cli; print(time.perf_counter() - t)")


def tail_level(count):
    """Highest percentile with at least ten samples beyond it, or None when
    there are too few samples for one above the median."""
    level = 100 - 1000 / count
    return level if level >= 50 else None


def percentile(values, level):
    """Linear-interpolation percentile of a sorted list."""
    pos = (len(values) - 1) * level / 100
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def import_seconds():
    """Import time of the package, measured in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


class Runner:
    """Runs a workload's item list in rounds and keeps each item's fastest
    time; every output is checked after its round, outside the timed region,
    and must match the first round's output for the same item."""

    def __init__(self, build, seed, workdir):
        self.build, self.seed, self.workdir = build, seed, workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setups = []
        self.items = None
        self.prints = None
        self.best = {}                   # pass name -> per-item fastest seconds
        self.rounds = {}                 # pass name -> rounds run

    def setup(self):
        """Import, build the inputs and warm up; records the seconds taken."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        imp = import_seconds()
        t0 = time.perf_counter()
        wl = self.build(self.seed, self.workdir)
        for item in wl.warmup:
            item.run()
        self.setups.append(imp + time.perf_counter() - t0)
        self.items = wl.items

    def run_round(self, name, tracer=None):
        items = self.items
        times, outs = [], []
        for item in items:
            t0 = time.perf_counter_ns()
            try:
                out = tracer.item(item.kind, item.run) if tracer else item.run()
            except Exception as exc:         # an item that raises counts as failed
                out = exc
            times.append((time.perf_counter_ns() - t0) / 1e9)
            outs.append(out)
        prints = []
        for item, out in zip(items, outs):
            self.attempted += 1
            if isinstance(out, Exception):
                why = f"raised {type(out).__name__}: {out}"
                prints.append(why)
            else:
                why = item.check(out)
                prints.append(hashlib.blake2b(repr(item.fingerprint(out)).encode(),
                                              digest_size=16).digest())
            if why:
                self.failed += 1
                self.problems.append(f"{item.kind}: {why}")
        if self.prints is None:
            self.prints = prints
        differ = sum(a != b for a, b in zip(self.prints, prints))
        if differ:
            self.failed += differ
            self.problems.append(f"{differ} outputs differ from the first round ({name} pass)")
        best = self.best.get(name)
        self.best[name] = times if best is None else list(map(min, best, times))
        self.rounds[name] = self.rounds.get(name, 0) + 1

    def run(self, seconds, tracer=None):
        """Alternate set-up (the first SETUP_REPEATS rounds) and rounds until
        the next round would end past ``seconds``, running at least
        MIN_ROUNDS.  With a tracer, rounds alternate untraced and traced.

        Successive rounds (pairs of rounds when traced) run pinned to
        successive allowed CPUs, so that each item is timed on every CPU:
        their speeds switch independently, and an item's fastest time then
        depends less on one CPU's slow spells."""
        cpus = sorted(os.sched_getaffinity(0))
        passes = 1 if tracer is None else 2
        start = time.perf_counter()
        done = 0
        while True:
            if done < SETUP_REPEATS:
                self.setup()
            os.sched_setaffinity(0, {cpus[done // passes % len(cpus)]})
            if tracer is not None and done % 2:
                tracer.install()
                try:
                    self.run_round("traced", tracer)
                finally:
                    tracer.uninstall()
            else:
                self.run_round("plain")
            done += 1
            elapsed = time.perf_counter() - start
            if done >= MIN_ROUNDS and elapsed * (done + 1) / done > seconds:
                break
        os.sched_setaffinity(0, cpus)
        while len(self.setups) < SETUP_REPEATS:
            self.setup()


def git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "properwalk" / "__init__.py").is_file():
        print(f"error: properwalk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import properwalk
    if Path(properwalk.__file__).resolve().parent != SRC / "properwalk":
        print(f"error: imported properwalk from {properwalk.__file__}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    runner = Runner(build, args.seed, OUT / f"work-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    try:
        runner.run(args.seconds, tracer)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": runner.setups, "rounds": runner.rounds,
              "items": len(runner.items)}
    plain = runner.best["plain"]
    if tracer is None:
        metrics = end_to_end(plain, runner.setups, record)
        record["per_kind"] = per_kind(runner.items, plain)
    else:
        traced = runner.best["traced"]
        values = tracer.metrics(runner.rounds["traced"], sum(plain), sum(traced))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        record["spans"] = {"count": tracer.span_count, "kept": len(tracer.spans),
                           "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                           "list": tracer.spans}
        record["self_s_by_kind"] = tracer.self_time_by_kind()
    record.update(attempted=runner.attempted, failed=runner.failed,
                  fail_frac=runner.failed / runner.attempted, problems=runner.problems[:50],
                  machine=machine(), git_rev=git_rev(), metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(record) + "\n")
    for line in runner.problems[:20]:
        print("FAILED", line, file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def end_to_end(best, setups, record):
    """End-to-end metrics over the items' fastest times."""
    ordered = sorted(best)
    level = tail_level(len(ordered))
    if level is None:
        raise SystemExit(f"error: {len(ordered)} items are too few for a tail percentile")
    record["tail_percentile"] = level
    values = {
        "items_per_s": (len(best) / sum(best), "1/s"),
        "item_s.p50": (percentile(ordered, 50), "s"),
        "item_s.tail": (percentile(ordered, level), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_kind(items, best):
    """Item count and median fastest seconds per item kind, for the run record."""
    kinds = {}
    for item, t in zip(items, best):
        kinds.setdefault(item.kind, []).append(t)
    return {k: {"items": len(v), "median_s": statistics.median(v)} for k, v in sorted(kinds.items())}


def machine():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "numba": version("numba"),
        "exact_kernel": "numba" if util.find_spec("numba") else "pure-python (numba absent)",
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    sys.exit(main())
