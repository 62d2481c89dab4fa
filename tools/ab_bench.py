"""A/B benchmark: a git revision against the working tree, in alternating pairs.

    python3 tools/ab_bench.py HEAD~1 --workload longterm --workload dense \
        --pairs 10 --seeds 1,2,3,4

The revision's files are exported with ``git archive`` into a temporary
directory (removed on exit). For each workload, pair i runs
``perfbench/run.py`` once in each tree with seed ``seeds[i % len(seeds)]``;
the side that runs first alternates, so a slow spell of a shared machine
does not always hit the same side. The benchmark itself is called unchanged,
one process per run. For every end-to-end metric that ``BENCHMARK.json``
lists, the summary gives both sides' median and quartiles, the number of
pairs the working tree wins and a verdict:

- ``gain``: the working tree wins at least 9 in 10 of the pairs (a tie
  counts for neither side) and its median is better by more than the
  revision's interquartile range;
- ``worse``: its median is worse than the revision's by more than the
  metric's ``bound`` (a fraction of the revision's median);
- ``unresolved``: neither.

The summary also gives each side's median ``drops_per_s.t2`` /
``drops_per_s.t1``. Two workers on a 2-core machine read about 1.5-1.75
when the second CPU is free; a base ratio near 1 or below says it was busy,
so a ``.t1`` gain that needs the second CPU could not show.

Before the pairs, each side also prints the tracemalloc peak of one drop
(``_run_setup`` of drop 0 at the first seed), measured in a fresh process
on that tree's ``src``: the process high-water mark ``peak_rss_mb`` need
not move with the drop's array peak.

Standard library only.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("revision", help="git revision to compare the working tree against")
    parser.add_argument("--workload", action="append", required=True, help="perfbench workload; repeatable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1,2,3,4", help="comma-separated; pair i takes seeds[i %% len(seeds)]")
    parser.add_argument("--seconds", type=float, help="run length; default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    args.seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def export_revision(revision, dest):
    """Extract the committed files of git ``revision`` of this repository into ``dest``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", revision],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def bench(tree, workload, seed, seconds):
    """One perfbench run in ``tree``; returns its final JSON line."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# runs in a fresh process on a tree: argv = tree, workload, seed; prints drop 0's traced array peak in bytes
_DROP_PEAK = """
import os, sys, tracemalloc
sys.path[:0] = [os.path.join(sys.argv[1], "src"), os.path.join(sys.argv[1], "perfbench")]
from cfris.experiment import _run_setup, front_channels
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[2]]
cfg = workload.config(int(sys.argv[3]))
fronts = front_channels(cfg)
tracemalloc.start()
_run_setup(cfg, list(workload.scenarios), "pmmse", fronts, 0)
print(tracemalloc.get_traced_memory()[1])
"""


def drop_peak_mib(tree, workload, seed):
    """tracemalloc peak of drop 0 of ``workload`` at ``seed``, run on ``tree``'s source, in MiB."""
    proc = subprocess.run([sys.executable, "-c", _DROP_PEAK, tree, workload, str(seed)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"drop peak of {workload} failed in {tree}:\n{proc.stdout}{proc.stderr}")
    return int(proc.stdout.strip().splitlines()[-1]) / 2**20


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(bq, nq, wins, pairs, higher, bound):
    """"gain", "worse" or "unresolved" from both sides' quartiles and the new side's wins (see the
    module docstring)."""
    better_by = (nq[1] - bq[1]) if higher else (bq[1] - nq[1])
    if wins >= 0.9 * pairs and better_by > bq[2] - bq[0]:
        return "gain"
    if -better_by > bound * abs(bq[1]):
        return "worse"
    return "unresolved"


def t2_over_t1(runs):
    """Median over ``runs`` of drops_per_s.t2 / drops_per_s.t1."""
    return statistics.median(run["metrics"]["drops_per_s.t2"]["value"] / run["metrics"]["drops_per_s.t1"]["value"]
                             for run in runs)


def summarize(workload, metrics, results):
    """Print one line per end-to-end metric and both sides' median .t2/.t1; ``results`` holds (base, new) JSON
    pairs."""
    print(f"\n{workload}: {len(results)} pairs, base = revision, new = working tree")
    for base, new in results:
        for side, result in (("base", base), ("new", new)):
            if not result["correct"] or result["failed"]:
                print(f"  {side} run incorrect: {result['failed']} of {result['attempted']} evaluations failed")
    print(f"  {'metric':16s} {'base q1 / median / q3':>30s} {'new q1 / median / q3':>30s} {'ratio':>7s} {'new wins':>9s}"
          f"  verdict")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [b["metrics"][name]["value"] for b, _ in results]
        new = [n["metrics"][name]["value"] for _, n in results]
        wins = sum((n > b) if higher else (n < b) for b, n in zip(base, new))
        bq, nq = quartiles(base), quartiles(new)
        print(f"  {name:16s} {bq[0]:9.4g} / {bq[1]:9.4g} / {bq[2]:9.4g}  {nq[0]:9.4g} / {nq[1]:9.4g} / {nq[2]:9.4g} "
              f"{nq[1] / bq[1]:7.3f} {wins:5d}/{len(results)}  {verdict(bq, nq, wins, len(results), higher, metric['bound'])}")
    print(f"  median .t2/.t1: base {t2_over_t1([b for b, _ in results]):.2f}, new {t2_over_t1([n for _, n in results]):.2f}")


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    metrics = declared["end_to_end"]
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    scratch = tempfile.mkdtemp(prefix="ab_bench-")
    base_tree = os.path.join(scratch, "base")
    try:
        export_revision(args.revision, base_tree)
        for workload in args.workload:
            peaks = {side: drop_peak_mib(tree, workload, args.seeds[0])
                     for side, tree in (("base", base_tree), ("new", ROOT))}
            print(f"{workload} drop 0 tracemalloc peak (seed {args.seeds[0]}): "
                  f"base {peaks['base']:.2f} MiB -> new {peaks['new']:.2f} MiB", flush=True)
            results = []
            for i in range(args.pairs):
                seed = args.seeds[i % len(args.seeds)]
                order = [("base", base_tree), ("new", ROOT)]
                if i % 2:
                    order.reverse()
                pair = {side: bench(tree, workload, seed, args.seconds) for side, tree in order}
                results.append((pair["base"], pair["new"]))
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}, {order[0][0]} first): "
                      + ", ".join(f"{m['name']} {pair['base']['metrics'][m['name']]['value']:.4g} -> "
                                  f"{pair['new']['metrics'][m['name']]['value']:.4g}" for m in metrics),
                      flush=True)
            summarize(workload, metrics, results)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
