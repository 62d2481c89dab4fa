"""Did SE move? A git revision against the working tree, on a fixed list of runs.

    python3 tools/se_diff.py HEAD~1

The revision's files are exported with ``git archive`` (the helper of
``tools/ab_bench.py``) into a temporary directory, removed on exit. In each
tree one subprocess runs ``run_experiment`` and ``emit_report``, from that
tree's ``src``, for every config of ``CONFIGS`` at seeds 1-3 and threads 1
and 2. For each config and scenario the summary prints ``identical`` when
every SE of the threads=1 runs equals the revision's bit for bit, and
otherwise the largest relative SE move with its seed, setup and UE. Per
config it also says whether the two trees' threads=1 runs wrote identical
files (the manifest and CDFs as well as the samples), and whether threads 1
and 2 wrote identical files in each tree. The exit status is 1 when any SE
moved or any of those files differ, else 0. Above the SE verdict it prints
both trees' ``src/cfris`` line counts, all lines and those neither blank
nor a comment, so a change's line count is quoted beside its SE check.

Standard library only.
"""

import argparse
import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

from ab_bench import ROOT, export_revision

_ALL = ("ris_optimized", "ris_random", "no_ris_small", "no_ris_large")
_LOS = dict(L=12, K=8, tau_p=3, shadowing_std_db=0.0, rician_los_fraction=1.0, mc_setups=3,
            mc_channel_realizations=20)

# name -> (SimConfig fields, scenarios, combiner)
CONFIGS = {
    "dense": (dict(L=50, K=10, M=4, N=36, tau_p=10, mc_setups=2, mc_channel_realizations=20), _ALL, "pmmse"),
    "longterm": (dict(L=100, K=20, M=4, N=36, tau_p=10, mc_setups=2, mc_channel_realizations=4),
                 ("ris_optimized", "ris_random"), "pmmse"),
    "los-pmmse": (_LOS, _ALL, "pmmse"),
    "los-mmse": (_LOS, _ALL, "mmse"),
    # K < tau_p leaves pilot slots unused in each block's draws, and 40 blocks end on a partial chunk
    "few-ues-mmse": (dict(L=20, K=6, tau_p=10, mc_setups=2, mc_channel_realizations=40), _ALL, "mmse"),
    # K > tau_p on the crowded geometry: many UE groups with non-partners, up to m = 36 per AP block
    "crowded-no-ris": (dict(L=100, K=20, M=4, N=36, tau_p=10, mc_setups=1, mc_channel_realizations=8),
                       ("no_ris_small", "no_ris_large"), "pmmse"),
    # one AP, so one UE group that shares pilots: its W is written over the gathered copy of the draws
    "lone-shared-pilots": (dict(L=1, K=4, tau_p=2, mc_setups=2, mc_channel_realizations=40), _ALL, "pmmse"),
    # the only config on the planar active array: M = 6 as 2 x 3 elements
    "planar": (dict(L=12, K=8, M=6, array_geometry="planar", mc_setups=2, mc_channel_realizations=20), _ALL,
               "pmmse"),
}
SEEDS = (1, 2, 3)
THREADS = (1, 2)

# runs in a fresh process on a tree: argv = tree, output root, JSON list of jobs
_RUN = """
import json, os, sys
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
import cfris
from cfris import ExperimentSpec, SimConfig, emit_report, run_experiment
if not cfris.__file__.startswith(os.path.join(sys.argv[1], "src") + os.sep):
    raise SystemExit(f"cfris was imported from {cfris.__file__}, not from {sys.argv[1]}")
for out, sizes, scenarios, combiner, seed, threads in json.loads(sys.argv[3]):
    spec = ExperimentSpec(cfg=SimConfig(**sizes, seed=seed), scenarios=tuple(scenarios), combiner=combiner,
                          threads=threads)
    emit_report(run_experiment(spec), os.path.join(sys.argv[2], out))
"""


def run_dir(config, seed, threads):
    return os.path.join(config, f"seed{seed}-threads{threads}")


def run_tree(tree, out_root):
    """Write every run of CONFIGS at SEEDS and THREADS under ``out_root``, computed by ``tree``'s source."""
    jobs = [(run_dir(name, seed, threads), sizes, scenarios, combiner, seed, threads)
            for name, (sizes, scenarios, combiner) in CONFIGS.items() for seed in SEEDS for threads in THREADS]
    proc = subprocess.run([sys.executable, "-c", _RUN, os.path.abspath(tree), out_root, json.dumps(jobs)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"runs failed in {tree}:\n{proc.stdout}{proc.stderr}")


def read_samples(out_dir):
    """{(scenario, realization, ue): se} of an output directory's se_samples.csv."""
    with open(os.path.join(out_dir, "se_samples.csv"), encoding="utf-8", newline="") as handle:
        return {(row["scenario"], int(row["realization"]), int(row["ue"])): float(row["se"])
                for row in csv.DictReader(handle)}


def se_moves(pairs):
    """Per scenario, None if every SE of the new runs equals the base's, else the largest relative
    move as (move, label, setup, ue); ``pairs`` holds (label, base directory, new directory)."""
    moves = {}
    for label, base_dir, new_dir in pairs:
        base, new = read_samples(base_dir), read_samples(new_dir)
        if base.keys() != new.keys():
            raise SystemExit(f"{base_dir} and {new_dir} hold different (scenario, realization, ue) rows")
        for (scenario, setup, ue), value in base.items():
            moves.setdefault(scenario, None)
            other = new[scenario, setup, ue]
            if other != value:
                move = abs(other - value) / abs(value) if value else float("inf")
                if moves[scenario] is None or move > moves[scenario][0]:
                    moves[scenario] = (move, label, setup, ue)
    return moves


def same_files(a, b):
    """Whether directories a and b hold the same file names with the same bytes."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def line_counts(tree):
    """(all lines, lines neither blank nor a comment) of the .py files in ``tree``'s src/cfris."""
    package = os.path.join(tree, "src", "cfris")
    lines = code = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                for line in map(str.strip, handle):
                    lines += 1
                    code += bool(line) and not line.startswith("#")
    return lines, code


def line_count_summary(base_tree, new_tree):
    """One line with both trees' src/cfris line counts."""
    (base, base_code), (new, new_code) = line_counts(base_tree), line_counts(new_tree)
    return (f"src/cfris lines: base {base:,} ({base_code:,} code), new {new:,} ({new_code:,} code), "
            f"change {new - base:+,} ({new_code - base_code:+,} code)")


def summarize(base_root, new_root, configs=CONFIGS, seeds=SEEDS):
    """One block of lines per config: each scenario's SE move, the base and new files check, then the
    threads 1 and 2 check; and the exit status, 1 if any SE moved or any of those files differ, else 0."""
    lines, status = [], 0
    for name, (sizes, scenarios, combiner) in configs.items():
        lines.append(f"{name} ({', '.join(f'{k}={v}' for k, v in sizes.items())}; {combiner}):")
        moves = se_moves([(seed, os.path.join(base_root, run_dir(name, seed, 1)),
                           os.path.join(new_root, run_dir(name, seed, 1))) for seed in seeds])
        for scenario, move in moves.items():
            status |= move is not None
            lines.append(f"  {scenario:14s} " + ("identical" if move is None else
                         "largest relative SE move {:.1e} (seed {}, setup {}, UE {})".format(*move)))
        same = all(same_files(*(os.path.join(root, run_dir(name, seed, 1)) for root in (base_root, new_root)))
                   for seed in seeds)
        status |= not same
        lines.append(f"  base and new files (threads 1): {'identical' if same else 'DIFFERENT'}")
        verdicts = []
        for side, root in (("base", base_root), ("new", new_root)):
            same = all(same_files(*(os.path.join(root, run_dir(name, seed, t)) for t in THREADS)) for seed in seeds)
            status |= not same
            verdicts.append(f"{side} {'identical' if same else 'DIFFERENT'}")
        lines.append(f"  threads 1 and 2 files: {', '.join(verdicts)}")
    return lines, status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("revision", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="se_diff-")
    try:
        base_tree = os.path.join(scratch, "tree")
        export_revision(args.revision, base_tree)
        roots = {side: os.path.join(scratch, side) for side in ("base", "new")}
        run_tree(base_tree, roots["base"])
        run_tree(ROOT, roots["new"])
        print(line_count_summary(base_tree, ROOT))
        print(f"SE of {args.revision} (base) against the working tree (new), seeds "
              f"{', '.join(map(str, SEEDS))}, compared at threads 1")
        lines, status = summarize(roots["base"], roots["new"])
        print("\n".join(lines))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
