"""The comparison of tools/se_diff.py, on toy output directories and without git."""

import math
import os
import sys

import numpy as np

from cfris.config import SimConfig
from cfris.experiment import SeReport, emit_report

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
import se_diff  # noqa: E402

CONFIGS = {"toy": (dict(L=4, K=3), ("ris_optimized", "no_ris_small"), "pmmse")}
SEEDS = (1, 2)


def toy_se(seed):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(0.5, 4.0, size=(2, 3)) for name in CONFIGS["toy"][1]}


def write_root(root, moved=None, **fields):
    """Every run of the toy config, its manifest holding ``fields``; ``moved`` = (seed, scenario,
    setup, ue) moves that SE of the seed's threads=1 run up by one ulp."""
    for seed in SEEDS:
        for threads in se_diff.THREADS:
            se = toy_se(seed)
            if moved and moved[0] == seed and threads == 1:
                _, name, setup, ue = moved
                se[name][setup, ue] = math.nextafter(se[name][setup, ue], math.inf)
            emit_report(SeReport(list(se), se, SimConfig(seed=seed, **fields)),
                        os.path.join(root, se_diff.run_dir("toy", seed, threads)))


def test_identical_runs(tmp_path):
    write_root(str(tmp_path / "base"))
    write_root(str(tmp_path / "new"))
    lines, status = se_diff.summarize(str(tmp_path / "base"), str(tmp_path / "new"), CONFIGS, SEEDS)
    assert lines[1:] == ["  ris_optimized  identical", "  no_ris_small   identical",
                         "  base and new files (threads 1): identical",
                         "  threads 1 and 2 files: base identical, new identical"]
    assert status == 0


def test_manifest_only_difference_is_reported(tmp_path):
    write_root(str(tmp_path / "base"))
    write_root(str(tmp_path / "new"), area_side_m=999.0)
    lines, status = se_diff.summarize(str(tmp_path / "base"), str(tmp_path / "new"), CONFIGS, SEEDS)
    assert lines[1:] == ["  ris_optimized  identical", "  no_ris_small   identical",
                         "  base and new files (threads 1): DIFFERENT",
                         "  threads 1 and 2 files: base identical, new identical"]
    assert status == 1


def test_one_ulp_move_is_reported(tmp_path):
    write_root(str(tmp_path / "base"))
    write_root(str(tmp_path / "new"), moved=(2, "no_ris_small", 1, 2))
    value = toy_se(2)["no_ris_small"][1, 2]
    moves = se_diff.se_moves([(seed, *(str(tmp_path / side / se_diff.run_dir("toy", seed, 1)) for side in ("base", "new")))
                              for seed in SEEDS])
    assert moves == {"ris_optimized": None, "no_ris_small": (math.ulp(value) / value, 2, 1, 2)}
    lines, status = se_diff.summarize(str(tmp_path / "base"), str(tmp_path / "new"), CONFIGS, SEEDS)
    assert lines[1] == "  ris_optimized  identical"
    assert lines[2] == f"  no_ris_small   largest relative SE move {math.ulp(value) / value:.1e} (seed 2, setup 1, UE 2)"
    assert lines[3] == "  base and new files (threads 1): DIFFERENT"
    # only the new tree's threads=1 run moved, so its threads 1 and 2 files differ
    assert lines[4] == "  threads 1 and 2 files: base identical, new DIFFERENT"
    assert status == 1
