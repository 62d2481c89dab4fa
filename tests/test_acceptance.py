"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Criteria 1-4 are quantitative Monte Carlo reproductions at stated scales;
criteria 5-7 are the timed property suites for the estimation, phase-optimizer,
and receiver modules from ``cfris.oracles`` (also run by ``cfris oracle``);
criterion 8 checks byte-identical reports under
re-runs and different thread counts. Run with ``pytest -v`` (add ``-s`` to
see the per-criterion lines as they complete). Criteria 1-4 carry the
``slow`` marker, so ``pytest -m "not slow"`` leaves them out. Their detail
lines also give a setup-level bootstrap 95 % interval of each statistic the
criterion reads; it is reported, not asserted.
"""

import filecmp
import os

import numpy as np
import pytest

from cfris import oracles
from cfris.config import SimConfig
from cfris.experiment import ExperimentSpec, emit_report, run_experiment

THREADS = min(4, os.cpu_count() or 1)
BOOTSTRAP_DRAWS = 1000


def report_line(num, description, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}{tail}", flush=True)
    assert ok, f"criterion {num}: {description}{tail}"


def bootstrap_detail(run, fmt, **statistics):
    """'name x [lo, hi]' per statistic of the scenarios' medians: x over the run's setups and [lo, hi] the 2.5 and 97.5
    percentiles over setups drawn with replacement, the same draw for every scenario, from a fixed-seed rng."""
    setups = len(run.se[run.scenarios[0]])
    picks = np.random.default_rng(0).integers(setups, size=(BOOTSTRAP_DRAWS, setups))
    parts = []
    for name, statistic in statistics.items():
        value = statistic(lambda scenario: np.median(run.se[scenario]))
        lo, hi = np.percentile([statistic(lambda scenario: np.median(run.se[scenario][pick])) for pick in picks],
                               [2.5, 97.5])
        parts.append(f"{name} {value:{fmt}} [{lo:{fmt}}, {hi:{fmt}}]")
    return "; setup bootstrap 95%: " + ", ".join(parts)


@pytest.fixture(scope="module")
def dense_run():
    """Criteria 1+2: default dense deployment, full Monte Carlo budget."""
    cfg = SimConfig(mc_setups=50, mc_channel_realizations=100, seed=1)
    return run_experiment(ExperimentSpec(cfg=cfg, threads=THREADS))


@pytest.fixture(scope="module")
def crowded_run():
    """Criterion 3: more APs and UEs on the same 1x1 km area."""
    cfg = SimConfig(L=100, K=20, mc_setups=25, mc_channel_realizations=50, seed=1)
    spec = ExperimentSpec(
        cfg=cfg,
        scenarios=("ris_optimized", "no_ris_small", "no_ris_large"),
        threads=THREADS,
    )
    return run_experiment(spec)


@pytest.fixture(scope="module")
def sparse_run():
    """Criterion 4: the same deployment stretched over 2x2 km."""
    cfg = SimConfig(
        L=100, K=20, area_side_m=2000.0, mc_setups=25, mc_channel_realizations=50, seed=1
    )
    spec = ExperimentSpec(
        cfg=cfg, scenarios=("ris_optimized", "no_ris_large"), threads=THREADS
    )
    return run_experiment(spec)


@pytest.mark.slow
def test_criterion_1_median_improvement(dense_run):
    base = dense_run.median("no_ris_small")
    opt = dense_run.median("ris_optimized")
    improvement = opt / base - 1.0
    ok = 0.35 <= improvement <= 0.75
    report_line(
        1,
        "median SE improvement of optimized phases over the small array is 55% +/- 20pp",
        ok,
        f"improvement {100 * improvement:.1f}%, medians {opt:.3f} vs {base:.3f} bit/s/Hz"
        + bootstrap_detail(dense_run, ".1f",
                           improvement_pct=lambda med: 100 * (med("ris_optimized") / med("no_ris_small") - 1.0)),
    )


@pytest.mark.slow
def test_criterion_2_dense_ordering(dense_run):
    opt = dense_run.median("ris_optimized")
    large = dense_run.median("no_ris_large")
    rand = dense_run.median("ris_random")
    small = dense_run.median("no_ris_small")
    ok = opt > large > rand and opt > small
    report_line(
        2,
        "dense-deployment median ordering optimized > large array > random phases, optimized > small array",
        ok,
        f"{opt:.3f} > {large:.3f} > {rand:.3f}, small {small:.3f}"
        + bootstrap_detail(dense_run, ".3f",
                           opt_minus_large=lambda med: med("ris_optimized") - med("no_ris_large"),
                           large_minus_random=lambda med: med("no_ris_large") - med("ris_random"),
                           opt_minus_small=lambda med: med("ris_optimized") - med("no_ris_small")),
    )


@pytest.mark.slow
def test_criterion_3_crowded_ordering(crowded_run):
    large = crowded_run.median("no_ris_large")
    opt = crowded_run.median("ris_optimized")
    small = crowded_run.median("no_ris_small")
    ok = large >= opt >= small
    report_line(
        3,
        "crowded 1x1 km ordering large array >= optimized >= small array at the median",
        ok,
        f"{large:.3f} >= {opt:.3f} >= {small:.3f}"
        + bootstrap_detail(crowded_run, ".3f",
                           large_minus_opt=lambda med: med("no_ris_large") - med("ris_optimized"),
                           opt_minus_small=lambda med: med("ris_optimized") - med("no_ris_small")),
    )


@pytest.mark.slow
def test_criterion_4_sparse_ordering(sparse_run):
    opt = sparse_run.median("ris_optimized")
    large = sparse_run.median("no_ris_large")
    ok = opt >= large
    report_line(
        4,
        "sparse 2x2 km: optimized phases reach the large-array median",
        ok,
        f"{opt:.3f} >= {large:.3f}"
        + bootstrap_detail(sparse_run, ".3f", opt_minus_large=lambda med: med("ris_optimized") - med("no_ris_large")),
    )


def test_criterion_5_estimation_suite():
    report_line(5, *oracles.check_estimation_suite(np.random.default_rng(50)))


def test_criterion_6_optimizer_suite():
    report_line(6, *oracles.check_optimizer_suite(np.random.default_rng(60)))


def test_criterion_7_receiver_suite():
    report_line(7, *oracles.check_receiver_suite(np.random.default_rng(70)))


def test_criterion_8_determinism(tmp_path, monkeypatch):
    # four usable CPUs, so that threads=4 runs four workers (the caller and three forked children) on a
    # smaller machine too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    cfg = SimConfig(
        L=8,
        K=5,
        M=2,
        N=4,
        tau_p=3,
        ris_rows=2,
        ris_cols=2,
        mc_setups=4,
        mc_channel_realizations=8,
        seed=11,
    )
    dirs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 4)):
        out = str(tmp_path / name)
        report = run_experiment(ExperimentSpec(cfg=cfg, threads=threads))
        emit_report(report, out)
        dirs.append(out)

    files = sorted(os.listdir(dirs[0]))
    identical = True
    for other in dirs[1:]:
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], other, files, shallow=False)
        if mismatch or errors:
            identical = False
    report_line(
        8,
        "same seed gives byte-identical reports across re-runs and thread counts {1, 4}",
        identical,
        f"{len(files)} files compared",
    )
