"""Correctness checks of the benchmark; they run outside the timed passes.

Each (drop, scenario) SE evaluation of a pass is one operation. It fails
when its SE row is not finite and positive, when it differs bit for bit
from the same evaluation in the first single-threaded pass, or, on the
first drop, when the batched kernel misses the reference receiver chain by
more than the tolerance of reference_gaps or the optimised phases fail the
phase checks. No check compares against stored SE values.
"""

from dataclasses import replace

import numpy as np

import cfris.experiment
from cfris import ExperimentSpec, run_experiment
from cfris.receiver import (
    _restricted_outer_sum,
    instantaneous_sinr,
    mmse_combiner,
    pmmse_combiner,
    spectral_efficiency,
)
from cfris.ris import build_objective, quadratic_objective
from spans import patched

REFERENCE_BLOCKS = 3
REFERENCE_RTOL = 1e-10
SOLVE_SLACK = 10.0    # times eps * cond of the UE's combiner system
MODULUS_TOL = 1e-12
ASCENT_RTOL = 1e-9    # the power iteration's own decrease threshold


def failed_evaluations(report, baseline=None, first_drop_failed=()):
    """Count the (drop, scenario) rows of ``report`` that fail a check."""
    failed = 0
    for name in report.scenarios:
        se = report.se[name]
        bad = ~np.all(np.isfinite(se) & (se > 0), axis=1)
        if baseline is not None:
            bad |= np.any(se != baseline.se[name], axis=1)
        if name in first_drop_failed:
            bad[0] = True
        failed += int(bad.sum())
    return failed


def reference_gaps(stats, assoc, cfg, combiner, seed):
    """Per-UE relative SE gap between the batched kernel and the reference chain, and its tolerance.

    Both paths see the same pilot draws: the kernel samples its blocks from
    one RNG, and the reference path redraws them from an identical one.
    Both solve the UE's combiner system, so each can be off by about
    cond * eps, and SE = log2(1 + SINR) is less sensitive than SINR. The
    tolerance is REFERENCE_RTOL plus SOLVE_SLACK * eps * cond, where cond is
    the largest condition number of the matrix the reference path solves
    over the blocks.
    """
    fast = cfris.experiment.block_batched_se(
        stats, assoc, cfg, np.random.default_rng(seed), combiner=combiner, n_blocks=REFERENCE_BLOCKS
    )
    z = stats.sample_pilot_statistics(np.random.default_rng(seed), REFERENCE_BLOCKS)
    ghat = np.moveaxis(stats.effective_estimates(z), -1, 1)     # (blocks, K, L, m)
    combine = pmmse_combiner if combiner == "pmmse" else mmse_combiner
    eta = np.full(stats.K, cfg.data_power_w)
    gap, tolerance = np.empty(stats.K), np.empty(stats.K)
    for k in range(stats.K):
        partners = assoc.pmmse_partners(k) if combiner == "pmmse" else range(stats.K)
        slow = spectral_efficiency(
            [instantaneous_sinr(k, combine(k, g, stats.F, assoc, cfg), g, stats.F, assoc, cfg) for g in ghat], cfg
        )
        cond = 0.0
        for g in ghat:
            # Hermitian positive definite: cond is the eigenvalue ratio
            w = np.linalg.eigvalsh(_restricted_outer_sum(k, g, stats.F, assoc, eta, cfg.noise_power_w, partners)[2])
            cond = max(cond, w[-1] / w[0])
        gap[k] = abs(fast[k] - slow) / abs(slow)
        tolerance[k] = REFERENCE_RTOL + SOLVE_SLACK * np.finfo(float).eps * cond
    return gap, tolerance


def phase_errors(stats, assoc, psi, mode):
    """(worst |psi| deviation from 1, worst relative shortfall of the objective).

    For optimised phases, every AP that serves a UE must reach at least the
    value of its ``build_objective`` quadratic form at the all-ones start.
    """
    modulus = float(np.max(np.abs(np.abs(psi) - 1.0)))
    shortfall = 0.0
    if mode == "optimized":
        start = np.ones(psi.shape[1], dtype=complex)
        for l, served in enumerate(assoc.served_sets):
            if served:
                a = build_objective([stats.R[k, l] for k in served], stats.H[l]).A
                initial = quadratic_objective(start, a)
                shortfall = max(shortfall, (initial - quadratic_objective(psi[l], a)) / abs(initial))
    return modulus, shortfall


def first_drop_checks(cfg, scenarios, combiner="pmmse"):
    """Replay drop 0 of ``scenarios``, compare the kernel and check the phases.

    Returns the set of scenarios that failed a check and one line per check.
    """
    kernels, selections = [], []
    select = cfris.experiment.select_long_term_config

    def capture_kernel(stats, assoc, cfg_, rng, combiner="pmmse", n_blocks=None):
        kernels.append((stats, assoc))
        return np.ones(stats.K)   # the kernel itself is run below, against the reference

    def capture_select(stats, assoc, cfg_, mode="optimized", rng=None):
        psi = select(stats, assoc, cfg_, mode=mode, rng=rng)
        selections.append((stats, assoc, mode, psi))
        return psi

    spec = ExperimentSpec(cfg=replace(cfg, mc_setups=1), scenarios=tuple(scenarios), combiner=combiner)
    with patched([
        (cfris.experiment, "block_batched_se", capture_kernel),
        (cfris.experiment, "select_long_term_config", capture_select),
    ]):
        run_experiment(spec)
    if len(kernels) != len(scenarios):
        raise RuntimeError(f"replay of drop 0 ran {len(kernels)} kernels for {len(scenarios)} scenarios")

    failed, lines = set(), []
    for name, (stats, assoc) in zip(scenarios, kernels):
        gap, tolerance = reference_gaps(stats, assoc, cfg, combiner, cfg.seed)
        ok = bool(np.all(gap <= tolerance))
        lines.append(f"check {name} drop 0: kernel vs reference path over {REFERENCE_BLOCKS} blocks, "
                     f"max rel err {gap.max():.1e}, worst err/tolerance {np.max(gap / tolerance):.3f} "
                     f"(tolerance {tolerance.min():.1e} to {tolerance.max():.1e}) ({'ok' if ok else 'FAIL'})")
        if not ok:
            failed.add(name)
    for stats, assoc, mode, psi in selections:
        modulus, shortfall = phase_errors(stats, assoc, psi, mode)
        ok = modulus <= MODULUS_TOL and shortfall <= ASCENT_RTOL
        lines.append(f"check ris_{mode} drop 0: phase modulus err {modulus:.1e}, "
                     f"worst ascent shortfall {shortfall:.1e} ({'ok' if ok else 'FAIL'})")
        if not ok:
            failed.add(f"ris_{mode}")
    return failed, lines
