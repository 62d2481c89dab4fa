"""Smoke test of the benchmark on toy-sized workloads; runs in seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload's code path with and without tracing and every
correctness check. Shows that the checks count SE rows that are wrong and
phases that lose objective value, and that a kernel skewed away from the
reference path makes the run fail.
"""

import json
import os

import numpy as np
import pytest

import run  # sets the BLAS pinning and the import path before cfris loads
import cfris.experiment
import cfris.ris
from checks import failed_evaluations, first_drop_checks
from cfris import SeReport
from spans import patched
from workloads import WORKLOADS

TINY = {name: workload.shrunk() for name, workload in WORKLOADS.items()}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_checks_pass(name, trace, capsys):
    result = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)], workloads=TINY
    )
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == result
    assert result["correct"] and result["failed"] == 0
    workload = TINY[name]
    passes = 2 * workload.repeats(0.2) + trace
    assert result["attempted"] == passes * workload.drops * len(workload.scenarios)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(np.isfinite(v["value"]) and v["value"] >= 0 for v in result["metrics"].values())


def test_benchmark_file_names_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert all(w.drops % 2 == 0 for w in WORKLOADS.values())


def test_failed_evaluations_flags_bad_rows():
    good = np.full((3, 4), 2.0)
    base = SeReport(scenarios=["a"], se={"a": good})
    assert failed_evaluations(base) == 0
    assert failed_evaluations(base, first_drop_failed={"a"}) == 1
    bad = good.copy()
    bad[0, 1] = np.nan
    bad[1, 2] = 0.0
    bad[2, 3] = np.nextafter(2.0, 3.0)
    assert failed_evaluations(SeReport(scenarios=["a"], se={"a": bad})) == 2
    assert failed_evaluations(SeReport(scenarios=["a"], se={"a": bad}), base) == 3


def skewed_kernel(skew):
    kernel = cfris.experiment.block_batched_se

    def skewed(*args, **kwargs):
        return kernel(*args, **kwargs) * (1.0 + skew)

    return patched([(cfris.experiment, "block_batched_se", skewed)])


def test_first_drop_checks_count_a_wrong_kernel():
    workload = TINY["crowded"]
    cfg = workload.config(5)
    failed, lines = first_drop_checks(cfg, workload.checked)
    assert failed == set() and not any("FAIL" in line for line in lines)
    with skewed_kernel(1e-6):
        failed, lines = first_drop_checks(cfg, workload.checked)
    assert failed == set(workload.checked)
    assert sum("kernel vs reference" in line and "FAIL" in line for line in lines) == len(workload.checked)


def test_wrong_kernel_makes_the_run_incorrect(capsys):
    workload = TINY["dense"]
    with skewed_kernel(1e-6):
        result = run.main(["--workload", "dense", "--seed", "3", "--seconds", "0.2"], workloads=TINY)
    assert not result["correct"] and result["failed"] == len(workload.checked)


def test_first_drop_checks_catch_phases_that_lose_value():
    workload = TINY["dense"]
    cfg = workload.config(5)

    def worst_phases(a, iterations=None):
        # the worst of 64 random phase vectors: below the all-ones value on some AP
        psi = np.exp(2j * np.pi * np.random.default_rng(0).uniform(size=(64, a.shape[0])))
        return psi[np.argmin(np.einsum("pi,ij,pj->p", psi.conj(), a, psi).real)]

    with patched([(cfris.ris, "constrained_power_iteration", worst_phases)]):
        failed, lines = first_drop_checks(cfg, workload.checked)
    assert failed == {"ris_optimized"}
    assert any("ascent shortfall" in line and "FAIL" in line for line in lines)
