import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfris.association import Association
from cfris.cli import main as cli_main
from cfris.config import SimConfig, load_config
from cfris.estimation import EffectiveStats
from cfris.exceptions import ConfigError, ModelError
from cfris.experiment import (
    SCENARIOS,
    ExperimentSpec,
    _run_setup,
    block_batched_se,
    emit_report,
    front_channels,
    load_report,
    run_experiment,
)
from cfris.oracles import ALL_CHECKS, _equivalence_drop, _kernel_and_reference
from exact_values import pmmse_se

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_cfg(**kw):
    base = dict(
        L=4,
        K=3,
        M=2,
        N=4,
        tau_p=2,
        ris_rows=2,
        ris_cols=2,
        mc_setups=2,
        mc_channel_realizations=4,
        seed=3,
    )
    base.update(kw)
    return SimConfig(**base)


class TestSpec:
    def test_valid(self):
        ExperimentSpec(cfg=tiny_cfg()).validate()

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError) as err:
            ExperimentSpec(cfg=tiny_cfg(), scenarios=("warp_drive",)).validate()
        assert err.value.field == "scenarios"

    def test_unknown_combiner(self):
        with pytest.raises(ConfigError) as err:
            ExperimentSpec(cfg=tiny_cfg(), combiner="zf").validate()
        assert err.value.field == "combiner"

    def test_threads_at_least_one(self):
        with pytest.raises(ConfigError, match="threads"):
            ExperimentSpec(cfg=tiny_cfg(), threads=0).validate()


class TestFrontChannels:
    def test_shape_and_determinism(self):
        cfg = tiny_cfg()
        a = front_channels(cfg)
        b = front_channels(cfg)
        assert a.shape == (4, 2, 4)
        assert np.array_equal(a, b)

    def test_per_ap_streams_stable_under_l(self):
        # adding APs must not change the channels of existing APs
        small = front_channels(tiny_cfg(L=2))
        large = front_channels(tiny_cfg(L=4))
        assert np.array_equal(large[:2], small)

    def test_seed_changes_channels(self):
        a = front_channels(tiny_cfg(seed=3))
        b = front_channels(tiny_cfg(seed=4))
        assert not np.array_equal(a, b)


class TestRunExperiment:
    def test_smoke_all_scenarios(self):
        report = run_experiment(ExperimentSpec(cfg=tiny_cfg()))
        assert report.scenarios == list(SCENARIOS)
        for name in SCENARIOS:
            values = report.se[name]
            assert values.shape == (2, 3)
            assert np.all(np.isfinite(values))
            assert np.all(values >= 0)

    def test_subset_of_scenarios(self):
        report = run_experiment(
            ExperimentSpec(cfg=tiny_cfg(), scenarios=("no_ris_small",))
        )
        assert list(report.se) == ["no_ris_small"]

    def test_thread_count_does_not_change_results(self):
        cfg = tiny_cfg(mc_setups=3)
        serial = run_experiment(ExperimentSpec(cfg=cfg, threads=1))
        threaded = run_experiment(ExperimentSpec(cfg=cfg, threads=3))
        for name in SCENARIOS:
            assert np.array_equal(serial.se[name], threaded.se[name])

    def test_scenario_subset_matches_full_run(self):
        # per-scenario RNG streams: results do not depend on which other
        # scenarios run alongside
        cfg = tiny_cfg()
        full = run_experiment(ExperimentSpec(cfg=cfg))
        only = run_experiment(ExperimentSpec(cfg=cfg, scenarios=("ris_optimized",)))
        assert np.array_equal(full.se["ris_optimized"], only.se["ris_optimized"])

    def test_non_finite_se_names_setup_scenario_and_ue(self):
        # an unvalidated config with NaN noise power gives NaN SINRs
        cfg = tiny_cfg(noise_power_dbm=float("nan"))
        with pytest.raises(ModelError, match="setup 0, scenario no_ris_small: non-finite SE for UE 0"):
            _run_setup(cfg, ["no_ris_small"], "pmmse", None, 0)

    def test_mmse_combiner_at_least_pmmse_on_average(self):
        cfg = tiny_cfg(mc_setups=3, mc_channel_realizations=8)
        p = run_experiment(ExperimentSpec(cfg=cfg, combiner="pmmse"))
        m = run_experiment(ExperimentSpec(cfg=cfg, combiner="mmse"))
        for name in SCENARIOS:
            assert m.se[name].mean() >= p.se[name].mean() - 1e-9


class TestSeKernel:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        L=st.integers(1, 4),
        K=st.integers(1, 6),
        M=st.integers(1, 4),
        tau_p=st.integers(1, 4),
        spread_db=st.floats(0.0, 60.0),
        ris=st.booleans(),
        combiner=st.sampled_from(("pmmse", "mmse")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_on_random_drops(self, L, K, M, tau_p, spread_db, ris, combiner, seed):
        # large-scale gains spread over up to 60 dB reach SINRs of 1e6 and more, where both
        # paths lose digits: the tolerance is the benchmark's 1e-10 + 10 eps cond
        cfg = SimConfig(L=L, K=K, M=M, N=4, tau_p=tau_p, ris_rows=2, ris_cols=2)
        rng = np.random.default_rng(seed)
        beta = 10 ** (rng.uniform(0.0, spread_db / 10, size=(K, L))) * cfg.noise_power_w / cfg.data_power_w
        r, assoc, fronts = _equivalence_drop(rng, cfg, beta)
        if K <= tau_p:
            assert assoc.serving_matrix.all()   # one UE group
        stats = EffectiveStats(r, fronts if ris else None, assoc.pilot_of, cfg)
        fast, reference, cond = _kernel_and_reference(stats, assoc, cfg, combiner, n_blocks=3)
        assert np.all(np.abs(fast - reference) / reference <= 1e-10 + 10 * np.finfo(float).eps * cond)

    @staticmethod
    def _kernel_against_40_digits(cfg, ghat, F, assoc):
        """Kernel SE on the fixed blocks ghat (blocks, L, m, K) and the 40-digit P-MMSE SE."""
        blocks, L, m, K = ghat.shape

        class FixedBlocks:   # stands in for EffectiveStats: the blocks are ghat itself
            def sample_pilot_statistics(self, rng, b):
                return ghat[:b]

            def effective_estimates(self, z):
                return z

        stats = FixedBlocks()
        stats.K, stats.L, stats.m, stats.F = K, L, m, F
        return block_batched_se(stats, assoc, cfg, None, n_blocks=blocks), pmmse_se(cfg, ghat, F, assoc)

    def test_high_sinr_accuracy_against_40_digits(self):
        # SINRs of 1e8 and more, where a combiner formed as the difference of two
        # nearly equal vectors is off by about 1e-6 of the SE
        cfg = SimConfig(L=3, K=4, M=2, N=4, tau_p=4, ris_rows=2, ris_cols=2)
        L, K, m, blocks = 3, 4, 2, 2
        rng = np.random.default_rng(5)
        unit = cfg.noise_power_w / cfg.data_power_w
        shape = (blocks, L, m, K)
        ghat = np.sqrt(1e9 * unit / (2 * L * m)) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        x = rng.standard_normal((K, L, m, m)) + 1j * rng.standard_normal((K, L, m, m))
        F = 1e-3 * unit * x @ x.conj().swapaxes(-1, -2) / m
        # every AP serves every UE, so both combiners are the full MMSE combiner
        assoc = Association(np.arange(K), np.zeros(K, dtype=int), np.ones((L, K), dtype=bool))
        fast, exact = self._kernel_against_40_digits(cfg, ghat, F, assoc)
        assert exact.min() > np.log2(1e7)
        assert np.max(np.abs(fast - exact) / exact) <= 1e-9

    def test_high_sinr_accuracy_with_non_partners_against_40_digits(self):
        # K > tau_p on a chain of serving sets: UEs 0 and 3 share no AP, nor do 0 and 2, so
        # every UE group has a non-partner and the kernel adds v^H Delta v for it; the
        # non-partners' estimates and error blocks are weak but not zero on the serving APs
        cfg = SimConfig(L=3, K=4, M=2, N=4, tau_p=2, ris_rows=2, ris_cols=2)
        L, K, m, blocks = 3, 4, 2, 2
        serving = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=bool)
        rng = np.random.default_rng(6)
        unit = cfg.noise_power_w / cfg.data_power_w
        gain = np.where(serving, 1e9, 1.0) * unit                      # (L, K)
        shape = (blocks, L, m, K)
        ghat = np.sqrt(gain[:, None] / (2 * m)) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        x = rng.standard_normal((K, L, m, m)) + 1j * rng.standard_normal((K, L, m, m))
        F = np.where(serving.T, 1e-3, 0.5)[..., None, None] * unit * x @ x.conj().swapaxes(-1, -2) / m
        assoc = Association(np.array([0, 1, 0, 1]), np.array([0, 1, 1, 2]), serving)
        assert all(len(assoc.pmmse_partners(k)) < K for k in range(K))
        fast, exact = self._kernel_against_40_digits(cfg, ghat, F, assoc)
        assert exact.min() > np.log2(1e7)
        assert np.max(np.abs(fast - exact) / exact) <= 1e-9


class TestReportMath:
    def make(self):
        return run_experiment(ExperimentSpec(cfg=tiny_cfg(), scenarios=("no_ris_small",)))

    def test_cdf_monotone(self):
        values, probs = self.make().cdf("no_ris_small")
        assert np.all(np.diff(values) >= 0)
        assert np.all(np.diff(probs) > 0)
        assert probs[0] > 0 and probs[-1] == pytest.approx(1.0)

    def test_median_and_percentile(self):
        report = self.make()
        samples = report.samples("no_ris_small")
        assert report.median("no_ris_small") == pytest.approx(np.median(samples))
        assert report.percentile("no_ris_small", 10) == pytest.approx(
            np.percentile(samples, 10)
        )


class TestReportIo:
    def test_round_trip(self, tmp_path):
        report = run_experiment(ExperimentSpec(cfg=tiny_cfg()))
        paths = emit_report(report, str(tmp_path / "out"))
        names = {os.path.basename(p) for p in paths}
        assert "manifest.txt" in names
        assert "se_samples.csv" in names
        assert {f"cdf_{n}.csv" for n in SCENARIOS} <= names

        loaded = load_report(str(tmp_path / "out"))
        assert loaded.scenarios == report.scenarios
        for name in SCENARIOS:
            assert np.array_equal(loaded.se[name], report.se[name])

    def test_manifest_contains_config(self, tmp_path):
        report = run_experiment(
            ExperimentSpec(cfg=tiny_cfg(seed=77), scenarios=("no_ris_small",))
        )
        emit_report(report, str(tmp_path / "out"))
        text = (tmp_path / "out" / "manifest.txt").read_text()
        assert "seed = 77" in text
        assert "array_geometry = linear" in text
        assert "scenarios" not in text

    def test_manifest_loads_back_as_config(self, tmp_path):
        cfg = tiny_cfg(seed=77, array_geometry="planar", area_side_m=123.25)
        report = run_experiment(ExperimentSpec(cfg=cfg, scenarios=("no_ris_small",)))
        emit_report(report, str(tmp_path / "out"))
        assert load_config(str(tmp_path / "out" / "manifest.txt")) == cfg
        assert load_report(str(tmp_path / "out")).config == cfg.as_dict()

    def test_empty_scenarios_manifest_only(self, tmp_path):
        from cfris.experiment import SeReport

        report = SeReport(scenarios=[], se={}, config=tiny_cfg().as_dict())
        paths = emit_report(report, str(tmp_path / "out"))
        assert [os.path.basename(p) for p in paths] == ["manifest.txt"]
        loaded = load_report(str(tmp_path / "out"))
        assert loaded.scenarios == []


class TestCli:
    def write_cfg(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        path.write_text(
            "L = 4\nK = 3\nM = 2\nN = 4\ntau_p = 2\nris_rows = 2\nris_cols = 2\n"
            "mc_setups = 2\nmc_channel_realizations = 4\n"
        )
        return str(path)

    def test_run_writes_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        code = cli_main(
            [
                "run",
                "--config",
                self.write_cfg(tmp_path),
                "--seed",
                "5",
                "--scenario",
                "no_ris_small",
                "--scenario",
                "ris_random",
                "--out",
                out,
                "--threads",
                "2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "median SE" in captured
        assert os.path.exists(os.path.join(out, "manifest.txt"))
        assert os.path.exists(os.path.join(out, "se_samples.csv"))
        assert os.path.exists(os.path.join(out, "cdf_no_ris_small.csv"))
        report = load_report(out)
        assert report.scenarios == ["no_ris_small", "ris_random"]
        assert report.config["seed"] == 5

    def test_run_matches_library(self, tmp_path):
        out = str(tmp_path / "results")
        cli_main(
            ["run", "--config", self.write_cfg(tmp_path), "--scenario", "no_ris_small", "--out", out]
        )
        cfg = tiny_cfg(seed=1)
        direct = run_experiment(ExperimentSpec(cfg=cfg, scenarios=("no_ris_small",)))
        loaded = load_report(out)
        assert np.array_equal(loaded.se["no_ris_small"], direct.se["no_ris_small"])

    def test_setups_and_blocks_overrides(self, tmp_path):
        out = str(tmp_path / "results")
        code = cli_main(
            [
                "run",
                "--config",
                self.write_cfg(tmp_path),
                "--scenario",
                "no_ris_small",
                "--setups",
                "1",
                "--blocks",
                "2",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert load_report(out).se["no_ris_small"].shape == (1, 3)

    def test_validate_ok(self, tmp_path, capsys):
        code = cli_main(["validate", "--config", self.write_cfg(tmp_path)])
        assert code == 0
        assert "configuration ok" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("tau_p = 0\n")
        code = cli_main(["validate", "--config", str(path)])
        assert code == 2
        assert "tau_p" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_main(["validate", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2

    def test_oracle_command(self, capsys):
        code = cli_main(["oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == len(ALL_CHECKS)

    def test_runtime_imports_no_scipy(self):
        # scipy is a test dependency only: the package, its CLI and the oracles run without it
        code = "import sys, cfris, cfris.cli, cfris.oracles; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout.strip() == "[]"


def test_benchmark_smoke_suite_passes():
    # the benchmark patches and calls library functions by name; a rename or
    # signature change must fail here rather than in a benchmark run
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/test_smoke.py"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
