import os
import subprocess
import sys

import numpy as np
import pytest

from cfris.cli import main as cli_main
from cfris.config import SimConfig, load_config
from cfris.exceptions import ConfigError, ModelError
from cfris.experiment import (
    SCENARIOS,
    ExperimentSpec,
    _run_setup,
    emit_report,
    front_channels,
    load_report,
    run_experiment,
)
from cfris.oracles import ALL_CHECKS

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
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=tiny_cfg(), scenarios=("warp_drive",)).validate()

    def test_unknown_combiner(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cfg=tiny_cfg(), combiner="zf").validate()

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
