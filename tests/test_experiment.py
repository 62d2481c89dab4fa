import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cfris.experiment
from cfris.association import Association
from cfris.cli import main as cli_main
from cfris.config import SimConfig, load_config
from cfris.estimation import EffectiveStats
from cfris.exceptions import CfrisError, ConfigError, ModelError
from cfris.experiment import (
    _TAG_NETWORK,
    COMBINERS,
    SCENARIOS,
    ExperimentSpec,
    SeReport,
    _rng,
    _run_setup,
    emit_report,
    front_channels,
    load_report,
    run_experiment,
)
from cfris.network import PATHLOSS_EXPONENT_DB, active_array_positions, generate_realization, ris_grid_positions
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

    def test_scenario_listed_twice(self):
        with pytest.raises(ConfigError) as err:
            ExperimentSpec(cfg=tiny_cfg(), scenarios=("no_ris_small", "no_ris_small")).validate()
        assert err.value.field == "scenarios"

    def test_no_scenarios(self):
        with pytest.raises(ConfigError) as err:
            ExperimentSpec(cfg=tiny_cfg(), scenarios=()).validate()
        assert err.value.field == "scenarios"

    def test_unknown_combiner(self):
        with pytest.raises(ConfigError) as err:
            ExperimentSpec(cfg=tiny_cfg(), combiner="zf").validate()
        assert err.value.field == "combiner"

    def test_threads_at_least_one(self):
        for threads in (0, 1.5, True):   # a bool is an int, but not a thread count
            with pytest.raises(ConfigError, match="threads"):
                ExperimentSpec(cfg=tiny_cfg(), threads=threads).validate()

    def test_more_than_one_worker_needs_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        ExperimentSpec(cfg=tiny_cfg(), threads=1).validate()
        with pytest.raises(ConfigError) as err:
            ExperimentSpec(cfg=tiny_cfg(), threads=2).validate()
        assert err.value.field == "threads"


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

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # three usable CPUs, so that threads=3 forks two children on a smaller machine too
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
        cfg = tiny_cfg(mc_setups=3)
        serial = run_experiment(ExperimentSpec(cfg=cfg, threads=1))
        threaded = run_experiment(ExperimentSpec(cfg=cfg, threads=3))
        for name in SCENARIOS:
            assert np.array_equal(serial.se[name], threaded.se[name])

    @pytest.mark.parametrize("order", [
        ("ris_optimized",),
        ("no_ris_large", "no_ris_small", "ris_random", "ris_optimized"),
        ("no_ris_large", "no_ris_small", "ris_random"),
        ("ris_random", "no_ris_small"),
    ], ids=["ris_optimized", "reversed", "no_ris_first", "random_and_small"])
    def test_scenario_subset_matches_full_run(self, order):
        # per-scenario RNG streams, seeded by the scenario's index in SCENARIOS: results do
        # not depend on which other scenarios run alongside, nor on their order
        assert SCENARIOS == ("ris_optimized", "ris_random", "no_ris_small", "no_ris_large")
        cfg = tiny_cfg()
        full = run_experiment(ExperimentSpec(cfg=cfg))
        subset = run_experiment(ExperimentSpec(cfg=cfg, scenarios=order))
        for name in order:
            assert np.array_equal(full.se[name], subset.se[name])

    def test_one_stack_per_layout_reaches_every_reader(self, monkeypatch):
        # a drop builds each layout's stack once, the N-grid first, and that one object reaches both
        # phase selections and the no_ris_large bank: a traced run names that bank's kernel by its identity
        built, selected, banks = [], [], []
        build, select = cfris.experiment.spatial_correlation_matrices, cfris.experiment.select_long_term_config

        def tracked_build(real, cfg, elements):
            built.append((elements, build(real, cfg, elements)))
            return built[-1][1]

        def tracked_select(stats, *args, **kwargs):
            selected.append(stats.R)
            return select(stats, *args, **kwargs)

        def tracked_bank(R, *args):
            banks.append(R)
            return EffectiveStats(R, *args)

        monkeypatch.setattr(cfris.experiment, "spatial_correlation_matrices", tracked_build)
        monkeypatch.setattr(cfris.experiment, "select_long_term_config", tracked_select)
        monkeypatch.setattr(cfris.experiment, "EffectiveStats", tracked_bank)
        cfg = tiny_cfg()
        _run_setup(cfg, SCENARIOS, "pmmse", front_channels(cfg), 0)
        (grid_elements, grid), (array_elements, array) = built
        assert np.array_equal(grid_elements, ris_grid_positions(cfg))
        assert np.array_equal(array_elements, active_array_positions(cfg))
        assert len(selected) == 2 and all(r is grid for r in selected)
        assert [r is grid for r in banks] == [True, True, False, True]
        assert banks[2] is array

    def test_ris_drop_never_holds_a_correlation_stack(self):
        # the RIS scenarios keep the N-grid correlation as offset tables: phase selection gathers one
        # served sum per AP and the banks gather one AP's K matrices at a time, so the drop's array
        # peak stays below the bytes of one (K, L, N, N) complex stack
        cfg = SimConfig(L=40, K=12, tau_p=5, mc_setups=1, mc_channel_realizations=4)
        fronts = front_channels(cfg)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _run_setup(cfg, ("ris_optimized", "ris_random"), "pmmse", fronts, 0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < cfg.K * cfg.L * cfg.N**2 * 16

    def test_non_finite_se_names_setup_scenario_and_ue(self):
        # an unvalidated config with NaN noise power gives NaN SINRs
        cfg = tiny_cfg(noise_power_dbm=float("nan"))
        with pytest.raises(ModelError, match="setup 0, scenario no_ris_small: non-finite SE for UE 0"):
            _run_setup(cfg, ["no_ris_small"], "pmmse", None, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("combiner", COMBINERS)
    @pytest.mark.parametrize("field,value", [("area_side_m", 1e80), ("noise_power_dbm", 3000.0)])
    def test_gram_that_underflows_to_zero_gives_se_zero(self, field, value, combiner):
        # a pilot SNR below 1e-280 underflows the kernel's Gram P to exactly 0, so q_k = 0: SINR 0, not 0/0
        cfg = SimConfig(L=3, K=4, M=2, N=4, ris_rows=2, ris_cols=2, tau_p=2, mc_setups=1, mc_channel_realizations=2,
                        **{field: value})
        report = run_experiment(ExperimentSpec(cfg=cfg, combiner=combiner))
        for name in SCENARIOS:
            assert np.array_equal(report.se[name], np.zeros((1, cfg.K))), name

    def test_mmse_combiner_at_least_pmmse_on_average(self):
        cfg = tiny_cfg(mc_setups=3, mc_channel_realizations=8)
        p = run_experiment(ExperimentSpec(cfg=cfg, combiner="pmmse"))
        m = run_experiment(ExperimentSpec(cfg=cfg, combiner="mmse"))
        for name in SCENARIOS:
            assert m.se[name].mean() >= p.se[name].mean() - 1e-9


def raise_powers(cfg, db):
    """Law (a): the pilot, data and noise powers raised by the same db leave every SINR as it is."""
    gain = 10.0 ** (db / 10.0)
    return replace(cfg, pilot_power_mw=gain * cfg.pilot_power_mw, data_power_mw=gain * cfg.data_power_mw,
                   noise_power_dbm=cfg.noise_power_dbm + db)


def scale_geometry(cfg, c):
    """Law (b): every length scaled by c, and the noise lowered by the path loss over a factor c, leave
    every beta rho / sigma^2 and every angle as they are; the same seed draws the same scaled positions."""
    return replace(cfg, area_side_m=c * cfg.area_side_m, ap_height_m=c * cfg.ap_height_m,
                   min_distance_m=c * cfg.min_distance_m, shadowing_decorrelation_m=c * cfg.shadowing_decorrelation_m,
                   noise_power_dbm=cfg.noise_power_dbm - PATHLOSS_EXPONENT_DB * math.log10(c))


class TestInvariance:
    """Laws of the model that hold from a SimConfig to SE, through the whole chain, with no reference path."""
    # K > tau_p, and on a 60 m square setup 1 has a UE within the 1 m distance clamp of an AP
    CFG = SimConfig(L=10, K=6, M=2, N=4, ris_rows=2, ris_cols=2, tau_p=3, area_side_m=60.0,
                    mc_setups=2, mc_channel_realizations=6, seed=1)

    @pytest.fixture(scope="class", params=COMBINERS)
    def reference(self, request):
        return request.param, run_experiment(ExperimentSpec(cfg=self.CFG, combiner=request.param)).se

    def test_drop_shares_pilots_and_clamps_a_distance(self):
        assert self.CFG.K > self.CFG.tau_p
        clamped = []
        for setup in range(self.CFG.mc_setups):
            real = generate_realization(self.CFG, _rng(self.CFG.seed, _TAG_NETWORK, setup))
            d2d = np.linalg.norm(real.ue_positions[:, None] - real.ap_positions[None], axis=-1)
            clamped.append(int(np.sum(d2d < self.CFG.min_distance_m)))
        assert clamped == [0, 1]

    @pytest.mark.parametrize("law", [(raise_powers, 20.0), (raise_powers, -30.0),
                                     (scale_geometry, 3.0), (scale_geometry, 0.25)],
                             ids=["power+20dB", "power-30dB", "geometry*3", "geometry/4"])
    def test_se_obeys_law(self, reference, law):
        combiner, expected = reference
        transform, amount = law
        se = run_experiment(ExperimentSpec(cfg=transform(self.CFG, amount), combiner=combiner)).se
        for name in SCENARIOS:
            assert np.all(np.abs(se[name] - expected[name]) <= 1e-13 * expected[name]), name


_FAKE = {}   # setup index -> "die" or (exception class, args); "slow" -> (seconds, marker directory)


def _fake_setup(cfg, scenarios, combiner, fronts, setup_idx):
    """Stands in for _run_setup, in forked workers too (module level, so it pickles by name).
    Its row is (setup index, process id, 0, ...)."""
    if "slow" in _FAKE and setup_idx:
        seconds, markers = _FAKE["slow"]
        time.sleep(seconds)
        open(os.path.join(markers, str(setup_idx)), "w").close()
    action = _FAKE.get(setup_idx)
    if action == "die":
        os._exit(3)
    if action:
        cls, args = action
        raise cls(*args)
    row = np.zeros(cfg.K)
    row[:2] = setup_idx, os.getpid()
    return np.tile(row, (len(scenarios), 1))


class TestWorkers:
    @pytest.fixture
    def fake(self, monkeypatch):
        monkeypatch.setattr(cfris.experiment, "_run_setup", _fake_setup)
        # eight usable CPUs, so that threads 3 and 8 stripe as written on a smaller machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        yield _FAKE
        _FAKE.clear()

    @staticmethod
    def run(threads, setups=5):
        return run_experiment(ExperimentSpec(cfg=tiny_cfg(mc_setups=setups), scenarios=("no_ris_small",),
                                             threads=threads)).se["no_ris_small"]

    @staticmethod
    def assert_nothing_left(threads_before):
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_caller_is_worker_zero_and_results_come_in_setup_order(self, fake, threads):
        before = threading.active_count()
        se = self.run(threads)
        self.assert_nothing_left(before)
        assert np.array_equal(se[:, 0], np.arange(5))
        in_caller = np.flatnonzero(se[:, 1] == os.getpid())
        assert np.array_equal(in_caller, np.arange(0, 5, min(threads, 5)))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("affinity", [True, False], ids=["sched_getaffinity", "cpu_count"])
    def test_workers_are_capped_at_the_usable_cpus(self, fake, monkeypatch, affinity, cpus):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        before = threading.active_count()
        se = self.run(8)
        self.assert_nothing_left(before)
        assert np.array_equal(se[:, 0], np.arange(5))
        # one CPU: the caller runs every setup and nothing is forked; two: the caller and one child
        assert len(set(se[:, 1])) == cpus
        assert np.array_equal(np.flatnonzero(se[:, 1] == os.getpid()), np.arange(0, 5, cpus))

    @pytest.mark.parametrize("failing", [
        {1: (ModelError, ("diverged in setup 1",))},
        {0: (ConfigError, ("L", "rejected in setup 0"))},
        {2: (ModelError, ("setup 2",)), 3: (ConfigError, ("K", "setup 3"))},
        {3: (ValueError, ("setup 3",)), 4: (ModelError, ("setup 4",))},
    ], ids=["in_a_child", "in_the_caller", "2_and_3", "3_and_4"])
    @pytest.mark.parametrize("threads", [2, 3])
    def test_failure_is_the_first_failing_setups_as_with_one_worker(self, fake, failing, threads):
        # at threads=2 the caller runs setups 0, 2, 4; at threads=3 setups 0 and 3
        fake.update(failing)
        with pytest.raises(Exception) as serial:
            self.run(1)
        before = threading.active_count()
        with pytest.raises(Exception) as forked:
            self.run(threads)
        self.assert_nothing_left(before)
        assert type(forked.value) is type(serial.value) and str(forked.value) == str(serial.value)
        assert str(serial.value).endswith(f"setup {min(failing)}")

    def test_pending_setups_are_cancelled_when_the_caller_fails(self, fake, tmp_path):
        fake.update({0: (ModelError, ("setup 0",)), "slow": (0.2, str(tmp_path))})
        before = threading.active_count()
        with pytest.raises(ModelError, match="setup 0"):
            self.run(2, setups=10)
        self.assert_nothing_left(before)
        # the child takes setups 1, 3, 5, 7, 9, and at most the three already queued run
        assert not {"7", "9"} & set(os.listdir(tmp_path))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_worker_that_dies_is_an_error_naming_its_setup(self, fake, threads):
        fake[1] = "die"
        before = threading.active_count()
        with pytest.raises(CfrisError, match="setup 1: its worker process died"):
            self.run(threads)
        self.assert_nothing_left(before)

    def test_cli_reports_a_dead_worker_as_an_error(self, fake, tmp_path, capsys):
        fake[1] = "die"
        code = cli_main(["run", "--setups", "3", "--blocks", "2", "--scenario", "no_ris_small",
                         "--out", str(tmp_path / "out"), "--threads", "2"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: setup 1: its worker process died")
        assert "Traceback" not in err


class FixedBlocks:
    """Stands in for EffectiveStats: the estimates are the fixed blocks ghat (blocks, L, m, K). Each rng's draws
    hand them out in order, laid out like EffectiveStats' draws (each block's (K, L, m) contiguous), and the
    estimates are the draws transposed."""

    def __init__(self, ghat, F):
        self._blocks = ghat.transpose(0, 3, 1, 2)
        _, self.K, self.L, self.m = self._blocks.shape
        self.tau_p, self.F, self._drawn = self.K, F, {}

    def sample_pilot_statistics(self, rng, b):
        start = self._drawn.get(rng, 0)
        self._drawn[rng] = start + b
        return self._blocks[start:start + b].copy()

    def effective_estimates(self, w):
        return w.transpose(0, 2, 3, 1)


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
        """Kernel SE on the fixed blocks ghat (blocks, L, m, K), the reference chain's SE on the
        same blocks and the 40-digit P-MMSE SE."""
        fast, reference, _ = _kernel_and_reference(FixedBlocks(ghat, F), assoc, cfg, "pmmse", n_blocks=len(ghat))
        return fast, reference, pmmse_se(cfg, ghat, F, assoc)

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
        fast, reference, exact = self._kernel_against_40_digits(cfg, ghat, F, assoc)
        assert exact.min() > np.log2(1e7)
        assert np.max(np.abs(fast - exact) / exact) <= 1e-9
        # the reference sums the interference over the other UEs, so it does not cancel
        assert np.max(np.abs(reference - exact) / exact) <= 1e-12

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
        fast, reference, exact = self._kernel_against_40_digits(cfg, ghat, F, assoc)
        assert exact.min() > np.log2(1e7)
        assert np.max(np.abs(fast - exact) / exact) <= 1e-9
        assert np.max(np.abs(reference - exact) / exact) <= 1e-9

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
    def test_weak_ue_beside_strong_ones_against_40_digits(self):
        # an example test_matches_reference_on_random_drops reaches once its examples are reseeded
        # (L=1, K=4, M=1, tau_p=4, spread_db=44.0, seed=4, RIS fronts, P-MMSE): on UE 1, SE 7.1e-3,
        # the kernel is 1.4e-10 off the 40-digit SE and the reference chain 1.3e-14
        cfg = SimConfig(L=1, K=4, M=1, N=4, tau_p=4, ris_rows=2, ris_cols=2)
        rng = np.random.default_rng(4)
        beta = 10 ** (rng.uniform(0.0, 44.0 / 10, size=(cfg.K, cfg.L))) * cfg.noise_power_w / cfg.data_power_w
        r, assoc, fronts = _equivalence_drop(rng, cfg, beta)
        stats = EffectiveStats(r, fronts, assoc.pilot_of, cfg)
        fast = cfris.experiment.block_batched_se(stats, assoc, cfg, np.random.default_rng(1234), "pmmse", 3)
        ghat = stats.effective_estimates(stats.sample_pilot_statistics(np.random.default_rng(1234), 3))
        exact = pmmse_se(cfg, ghat, stats.F, assoc)
        assert np.max(np.abs(fast - exact) / exact) <= 1e-12

    @staticmethod
    def _chunk_peak_in_estimates(stats, assoc, cfg):
        """The tracemalloc peak of one kernel call over two chunks of blocks, in units of that call's estimates:
        the two chunks, each drawn once the one before it is freed, together make one unit."""
        blocks = 2 * cfris.experiment._BLOCK_CHUNK
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cfris.experiment.block_batched_se(stats, assoc, cfg, np.random.default_rng(1), n_blocks=blocks)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return peak / (blocks * stats.L * stats.m * stats.K * 16)

    @pytest.mark.parametrize("K", [4, 3])
    def test_one_group_chunk_holds_few_estimate_sized_arrays(self, K):
        # each chunk's draws are drawn into one estimate-sized array, the estimates formed over the draws
        # AP by AP and whitened over the estimates block by block, so one estimate-sized array
        # holds the draws, the estimates and W = C^-1 G in turn; with one chunk alive at a time the
        # array peak stays under one unit of estimates; with K < tau_p W keeps the unused pilot slots
        # between blocks, and its Gram reads it in place
        cfg = SimConfig(L=8, K=K, M=2, N=16, tau_p=4, ris_rows=4, ris_cols=4)
        rng = np.random.default_rng(0)
        beta = 10 ** rng.uniform(0.0, 3.0, size=(cfg.K, cfg.L)) * cfg.noise_power_w / cfg.data_power_w
        r, assoc, _ = _equivalence_drop(rng, cfg, beta)
        assert assoc.serving_matrix.all()   # one UE group
        assert self._chunk_peak_in_estimates(EffectiveStats(r, None, assoc.pilot_of, cfg), assoc, cfg) <= 1.0

    def test_multi_group_chunk_holds_few_estimate_sized_arrays(self):
        # each UE group whitens all K UEs' estimates block by block into one fresh array and reads
        # the partners' S and the non-partners' power off one Gram, with no copy of the estimates'
        # columns, so six groups keep the array peak under 2 units of estimates
        cfg = SimConfig(L=12, K=6, M=2, N=16, tau_p=3, ris_rows=4, ris_cols=4)
        rng = np.random.default_rng(0)
        beta = 10 ** rng.uniform(0.0, 3.0, size=(cfg.K, cfg.L)) * cfg.noise_power_w / cfg.data_power_w
        r, assoc, _ = _equivalence_drop(rng, cfg, beta)
        assert len({tuple(serving) for serving in assoc.serving_sets}) == 6
        assert any(len(assoc.pmmse_partners(k)) < cfg.K for k in range(cfg.K))   # some groups have non-partners
        assert self._chunk_peak_in_estimates(EffectiveStats(r, None, assoc.pilot_of, cfg), assoc, cfg) <= 2.0

    @pytest.mark.parametrize("combiner", COMBINERS)
    def test_se_does_not_depend_on_the_chunk_size(self, monkeypatch, combiner):
        # each chunk's draws continue one block-major stream, so the chunk size bounds memory only: on a
        # K > tau_p drop with six UE groups and 70 blocks (partial last chunks of 7, 16 and 32) any
        # chunking gives the same SE up to the rounding of the estimates' per-AP product, whose blocks
        # are its columns. Given the estimates, each block's SINR is formed on its own and the sum over
        # blocks runs in block order, so the SE bits do not depend on the chunking
        cfg = SimConfig(L=12, K=6, M=2, N=16, tau_p=3, ris_rows=4, ris_cols=4)
        rng = np.random.default_rng(0)
        beta = 10 ** rng.uniform(0.0, 3.0, size=(cfg.K, cfg.L)) * cfg.noise_power_w / cfg.data_power_w
        r, assoc, fronts = _equivalence_drop(rng, cfg, beta)
        stats, n_blocks = EffectiveStats(r, fronts, assoc.pilot_of, cfg), 70
        ghat = stats.effective_estimates(stats.sample_pilot_statistics(np.random.default_rng(5), n_blocks))
        se, fixed = {}, {}
        for chunk in (1, 7, 16, 32, n_blocks):
            monkeypatch.setattr(cfris.experiment, "_BLOCK_CHUNK", chunk)
            se[chunk] = cfris.experiment.block_batched_se(stats, assoc, cfg, np.random.default_rng(5), combiner, n_blocks)
            fixed[chunk] = cfris.experiment.block_batched_se(FixedBlocks(ghat, stats.F), assoc, cfg,
                                                             np.random.default_rng(5), combiner, n_blocks)
        for chunk in se:
            assert np.all(np.abs(se[chunk] - se[32]) <= 1e-15 * se[32]), chunk
            assert np.array_equal(fixed[chunk], fixed[n_blocks]), chunk

    @pytest.mark.parametrize("combiner", ["pmmse", "mmse"])
    def test_lone_group_off_some_ap_matches_reference(self, combiner):
        # AP 2 serves nobody, so the single UE group's serving set is an index array and W goes
        # to a fresh array, not over the estimates; no DCC drop reaches this case
        cfg = SimConfig(L=3, K=3, M=2, N=4, tau_p=3, ris_rows=2, ris_cols=2)
        rng = np.random.default_rng(7)
        beta = rng.uniform(0.5, 2.0, size=(cfg.K, cfg.L)) * cfg.noise_power_w / cfg.data_power_w
        r, _, fronts = _equivalence_drop(rng, cfg, beta)
        serving = np.ones((cfg.L, cfg.K), dtype=bool)
        serving[2] = False
        assoc = Association(np.arange(cfg.K), np.zeros(cfg.K, dtype=int), serving)
        stats = EffectiveStats(r, fronts, assoc.pilot_of, cfg)
        fast, reference, cond = _kernel_and_reference(stats, assoc, cfg, combiner, n_blocks=5)
        assert np.all(np.abs(fast - reference) / reference <= 1e-10 + 10 * np.finfo(float).eps * cond)


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

    def test_rerun_replaces_every_file_of_the_earlier_run(self, tmp_path):
        out = str(tmp_path / "out")
        rng = np.random.default_rng(0)
        emit_report(SeReport(list(SCENARIOS), {n: rng.uniform(size=(2, 3)) for n in SCENARIOS}, tiny_cfg(seed=1)), out)
        (tmp_path / "out" / "notes.txt").write_text("not a report file\n")
        second = SeReport(["no_ris_small"], {"no_ris_small": rng.uniform(size=(2, 3))}, tiny_cfg(seed=2))
        emit_report(second, out)   # the three seed-1 CDFs of the other scenarios go; a foreign file stays
        assert sorted(os.listdir(out)) == ["cdf_no_ris_small.csv", "manifest.txt", "notes.txt", "se_samples.csv"]
        loaded = load_report(out)
        assert loaded.config == second.config and loaded.scenarios == ["no_ris_small"]
        assert np.array_equal(loaded.se["no_ris_small"], second.se["no_ris_small"])

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
        assert load_report(str(tmp_path / "out")).config == cfg

    @pytest.mark.parametrize("edit,problem", [
        (lambda rows: rows[:5] + rows[6:], "scenario no_ris_small: realization 1, ue 1 is missing"),
        (lambda rows: rows + rows[5:6], "scenario no_ris_small: realization 1, ue 1 is repeated"),
        (lambda rows: rows[:5] + [rows[5].replace(",1,1,", ",-1,1,")] + rows[6:],
         "row 6, scenario no_ris_small: realization -1, ue 1 lies off the manifest's 2 x 3 grid"),
        (lambda rows: rows + ["no_ris_small,10000000000000,0,1.5\n"],
         "row 8, scenario no_ris_small: realization 10000000000000, ue 0 lies off the manifest's 2 x 3 grid"),
        # the rows span a smaller grid than the manifest's
        (lambda rows: rows[:4], "scenario no_ris_small: realization 1, ue 0 is missing"),
        (lambda rows: [row for row in rows if ",2," not in row], "scenario no_ris_small: realization 0, ue 2 is missing"),
    ], ids=["row_removed", "row_repeated", "negative_index", "huge_realization", "last_realization_removed",
            "last_ue_removed"])
    def test_samples_must_cover_the_grid_once(self, tmp_path, edit, problem):
        se = {"no_ris_small": np.arange(6.0).reshape(2, 3)}
        emit_report(SeReport(["no_ris_small"], se, tiny_cfg()), str(tmp_path))
        path = tmp_path / "se_samples.csv"
        rows = path.read_text().splitlines(keepends=True)   # header, then realization 0 ue 0..2, 1 0..2
        path.write_text("".join(edit(rows)))
        with pytest.raises(CfrisError, match=problem):
            load_report(str(tmp_path))

    @pytest.mark.parametrize("text", ["", "scenario,realization,ue,se\n"], ids=["empty", "header_only"])
    def test_samples_file_without_rows_is_an_error(self, tmp_path, text):
        emit_report(SeReport(["no_ris_small"], {"no_ris_small": np.arange(6.0).reshape(2, 3)}, tiny_cfg()),
                    str(tmp_path))
        (tmp_path / "se_samples.csv").write_text(text)
        with pytest.raises(CfrisError, match="se_samples.csv: no samples"):
            load_report(str(tmp_path))

    def test_huge_manifest_grid_names_its_first_missing_cell(self, tmp_path):
        emit_report(SeReport(["no_ris_small"], {"no_ris_small": np.arange(6.0).reshape(2, 3)},
                             tiny_cfg(mc_setups=10**13)), str(tmp_path))
        # a grid of 1e13 x 3 cells: the walk stops at the first missing one, so no cell is counted beyond it
        with pytest.raises(CfrisError, match="scenario no_ris_small: realization 2, ue 0 is missing"):
            load_report(str(tmp_path))

    def test_invalid_manifest_named(self, tmp_path):
        emit_report(SeReport(["no_ris_small"], {"no_ris_small": np.arange(6.0).reshape(2, 3)}, tiny_cfg()),
                    str(tmp_path))
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text().replace("K = 3\n", "K = 0\n"))
        with pytest.raises(ConfigError) as err:
            load_report(str(tmp_path))
        assert err.value.field == "K"

    @pytest.mark.parametrize("edit,problem", [
        (lambda rows: rows[:2] + [rows[2].replace(",0,1,", ",x,1,")] + rows[3:], "row 3, scenario no_ris_small"),
        (lambda rows: [rows[0].replace(",se", "")] + [row.rsplit(",", 1)[0] + "\n" for row in rows[1:]],
         "row 2, scenario no_ris_small"),
        (lambda rows: rows[:4] + [rows[4].rsplit(",", 1)[0] + "\n"] + rows[5:], "row 5, scenario no_ris_small"),
        *[(lambda rows, se=se: rows[:3] + [rows[3].rsplit(",", 1)[0] + f",{se}\n"] + rows[4:],
           "row 4, scenario no_ris_small") for se in ("nan", "inf", "-1.0")],
        (lambda rows: rows[:2] + [rows[2].replace("no_ris_small", "ris_perfect")] + rows[3:],
         "row 3, scenario ris_perfect"),
    ], ids=["non_integer_realization", "column_missing", "field_missing", "se_nan", "se_inf", "se_negative",
            "unknown_scenario"])
    def test_malformed_row_named(self, tmp_path, edit, problem):
        se = {"no_ris_small": np.arange(6.0).reshape(2, 3)}
        emit_report(SeReport(["no_ris_small"], se, tiny_cfg()), str(tmp_path))
        path = tmp_path / "se_samples.csv"
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
        with pytest.raises(CfrisError, match=f"se_samples.csv: {problem}: malformed sample"):
            load_report(str(tmp_path))


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
        assert report.config.seed == 5

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

    def test_validate_prints_the_manifest_lines(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:   # a float, an int and the string field off their defaults
            handle.write("area_side_m = 123.25\nseed = 77\narray_geometry = planar\n")
        cfg = load_config(path)
        assert (cfg.area_side_m, cfg.seed, cfg.array_geometry) == (123.25, 77, "planar")
        emit_report(SeReport(["no_ris_small"], {"no_ris_small": np.ones((2, 3))}, cfg), str(tmp_path / "out"))
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert cli_main(["validate", "--config", path]) == 0
        indented = "".join(f"  {line}\n" for line in manifest.splitlines())
        assert capsys.readouterr().out == "configuration ok\n" + indented

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("tau_p = 0\n")
        code = cli_main(["validate", "--config", str(path)])
        assert code == 2
        assert "tau_p" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("carrier_frequency_hz", "1e-300"),   # the wavelength overflows
                                             ("element_spacing", "5e-324")])       # the lattice pitch underflows
    def test_run_with_unrepresentable_geometry_exits_with_status_2(self, tmp_path, capsys, field, value):
        path = tmp_path / "geometry.cfg"
        path.write_text(f"{field} = {value}\n")
        code = cli_main(["run", "--config", str(path), "--setups", "1", "--blocks", "1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {field}")
        assert "Traceback" not in err

    def test_run_with_singular_drop_exits_with_status_2(self, tmp_path, capsys):
        # no angular spread leaves the correlation matrices singular, and 1e-303 W of noise does not lift them
        path = tmp_path / "singular.cfg"
        path.write_text("L = 3\nK = 4\nM = 2\nN = 4\nris_rows = 2\nris_cols = 2\ntau_p = 2\n"
                        "angular_spread_deg = 0\nnoise_power_dbm = -3000\n")
        code = cli_main(["run", "--config", str(path), "--setups", "1", "--blocks", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: setup 0, scenario")
        assert "Traceback" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_main(["validate", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2

    def test_oracle_command(self, capsys):
        code = cli_main(["oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == len(ALL_CHECKS)

    def test_python_m_cfris_runs_the_cli(self, tmp_path):
        ok = fresh_interpreter("-m", "cfris", "validate")
        assert ok.returncode == 0, ok.stderr[-3000:]
        assert "configuration ok" in ok.stdout
        path = tmp_path / "unknown.cfg"
        path.write_text("warp_factor = 9\n")
        bad = fresh_interpreter("-m", "cfris", "validate", "--config", str(path))
        assert bad.returncode == 2
        assert bad.stderr.startswith("error: ") and "warp_factor" in bad.stderr

    def test_import_loads_no_worker_machinery(self):
        # run_experiment imports the process pool when it forks, so set-up does not pay for it;
        # numpy itself loads ctypes
        assert fresh_interpreter_output(
            "import sys, numpy; before = set(sys.modules); import cfris, cfris.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', 'ctypes') "
            "if m in set(sys.modules) - before))") == "[]"

    def test_import_loads_no_reference_path(self):
        # the per-UE receiver and the oracles are the reference the fast path is checked against;
        # a run and its CLI never read them
        assert fresh_interpreter_output(
            "import sys, cfris, cfris.cli; "
            "print(sorted(m for m in ('cfris.receiver', 'cfris.oracles') if m in sys.modules))") == "[]"

    def test_runtime_imports_no_scipy(self):
        # scipy is a test dependency only: the package, its CLI and the oracles run without it
        assert fresh_interpreter_output(
            "import sys, cfris, cfris.cli, cfris.oracles; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") == "[]"

    def test_package_exports_only_the_run_and_report_api(self):
        # every other name has one import path, its module
        public = {name for name in dir(cfris) if not name.startswith("_")
                  and not isinstance(getattr(cfris, name), types.ModuleType)}
        assert public == {"SimConfig", "load_config", "CfrisError", "ConfigError", "ModelError",
                          "SCENARIOS", "ExperimentSpec", "SeReport", "run_experiment", "emit_report", "load_report"}
        with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as f:
            quick_start = f.read().split("## Quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        imports = [line for line in quick_start.splitlines() if line.startswith("from cfris import")]
        assert len(imports) == 1
        exec(imports[0], {})


def fresh_interpreter(*args):
    """The completed process of a new interpreter, given args, that imports this checkout's src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def fresh_interpreter_output(code):
    """Stripped stdout of code run in a new interpreter that imports this checkout's src."""
    proc = fresh_interpreter("-c", code)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout.strip()


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
