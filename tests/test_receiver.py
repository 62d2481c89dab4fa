import numpy as np
import pytest
import scipy.linalg

from cfris.association import Association
from cfris.config import SimConfig
from cfris.oracles import _random_receiver_instance as random_instance
from cfris.receiver import (
    instantaneous_sinr,
    mmse_combiner,
    pmmse_combiner,
    spectral_efficiency,
)


def small_cfg(**kw):
    base = dict(L=2, K=3, M=2, N=2, tau_p=3, ris_rows=1, ris_cols=2)
    base.update(kw)
    return SimConfig(**base)


SERVING = [[True, True, False], [True, False, True]]


class TestSinrForms:
    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        cfg = small_cfg()
        ghat, F, assoc = random_instance(rng, cfg, SERVING)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        base = instantaneous_sinr(0, v, ghat, F, assoc, cfg)
        scaled = instantaneous_sinr(0, (2.5 - 1j) * v, ghat, F, assoc, cfg)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_scalar_analytic(self):
        # one AP, one antenna, one UE: everything is a scalar
        cfg = small_cfg(L=1, K=1, M=1, tau_p=1)
        ghat = np.array([[[0.3 + 0.4j]]])
        F = np.array([[[[0.05]]]], dtype=complex)
        assoc = Association(np.arange(1), np.zeros(1, dtype=int), np.ones((1, 1), dtype=bool))
        v = np.array([1.0 - 2.0j])
        eta, s2 = cfg.data_power_w, cfg.noise_power_w
        expected = (
            eta * np.abs(np.conj(v[0]) * ghat[0, 0, 0]) ** 2
            / (eta * 0.05 * np.abs(v[0]) ** 2 + s2 * np.abs(v[0]) ** 2)
        )
        assert instantaneous_sinr(0, v, ghat, F, assoc, cfg) == pytest.approx(expected, rel=1e-12)

    def test_combiner_length_checked(self):
        rng = np.random.default_rng(2)
        cfg = small_cfg()
        ghat, F, assoc = random_instance(rng, cfg, SERVING)
        with pytest.raises(ValueError):   # numpy's reshape to (L, m)
            instantaneous_sinr(0, np.ones(5, dtype=complex), ghat, F, assoc, cfg)


class TestMmseCombiner:
    def test_zero_outside_serving_blocks(self):
        rng = np.random.default_rng(3)
        cfg = small_cfg()
        ghat, F, assoc = random_instance(rng, cfg, SERVING)
        v = mmse_combiner(2, ghat, F, assoc, cfg).reshape(2, 2)
        assert np.array_equal(v[0], np.zeros(2))  # AP 0 does not serve UE 2
        assert np.any(v[1] != 0)

    def test_achieves_generalized_eigenvalue_bound(self):
        # independent oracle: the best achievable SINR on the serving
        # subspace is the largest generalized eigenvalue of (signal, rest)
        rng = np.random.default_rng(4)
        cfg = small_cfg()
        ghat, F, assoc = random_instance(rng, cfg, SERVING)
        eta, s2 = cfg.data_power_w, cfg.noise_power_w
        for k in range(3):
            idx = assoc.serving_sets[k]
            m = 2
            d = len(idx) * m
            g = ghat[:, idx].reshape(3, d)
            signal = eta * np.outer(g[k], g[k].conj())
            rest = s2 * np.eye(d, dtype=complex)
            for i in range(3):
                if i != k:
                    rest += eta * np.outer(g[i], g[i].conj())
                for j, l in enumerate(idx):
                    rest[j * m:(j + 1) * m, j * m:(j + 1) * m] += eta * F[i, l]
            bound = scipy.linalg.eigh(signal, rest, eigvals_only=True)[-1]
            v = mmse_combiner(k, ghat, F, assoc, cfg)
            achieved = instantaneous_sinr(k, v, ghat, F, assoc, cfg)
            assert achieved == pytest.approx(bound, rel=1e-8)

    def test_beats_random_combiners(self):
        rng = np.random.default_rng(5)
        cfg = small_cfg()
        ghat, F, assoc = random_instance(rng, cfg, SERVING)
        k = 1
        v = mmse_combiner(k, ghat, F, assoc, cfg)
        best = instantaneous_sinr(k, v, ghat, F, assoc, cfg)
        idx = assoc.serving_sets[k]
        for _ in range(100):
            cand = np.zeros((2, 2), dtype=complex)
            cand[idx] = rng.standard_normal((len(idx), 2)) + 1j * rng.standard_normal((len(idx), 2))
            sinr = instantaneous_sinr(k, cand.reshape(-1), ghat, F, assoc, cfg)
            assert sinr <= best * (1 + 1e-9)


class TestPmmseCombiner:
    def test_equals_mmse_with_full_overlap(self):
        rng = np.random.default_rng(6)
        cfg = small_cfg()
        ghat, F, assoc = random_instance(rng, cfg, np.ones((2, 3), dtype=bool))
        for k in range(3):
            vm = mmse_combiner(k, ghat, F, assoc, cfg)
            vp = pmmse_combiner(k, ghat, F, assoc, cfg)
            assert np.allclose(vm, vp, rtol=1e-10)

    def test_never_exceeds_mmse_sinr(self):
        rng = np.random.default_rng(7)
        cfg = SimConfig(L=5, K=6, M=2, N=2, tau_p=6, ris_rows=1, ris_cols=2)
        for trial in range(10):
            serving = rng.uniform(size=(5, 6)) < 0.4
            serving[np.argmax(rng.uniform(size=(5, 6)), axis=0), np.arange(6)] = True
            ghat, F, assoc = random_instance(rng, cfg, serving)
            for k in range(6):
                vm = mmse_combiner(k, ghat, F, assoc, cfg)
                vp = pmmse_combiner(k, ghat, F, assoc, cfg)
                sm = instantaneous_sinr(k, vm, ghat, F, assoc, cfg)
                sp = instantaneous_sinr(k, vp, ghat, F, assoc, cfg)
                assert sp <= sm * (1 + 1e-9)

    def test_partner_restriction_used(self):
        # with disjoint clusters the partial combiner ignores the other UE
        rng = np.random.default_rng(8)
        cfg = small_cfg(K=2, tau_p=2)
        serving = np.array([[True, False], [False, True]])
        ghat, F, assoc = random_instance(rng, cfg, serving)
        assert assoc.pmmse_partners(0) == [0]
        v = pmmse_combiner(0, ghat, F, assoc, cfg)
        # reference: solve built only from UE 0 statistics on AP 0
        eta, s2 = cfg.data_power_w, cfg.noise_power_w
        mat = s2 * np.eye(2, dtype=complex) + eta * (
            np.outer(ghat[0, 0], ghat[0, 0].conj()) + F[0, 0]
        )
        expected = eta * np.linalg.solve(mat, ghat[0, 0])
        assert np.allclose(v[:2], expected)
        assert np.array_equal(v[2:], np.zeros(2))


class TestSpectralEfficiency:
    def test_prefactor_and_mean(self):
        cfg = small_cfg(tau_c=200, tau_p=10)
        samples = [1.0, 3.0]
        expected = 0.95 * np.mean([np.log2(2.0), np.log2(4.0)])
        assert spectral_efficiency(samples, cfg) == pytest.approx(expected, rel=1e-12)

    def test_zero_sinr(self):
        cfg = small_cfg()
        assert spectral_efficiency([0.0], cfg) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectral_efficiency([], small_cfg())
