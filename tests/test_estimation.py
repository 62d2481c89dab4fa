import numpy as np
import pytest

from cfris.config import SimConfig
from cfris.estimation import (
    EffectiveStats,
    effective_covariance,
    effective_front,
    error_covariance,
    mmse_estimate,
    pilot_gram,
)
from cfris.exceptions import DimensionError
from cfris.linalg import sample_complex_gaussian
from exact_values import error_covariance_distance


def small_cfg(**kw):
    base = dict(L=2, K=3, M=2, N=4, tau_p=2, ris_rows=2, ris_cols=2)
    base.update(kw)
    return SimConfig(**base)


def random_psd(rng, n, scale=1.0):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (x @ x.conj().T) / n


class TestEffectiveFront:
    def test_matches_diagonal_product(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        psi = np.array([1j, -1.0])
        assert np.array_equal(effective_front(h, psi), h @ np.diag(psi))

    def test_identity_phases(self):
        h = np.arange(6, dtype=complex).reshape(2, 3)
        assert np.array_equal(effective_front(h, np.ones(3)), h)


class TestEffectiveCovariance:
    def test_none_front_passthrough(self):
        r = np.diag([1.0, 2.0])
        assert np.array_equal(effective_covariance(r, None), r)

    def test_sandwich(self):
        rng = np.random.default_rng(0)
        r = random_psd(rng, 4)
        e = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        assert np.allclose(effective_covariance(r, e), e @ r @ e.conj().T)

    def test_unit_modulus_phases_preserve_trace_with_unitary_front(self):
        # a unitary front relabels the space without changing total power
        rng = np.random.default_rng(1)
        r = random_psd(rng, 3)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        q = effective_covariance(r, u)
        assert np.trace(q).real == pytest.approx(np.trace(r).real, rel=1e-12)


class TestPilotGram:
    def test_identity_inputs(self):
        cfg = small_cfg()
        g = pilot_gram([np.eye(2), np.eye(2)], cfg)
        expected = 2 * cfg.tau_p * cfg.pilot_power_w + cfg.noise_power_w
        assert np.allclose(g, expected * np.eye(2))

    def test_hermitian_pd(self):
        rng = np.random.default_rng(2)
        cfg = small_cfg()
        g = pilot_gram([random_psd(rng, 3), random_psd(rng, 3)], cfg)
        assert np.allclose(g, g.conj().T)
        assert np.min(np.linalg.eigvalsh(g)) >= cfg.noise_power_w * (1 - 1e-12)


class TestMmseEstimate:
    def test_scalar_case_analytic(self):
        # one antenna, no front: everything reduces to scalars
        cfg = small_cfg()
        tpp = cfg.tau_p * cfg.pilot_power_w
        r = np.array([[3.0e-13]])
        gram = pilot_gram([r], cfg)
        z = np.array([2.0 - 1.0j]) * 1e-7
        expected = np.sqrt(tpp) * 3.0e-13 * z[0] / (tpp * 3.0e-13 + cfg.noise_power_w)
        got = mmse_estimate(z, r, None, gram, cfg)
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_statistic_gives_zero(self):
        rng = np.random.default_rng(3)
        cfg = small_cfg()
        r = random_psd(rng, 4)
        front = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        gram = pilot_gram([effective_covariance(r, front)], cfg)
        assert np.array_equal(mmse_estimate(np.zeros(2, dtype=complex), r, front, gram, cfg), np.zeros(4))

    def test_dimension_mismatch(self):
        cfg = small_cfg()
        with pytest.raises(DimensionError):
            mmse_estimate(np.zeros(3, dtype=complex), np.eye(2), None, np.eye(2), cfg)

    def test_pilot_matrix_correlation_equivalence(self):
        # independent oracle: simulate the full m x tau_p pilot receive
        # matrix with orthogonal DFT pilots and correlate; the normalized
        # correlator output must equal the direct sufficient statistic
        rng = np.random.default_rng(4)
        cfg = small_cfg(tau_p=4)
        m, n = 2, 4
        tau_p = cfg.tau_p
        front = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        phi = np.exp(
            -2j * np.pi * np.outer(np.arange(tau_p), np.arange(tau_p)) / tau_p
        )  # columns: orthogonal pilots with norm^2 = tau_p
        pilot_of = np.array([0, 1, 0])
        h = [sample_complex_gaussian(random_psd(rng, n), rng) for _ in range(3)]
        noise = np.sqrt(cfg.noise_power_w / 2.0) * (
            rng.standard_normal((m, tau_p)) + 1j * rng.standard_normal((m, tau_p))
        )
        y = np.sqrt(cfg.pilot_power_w) * sum(
            np.outer(front @ h[i], phi[:, pilot_of[i]].conj()) for i in range(3)
        ) + noise
        for t in (0, 1):
            z_corr = y @ phi[:, t] / np.sqrt(tau_p)
            copilots = [h[i] for i in range(3) if pilot_of[i] == t]
            expected = np.sqrt(tau_p * cfg.pilot_power_w) * front @ np.sum(copilots, axis=0)
            expected += noise @ phi[:, t] / np.sqrt(tau_p)
            assert np.allclose(z_corr, expected, rtol=1e-10)

    def test_mmse_optimality_and_mse_value(self):
        # Monte Carlo: no linear competitor beats the MMSE map, and the
        # realized MSE matches trace(C)
        rng = np.random.default_rng(5)
        cfg = small_cfg(tau_p=1)
        n, m = 3, 2
        scale = cfg.noise_power_w
        r_k = random_psd(rng, n, scale)
        r_i = random_psd(rng, n, scale)
        front = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        gram = pilot_gram(
            [effective_covariance(r_k, front), effective_covariance(r_i, front)], cfg
        )
        c = error_covariance(r_k, front, gram, cfg)

        draws = 100_000
        h_k = sample_complex_gaussian(r_k, rng, size=draws)
        h_i = sample_complex_gaussian(r_i, rng, size=draws)
        noise = np.sqrt(cfg.noise_power_w / 2.0) * (
            rng.standard_normal((draws, m)) + 1j * rng.standard_normal((draws, m))
        )
        z = np.sqrt(cfg.tau_p * cfg.pilot_power_w) * (h_k + h_i) @ front.T + noise

        t_mmse = (
            np.sqrt(cfg.tau_p * cfg.pilot_power_w)
            * r_k @ front.conj().T @ np.linalg.inv(gram)
        )
        mse_mmse = np.mean(np.abs(h_k - z @ t_mmse.T) ** 2, axis=0).sum()
        assert mse_mmse == pytest.approx(np.trace(c).real, rel=0.02)
        for _ in range(50):
            t_rand = t_mmse + 0.3 * np.linalg.norm(t_mmse) / np.sqrt(n * m) * (
                rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            )
            mse = np.mean(np.abs(h_k - z @ t_rand.T) ** 2, axis=0).sum()
            assert mse >= mse_mmse * (1 - 1e-9)

    def test_orthogonality_of_error_and_statistic(self):
        # estimation error is uncorrelated with the observation
        rng = np.random.default_rng(6)
        cfg = small_cfg(tau_p=1)
        n, m = 3, 2
        scale = cfg.noise_power_w
        r_k = random_psd(rng, n, scale)
        front = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        gram = pilot_gram([effective_covariance(r_k, front)], cfg)
        draws = 200_000
        h_k = sample_complex_gaussian(r_k, rng, size=draws)
        noise = np.sqrt(cfg.noise_power_w / 2.0) * (
            rng.standard_normal((draws, m)) + 1j * rng.standard_normal((draws, m))
        )
        z = np.sqrt(cfg.tau_p * cfg.pilot_power_w) * h_k @ front.T + noise
        t = np.sqrt(cfg.tau_p * cfg.pilot_power_w) * r_k @ front.conj().T @ np.linalg.inv(gram)
        err = h_k - z @ t.T
        cross = err.T @ z.conj() / draws
        ref = np.sqrt(np.linalg.norm(r_k) * np.linalg.norm(gram))
        assert np.linalg.norm(cross) <= 0.03 * ref


class TestErrorCovariance:
    def test_psd_and_dominated_by_prior(self):
        rng = np.random.default_rng(9)
        cfg = small_cfg()
        r = random_psd(rng, 4, cfg.noise_power_w)
        front = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        gram = pilot_gram([effective_covariance(r, front)], cfg)
        c = error_covariance(r, front, gram, cfg)
        assert np.allclose(c, c.conj().T)
        scale = np.linalg.norm(r)
        assert np.min(np.linalg.eigvalsh(c)) >= -1e-10 * scale
        assert np.min(np.linalg.eigvalsh(r - c)) >= -1e-10 * scale

    def test_vanishing_noise_perfect_estimation(self):
        # invertible front, huge pilot power: the error goes to zero
        rng = np.random.default_rng(10)
        cfg = small_cfg(N=2, M=2, ris_rows=1, ris_cols=2, pilot_power_mw=1e12)
        r = random_psd(rng, 2, cfg.noise_power_w)
        front = np.eye(2)
        gram = pilot_gram([effective_covariance(r, front)], cfg)
        c = error_covariance(r, front, gram, cfg)
        assert np.linalg.norm(c) <= 1e-9 * np.linalg.norm(r)


class TestEffectiveStats:
    def build(self, fronts=True):
        rng = np.random.default_rng(11)
        cfg = small_cfg()
        scale = cfg.noise_power_w
        R = np.stack(
            [np.stack([random_psd(rng, 4, scale) for _ in range(2)]) for _ in range(3)]
        )
        f = (
            rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
            if fronts
            else None
        )
        pilot_of = np.array([0, 1, 0])
        return EffectiveStats(R, f, pilot_of, cfg), R, f, pilot_of, cfg

    def test_q_matches_scalar_route(self):
        stats, R, f, _, _ = self.build()
        for k in range(3):
            for l in range(2):
                assert np.allclose(stats.Q[k, l], effective_covariance(R[k, l], f[l]))

    def test_gram_matches_scalar_route(self):
        stats, R, f, pilot_of, cfg = self.build()
        for t in range(2):
            users = np.where(pilot_of == t)[0]
            for l in range(2):
                expected = pilot_gram([effective_covariance(R[i, l], f[l]) for i in users], cfg)
                assert np.allclose(stats.G[t, l], expected)

    def test_estimator_map_matches_mmse_estimate(self):
        stats, R, f, pilot_of, cfg = self.build()
        rng = np.random.default_rng(12)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for k in range(3):
            for l in range(2):
                gram = stats.G[pilot_of[k], l]
                z = np.linalg.cholesky(gram) @ w
                effective = stats.T[k, l] @ w
                reference = f[l] @ mmse_estimate(z, R[k, l], f[l], gram, cfg)
                assert np.allclose(effective, reference, rtol=1e-9)

    def test_f_matches_error_covariance(self):
        stats, R, f, pilot_of, cfg = self.build()
        for k in range(3):
            for l in range(2):
                c = error_covariance(R[k, l], f[l], stats.G[pilot_of[k], l], cfg)
                assert np.allclose(stats.F[k, l], f[l] @ c @ f[l].conj().T, rtol=1e-8)

    def test_f_against_40_digits_at_high_pilot_snr(self):
        # UEs 0 and 1 share pilot 0; at pilot SNRs of 1e8 and 1e7 the direct
        # form Q - tpp Q G^-1 Q cancels to well above 1e-12 of F
        cfg = SimConfig(L=1, K=3, M=3, N=3, tau_p=2, ris_rows=1, ris_cols=3)
        tpp = cfg.tau_p * cfg.pilot_power_w
        rng = np.random.default_rng(0)
        R = np.stack(
            [random_psd(rng, 3, cfg.noise_power_w * snr / tpp) for snr in (1e8, 1e2, 1e7)]
        )[:, None]
        front = (rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3))) / np.sqrt(2.0)
        pilot_of = np.array([0, 0, 1])
        stats = EffectiveStats(R, front, pilot_of, cfg)
        for k in range(3):
            distance = error_covariance_distance(stats.F[k, 0], stats.Q[:, 0], pilot_of, k, cfg.noise_power_w, tpp)
            assert distance <= 1e-12

    def test_no_front_dimensions(self):
        stats, R, _, _, _ = self.build(fronts=False)
        assert stats.m == 4
        assert np.allclose(stats.Q, R)

    def test_estimate_moments(self):
        # E[ghat_k ghat_i^H] = tpp Q_k G^-1 Q_i for co-pilot UEs k, i and 0 otherwise
        stats, _, _, pilot_of, cfg = self.build()
        tpp = cfg.tau_p * cfg.pilot_power_w
        w = stats.sample_pilot_statistics(np.random.default_rng(13), 100_000)
        assert w.shape == (100_000, 2, 2, 2)
        ghat = stats.effective_estimates(w)
        for l in range(2):
            for k in range(3):
                for i in range(3):
                    cov = ghat[:, l, :, k].T @ ghat[:, l, :, i].conj() / w.shape[0]
                    expected = np.zeros((2, 2), dtype=complex)
                    if pilot_of[k] == pilot_of[i]:
                        gram = stats.G[pilot_of[k], l]
                        expected = tpp * stats.Q[k, l] @ np.linalg.solve(gram, stats.Q[i, l])
                        t_t = stats.T[k, l] @ stats.T[i, l].conj().T
                        assert np.linalg.norm(t_t - expected) <= 1e-10 * np.linalg.norm(expected)
                    scale = np.sqrt(
                        np.linalg.norm(stats.Q[k, l] - stats.F[k, l]) * np.linalg.norm(stats.Q[i, l] - stats.F[i, l])
                    )
                    assert np.linalg.norm(cov - expected) <= 0.03 * scale

    def test_estimates_shape_and_map(self):
        # every (block, AP, UE) entry of the batched gemm against the per-UE map, with and
        # without fronts, on a drop where UEs 0 and 2 share pilot 0
        for fronts in (True, False):
            stats, *_ = self.build(fronts)
            w = stats.sample_pilot_statistics(np.random.default_rng(14), 3)
            ghat = stats.effective_estimates(w)
            assert ghat.shape == (3, 2, stats.m, 3)
            for b in range(3):
                for l in range(2):
                    for k in range(3):
                        expected = stats.T[k, l] @ w[b, stats.pilot_of[k], l]
                        assert np.linalg.norm(ghat[b, l, :, k] - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_sampling_stream(self):
        # real parts are the first standard_normal draw of the full shape, imaginary
        # parts the second: a layout change must not reorder the SE stream
        stats, *_ = self.build()
        w = stats.sample_pilot_statistics(np.random.default_rng(16), 5)
        rng = np.random.default_rng(16)
        first, second = rng.standard_normal(w.shape), rng.standard_normal(w.shape)
        for part, draw in ((w.real, first), (w.imag, second)):
            expected = np.sqrt(0.5) * draw
            assert np.all(np.abs(part - expected) <= np.spacing(np.abs(expected)))

    def test_sampling_deterministic(self):
        stats, *_ = self.build()
        a = stats.sample_pilot_statistics(np.random.default_rng(15), 4)
        b = stats.sample_pilot_statistics(np.random.default_rng(15), 4)
        assert np.array_equal(a, b)
