import tracemalloc

import numpy as np
import pytest

from cfris import estimation
from cfris.association import assign_pilots_and_clusters
from cfris.config import SimConfig
from cfris.estimation import (
    EffectiveStats,
    effective_covariance,
    effective_front,
    error_covariance,
    mmse_estimator,
)
from cfris.experiment import _TAG_NETWORK, _rng, front_channels
from cfris.linalg import sample_complex_gaussian
from cfris.network import generate_realization, ris_grid_positions, spatial_correlation_matrices
from cfris.oracles import _copilot_reference as copilot_reference
from cfris.oracles import _estimate_cross_covariance as estimate_cross_covariance
from cfris.oracles import _random_psd as random_psd
from cfris.oracles import estimate_moment_error
from exact_values import error_covariance_distance


def small_cfg(**kw):
    base = dict(L=2, K=3, M=2, N=4, tau_p=2, ris_rows=2, ris_cols=2)
    base.update(kw)
    return SimConfig(**base)


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

    def test_stack_is_the_per_pair_products(self):
        # a (K, L, n, n) stack with (L, m, n) fronts, and one AP's (K, n, n) matrices with its front, as
        # the bank passes them (a strided view of a hand-built R), give each pair's E_l R_kl E_l^H bit for bit
        rng = np.random.default_rng(2)
        r = np.stack([np.stack([random_psd(rng, 4) for _ in range(2)]) for _ in range(3)])
        e = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        q = effective_covariance(r, e)
        assert q.shape == (3, 2, 3, 3)
        for l in range(2):
            assert np.array_equal(effective_covariance(r[:, l], e[l]), q[:, l])
        for k, l in np.ndindex(3, 2):
            assert np.array_equal(q[k, l], effective_covariance(r[k, l], e[l]))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here")
    def test_lattice_drop_against_extended_precision(self):
        # all-LOS lattice drop on random phases, per AP as the bank forms it: each Q_kl within 1e-15 of
        # max |Q_kl| of (E R) E^H in long double
        cfg = SimConfig(L=12, K=8, tau_p=3, shadowing_std_db=0.0, rician_los_fraction=1.0)
        R = spatial_correlation_matrices(generate_realization(cfg, _rng(cfg.seed, _TAG_NETWORK, 0)), cfg,
                                         ris_grid_positions(cfg))
        phases = np.exp(2j * np.pi * np.random.default_rng(1).uniform(size=(cfg.L, cfg.N)))
        fronts = effective_front(front_channels(cfg), phases)
        wide = fronts.astype(np.clongdouble)
        exact = (wide @ R[:, :].astype(np.clongdouble)) @ wide.conj().swapaxes(-1, -2)
        for l in range(cfg.L):
            q = effective_covariance(R[:, l], fronts[l])
            error = np.abs(q - exact[:, l]).max(axis=(-1, -2))
            assert (error <= 1e-15 * np.abs(exact[:, l]).max(axis=(-1, -2))).all()


class TestMmseEstimate:
    def test_scalar_case_analytic(self):
        # one antenna, no front: everything reduces to scalars
        cfg = small_cfg()
        tpp = cfg.tau_p * cfg.pilot_power_w
        r = np.array([[3.0e-13]])
        z = np.array([2.0 - 1.0j]) * 1e-7
        expected = np.sqrt(tpp) * 3.0e-13 * z[0] / (tpp * 3.0e-13 + cfg.noise_power_w)
        got = mmse_estimator(r, None, [], cfg) @ z
        assert got[0] == pytest.approx(expected, rel=1e-12)

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
        others = [effective_covariance(r_i, front)]
        c = error_covariance(r_k, front, others, cfg)

        draws = 100_000
        h_k = sample_complex_gaussian(r_k, rng, size=draws)
        h_i = sample_complex_gaussian(r_i, rng, size=draws)
        noise = np.sqrt(cfg.noise_power_w / 2.0) * (
            rng.standard_normal((draws, m)) + 1j * rng.standard_normal((draws, m))
        )
        z = np.sqrt(cfg.tau_p * cfg.pilot_power_w) * (h_k + h_i) @ front.T + noise

        t_mmse = mmse_estimator(r_k, front, others, cfg)
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
        draws = 200_000
        h_k = sample_complex_gaussian(r_k, rng, size=draws)
        noise = np.sqrt(cfg.noise_power_w / 2.0) * (
            rng.standard_normal((draws, m)) + 1j * rng.standard_normal((draws, m))
        )
        z = np.sqrt(cfg.tau_p * cfg.pilot_power_w) * h_k @ front.T + noise
        t = mmse_estimator(r_k, front, [], cfg)
        err = h_k - z @ t.T
        cross = err.T @ z.conj() / draws
        cov_z = cfg.tau_p * cfg.pilot_power_w * effective_covariance(r_k, front) + cfg.noise_power_w * np.eye(m)
        ref = np.sqrt(np.linalg.norm(r_k) * np.linalg.norm(cov_z))
        assert np.linalg.norm(cross) <= 0.03 * ref


class TestErrorCovariance:
    def test_psd_and_dominated_by_prior(self):
        rng = np.random.default_rng(9)
        cfg = small_cfg()
        r = random_psd(rng, 4, cfg.noise_power_w)
        front = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        c = error_covariance(r, front, [], cfg)
        assert np.array_equal(c, c.conj().T)
        scale = np.linalg.norm(r)
        assert np.min(np.linalg.eigvalsh(c)) >= -1e-10 * scale
        assert np.min(np.linalg.eigvalsh(r - c)) >= -1e-10 * scale

    def test_vanishing_noise_perfect_estimation(self):
        # invertible front, huge pilot power: the error goes to zero
        rng = np.random.default_rng(10)
        cfg = small_cfg(N=2, M=2, ris_rows=1, ris_cols=2, pilot_power_mw=1e12)
        r = random_psd(rng, 2, cfg.noise_power_w)
        front = np.eye(2)
        c = error_covariance(r, front, [], cfg)
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

    def build_grid(self):
        # no front on a 4 x 4 grid (m = 16, above linalg.TRIL_LEAF) and K < tau_p: the bank
        # inverts its factors recursively, has no co-pilot UEs and takes the pilots as a slice
        rng = np.random.default_rng(17)
        cfg = small_cfg(N=16, ris_rows=4, ris_cols=4, tau_p=4)
        R = np.stack([np.stack([random_psd(rng, 16, cfg.noise_power_w) for _ in range(2)]) for _ in range(3)])
        pilot_of = np.arange(3)
        return EffectiveStats(R, None, pilot_of, cfg), R, None, pilot_of, cfg

    def banks(self):
        """With and without fronts on pilots [0, 1, 0], and the 4 x 4 grid bank."""
        return [self.build(True), self.build(False), self.build_grid()]

    def test_estimator_map_matches_mmse_estimate(self):
        # T_kl T_il^H is the reference estimates' cross-covariance for every co-pilot pair: the
        # white draws through T give the MMSE estimates' joint distribution
        for stats, R, f, pilot_of, cfg in self.banks():
            for k, i, l in np.ndindex(3, 3, 2):
                if pilot_of[k] == pilot_of[i]:
                    expected = estimate_cross_covariance(R, f, pilot_of, cfg, k, i, l)
                    got = stats.T[k, l] @ stats.T[i, l].conj().T
                    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_f_matches_error_covariance(self):
        for stats, R, f, pilot_of, cfg in self.banks():
            for k, l in np.ndindex(3, 2):
                c = copilot_reference(error_covariance, R, f, pilot_of, cfg, k, l)
                expected = effective_covariance(c, None if f is None else f[l])
                assert np.allclose(stats.F[k, l], expected, rtol=1e-12, atol=0)

    def test_f_against_40_digits_at_high_pilot_snr(self):
        # UEs 0 and 1 share pilot 0; at pilot SNRs of 1e8 and 1e7 the direct form
        # Q - tpp Q G^-1 Q cancels to well above 1e-12 of F: the bank's F and the reference's
        # information form E C E^H must both hold 1e-12
        cfg = SimConfig(L=1, K=3, M=3, N=3, tau_p=2, ris_rows=1, ris_cols=3)
        tpp = cfg.tau_p * cfg.pilot_power_w
        rng = np.random.default_rng(0)
        R = np.stack(
            [random_psd(rng, 3, cfg.noise_power_w * snr / tpp) for snr in (1e8, 1e2, 1e7)]
        )[:, None]
        front = (rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3))) / np.sqrt(2.0)
        pilot_of = np.array([0, 0, 1])
        stats = EffectiveStats(R, front, pilot_of, cfg)
        Q = np.stack([effective_covariance(R[k, 0], front[0]) for k in range(3)])
        for k in range(3):
            c = copilot_reference(error_covariance, R, front, pilot_of, cfg, k, 0)
            for effective in (stats.F[k, 0], effective_covariance(c, front[0])):
                assert error_covariance_distance(effective, Q, pilot_of, k, cfg.noise_power_w, tpp) <= 1e-12

    def test_f_against_40_digits_on_an_ill_conditioned_gram(self):
        # longterm geometry, seed 1, drop 0, no-RIS 6 x 6 grid: UE 19 shares its pilot, and at
        # AP 16 their Gram has cond 5.3e6; a general inverse of its Cholesky factor left F
        # 5.6e-10 off 40 digits, the triangular inverse 1.5e-10
        cfg = SimConfig(L=100, K=20, M=4, N=36, tau_p=10, seed=1)
        real = generate_realization(cfg, _rng(cfg.seed, _TAG_NETWORK, 0))
        assoc = assign_pilots_and_clusters(real, cfg)
        Q = spatial_correlation_matrices(real, cfg, ris_grid_positions(cfg))[:, 16:17]
        tpp = cfg.tau_p * cfg.pilot_power_w
        copilots = np.flatnonzero(assoc.pilot_of == assoc.pilot_of[19])
        assert copilots.size > 1
        assert np.linalg.cond(cfg.noise_power_w * np.eye(36) + tpp * Q[copilots, 0].sum(axis=0)) > 5e6
        stats = EffectiveStats(Q, None, assoc.pilot_of, cfg)
        assert error_covariance_distance(stats.F[19, 0], Q[:, 0], assoc.pilot_of, 19, cfg.noise_power_w, tpp) <= 3e-10

    def test_copilot_free_f_is_the_general_form_bit_for_bit(self):
        # a fourth UE on pilot 0 sends the bank down the co-pilot sum; UEs 1 and 2 still have
        # their pilots to themselves, so with the same factor inverse their F and T must not
        # move by a bit
        stats, R, _, pilot_of, cfg = self.build_grid()
        rng = np.random.default_rng(18)
        extra = np.stack([random_psd(rng, 16, cfg.noise_power_w) for _ in range(2)])[None]
        general = EffectiveStats(np.concatenate([R, extra]), None, np.array([0, 1, 2, 0]), cfg)
        assert np.array_equal(general.F[1:3], stats.F[1:3])
        assert np.array_equal(general.T[1:3], stats.T[1:3])
        assert not np.array_equal(general.F[0], stats.F[0])

    def test_bank_leaves_its_inputs_untouched(self):
        # the bank inverts its factor and conjugates, scales and symmetrizes its stacks in place;
        # a hand-built complex R without a front is the bank's own Q, so none of that may reach it
        for _, R, f, pilot_of, cfg in self.banks():
            inputs = [R] if f is None else [R, f]
            before = [x.copy() for x in inputs]
            EffectiveStats(R, f, pilot_of, cfg)
            assert all(np.array_equal(x, y) for x, y in zip(inputs, before))

    @pytest.mark.parametrize("L, K, tau_p", [(8, 4, 4), (12, 6, 3)])
    def test_no_ris_bank_holds_few_stacks(self, L, K, tau_p):
        # a no-RIS bank on a lattice stack gathers Q and keeps T and F; the Gram, its factor and
        # inverse, Q L^-H, F and its conjugate come and go in place, so the traced peak stays
        # at 5 (K, L, m, m) stacks with and without co-pilots (K > tau_p shares pilots)
        cfg = SimConfig(L=L, K=K, M=2, N=16, tau_p=tau_p, ris_rows=4, ris_cols=4)
        real = generate_realization(cfg, _rng(cfg.seed, _TAG_NETWORK, 0))
        pilot_of = assign_pilots_and_clusters(real, cfg).pilot_of
        R = spatial_correlation_matrices(real, cfg, ris_grid_positions(cfg))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stats = EffectiveStats(R, None, pilot_of, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert stats.m == 16
        assert peak <= 5 * K * L * 16**2 * 16

    @pytest.mark.parametrize("L, K, tau_p", [(12, 4, 4), (12, 6, 3)])
    @pytest.mark.parametrize("aps", [1, 2])
    def test_blocked_bank_holds_t_f_and_a_few_blocks(self, monkeypatch, L, K, tau_p, aps):
        # with one or two of 12 APs per block, the bank holds T and F beside one block's Q, Gram and
        # factor: the traced peak stays at 2.6 (K, L, m, m) stacks with and without co-pilots, where a
        # bank of one block holds 3.7 and 4
        cfg = SimConfig(L=L, K=K, M=2, N=16, tau_p=tau_p, ris_rows=4, ris_cols=4)
        real = generate_realization(cfg, _rng(cfg.seed, _TAG_NETWORK, 0))
        pilot_of = assign_pilots_and_clusters(real, cfg).pilot_of
        R = spatial_correlation_matrices(real, cfg, ris_grid_positions(cfg))
        monkeypatch.setattr(estimation, "_BANK_BLOCK_BYTES", aps * K * 16**2 * 16)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            EffectiveStats(R, None, pilot_of, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * K * L * 16**2 * 16

    @pytest.mark.parametrize("K, tau_p, with_fronts", [(6, 3, True), (4, 4, True), (6, 3, False)],
                             ids=["copilots", "own-pilots", "no-front"])
    @pytest.mark.parametrize("aps", [1, 2, 5])
    def test_lattice_bank_is_the_gathered_bank(self, monkeypatch, K, tau_p, with_fronts, aps):
        # a lattice stack is gathered AP by AP into the same products as the gathered (K, L, n, n)
        # array, and a block of APs makes the per-matrix calls of the whole bank, so T and F agree bit
        # for bit with the gathered bank of one block at 1, 2 (the last block shorter) and 5 APs per
        # block, with and without co-pilot UEs and without fronts
        cfg = SimConfig(L=5, K=K, M=2, N=9, tau_p=tau_p, ris_rows=3, ris_cols=3)
        real = generate_realization(cfg, _rng(cfg.seed, _TAG_NETWORK, 0))
        pilot_of = assign_pilots_and_clusters(real, cfg).pilot_of
        assert (np.bincount(pilot_of).max() > 1) == (K > tau_p)
        R = spatial_correlation_matrices(real, cfg, ris_grid_positions(cfg))
        phases = np.exp(2j * np.pi * np.random.default_rng(22).uniform(size=(cfg.L, cfg.N)))
        fronts = effective_front(front_channels(cfg), phases) if with_fronts else None
        gathered = EffectiveStats(R[:, :], fronts, pilot_of, cfg)
        m = gathered.m
        assert K * cfg.L * m * m * 16 <= estimation._BANK_BLOCK_BYTES
        monkeypatch.setattr(estimation, "_BANK_BLOCK_BYTES", aps * K * m * m * 16)
        lattice = EffectiveStats(R, fronts, pilot_of, cfg)
        assert np.array_equal(lattice.T, gathered.T)
        assert np.array_equal(lattice.F, gathered.F)

    def test_no_front_dimensions(self):
        stats, *_ = self.build(fronts=False)
        assert stats.m == 4
        assert stats.T.shape == stats.F.shape == (3, 2, 4, 4)

    def test_estimate_moments(self):
        # Monte Carlo: E[ghat_k ghat_i^H] is the reference cross-covariance for co-pilot UEs k, i
        # and 0 otherwise (the check `cfris oracle` runs on its own instance)
        stats, R, f, pilot_of, cfg = self.build()
        w = stats.sample_pilot_statistics(np.random.default_rng(13), 100_000)
        assert w.shape == (100_000, 2, 2, 2)
        assert estimate_moment_error(stats, R, f, cfg, w) <= 0.03

    def test_estimates_shape_and_map(self):
        # every (block, AP, UE) entry of the batched gemm against the per-UE map, with and
        # without fronts, on a drop where UEs 0 and 2 share pilot 0, and on the grid bank, whose
        # pilots are a slice
        for stats, *_ in self.banks():
            w = stats.sample_pilot_statistics(np.random.default_rng(14), 3)
            ghat = stats.effective_estimates(w.copy())   # with pilots in UE order it overwrites its argument
            assert ghat.shape == (3, 2, stats.m, 3)
            for b in range(3):
                for l in range(2):
                    for k in range(3):
                        expected = stats.T[k, l] @ w[b, stats.pilot_of[k], l]
                        assert np.linalg.norm(ghat[b, l, :, k] - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_estimates_overwrite_draws_in_ue_pilot_order(self):
        # the grid bank's pilots are in UE order (K < tau_p): the estimates are formed over the
        # draws themselves, leaving the unused pilot slot as drawn
        stats, *_ = self.build_grid()
        w = stats.sample_pilot_statistics(np.random.default_rng(19), 3)
        before = w.copy()
        ghat = stats.effective_estimates(w)
        assert np.shares_memory(ghat, w)
        assert np.array_equal(w[:, 3], before[:, 3])
        for b, l, k in np.ndindex(3, 2, 3):
            expected = stats.T[k, l] @ before[b, k, l]
            assert np.linalg.norm(ghat[b, l, :, k] - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_estimates_leave_shared_pilot_draws_untouched(self):
        # pilots [0, 1, 0] are gathered into a C-ordered copy, (blocks, K, L, m), and the
        # estimates are formed over that copy
        stats, *_ = self.build()
        w = stats.sample_pilot_statistics(np.random.default_rng(20), 3)
        before = w.copy()
        ghat = stats.effective_estimates(w)
        assert np.array_equal(w, before)
        assert not np.shares_memory(ghat, w)
        assert ghat.transpose(0, 3, 1, 2).flags.c_contiguous

    def test_sampling_holds_little_beside_its_output(self):
        # one draw straight into the output viewed as floats, with no buffer or float temporary,
        # at the chunk shape of the kernel's one-group memory test
        cfg = SimConfig(L=8, K=4, M=2, N=16, tau_p=4, ris_rows=4, ris_cols=4)
        rng = np.random.default_rng(21)
        R = np.stack([np.stack([random_psd(rng, 16, cfg.noise_power_w) for _ in range(cfg.L)])
                      for _ in range(cfg.K)])
        stats = EffectiveStats(R, None, np.arange(cfg.K), cfg)
        blocks = 32
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            w = stats.sample_pilot_statistics(np.random.default_rng(1), blocks)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * w.nbytes

    def test_sampling_stream(self):
        # w viewed as floats is one standard_normal draw: real and imaginary parts interleaved,
        # block-major, so drawing the blocks in any split continues the same stream
        stats, *_ = self.build()
        w = stats.sample_pilot_statistics(np.random.default_rng(16), 5)
        draw = np.random.default_rng(16).standard_normal(w.shape + (2,))
        assert np.array_equal(w.view(float).reshape(draw.shape), np.sqrt(0.5) * draw)
        rng = np.random.default_rng(16)
        chunks = [stats.sample_pilot_statistics(rng, blocks) for blocks in (1, 3, 1)]
        assert np.array_equal(np.concatenate(chunks), w)

    def test_sampling_deterministic(self):
        stats, *_ = self.build()
        a = stats.sample_pilot_statistics(np.random.default_rng(15), 4)
        b = stats.sample_pilot_statistics(np.random.default_rng(15), 4)
        assert np.array_equal(a, b)
