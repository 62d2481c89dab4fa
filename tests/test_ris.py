import warnings

import numpy as np
import pytest

import cfris.oracles
from cfris.association import Association
from cfris.config import SimConfig
from cfris.network import ChannelStats, generate_realization, ris_grid_positions, spatial_correlation_matrices
from cfris.oracles import _random_psd as random_psd
from cfris.ris import (
    build_objective,
    constrained_power_iteration,
    quadratic_objective,
    received_signal_strength,
    select_long_term_config,
)


class TestBuildObjective:
    def test_quadratic_identity(self):
        # the lifted quadratic form reproduces the direct trace objective
        rng = np.random.default_rng(0)
        h = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        obj = build_objective([random_psd(rng, 5), random_psd(rng, 5)], h)
        for _ in range(50):
            psi = np.exp(2j * np.pi * rng.uniform(size=5))
            lifted = quadratic_objective(psi, obj.A)
            direct = received_signal_strength(psi, obj.B, h)
            assert lifted == pytest.approx(direct, rel=1e-10)

    def test_hadamard_identity(self):
        # independent oracle: the eigen-sum sum_n lambda_n diag(u_n^*) H^H H diag(u_n)
        rng = np.random.default_rng(1)
        h = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        b = random_psd(rng, 6)
        obj = build_objective([b], h)
        gram = h.conj().T @ h
        vals, vecs = np.linalg.eigh(b)
        expected = sum(
            lam * np.diag(u.conj()) @ gram @ np.diag(u) for lam, u in zip(vals, vecs.T)
        )
        assert np.allclose(obj.A, expected, rtol=1e-10)

    def test_a_hermitian_psd(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        obj = build_objective([random_psd(rng, 4)], h)
        assert np.allclose(obj.A, obj.A.conj().T)
        assert np.min(np.linalg.eigvalsh(obj.A)) >= -1e-10 * np.linalg.norm(obj.A)

    def test_b_sums_served(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        r1, r2 = random_psd(rng, 4), random_psd(rng, 4)
        obj = build_objective([r1, r2], h)
        assert np.allclose(obj.B, r1 + r2)

    def test_empty_served_is_neutral(self):
        h = np.ones((2, 4), dtype=complex)
        obj = build_objective([], h)
        assert np.array_equal(obj.A, np.zeros((4, 4)))


class TestStrength:
    def test_identity_phases_identity_b(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        got = received_signal_strength(np.ones(4, dtype=complex), np.eye(4), h)
        assert got == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)

    def test_quadratic_objective_scalar(self):
        assert quadratic_objective(np.array([1j]), np.array([[2.0]])) == pytest.approx(2.0)


class TestPowerIteration:
    def test_unit_modulus_output(self):
        rng = np.random.default_rng(5)
        psi = constrained_power_iteration(random_psd(rng, 6))
        assert np.allclose(np.abs(psi), 1.0, atol=1e-12)

    def test_zero_matrix_keeps_start(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            psi = constrained_power_iteration(np.zeros((4, 4)))
        assert np.array_equal(psi, np.ones(4, dtype=complex))

    def test_nonzero_matrix_that_annihilates_the_start_keeps_it(self):
        # A = v v^H != 0 with A 1 = 0: A psi vanishes at the all-ones start, and the gain exit returns it
        v = np.array([1.0, -1.0, 0.0, 0.0], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            psi = constrained_power_iteration(np.outer(v, v.conj()))
        assert np.array_equal(psi, np.ones(4, dtype=complex))

    def test_zero_block_entries_project_to_one(self):
        # A psi is zero on the second block at every step; 0 / 0 there would give NaN and a warning
        a = np.zeros((5, 5), dtype=complex)
        a[:3, :3] = random_psd(np.random.default_rng(10), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            psi = constrained_power_iteration(a)
        assert np.all(np.isfinite(psi))
        assert np.allclose(np.abs(psi), 1.0, atol=1e-12)
        assert np.array_equal(psi[3:], np.ones(2, dtype=complex))

    def test_rank_one_analytic_optimum(self):
        # A = conj(a) a^T: the optimum is psi_n = exp(-j arg a_n) up to a
        # global phase, with value (sum |a_n|)^2
        rng = np.random.default_rng(6)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        A = np.outer(a.conj(), a)
        psi = constrained_power_iteration(A)
        achieved = quadratic_objective(psi, A)
        assert achieved == pytest.approx(np.sum(np.abs(a)) ** 2, rel=1e-12)

    def test_monotone_objective_no_warning(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = random_psd(rng, 5)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                psi = constrained_power_iteration(a)
            assert quadratic_objective(psi, a) >= quadratic_objective(np.ones(5, dtype=complex), a) - 1e-9

    def test_beats_exhaustive_grid_within_one_percent(self):
        rng = np.random.default_rng(8)
        levels = np.exp(2j * np.pi * np.arange(64) / 64)
        i, j, k = np.meshgrid(levels, levels, levels, indexing="ij")
        grid = np.stack([i.ravel(), j.ravel(), k.ravel()], axis=1)
        for trial in range(5):
            a = random_psd(rng, 3)
            psi = constrained_power_iteration(a)
            best = np.einsum("np,pq,nq->n", grid.conj(), a, grid).real.max()
            assert quadratic_objective(psi, a) >= 0.99 * best

    def test_eigenvector_upper_bound(self):
        # the unconstrained maximum N * lambda_max bounds any phase vector
        rng = np.random.default_rng(9)
        a = random_psd(rng, 6)
        psi = constrained_power_iteration(a)
        assert quadratic_objective(psi, a) <= 6 * np.linalg.eigvalsh(a)[-1] + 1e-9


class TestSelectLongTerm:
    def setup_stats(self, rng):
        cfg = SimConfig(L=2, K=2, M=2, N=4, tau_p=2, ris_rows=2, ris_cols=2)
        R = spatial_correlation_matrices(generate_realization(cfg, rng), cfg, ris_grid_positions(cfg))
        H = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
        serving = np.array([[True, True], [False, True]])
        assoc = Association(
            pilot_of=np.array([0, 1]),
            master_ap=np.array([0, 1]),
            serving_matrix=serving,
        )
        return ChannelStats(R, H), assoc, cfg

    def test_random_mode(self):
        rng = np.random.default_rng(11)
        stats, assoc, cfg = self.setup_stats(rng)
        psi = select_long_term_config(stats, assoc, cfg, mode="random", rng=np.random.default_rng(0))
        again = select_long_term_config(stats, assoc, cfg, mode="random", rng=np.random.default_rng(0))
        assert np.allclose(np.abs(psi), 1.0)
        assert np.array_equal(psi, again)
        assert not np.allclose(psi, 1.0)

    def test_random_mode_requires_rng(self):
        rng = np.random.default_rng(12)
        stats, assoc, cfg = self.setup_stats(rng)
        with pytest.raises(ValueError):
            select_long_term_config(stats, assoc, cfg, mode="random")

    def test_unknown_mode(self):
        rng = np.random.default_rng(13)
        stats, assoc, cfg = self.setup_stats(rng)
        with pytest.raises(ValueError):
            select_long_term_config(stats, assoc, cfg, mode="bogus")

    def test_optimized_improves_over_identity(self):
        rng = np.random.default_rng(14)
        stats, assoc, cfg = self.setup_stats(rng)
        psi = select_long_term_config(stats, assoc, cfg, mode="optimized")
        assert np.allclose(np.abs(psi), 1.0, atol=1e-12)
        for l in range(2):
            obj = build_objective([stats.R[k, l] for k in assoc.served_sets[l]], stats.H[l])
            # the objective scales with the path loss, so the slack is relative to it
            assert quadratic_objective(psi[l], obj.A) >= (1 - 1e-9) * quadratic_objective(
                np.ones(4, dtype=complex), obj.A
            )

    def test_unserved_ap_keeps_neutral_phases(self):
        rng = np.random.default_rng(15)
        stats, assoc, cfg = self.setup_stats(rng)
        assoc.serving_matrix[1] = False
        psi = select_long_term_config(stats, assoc, cfg, mode="optimized")
        assert np.array_equal(psi[1], np.ones(4, dtype=complex))


def test_phase_oracle_catches_fronts_off_unit_norm(monkeypatch):
    # tr A = tr B holds exactly for unit-norm front columns; a 1e-9 scale moves it by 2e-9
    fronts = cfris.oracles.front_channels
    monkeypatch.setattr(cfris.oracles, "front_channels", lambda cfg: fronts(cfg) * (1.0 + 1e-9))
    assert not cfris.oracles.check_phase_optimizer_bound(np.random.default_rng(0))[1]
