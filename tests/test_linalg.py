import ctypes

import numpy as np
import pytest

import cfris.experiment
from cfris.config import SimConfig
from cfris.exceptions import ModelError
from cfris.experiment import ExperimentSpec, run_experiment
from cfris.linalg import (TRIL_LEAF, hermitian_eig, hermitian_gram, one_blas_thread, psd_sqrt,
                          sample_complex_gaussian, tril_inv)


def random_hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (x + x.conj().T)


def charpoly_coefficients(a):
    """Characteristic polynomial via the Faddeev-LeVerrier recursion.

    Independent of any eigenvalue routine: only matrix products and traces.
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


class TestHermitianEig:
    def test_identity(self):
        vals, _ = hermitian_eig(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])

    def test_diagonal_sorted_descending(self):
        vals, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [3, 2, 1])

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(rng, 8)
        vals, _ = hermitian_eig(a)
        roots = np.sort(np.roots(charpoly_coefficients(a)).real)[::-1]
        assert np.allclose(vals, roots, atol=1e-8)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 12):
            a = random_hermitian(rng, n)
            vals, u = hermitian_eig(a)
            assert np.linalg.norm((u * vals) @ u.conj().T - a) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10 * np.sqrt(n)

    def test_is_eigh_reversed_bit_for_bit(self):
        a = random_hermitian(np.random.default_rng(2), 9)
        vals, vecs = hermitian_eig(a)
        ref_vals, ref_vecs = np.linalg.eigh(a)   # ascending
        assert np.array_equal(vals, ref_vals[::-1])
        assert np.array_equal(vecs, ref_vecs[:, ::-1])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):   # numpy's symmetrisation; LinAlgError is a ValueError too
            hermitian_eig(np.ones((2, 3)))


class TestSampleComplexGaussian:
    def test_zero_covariance(self):
        rng = np.random.default_rng(4)
        assert np.array_equal(sample_complex_gaussian(np.zeros((3, 3)), rng), np.zeros(3))

    def test_empirical_covariance(self):
        rng = np.random.default_rng(5)
        samples = sample_complex_gaussian(np.eye(2), rng, size=100_000)
        emp = samples.T @ samples.conj() / samples.shape[0]
        assert np.linalg.norm(emp - np.eye(2)) <= 0.02 * np.linalg.norm(np.eye(2))

    def test_general_covariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cov = x @ x.conj().T
        samples = sample_complex_gaussian(cov, rng, size=100_000)
        emp = samples.T @ samples.conj() / samples.shape[0]
        assert np.linalg.norm(emp - cov) <= 0.02 * np.linalg.norm(cov)

    def test_rank_deficient(self):
        rng = np.random.default_rng(7)
        samples = sample_complex_gaussian(np.diag([4.0, 0.0]), rng, size=100)
        assert np.all(np.abs(samples[:, 1]) < 1e-12)

    def test_deterministic_given_seed(self):
        cov = np.diag([1.0, 2.0])
        a = sample_complex_gaussian(cov, np.random.default_rng(8), size=10)
        b = sample_complex_gaussian(cov, np.random.default_rng(8), size=10)
        assert np.array_equal(a, b)

    def test_non_psd_rejected(self):
        with pytest.raises(ModelError):
            sample_complex_gaussian(np.diag([1.0, -0.5]), np.random.default_rng(9))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    cov = x @ x.conj().T
    root = psd_sqrt(cov)
    assert np.allclose(root @ root, cov)
    assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10 * np.trace(cov).real


class TestTrilInv:
    @pytest.mark.parametrize("n", [1, 4, 9, 10, 36, 37])
    def test_residual(self, n):
        # sizes at, just above and well above the leaf size, even and odd halves; the last
        # factor is of a Gram whose eigenvalues span 1e-12 to 1
        assert TRIL_LEAF == 9
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        u = np.linalg.qr(x[-1])[0]
        gram = x @ x.conj().swapaxes(-1, -2) / n + np.eye(n)
        gram[-1] = (u * np.logspace(0, -12, n)) @ u.conj().T
        factor = np.linalg.cholesky(gram)
        work = factor.copy()
        inv = tril_inv(work)
        assert inv is work   # formed over its argument
        for a, x_inv in zip(factor, inv):
            assert np.linalg.norm(a @ x_inv - np.eye(n)) <= 1e-13 * np.sqrt(n)
            assert np.linalg.norm(np.triu(x_inv, 1)) <= 1e-13 * np.linalg.norm(x_inv)

    def test_leaf_is_the_general_inverse(self):
        a = np.linalg.cholesky(np.diag([4.0, 1.0, 9.0]) + 0.5)
        assert np.array_equal(tril_inv(a.copy()), np.linalg.inv(a))


class TestHermitianGram:
    @staticmethod
    def stack(shape, seed=7):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("shape", [(5, 40, 6), (3, 1800, 10), (7, 1), (2, 4, 9, 3)])
    def test_matches_complex_product(self, shape):
        w = self.stack(shape)
        err = np.abs(hermitian_gram(w) - w.conj().swapaxes(-1, -2) @ w).max(axis=(-2, -1))
        assert np.all(err <= 4 * np.finfo(float).eps * np.linalg.norm(w, axis=(-2, -1)) ** 2)

    def test_exactly_hermitian_with_real_non_negative_diagonal(self):
        p = hermitian_gram(self.stack((6, 300, 8)))
        assert np.array_equal(p, p.conj().swapaxes(-1, -2))
        diag = np.diagonal(p, axis1=-2, axis2=-1)
        assert np.all(diag.imag == 0) and np.all(diag.real >= 0)

    def test_non_contiguous_input(self):
        # batch- and row-strided views with a contiguous last axis are read in place, as their copy;
        # a strided last axis is numpy's ValueError, not a silent copy
        w = self.stack((4, 30, 9))
        for view in (w[::2], w[:, 1::3], w[1:, ::2, 2:7]):
            assert not view.flags.c_contiguous
            assert np.array_equal(hermitian_gram(view), hermitian_gram(view.copy()))
        for view in (w[:, :, ::2], self.stack((4, 5, 30)).swapaxes(-1, -2)):
            with pytest.raises(ValueError):
                hermitian_gram(view)


def openblas_thread_counts():
    """(get, set) of each loaded OpenBLAS's thread count, found apart from cfris.linalg."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    found = []
    for lib in map(ctypes.CDLL, paths):
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            get, put = (f"{prefix}_{op}_num_threads{suffix}" for op in ("get", "set"))
            if hasattr(lib, get) and hasattr(lib, put):
                found.append((getattr(lib, get), getattr(lib, put)))
                break
    return found


def _setup_reading_blas_threads(cfg, scenarios, combiner, fronts, setup_idx):
    # stands in for _run_setup, in forked workers too; module level, so it pickles by name
    return np.full((len(scenarios), cfg.K), max(get() for get, _ in openblas_thread_counts()))


class TestOneBlasThread:
    @pytest.fixture
    def counts(self):
        """Every loaded OpenBLAS set to two threads for the test, and to its own count after."""
        found = openblas_thread_counts()
        if not found:
            pytest.skip("no loaded OpenBLAS with a thread-count setter")
        before = [get() for get, _ in found]
        for _, put in found:
            put(2)
        yield found
        for (_, put), count in zip(found, before):
            put(count)

    def test_one_thread_inside_and_the_count_restored_after(self, counts):
        with one_blas_thread():
            assert [get() for get, _ in counts] == [1] * len(counts)
        assert [get() for get, _ in counts] == [2] * len(counts)

    def test_count_restored_when_the_body_raises(self, counts):
        with pytest.raises(KeyError), one_blas_thread():
            raise KeyError("body")
        assert [get() for get, _ in counts] == [2] * len(counts)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_every_worker_runs_one_thread_and_the_caller_keeps_its_count(self, counts, monkeypatch, threads):
        monkeypatch.setattr(cfris.experiment, "_run_setup", _setup_reading_blas_threads)
        cfg = SimConfig(L=4, K=3, M=2, N=4, tau_p=2, ris_rows=2, ris_cols=2, mc_setups=4)
        report = run_experiment(ExperimentSpec(cfg=cfg, threads=threads))
        assert all(np.all(report.se[name] == 1) for name in report.scenarios)
        assert [get() for get, _ in counts] == [2] * len(counts)
