"""Complex dense linear-algebra kernels shared by every module.

All tolerances are relative to the trace or Frobenius norm of the input;
large-scale fading spans many orders of magnitude in linear units, so
absolute thresholds would be meaningless.
"""

import contextlib
import os

import numpy as np

from .exceptions import ModelError

PSD_TOL = 1e-10         # relative (to trace) tolerance on negative eigenvalues
TRIL_LEAF = 9           # largest lower triangle tril_inv hands to np.linalg.inv whole


def tril_inv(a):
    """Inverse of a stack (..., n, n) of invertible lower triangles, by recursive halving, written over a.

    [A, 0; B, D]^-1 = [A^-1, 0; -D^-1 B A^-1, D^-1]: the halves are inverted in their own place down
    to triangles of at most TRIL_LEAF rows, which np.linalg.inv inverts, so only the two products of
    the lower-left block are temporaries. Above the leaves the inverse is exactly triangular; it costs
    about half a general inverse of the whole factor, and on ill-conditioned factors it leaves about
    half its residual (Higham, Accuracy and Stability of Numerical Algorithms, ch. 8). For n <=
    TRIL_LEAF it is np.linalg.inv. a must be a writeable float or complex stack; it is returned.
    """
    n = a.shape[-1]
    if n <= TRIL_LEAF:
        a[...] = np.linalg.inv(a)
        return a
    h = n // 2
    a_inv, d_inv = tril_inv(a[..., :h, :h]), tril_inv(a[..., h:, h:])
    a[..., :h, h:] = 0.0
    a[..., h:, :h] = -(d_inv @ (a[..., h:, :h] @ a_inv))
    return a


def hermitian_gram(w):
    """w^H w for a stack (..., d, p) of complex w whose last axis is contiguous (else numpy raises ValueError),
    from the real Gram Z^T Z of Z = w viewed in place as reals, (..., d, 2p): no copy of w. numpy forms Z^T Z as
    one symmetric rank-k update, so w^H w is exactly Hermitian, at half a complex product's flops.
    """
    z = w.view(float)
    g = z.swapaxes(-1, -2) @ z
    out = np.empty(w.shape[:-2] + (w.shape[-1], w.shape[-1]), complex)
    out.real = g[..., 0::2, 0::2] + g[..., 1::2, 1::2]
    out.imag = g[..., 0::2, 1::2] - g[..., 1::2, 0::2]
    return out


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every OpenBLAS that /proc/self/maps lists on one thread, then restore each one's
    count; processes forked inside inherit it. Another BLAS is pinned through its environment variable."""
    import ctypes

    maps = "/proc/self/maps" if os.path.exists("/proc/self/maps") else os.devnull   # no /proc: none found
    with open(maps, encoding="utf-8") as lines:
        paths = {line.split()[-1] for line in lines if "openblas" in line.rsplit("/", 1)[-1]}
    counts = []   # (setter, count before) of each library set to one thread
    try:
        for lib in map(ctypes.CDLL, paths):
            for name in (f"{p}_{{}}_num_threads{s}" for p in ("scipy_openblas", "openblas") for s in ("64_", "")):
                if hasattr(lib, name.format("set")):
                    get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
                    counts.append((put, get()))
                    put(1)
        yield
    finally:
        for put, count in counts:
            put(count)


def hermitian_eig(a):
    """Eigenvalues, descending and real, and the orthonormal eigenvectors as columns of a
    Hermitian matrix (symmetrized internally)."""
    a = np.asarray(a, dtype=complex)
    a = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(a)   # ascending
    return vals[::-1], vecs[:, ::-1]


def psd_sqrt(cov):
    """PSD square root via eigendecomposition with negative-eigenvalue clamping.

    Correlation matrices from the local-scattering construction can be
    numerically rank-deficient; eigenvalues above -PSD_TOL*trace are clamped
    to zero, anything more negative raises ModelError.
    """
    cov = np.asarray(cov, dtype=complex)
    vals, vecs = hermitian_eig(cov)
    trace = np.real(np.trace(cov))
    if np.min(vals) < -PSD_TOL * max(trace, 0.0):
        raise ModelError("covariance has a significantly negative eigenvalue")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def sample_complex_gaussian(cov, rng, size=None):
    """Draw circularly-symmetric complex Gaussian vectors with covariance cov.

    Returns shape (n,) when size is None, else (size, n). Deterministic
    given the rng state.
    """
    root = psd_sqrt(cov)
    n = root.shape[0]
    shape = (n,) if size is None else (size, n)
    w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return w @ root.T  # root Hermitian, so this is (root @ w^T)^T


def sample_real_gaussian(cov, rng, size=None):
    """Real multivariate normal with PSD covariance, clamped like psd_sqrt."""
    root = np.real(psd_sqrt(cov))
    n = root.shape[0]
    shape = (n,) if size is None else (size, n)
    return rng.standard_normal(shape) @ root.T

