"""Centralized uplink reception: combining vectors, SINR, spectral efficiency.

All quantities live in the effective antenna domain: ghat[i] holds the
per-AP effective channel estimates (shape (L, m)) and F[i] the per-AP
effective error-covariance blocks (shape (L, m, m)); the collective error
covariance is block diagonal, so no LM x LM matrices are ever formed. The
combiner solve runs on the serving subspace of UE k, which gives the same
vector as the full-dimensional formula.
"""

import numpy as np

from .exceptions import DimensionError


def _restricted_outer_sum(k, ghat, F, assoc, eta, sigma2, partners):
    idx = assoc.serving_sets[k]
    m = ghat.shape[2]
    d = len(idx) * m
    mat = sigma2 * np.eye(d, dtype=complex)
    for i in partners:
        g = ghat[i][idx].reshape(d)
        mat += eta[i] * np.outer(g, g.conj())
        for j, l in enumerate(idx):
            mat[j * m:(j + 1) * m, j * m:(j + 1) * m] += eta[i] * F[i, l]
    return idx, d, mat


def _combiner(k, ghat, F, assoc, cfg, partners):
    eta = np.full(ghat.shape[0], cfg.data_power_w)
    idx, d, mat = _restricted_outer_sum(k, ghat, F, assoc, eta, cfg.noise_power_w, partners)
    m = ghat.shape[2]
    v_red = eta[k] * np.linalg.solve(mat, ghat[k][idx].reshape(d))
    v = np.zeros((ghat.shape[1], m), dtype=complex)
    v[idx] = v_red.reshape(len(idx), m)
    return v.reshape(-1)


def mmse_combiner(k, ghat, F, assoc, cfg):
    """MMSE combining vector over all K UEs' statistics; shape (L*m,)."""
    return _combiner(k, ghat, F, assoc, cfg, partners=range(ghat.shape[0]))


def pmmse_combiner(k, ghat, F, assoc, cfg):
    """Partial MMSE: interference restricted to UEs sharing a serving AP."""
    return _combiner(k, ghat, F, assoc, cfg, partners=assoc.pmmse_partners(k))


def _blocks(v, L):
    if v.shape[0] % L:
        raise DimensionError(f"combiner length {v.shape[0]} is not a multiple of L={L}")
    return v.reshape(L, -1)


def instantaneous_sinr(k, v, ghat, F, assoc, cfg):
    """Effective SINR of UE k for an arbitrary combiner (direct form)."""
    K, L, m = ghat.shape
    eta = np.full(K, cfg.data_power_w)
    vb = _blocks(np.asarray(v, dtype=complex), L)
    mask = assoc.serving_matrix[:, k]
    dv = np.where(mask[:, None], vb, 0.0)
    cross = np.einsum("lm,ilm->i", dv.conj(), ghat)
    signal = eta[k] * np.abs(cross[k]) ** 2
    interference = float(np.sum(eta * np.abs(cross) ** 2) - eta[k] * np.abs(cross[k]) ** 2)
    # error-covariance term computed blockwise on the serving APs
    z_term = 0.0
    for l in np.where(mask)[0]:
        fsum = np.tensordot(eta, F[:, l], axes=(0, 0))
        z_term += float(np.real(vb[l].conj() @ fsum @ vb[l]))
    noise = cfg.noise_power_w * float(np.real(dv.conj().ravel() @ dv.ravel()))
    return float(signal / (interference + z_term + noise))


def rayleigh_quotient_sinr(k, v, ghat, F, assoc, cfg):
    """Same SINR written as a generalized Rayleigh quotient (cross-check)."""
    K, L, m = ghat.shape
    eta = np.full(K, cfg.data_power_w)
    vb = _blocks(np.asarray(v, dtype=complex), L)
    mask = assoc.serving_matrix[:, k]
    dv = np.where(mask[:, None], vb, 0.0)
    cross = np.einsum("lm,ilm->i", dv.conj(), ghat)
    numerator = eta[k] * np.abs(cross[k]) ** 2
    denom = 0.0
    for i in range(K):
        if i != k:
            denom += eta[i] * np.abs(cross[i]) ** 2
    for l in np.where(mask)[0]:
        fsum = np.tensordot(eta, F[:, l], axes=(0, 0))
        denom += float(np.real(dv[l].conj() @ fsum @ dv[l]))
    denom += cfg.noise_power_w * float(np.real(vb.conj().ravel() @ dv.ravel()))
    return float(numerator / denom)


def spectral_efficiency(sinr_samples, cfg):
    """Pilot-overhead-scaled mean of log2(1 + SINR) over the block samples."""
    samples = np.asarray(sinr_samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one SINR sample")
    prefactor = (cfg.tau_c - cfg.tau_p) / cfg.tau_c
    return float(prefactor * np.mean(np.log2(1.0 + samples)))
