"""Centralized uplink reception: combining vectors, SINR, spectral efficiency.

All quantities live in the effective antenna domain: ghat[i] holds the
per-AP effective channel estimates (shape (L, m)) and F[i] the per-AP
effective error-covariance blocks (shape (L, m, m)); the collective error
covariance is block diagonal, so no LM x LM matrices are ever formed. The
combiner solve runs on the serving subspace of UE k, which gives the same
vector as the full-dimensional formula. The SINR has one direct form.
"""

import numpy as np


def _restricted_outer_sum(k, ghat, F, assoc, eta, sigma2, partners):
    idx = np.flatnonzero(assoc.serving_matrix[:, k])
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


def instantaneous_sinr(k, v, ghat, F, assoc, cfg):
    """Effective SINR of UE k for a combiner v of shape (L*m,), on k's serving APs. The interference
    sums the other UEs' powers over i != k: total power minus signal would cancel at high SINR."""
    L, m = ghat.shape[1:]
    idx = np.flatnonzero(assoc.serving_matrix[:, k])
    vs = np.asarray(v, dtype=complex).reshape(L, m)[idx]
    eta = cfg.data_power_w
    power = eta * np.abs(np.einsum("lm,ilm->i", vs.conj(), ghat[:, idx])) ** 2
    interference = np.delete(power, k).sum()
    error = eta * np.einsum("lm,ilmn,ln->", vs.conj(), F[:, idx], vs).real
    noise = cfg.noise_power_w * np.vdot(vs, vs).real
    return float(power[k] / (interference + error + noise))


def spectral_efficiency(sinr_samples, cfg):
    """Pilot-overhead-scaled mean of log2(1 + SINR) over the block samples."""
    samples = np.asarray(sinr_samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one SINR sample")
    prefactor = (cfg.tau_c - cfg.tau_p) / cfg.tau_c
    return float(prefactor * np.mean(np.log2(1.0 + samples)))
