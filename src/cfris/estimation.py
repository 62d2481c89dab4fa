"""Pilot processing: sufficient statistics, MMSE estimates, error covariances.

Everything is expressed through the effective front matrix E_l = H_l Psi_l
(the array response seen through the configured surface); the conventional
no-RIS receiver is the special case E_l = I.
"""

import numpy as np

from .exceptions import DimensionError


def effective_front(H_l, psi_l):
    """E_l = H_l diag(psi_l) without forming the diagonal matrix.

    Broadcasts over leading axes: an (L, M, N) stack of fronts with (L, N)
    phase vectors gives the (L, M, N) stack of effective fronts.
    """
    return np.asarray(H_l) * np.asarray(psi_l)[..., None, :]


def effective_covariance(R_kl, front):
    """Q_kl = E_l R_kl E_l^H, the covariance of the effective channel."""
    if front is None:
        return np.asarray(R_kl, dtype=complex)
    x = front @ R_kl
    return x @ front.conj().T


def pilot_gram(copilot_Q, cfg):
    """Regularized pilot Gram tau_p * rho_p * sum_i Q_il + sigma^2 I."""
    m = copilot_Q[0].shape[0]
    g = np.zeros((m, m), dtype=complex)
    for q in copilot_Q:
        g += q
    g *= cfg.tau_p * cfg.pilot_power_w
    g += cfg.noise_power_w * np.eye(m)
    return g


def mmse_estimate(z_kl, R_kl, front, gram, cfg):
    """MMSE estimate sqrt(tau_p rho_p) R_kl E_l^H gram^{-1} z_kl."""
    m = gram.shape[0]
    if z_kl.shape[0] != m:
        raise DimensionError(f"statistic length {z_kl.shape[0]} does not match gram dim {m}")
    x = np.linalg.solve(gram, z_kl)
    back = x if front is None else front.conj().T @ x
    return np.sqrt(cfg.tau_p * cfg.pilot_power_w) * (R_kl @ back)


def error_covariance(R_kl, front, gram, cfg):
    """C_kl = R_kl - tau_p rho_p R_kl E^H gram^{-1} E R_kl (Hermitian PSD)."""
    x = R_kl if front is None else front @ R_kl  # (m, n)
    c = R_kl - cfg.tau_p * cfg.pilot_power_w * (x.conj().T @ np.linalg.solve(gram, x))
    return 0.5 * (c + c.conj().T)


class EffectiveStats:
    """Per-realization estimator bank shared by all coherence blocks.

    Precomputes the effective covariances Q_kl, the per-(pilot, AP) Grams
    G_tl = L_tl L_tl^H, one estimator map T_kl = sqrt(tau_p rho_p) Q_kl
    L_tl^-H per UE with t = t(k), and the effective error covariances F_kl.
    Blocks draw w_tl = L_tl^-1 z_tl ~ CN(0, I) in place of the statistic
    z_tl ~ CN(0, G_tl), so ghat_kl = T_kl w_tl is the MMSE estimate
    sqrt(tau_p rho_p) Q_kl G_tl^-1 z_tl; all UEs' estimates are one batched
    gemm of T with the blocks as the columns. Members are immutable.
    """

    def __init__(self, R, fronts, pilot_of, cfg):
        K, L, n, _ = R.shape
        m = n if fronts is None else fronts.shape[1]
        tpp = cfg.tau_p * cfg.pilot_power_w
        self.K, self.L, self.m = K, L, m
        self.pilot_of = np.asarray(pilot_of)

        if fronts is None:
            self.Q = np.asarray(R, dtype=complex)
        else:
            fh = fronts.conj().swapaxes(-1, -2)
            self.Q = (fronts[None] @ R) @ fh[None]

        noise = cfg.noise_power_w * np.eye(m)
        onehot = (np.arange(cfg.tau_p)[:, None] == self.pilot_of[None, :]).astype(float)  # (tau_p, K)
        self.G = np.tensordot(tpp * onehot, self.Q, axes=1)
        self.G += noise
        linv = np.linalg.inv(np.linalg.cholesky(self.G))[self.pilot_of]   # L_{t(k),l}^-1, (K, L, m, m)
        q_lh = self.Q @ linv.conj().swapaxes(-1, -2)
        # Effective error covariance F_kl = (Q L^-H)(L^-1 rest), where rest =
        # G - tpp Q_kl is summed from the other co-pilot UEs, never
        # subtracted: at high pilot SNR Q_kl dominates G and the difference
        # cancels.
        copilot = onehot.T @ onehot - np.eye(K)
        rest = np.tensordot(tpp * copilot, self.Q, axes=1)
        rest += noise
        f = q_lh @ (linv @ rest)
        self.F = 0.5 * (f + np.conj(np.swapaxes(f, -1, -2)))
        self.T = np.sqrt(tpp) * q_lh

    def sample_pilot_statistics(self, rng, blocks):
        """White draws w ~ CN(0, I), independent across (block, pilot, AP).

        Shape (blocks, tau_p, L, m). Real parts: the first standard_normal
        draw of that shape; imaginary parts: the second.
        """
        shape = (blocks,) + self.G.shape[:2] + (self.m,)
        w = np.empty(shape, dtype=complex)
        w.real = rng.standard_normal(shape)
        w.imag = rng.standard_normal(shape)
        w *= np.sqrt(0.5)
        return w

    def effective_estimates(self, w):
        """ghat[b, l, :, k] = T_kl w[b, t(k), l]; shape (blocks, L, m, K).

        One batched gemm with the blocks as the columns writes (K, L, m,
        blocks); the copy into the C-contiguous result runs per AP, in cache.
        """
        e = self.T @ w[:, self.pilot_of].transpose(1, 2, 3, 0)
        ghat = np.empty((w.shape[0], self.L, self.m, self.K), dtype=complex)
        for l in range(self.L):
            ghat[:, l] = e[:, l].transpose(2, 1, 0)
        return ghat
