"""Pilot processing: sufficient statistics, MMSE estimates, error covariances.

Everything is expressed through the effective front matrix E_l = H_l Psi_l
(the array response seen through the configured surface); the conventional
no-RIS receiver is the special case E_l = I. The per-pilot sufficient
statistic is simulated directly (correlating the full pilot matrix with the
pilot sequence gives the identical quantity; a test guards the equivalence).
"""

import numpy as np

from .exceptions import DimensionError, SingularMatrixError


def effective_front(H_l, psi_l):
    """E_l = H_l diag(psi_l) without forming the diagonal matrix."""
    return np.asarray(H_l) * np.asarray(psi_l)[None, :]


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
    try:
        x = np.linalg.solve(gram, z_kl)
    except np.linalg.LinAlgError as exc:  # cannot occur with sigma^2 > 0
        raise SingularMatrixError("pilot gram is singular") from exc
    back = x if front is None else front.conj().T @ x
    return np.sqrt(cfg.tau_p * cfg.pilot_power_w) * (R_kl @ back)


def error_covariance(R_kl, front, gram, cfg):
    """C_kl = R_kl - tau_p rho_p R_kl E^H gram^{-1} E R_kl (Hermitian PSD)."""
    x = R_kl if front is None else front @ R_kl  # (m, n)
    c = R_kl - cfg.tau_p * cfg.pilot_power_w * (x.conj().T @ np.linalg.solve(gram, x))
    return 0.5 * (c + c.conj().T)


class EffectiveStats:
    """Per-realization estimator bank shared by all coherence blocks.

    Precomputes the effective covariances Q_kl, per-(pilot, AP) Grams with
    their Cholesky factors, the linear estimator maps for the effective
    estimates, and the effective error covariances. All members are
    immutable after construction.
    """

    def __init__(self, R, fronts, pilot_of, cfg):
        K, L, n, _ = R.shape
        m = n if fronts is None else fronts.shape[1]
        tau_p = cfg.tau_p
        tpp = tau_p * cfg.pilot_power_w
        self.K, self.L, self.m = K, L, m
        self.pilot_of = np.asarray(pilot_of)

        if fronts is None:
            self.Q = np.asarray(R, dtype=complex)
        else:
            fh = fronts.conj().swapaxes(-1, -2)
            self.Q = (fronts[None] @ R) @ fh[None]

        eye = np.eye(m)
        self.G = np.empty((tau_p, L, m, m), dtype=complex)
        for t in range(tau_p):
            users = np.where(self.pilot_of == t)[0]
            g = tpp * self.Q[users].sum(axis=0) if users.size else np.zeros((L, m, m), dtype=complex)
            self.G[t] = g + cfg.noise_power_w * eye
        self.chol_G = np.linalg.cholesky(self.G)
        self.Ginv = np.linalg.inv(self.G)

        # Effective-estimate map: ghat_kl = W_kl z_{t(k),l}
        ginv_per_ue = self.Ginv[self.pilot_of]              # (K, L, m, m)
        q_ginv = self.Q @ ginv_per_ue
        self.W = np.sqrt(tpp) * q_ginv
        # Effective error covariance F_kl = Q - tpp Q Ginv Q
        f = self.Q - tpp * (q_ginv @ self.Q)
        self.F = 0.5 * (f + np.conj(np.swapaxes(f, -1, -2)))

    def sample_pilot_statistics(self, rng, blocks):
        """Exact draws of z_{t,l} for a batch of coherence blocks.

        z is jointly Gaussian and independent across (pilot, AP), so it is
        sampled from its marginal CN(0, G_{t,l}); shape (blocks, tau_p, L, m).
        """
        shape = (blocks,) + self.G.shape[:2] + (self.m,)
        w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        return np.einsum("tlmn,btln->btlm", self.chol_G, w)

    def effective_estimates(self, z):
        """ghat[b, l, :, k] = W_kl z[b, t(k), l]; shape (blocks, L, m, K)."""
        blocks = z.shape[0]
        ghat = np.empty((blocks, self.L, self.m, self.K), dtype=complex)
        for k in range(self.K):
            ghat[..., k] = np.einsum("lmn,bln->blm", self.W[k], z[:, self.pilot_of[k]])
        return ghat
