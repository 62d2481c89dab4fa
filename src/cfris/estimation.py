"""Pilot processing: the estimator bank and its per-pair reference.

Everything is expressed through the effective front matrix E_l = H_l Psi_l
(the array response seen through the configured surface); the conventional
no-RIS receiver is the special case E_l = I, passed as front None.
"""

import numpy as np

from .linalg import psd_sqrt, tril_inv


def effective_front(H_l, psi_l):
    """E_l = H_l diag(psi_l) without forming the diagonal matrix.

    Broadcasts over leading axes: an (L, M, N) stack of fronts with (L, N)
    phase vectors gives the (L, M, N) stack of effective fronts.
    """
    return np.asarray(H_l) * np.asarray(psi_l)[..., None, :]


def effective_covariance(R_kl, front):
    """Q_kl = E_l (R_kl E_l^H), the covariance of the effective channel; R_kl itself without a front.
    Broadcasts over leading axes, as the bank passes one AP's (K, n, n) matrices with its (m, n) front."""
    if front is None:
        return np.asarray(R_kl, dtype=complex)
    return front @ (R_kl @ front.conj().swapaxes(-1, -2))


def _copilot_rest(copilot_Q, m, cfg):
    """rest = sigma^2 I + tau_p rho_p sum_i Q_il over the other co-pilot UEs (there may be none)."""
    return cfg.noise_power_w * np.eye(m) + cfg.tau_p * cfg.pilot_power_w * sum(copilot_Q, np.zeros((m, m)))


def mmse_estimator(R_kl, front, copilot_Q, cfg):
    """The n x m map sqrt(tpp) R E^H (rest + tpp E R E^H)^-1, tpp = tau_p rho_p, that takes the
    statistic z_kl to the MMSE estimate of h_kl; copilot_Q holds the other co-pilot UEs' Q_il."""
    tpp = cfg.tau_p * cfg.pilot_power_w
    x = np.asarray(R_kl, dtype=complex) if front is None else front @ R_kl   # E R, (m, n)
    gram = _copilot_rest(copilot_Q, x.shape[0], cfg) + tpp * effective_covariance(R_kl, front)
    return np.sqrt(tpp) * np.linalg.solve(gram, x).conj().T


def error_covariance(R_kl, front, copilot_Q, cfg):
    """C_kl = S (I + tpp S E^H rest^-1 E S)^-1 S, S = R_kl^(1/2), for the same inputs: the
    information form (Kay, Estimation Theory, Ch. 10-11) subtracts nothing, so it does not
    cancel at high pilot SNR, and it holds for singular R_kl."""
    s = psd_sqrt(R_kl)
    es = s if front is None else front @ s
    info = es.conj().T @ np.linalg.solve(_copilot_rest(copilot_Q, es.shape[0], cfg), es)
    c = s @ np.linalg.solve(np.eye(s.shape[0]) + cfg.tau_p * cfg.pilot_power_w * info, s)
    return 0.5 * (c + c.conj().T)


class EffectiveStats:
    """Per-realization estimator bank shared by all coherence blocks.

    Keeps per UE k and AP l only the estimator map T_kl = sqrt(tau_p rho_p)
    Q_kl L_tl^-H, t = t(k), and the effective error covariance F_kl; the
    effective covariances Q_kl and the pilot Grams G_tl = L_tl L_tl^H are
    not kept. Blocks draw w_tl = L_tl^-1 z_tl ~ CN(0, I) in place of the
    statistic z_tl ~ CN(0, G_tl), so ghat_kl = T_kl w_tl is the MMSE estimate
    sqrt(tau_p rho_p) Q_kl G_tl^-1 z_tl; all UEs' estimates at an AP are one
    batched gemm of T with the blocks as the columns. Members are immutable;
    the SE kernel owns a chunk's draws and may overwrite them and its estimates.

    L^-1 is the triangular inverse of the Cholesky factor (linalg.tril_inv),
    formed over the factor itself.
    When no UE shares its pilot (K <= tau_p) the co-pilot sum is empty, so
    F_kl = (Q_kl L^-H)(sigma^2 L^-1) forms no sum and no product with it; and
    since UE k < tau_p keeps pilot k, the per-UE pilot gathers are then
    slices that copy nothing.

    R is a (K, L, n, n) array or a network.LatticeCorrelation, read AP by
    AP: Q[:, l] is effective_covariance of R[:, l] and E_l (or no front).
    """

    def __init__(self, R, fronts, pilot_of, cfg):
        K, L, n, _ = R.shape
        m = n if fronts is None else fronts.shape[1]
        tpp = cfg.tau_p * cfg.pilot_power_w
        self.K, self.L, self.m, self.tau_p = K, L, m, cfg.tau_p
        self.pilot_of = np.asarray(pilot_of)
        # pilots in UE order (K <= tau_p) make the gather t(k) a slice
        self._pilots = slice(K) if np.array_equal(self.pilot_of, np.arange(K)) else self.pilot_of

        Q = np.empty((K, L, m, m), dtype=complex)
        for l in range(L):
            Q[:, l] = effective_covariance(R[:, l], None if fronts is None else fronts[l])

        onehot = (np.arange(cfg.tau_p)[:, None] == self.pilot_of[None, :]).astype(float)  # (tau_p, K)
        gram = np.tensordot(tpp * onehot, Q, axes=1)
        gram += cfg.noise_power_w * np.eye(m)
        # Each (K, L, m, m) stack is dropped once used and the later steps work in place, so a
        # bank holds at most three at a time, four with co-pilots (a test pins five at toy size).
        factor = np.linalg.cholesky(gram)
        del gram
        linv = tril_inv(factor)[self._pilots]   # L_{t(k),l}^-1, (K, L, m, m)
        del factor
        np.conj(linv, out=linv)
        q_lh = Q @ linv.swapaxes(-1, -2)
        np.conj(linv, out=linv)
        # Effective error covariance F_kl = (Q L^-H)(L^-1 rest), where rest =
        # G - tpp Q_kl is summed from the other co-pilot UEs, never
        # subtracted: at high pilot SNR Q_kl dominates G and the difference
        # cancels. Without co-pilots rest = sigma^2 I, and L^-1 rest is L^-1
        # scaled, bit for bit.
        copilot = onehot.T @ onehot - np.eye(K)
        if copilot.any():
            rest = np.tensordot(tpp * copilot, Q, axes=1)
            del Q
            rest += cfg.noise_power_w * np.eye(m)
            linv = linv @ rest
            del rest
        else:
            del Q
            linv *= cfg.noise_power_w
        f = q_lh @ linv
        del linv
        f += f.conj().swapaxes(-1, -2)
        f *= 0.5
        q_lh *= np.sqrt(tpp)
        self.F, self.T = f, q_lh

    def sample_pilot_statistics(self, rng, blocks):
        """White draws w ~ CN(0, I), independent across (block, pilot, AP), in a fresh (blocks, tau_p, L, m) array
        filled by fill_pilot_statistics. effective_estimates may overwrite w."""
        w = np.empty((blocks, self.tau_p, self.L, self.m), dtype=complex)
        self.fill_pilot_statistics(rng, w)
        return w

    def fill_pilot_statistics(self, rng, w):
        """Fill the caller's complex (blocks, tau_p, L, m) array w with white draws w ~ CN(0, I).

        One standard_normal call fills w viewed as floats: real and imaginary parts interleaved, block-major,
        so any split of the blocks into chunks draws the same values. numpy releases the GIL while it draws,
        so another thread can fill the next chunk while the caller evaluates this one.
        """
        rng.standard_normal(out=w.view(float))
        w *= np.sqrt(0.5)

    def effective_estimates(self, w):
        """ghat[b, l, :, k] = T_kl w[b, t(k), l]; shape (blocks, L, m, K).

        Per AP l one batched gemm, T[:, l] @ w[:, t(k), l] with the blocks as
        the columns (K products of m x m by m x blocks), is written back over
        its operand, the pilot-gathered draws w[:, t(k)], and ghat is that
        buffer transposed, each block's (K, L, m) contiguous. With pilots in UE order (K <= tau_p) the
        gather is w itself, which is then overwritten; otherwise it is np.take's C-ordered copy.
        """
        g = w[:, self._pilots] if isinstance(self._pilots, slice) else np.take(w, self._pilots, axis=1)
        for l in range(self.L):
            x = g[:, :, l].transpose(1, 2, 0)          # (K, m, blocks)
            x[...] = self.T[:, l] @ x
        return g.transpose(0, 2, 3, 1)
