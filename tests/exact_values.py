"""Reference values at 40 significant digits, shared by the tests.

Each function evaluates the textbook form of a quantity in mpmath arithmetic,
so that the library's double-precision results can be checked far below the
rounding of any float64 path.
"""

import mpmath
import numpy as np
from scipy.linalg import block_diag

DIGITS = 40


def error_covariance_distance(F_k, Q, pilot_of, k, noise_power_w, tpp):
    """Relative Frobenius distance of F_k from the exact MMSE error covariance.

    Q holds the (K, m, m) effective correlation matrices at one AP, tpp is
    tau_p times the pilot power, and the exact value is Q_k - tpp Q_k G^-1
    Q_k with G = sigma2 I + tpp sum Q_i over UE k's co-pilot UEs.
    """
    with mpmath.workdps(DIGITS):
        gram = mpmath.mpf(noise_power_w) * mpmath.eye(Q.shape[-1])
        for i in np.flatnonzero(pilot_of == pilot_of[k]):
            gram += tpp * mpmath.matrix(Q[i].tolist())
        q = mpmath.matrix(Q[k].tolist())
        exact = q - tpp * q * mpmath.inverse(gram) * q
        diff = mpmath.matrix(F_k.tolist()) - exact
        return float(mpmath.mnorm(diff, "F") / mpmath.mnorm(exact, "F"))


def pmmse_se(cfg, ghat, F, assoc):
    """Per-UE P-MMSE spectral efficiency over the blocks ghat (blocks, L, m, K).

    For each UE k the combiner is the direct solve of (Lambda + eta
    sum_partners ghat_i ghat_i^H) v = ghat_k on the UE's serving APs, and
    the SINR takes every UE's power and all K error blocks.
    """
    blocks, L, m, K = ghat.shape
    with mpmath.workdps(DIGITS):
        eta, sigma2 = mpmath.mpf(cfg.data_power_w), mpmath.mpf(cfg.noise_power_w)
        exact = []
        for k in range(K):
            idx, partners = assoc.serving_sets[k], assoc.pmmse_partners(k)
            lam = sigma2 * mpmath.eye(len(idx) * m)
            err_noise = lam.copy()
            for i in range(K):
                f = eta * mpmath.matrix(block_diag(*F[i, idx]).tolist())
                err_noise += f
                if i in partners:
                    lam += f
            total = mpmath.mpf(0)
            for g in ghat:
                cols = [mpmath.matrix(g[idx, :, i].reshape(-1).tolist()) for i in range(K)]
                sigma = lam.copy()
                for i in partners:
                    sigma += eta * cols[i] * cols[i].H
                v = mpmath.lu_solve(sigma, cols[k])
                power = [eta * abs((v.H * c)[0]) ** 2 for c in cols]
                rest = mpmath.re((v.H * err_noise * v)[0])
                total += mpmath.log(1 + power[k] / (sum(power) - power[k] + rest), 2)
            exact.append(float(total / blocks) * (cfg.tau_c - cfg.tau_p) / cfg.tau_c)
    return np.array(exact)
