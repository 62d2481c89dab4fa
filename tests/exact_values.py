"""Reference values at 40 significant digits, shared by the tests.

Each function evaluates the textbook form of a quantity in mpmath arithmetic,
so that the library's double-precision results can be checked far below the
rounding of any float64 path.
"""

import mpmath
import numpy as np

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

    UEs with the same serving set and partner set form a group. Per group,
    Lambda = sigma2 I + eta sum_partners F_i is block diagonal over the
    serving APs and is inverted once per AP block. With G the partners' estimates and S = I +
    eta G^H Lambda^-1 G, UE k's combiner v = Lambda^-1 G S^-1 e_k is
    (Lambda + eta G G^H)^-1 ghat_k up to a scale the SINR ignores, and the
    SINR takes every UE's power and all K error blocks. Vectors are lists of
    mpc, stacked over the serving APs.
    """
    blocks, L, m, K = ghat.shape
    dot = mpmath.fdot
    groups = {}
    for k in range(K):
        groups.setdefault((tuple(assoc.serving_sets[k]), tuple(assoc.pmmse_partners(k))), []).append(k)
    with mpmath.workdps(DIGITS):
        eta, sigma2 = mpmath.mpf(cfg.data_power_w), mpmath.mpf(cfg.noise_power_w)
        noise = sigma2 * mpmath.eye(m)
        f = [[eta * mpmath.matrix(F[i, l].tolist()) for l in range(L)] for i in range(K)]
        err_noise = [_rows(sum((f[i][l] for i in range(K)), noise)) for l in range(L)]
        g_mp = [[[[mpmath.mpc(x) for x in g[l, :, i]] for i in range(K)] for l in range(L)] for g in ghat]
        total = [mpmath.mpf(0)] * K
        for (idx, partners), members in groups.items():
            lam_inv = {l: _rows(mpmath.inverse(sum((f[i][l] for i in partners), noise))) for l in idx}
            for g in g_mp:
                col = [[x for l in idx for x in g[l][i]] for i in range(K)]       # ghat_i on the serving APs
                lam_g = [[dot(row, g[l][i]) for l in idx for row in lam_inv[l]] for i in partners]
                s = mpmath.eye(len(partners))
                for a, i in enumerate(partners):
                    for b in range(a, len(partners)):
                        s[a, b] += eta * dot(lam_g[b], col[i], conjugate=True)
                        s[b, a] = mpmath.conj(s[a, b])
                s_inv = mpmath.inverse(s)
                for k in members:
                    y = s_inv.column(partners.index(k))
                    v = [dot(row, y) for row in zip(*lam_g)]
                    power = [eta * abs(dot(c, v, conjugate=True)) ** 2 for c in col]
                    rest = mpmath.mpf(0)
                    for j, l in enumerate(idx):
                        v_l = v[j * m:(j + 1) * m]
                        rest += mpmath.re(dot([dot(row, v_l) for row in err_noise[l]], v_l, conjugate=True))
                    total[k] += mpmath.log(1 + power[k] / (sum(power) - power[k] + rest), 2)
        return np.array([float(t / blocks) * (cfg.tau_c - cfg.tau_p) / cfg.tau_c for t in total])


def _rows(a):
    """The rows of an mpmath matrix as lists."""
    return [[a[r, c] for c in range(a.cols)] for r in range(a.rows)]
