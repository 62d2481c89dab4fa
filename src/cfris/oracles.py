"""Self-contained consistency oracles, runnable from the CLI.

Each check recomputes an expected value through an independent route
(Monte Carlo, exhaustive search, or an alternative algebraic form) and
compares it with the library implementation. Returns (name, ok, detail)
tuples so the CLI can print one line per check. The estimation, optimizer
and receiver suites are also acceptance criteria 5-7.
"""

import time
import warnings

import numpy as np

from .association import Association, assign_pilots_and_clusters
from .config import SimConfig
from .estimation import EffectiveStats, effective_covariance, effective_front, error_covariance, mmse_estimator
from .experiment import _TAG_NETWORK, _rng, block_batched_se, front_channels
from .linalg import sample_complex_gaussian
from .network import (ChannelStats, NetworkRealization, active_array_positions, build_ap_ris_channels,
                      build_spatial_correlation, generate_realization, ris_grid_positions, spatial_correlation_matrices)
from .receiver import _restricted_outer_sum, instantaneous_sinr, mmse_combiner, pmmse_combiner, spectral_efficiency
from .ris import (build_objective, constrained_power_iteration, quadratic_objective, received_signal_strength,
                  select_long_term_config)


def _random_psd(rng, n, scale=1.0):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (x @ x.conj().T) / n


def check_estimation_suite(rng):
    """MMSE estimation: orthogonality, cov(estimate) + error cov = prior, MC match within 3%."""
    start = time.perf_counter()
    cfg = SimConfig(L=1, K=2, M=2, N=4, tau_p=1, ris_rows=2, ris_cols=2)
    n, m = 4, 2
    scale = cfg.noise_power_w
    r_k = _random_psd(rng, n, scale)
    r_i = _random_psd(rng, n, scale)
    front = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    others = [effective_covariance(r_i, front)]
    t = mmse_estimator(r_k, front, others, cfg)
    c = error_covariance(r_k, front, others, cfg)

    # cov(estimate) = t cov(z) t^H = sqrt(tpp) t E R, against the information-form C
    tpp = cfg.tau_p * cfg.pilot_power_w
    cov_hat_analytic = np.sqrt(tpp) * t @ front @ r_k
    decomposition = np.linalg.norm(cov_hat_analytic + c - r_k) / np.linalg.norm(r_k)

    draws = 100_000
    h_k = sample_complex_gaussian(r_k, rng, size=draws)
    h_i = sample_complex_gaussian(r_i, rng, size=draws)
    noise = np.sqrt(cfg.noise_power_w / 2.0) * (
        rng.standard_normal((draws, m)) + 1j * rng.standard_normal((draws, m))
    )
    z = np.sqrt(tpp) * (h_k + h_i) @ front.T + noise
    h_hat = z @ t.T
    err = h_k - h_hat

    # orthogonality: estimate and error are uncorrelated
    cross = err.T @ h_hat.conj() / draws
    ortho = np.linalg.norm(cross) / np.linalg.norm(cov_hat_analytic)
    # Monte Carlo error covariance matches the analytic one
    c_emp = err.T @ err.conj() / draws
    mc_match = np.linalg.norm(c_emp - c) / np.linalg.norm(c)

    elapsed = time.perf_counter() - start
    ok = decomposition <= 1e-12 and ortho <= 0.03 and mc_match <= 0.03 and elapsed < 60
    return (
        "estimation suite: orthogonality, cov(estimate)+error-cov = prior, MC match within 3%",
        ok,
        f"decomp {decomposition:.1e}, ortho {ortho:.3f}, MC {mc_match:.3f}, {elapsed:.1f}s",
    )


def check_optimizer_suite(rng):
    """Phase optimizer: objective identity, monotone iteration, rank-one optimum, 64-level grid."""
    start = time.perf_counter()

    # lifted quadratic form equals the direct trace objective (1e-10)
    worst_identity = 0.0
    for _ in range(100):
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        obj = build_objective([_random_psd(rng, 4), _random_psd(rng, 4)], h)
        psi = np.exp(2j * np.pi * rng.uniform(size=4))
        lifted = quadratic_objective(psi, obj.A)
        direct = received_signal_strength(psi, obj.B, h)
        worst_identity = max(worst_identity, abs(lifted - direct) / max(abs(direct), 1e-300))

    # monotone objective on 1000 random PSD instances (1e-9 slack)
    monotone = True
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(1000):
            a = _random_psd(rng, 5)
            start_obj = quadratic_objective(np.ones(5, dtype=complex), a)
            try:
                psi = constrained_power_iteration(a)
            except RuntimeWarning:
                monotone = False
                break
            if quadratic_objective(psi, a) < start_obj - 1e-9 * abs(start_obj):
                monotone = False
                break

    # rank-one instances have a closed-form optimum (sum |a_n|)^2
    rank_one_ok = True
    for _ in range(20):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        A = np.outer(a.conj(), a)
        psi = constrained_power_iteration(A)
        achieved = quadratic_objective(psi, A)
        if abs(achieved - np.sum(np.abs(a)) ** 2) > 1e-9 * achieved:
            rank_one_ok = False
            break

    # exhaustive 64-level grid on N=3 within 1%
    levels = np.exp(2j * np.pi * np.arange(64) / 64)
    gi, gj, gk = np.meshgrid(levels, levels, levels, indexing="ij")
    grid = np.stack([gi.ravel(), gj.ravel(), gk.ravel()], axis=1)
    grid_ok = True
    for _ in range(5):
        a = _random_psd(rng, 3)
        psi = constrained_power_iteration(a)
        best = np.einsum("np,pq,nq->n", grid.conj(), a, grid).real.max()
        if quadratic_objective(psi, a) < 0.99 * best:
            grid_ok = False
            break

    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-10 and monotone and rank_one_ok and grid_ok and elapsed < 60
    return (
        "optimizer suite: objective identity, monotone iteration, rank-one optimum, 64-level grid",
        ok,
        f"identity {worst_identity:.1e}, monotone {monotone}, rank-one {rank_one_ok}, "
        f"grid {grid_ok}, {elapsed:.1f}s",
    )


def _random_receiver_instance(rng, cfg, serving):
    K, L, m = cfg.K, cfg.L, cfg.M
    scale = cfg.noise_power_w / cfg.data_power_w
    ghat = np.sqrt(scale) * (
        rng.standard_normal((K, L, m)) + 1j * rng.standard_normal((K, L, m))
    )
    F = np.stack(
        [np.stack([_random_psd(rng, m, scale) for _ in range(L)]) for _ in range(K)]
    )
    serving = np.asarray(serving, dtype=bool)
    assoc = Association(
        pilot_of=np.arange(K),
        master_ap=np.argmax(serving, axis=0),
        serving_matrix=serving,
    )
    return ghat, F, assoc


def check_receiver_suite(rng):
    """Receiver: SINR identity (direct form against the quotient eta |v^H ghat_k|^2 / v^H B v),
    MMSE dominance (the MMSE SINR equals eta ghat_k^H B^-1 ghat_k, by Cauchy-Schwarz the quotient's
    maximum over all v), scale invariance, partial = full on overlap."""
    cfg = SimConfig(L=2, K=3, M=2, N=2, tau_p=3, ris_rows=1, ris_cols=2)
    serving = [[True, True, False], [True, False, True]]
    eta = np.full(cfg.K, cfg.data_power_w)

    worst_identity = 0.0
    worst_scale = 0.0
    worst_optimality = 0.0
    for _ in range(100):
        ghat, F, assoc = _random_receiver_instance(rng, cfg, serving)
        k = int(rng.integers(3))
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direct = instantaneous_sinr(k, v, ghat, F, assoc, cfg)
        others = ghat.copy()
        others[k] = 0.0   # B: the other UEs' outer products, all K error blocks and the noise
        idx, d, B = _restricted_outer_sum(k, others, F, assoc, eta, cfg.noise_power_w, range(cfg.K))
        vs, gs = v.reshape(cfg.L, -1)[idx].reshape(d), ghat[k][idx].reshape(d)
        quotient = eta[k] * abs(np.vdot(vs, gs)) ** 2 / np.vdot(vs, B @ vs).real
        worst_identity = max(worst_identity, abs(direct - quotient) / direct)
        scaled = instantaneous_sinr(k, (1.7 + 0.3j) * v, ghat, F, assoc, cfg)
        worst_scale = max(worst_scale, abs(scaled - direct) / direct)

        best = eta[k] * np.vdot(gs, np.linalg.solve(B, gs)).real
        mmse = instantaneous_sinr(k, mmse_combiner(k, ghat, F, assoc, cfg), ghat, F, assoc, cfg)
        worst_optimality = max(worst_optimality, abs(mmse - best) / best)

    worst_overlap = 0.0
    for _ in range(10):
        ghat, F, assoc = _random_receiver_instance(rng, cfg, np.ones((2, 3), dtype=bool))
        for k in range(3):
            vm = mmse_combiner(k, ghat, F, assoc, cfg)
            vp = pmmse_combiner(k, ghat, F, assoc, cfg)
            worst_overlap = max(
                worst_overlap, np.linalg.norm(vm - vp) / np.linalg.norm(vm)
            )

    ok = (
        worst_identity <= 1e-12
        and worst_scale <= 1e-12
        and worst_optimality <= 1e-12
        and worst_overlap <= 1e-10
    )
    return (
        "receiver suite: SINR identity, MMSE dominance, scale invariance, partial = full on overlap",
        ok,
        f"identity {worst_identity:.1e}, scale {worst_scale:.1e}, optimality {worst_optimality:.1e}, "
        f"overlap {worst_overlap:.1e}",
    )


def _equivalence_drop(rng, cfg, beta):
    """Correlation matrices scaled by beta (K, L), DCC association and RIS fronts of a random drop."""
    K, L = beta.shape
    r = np.array([[beta[k, l] * _random_psd(rng, cfg.N) for l in range(L)] for k in range(K)])
    real = NetworkRealization(np.zeros((L, 2)), np.zeros((K, 2)), beta, np.zeros((K, L)))
    fronts = rng.standard_normal((L, cfg.M, cfg.N)) + 1j * rng.standard_normal((L, cfg.M, cfg.N))
    return r, assign_pilots_and_clusters(real, cfg), fronts


def _kernel_and_reference(stats, assoc, cfg, combiner, n_blocks):
    """Per-UE SE of the batched kernel and of the reference chain on the same pilot draws, and
    per UE the largest condition number of the system the reference combiner solves."""
    fast = block_batched_se(stats, assoc, cfg, np.random.default_rng(1234), combiner, n_blocks)
    w = stats.sample_pilot_statistics(np.random.default_rng(1234), n_blocks)
    ghat_all = np.moveaxis(stats.effective_estimates(w), -1, 1)   # (b, K, L, m)
    combine = pmmse_combiner if combiner == "pmmse" else mmse_combiner
    F, eta = stats.F, np.full(stats.K, cfg.data_power_w)
    reference, cond = np.empty(stats.K), np.empty(stats.K)
    for k in range(stats.K):
        partners = assoc.pmmse_partners(k) if combiner == "pmmse" else range(stats.K)
        reference[k] = spectral_efficiency(
            [instantaneous_sinr(k, combine(k, g, F, assoc, cfg), g, F, assoc, cfg) for g in ghat_all], cfg)
        cond[k] = np.linalg.cond([_restricted_outer_sum(k, g, F, assoc, eta, cfg.noise_power_w, partners)[2]
                                  for g in ghat_all]).max()
    return fast, reference, cond


def check_fast_path_equivalence(rng):
    """Batched runner SE equals the per-block reference combining chain, for both combiners,
    RIS fronts and the no-RIS front (None), on a K > tau_p drop (UEs with their own serving
    sets), a K <= tau_p drop (every AP serves every UE: all UEs form one group) and a K < tau_p
    drop on a 4 x 4 grid, whose no-RIS bank inverts 16 x 16 factors recursively and has no
    co-pilot UEs."""
    worst = cond = 0.0
    for K, tau_p, side in ((4, 2, 2), (3, 3, 2), (3, 4, 4)):
        cfg = SimConfig(L=3, K=K, M=2, N=side * side, tau_p=tau_p, ris_rows=side, ris_cols=side)
        beta = rng.uniform(0.5, 2.0, size=(K, 3)) * cfg.noise_power_w / cfg.data_power_w
        r, assoc, fronts = _equivalence_drop(rng, cfg, beta)
        for front in (fronts, None):
            stats = EffectiveStats(r, front, assoc.pilot_of, cfg)
            for combiner in ("pmmse", "mmse"):
                fast, reference, kappa = _kernel_and_reference(stats, assoc, cfg, combiner, n_blocks=5)
                worst = max(worst, float(np.max(np.abs(fast - reference) / reference)))
                cond = max(cond, float(kappa.max()))
    return "batched SE reference equivalence", worst <= 1e-10, f"max rel err {worst:.2e}, max cond {cond:.1e}"


def _copilot_reference(form, R, fronts, pilot_of, cfg, k, l):
    """form(R_kl, E_l, others, cfg), the others being the effective covariances at AP l of the
    UEs other than k on k's pilot: the reference estimator map or error covariance."""
    front = None if fronts is None else fronts[l]
    others = [effective_covariance(R[i, l], front) for i in np.flatnonzero(pilot_of == pilot_of[k]) if i != k]
    return form(R[k, l], front, others, cfg)


def _estimate_cross_covariance(R, fronts, pilot_of, cfg, k, i, l):
    """E[ghat_kl ghat_il^H] = sqrt(tpp) Q_kl (E_l B_il)^H = tpp Q_kl G^-1 Q_il for co-pilot UEs k
    and i, with B_il the reference MMSE map of UE i at AP l."""
    front = None if fronts is None else fronts[l]
    b = _copilot_reference(mmse_estimator, R, fronts, pilot_of, cfg, i, l)
    e_b = b if front is None else front @ b
    return np.sqrt(cfg.tau_p * cfg.pilot_power_w) * effective_covariance(R[k, l], front) @ e_b.conj().T


def estimate_moment_error(stats, R, fronts, cfg, w):
    """Largest deviation of the sample E[ghat_kl ghat_il^H] over the white draws w from the
    reference cross-covariance for co-pilot UEs k, i (0 for the others), relative to
    sqrt(||Q_kl - F_kl|| ||Q_il - F_il||), the two estimates' covariance norms."""
    ghat = stats.effective_estimates(w)
    pilot_of = stats.pilot_of
    worst = 0.0
    for l in range(stats.L):
        Q = [effective_covariance(R[k, l], None if fronts is None else fronts[l]) for k in range(stats.K)]
        for k, i in np.ndindex(stats.K, stats.K):
            cov = ghat[:, l, :, k].T @ ghat[:, l, :, i].conj() / w.shape[0]
            expected = np.zeros_like(cov)
            if pilot_of[k] == pilot_of[i]:
                expected = _estimate_cross_covariance(R, fronts, pilot_of, cfg, k, i, l)
            scale = np.sqrt(np.linalg.norm(Q[k] - stats.F[k, l]) * np.linalg.norm(Q[i] - stats.F[i, l]))
            worst = max(worst, np.linalg.norm(cov - expected) / scale)
    return worst


def check_estimate_moments(rng):
    """Estimator bank: over 100,000 white draws the sample E[ghat_k ghat_i^H] is the reference
    cross-covariance for co-pilot UEs k, i and 0 for the others, within 3%."""
    cfg = SimConfig(L=2, K=3, M=2, N=4, tau_p=2, ris_rows=2, ris_cols=2)
    R = np.array([[_random_psd(rng, cfg.N, cfg.noise_power_w) for _ in range(cfg.L)] for _ in range(cfg.K)])
    fronts = rng.standard_normal((cfg.L, cfg.M, cfg.N)) + 1j * rng.standard_normal((cfg.L, cfg.M, cfg.N))
    stats = EffectiveStats(R, fronts, np.array([0, 1, 0]), cfg)
    worst = estimate_moment_error(stats, R, fronts, cfg, stats.sample_pilot_statistics(rng, 100_000))
    return "estimator bank moments within 3% of the reference cross-covariances", worst <= 0.03, f"max rel dev {worst:.3f}"


def correlation_build_error(real, cfg, element_positions, fronts=None):
    """Largest relative Frobenius deviation of the batched correlation build from the per-pair one:
    of each gathered R_kl and, given fronts E (L, m, n) on these elements, of the stack's E_l R_kl E_l^H
    from effective_covariance of the per-pair build."""
    batched = spatial_correlation_matrices(real, cfg, element_positions)
    Q = None if fronts is None else batched.effective_covariances(fronts)
    worst = 0.0
    for k, l in np.ndindex(real.beta.shape):
        reference = build_spatial_correlation(
            real.ue_positions[k], real.ap_positions[l], real.beta[k, l], cfg, element_positions)
        pairs = [(batched[k, l], reference)]
        if fronts is not None:
            pairs.append((Q[k, l], effective_covariance(reference, fronts[l])))
        worst = max(worst, *(np.linalg.norm(got - want) / np.linalg.norm(want) for got, want in pairs))
    return worst


def check_correlation_build_equivalence(rng):
    """Batched correlation build equals the per-pair reference on a random drop: R for a planar AP
    array, and R and E R E^H off the per-AP offset basis for the RIS grid on random phases."""
    cfg = SimConfig(L=6, K=5, M=6, array_geometry="planar")
    real = generate_realization(cfg, rng)
    fronts = effective_front(build_ap_ris_channels(cfg, [rng] * cfg.L),
                             np.exp(2j * np.pi * rng.uniform(size=(cfg.L, cfg.N))))
    worst = max(correlation_build_error(real, cfg, active_array_positions(cfg)),
                correlation_build_error(real, cfg, ris_grid_positions(cfg), fronts))
    return "correlation build reference equivalence", worst <= 1e-12, f"max rel err {worst:.2e}"


def phase_bound_ratios(cfg, drops, rng, draws):
    """Per serving AP of the given drops of cfg: the optimised phases' psi^H A psi over the smaller
    of two upper bounds on its maximum over unit-modulus psi, N lambda_max(A) and sum_ij |A_ij|,
    and the mean of psi^H A psi / tr B over `draws` i.i.d. uniform phase vectors drawn from rng."""
    fronts = front_channels(cfg)
    ratios, random_gains = [], []
    for drop in drops:
        real = generate_realization(cfg, _rng(cfg.seed, _TAG_NETWORK, drop))
        assoc = assign_pilots_and_clusters(real, cfg)
        stats = ChannelStats(spatial_correlation_matrices(real, cfg, ris_grid_positions(cfg)), fronts)
        psi = select_long_term_config(stats, assoc, cfg)
        for l, served in enumerate(assoc.served_sets):
            if not served:
                continue
            obj = build_objective([stats.R[k, l] for k in served], fronts[l])
            bound = min(cfg.N * np.linalg.eigvalsh(obj.A)[-1], np.abs(obj.A).sum())
            ratios.append(quadratic_objective(psi[l], obj.A) / bound)
            phases = np.exp(2j * np.pi * rng.uniform(size=(draws, cfg.N)))
            values = np.einsum("dn,nm,dm->d", phases.conj(), obj.A, phases).real
            random_gains.append(values.mean() / np.trace(obj.B).real)
    return np.array(ratios), np.array(random_gains)


def check_phase_optimizer_bound(rng):
    """Phase optimiser on the default geometry (seed 1, drops 0-2): at every serving AP the optimised
    phases reach at least 0.85 of min(N lambda_max(A), sum |A|), and random phases give
    E[psi^H A psi] = tr A = tr B (unit-norm front columns) within 3% over all APs' draws."""
    ratios, random_gains = phase_bound_ratios(SimConfig(seed=1), range(3), rng, draws=200)
    random_mean = float(random_gains.mean())
    ok = ratios.min() >= 0.85 and abs(random_mean - 1.0) <= 0.03
    return ("phase optimizer within 0.85 of its upper bound, random phases at tr B", ok,
            f"bound ratio min {ratios.min():.3f}, median {np.median(ratios):.3f} over {ratios.size} APs; "
            f"random E[psi^H A psi]/tr B {random_mean:.3f}")


ALL_CHECKS = (
    check_estimation_suite,
    check_optimizer_suite,
    check_receiver_suite,
    check_fast_path_equivalence,
    check_correlation_build_equivalence,
    check_estimate_moments,
    check_phase_optimizer_bound,
)


def run_all():
    return [check(np.random.default_rng(np.random.SeedSequence([0, index]))) for index, check in enumerate(ALL_CHECKS)]
