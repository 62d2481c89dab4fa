"""Long-term RIS phase-shift selection per AP.

The per-AP objective is the total received signal strength of the served
UEs, a quadratic form psi^H A_l psi in the unit-modulus phase vector. It is
maximized with a constrained power iteration: normalize A psi, then project
every entry back onto the unit circle. Monotonicity of the objective is
measured at runtime (warning on decrease), not assumed.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eig

DEFAULT_ITERATIONS = 100
RELATIVE_GAIN_EXIT = 1e-8


@dataclass
class SignalStrengthObjective:
    """Quadratic-form data for one AP's phase optimization."""

    B: np.ndarray          # sum of served-UE correlation matrices (N x N)
    A: np.ndarray          # lifted objective matrix (N x N PSD)
    neutral: bool = False  # True when the AP serves nobody


def build_objective(served_R, H_l):
    """Assemble B_l and A_l from the served UEs' correlation matrices.

    A_l is built from the eigendecomposition of B_l, summing
    lambda_n diag(u_n^*) H^H H diag(u_n) over all eigenpairs.
    """
    n = H_l.shape[1]
    served_R = list(served_R)
    if not served_R:
        zero = np.zeros((n, n), dtype=complex)
        return SignalStrengthObjective(zero, zero.copy(), neutral=True)
    B = np.zeros((n, n), dtype=complex)
    for r in served_R:
        B += r
    B = 0.5 * (B + B.conj().T)
    eig = hermitian_eig(B)
    gram = H_l.conj().T @ H_l
    # sum_n lambda_n diag(u_n^*) gram diag(u_n), vectorized over eigenpairs
    u = eig.eigenvectors
    A = gram * ((u.conj() * eig.eigenvalues) @ u.T)
    return SignalStrengthObjective(B, 0.5 * (A + A.conj().T))


def received_signal_strength(psi, B, H_l):
    """Direct evaluation trace(H diag(psi) B diag(psi)^H H^H) for testing."""
    e = H_l * psi[None, :]
    return float(np.real(np.trace(e @ B @ e.conj().T)))


def quadratic_objective(psi, A):
    return float(np.real(psi.conj() @ A @ psi))


def constrained_power_iteration(A, iterations=DEFAULT_ITERATIONS):
    """Unit-modulus phase vector maximizing psi^H A psi (heuristically).

    Starts from the all-ones vector; exits early once the relative objective
    gain drops below RELATIVE_GAIN_EXIT. If A psi vanishes (possible when
    A = 0) the current iterate is returned unchanged.
    """
    n = A.shape[0]
    psi = np.ones(n, dtype=complex)
    obj = quadratic_objective(psi, A)
    for _ in range(max(int(iterations), 1)):
        w = A @ psi
        norm = np.linalg.norm(w)
        if norm == 0.0:
            break
        candidate = np.exp(1j * np.angle(w / norm))
        new_obj = quadratic_objective(candidate, A)
        if new_obj < obj - 1e-9 * max(abs(obj), 1e-300):
            warnings.warn(
                "constrained power iteration objective decreased "
                f"({obj:.6e} -> {new_obj:.6e})",
                RuntimeWarning,
            )
        psi = candidate
        if abs(new_obj - obj) <= RELATIVE_GAIN_EXIT * max(abs(new_obj), 1e-300):
            obj = new_obj
            break
        obj = new_obj
    return psi


def select_long_term_config(stats, assoc, cfg, mode="optimized", rng=None):
    """Per-AP phase vectors, fixed for the whole network realization.

    mode "optimized" runs the power iteration on each AP's signal-strength
    objective; "random" draws i.i.d. uniform phases. Depends only on
    long-term statistics, never on instantaneous channels.
    """
    L, _, n = stats.H.shape
    if mode == "random":
        if rng is None:
            raise ValueError("random mode needs an rng")
        return np.exp(2j * np.pi * rng.uniform(size=(L, n)))
    if mode != "optimized":
        raise ValueError(f"unknown phase mode {mode!r}")
    psi = np.ones((L, n), dtype=complex)
    for l, served in enumerate(assoc.served_sets):
        objective = build_objective([stats.R[k, l] for k in served], stats.H[l])
        if objective.neutral:
            continue
        psi[l] = constrained_power_iteration(objective.A)
    return psi
