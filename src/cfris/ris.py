"""Long-term RIS phase-shift selection per AP.

The per-AP objective is the total received signal strength of the served
UEs, a quadratic form psi^H A_l psi in the unit-modulus phase vector. It is
maximized with a constrained power iteration: project every entry of A psi
back onto the unit circle, one matrix-vector product per step. Monotonicity of the objective is
measured at runtime (warning on decrease), not assumed.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eig  # unused here; perfbench/spans.py wraps ris.hermitian_eig

DEFAULT_ITERATIONS = 100
RELATIVE_GAIN_EXIT = 1e-8


@dataclass
class SignalStrengthObjective:
    """Quadratic-form data for one AP's phase optimization."""

    B: np.ndarray          # sum of served-UE correlation matrices (N x N)
    A: np.ndarray          # lifted objective matrix (N x N PSD)


def build_objective(served_R, H_l):
    """Assemble B_l and A_l from the served UEs' correlation matrices.

    A_l = (H^H H) elementwise-times conj(B_l), which is entry by entry the
    eigen-sum sum_n lambda_n diag(u_n^*) H^H H diag(u_n); by the Schur
    product theorem it is PSD. No served UE gives B_l = A_l = 0.
    """
    n = H_l.shape[1]
    B = np.zeros((n, n), dtype=complex)
    for r in served_R:
        B += r
    B = 0.5 * (B + B.conj().T)
    A = (H_l.conj().T @ H_l) * B.conj()
    return SignalStrengthObjective(B, 0.5 * (A + A.conj().T))


def received_signal_strength(psi, B, H_l):
    """Direct evaluation trace(H diag(psi) B diag(psi)^H H^H) for testing."""
    e = H_l * psi[None, :]
    return float(np.real(np.trace(e @ B @ e.conj().T)))


def quadratic_objective(psi, A):
    return float(np.real(psi.conj() @ A @ psi))


def constrained_power_iteration(A):
    """Unit-modulus phase vector maximizing psi^H A psi (heuristically).

    Starts from the all-ones vector. Each of at most DEFAULT_ITERATIONS
    steps projects w = A psi entrywise onto the unit circle, w / |w| (an
    entry with w_n = 0 maps to 1), and forms one product A psi for the
    candidate: it gives the candidate's objective and is the next step's w.
    Exits early once the relative objective gain drops below
    RELATIVE_GAIN_EXIT. For PSD A the objective never falls, and psi^H A psi = 0 implies A psi = 0, so
    A psi can vanish only at the all-ones start: psi maps to all ones again and the gain exit returns it.
    """
    n = A.shape[0]
    psi = np.ones(n, dtype=complex)
    obj = quadratic_objective(psi, A)
    w = A @ psi
    for _ in range(DEFAULT_ITERATIONS):
        mag = np.abs(w)
        if not mag.all():
            zero = mag == 0
            w[zero], mag[zero] = 1.0, 1.0
        candidate = w / mag
        w = A @ candidate
        new_obj = np.vdot(candidate, w).real
        if new_obj < obj - 1e-9 * max(abs(obj), 1e-300):
            warnings.warn(
                "constrained power iteration objective decreased "
                f"({obj:.6e} -> {new_obj:.6e})",
                RuntimeWarning,
            )
        psi = candidate
        if abs(new_obj - obj) <= RELATIVE_GAIN_EXIT * max(abs(new_obj), 1e-300):
            break
        obj = new_obj
    return psi


def select_long_term_config(stats, assoc, cfg, mode="optimized", rng=None):
    """Per-AP phase vectors, fixed for the whole network realization.

    mode "optimized" runs the power iteration on each AP's signal-strength
    objective; "random" draws i.i.d. uniform phases. Depends only on
    long-term statistics, never on instantaneous channels. stats.R is the
    network.LatticeCorrelation of spatial_correlation_matrices; each B_l is
    summed from the served UEs' offset tables. An AP that serves nobody has
    B_l = A_l = 0, so the iteration returns its all-ones start.
    """
    L, _, n = stats.H.shape
    if mode == "random":
        if rng is None:
            raise ValueError("random mode needs an rng")
        return np.exp(2j * np.pi * rng.uniform(size=(L, n)))
    if mode != "optimized":
        raise ValueError(f"unknown phase mode {mode!r}")
    psi = np.empty((L, n), dtype=complex)
    B = stats.R.served_sums(assoc.serving_matrix)
    for l in range(L):
        psi[l] = constrained_power_iteration(build_objective([B[l]], stats.H[l]).A)
    return psi
