"""Network geometry, large-scale fading, spatial correlation, AP-RIS channels.

The per-AP front matrix H_l (array side of the transmissive surface) is a
constant near-field channel: free-space LOS entries plus a column-wise NLOS
component, rescaled so every column has unit Euclidean norm. UE-to-RIS
channels are correlated Rayleigh with Gaussian local-scattering correlation
evaluated on the element grid.

Both element sets (the RIS grid and the active array) are uniform y-z
lattices, so R_kl[i, j] depends only on the integer offset of element i
from element j: ``spatial_correlation_matrices`` builds one table over the
offsets per (UE, AP) pair, batched over APs, and keeps the tables as a
``LatticeCorrelation``, which is read by indexing.
``build_spatial_correlation`` is the per-pair reference.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .linalg import sample_real_gaussian

PATHLOSS_INTERCEPT_DB = -30.5
PATHLOSS_EXPONENT_DB = 36.7   # per decade of distance

_GH_POINTS = 20


@dataclass
class NetworkRealization:
    """One Monte Carlo drop: positions, shadowing, large-scale coefficients."""

    ap_positions: np.ndarray   # (L, 2) meters
    ue_positions: np.ndarray   # (K, 2) meters
    beta: np.ndarray           # (K, L) linear power gain
    shadowing_db: np.ndarray   # (K, L)


@dataclass
class ChannelStats:
    """Long-term statistics: correlation matrices and fixed front channels."""

    R: object              # (K, L, n, n) Hermitian PSD, trace = n * beta: a LatticeCorrelation
    H: np.ndarray | None   # (L, M, N) front matrices; None for no-RIS setups


class LatticeCorrelation:
    """A (K, L, n, n) correlation stack on one element lattice, kept as offset tables.

    ``tables`` (K, L, 2 cols - 1, 2 rows - 1) holds beta_kl T_kl over the offsets and ``flat`` (n, n) the
    flat offset index of each element pair: R_kl[i, j] = tables[k, l].flat[flat[i, j]]. An index over
    (K, L), such as R[k, l] or R[:, l], gathers the matrices.
    """

    def __init__(self, tables, flat):
        self.tables, self.flat = tables, flat
        self.shape = tables.shape[:2] + flat.shape

    def __getitem__(self, key):
        return np.take(self.tables.reshape(*self.shape[:2], -1)[key], self.flat, axis=-1)

    def served_sums(self, serving_matrix):
        """B_l, the sum of AP l's served UEs' R_kl, for every AP; (L, n, n). The tables are added in UE
        order and then gathered, so B_l is the sum of the gathered matrices bit for bit."""
        tables = self.tables.reshape(*self.shape[:2], -1)
        sums = np.zeros(tables.shape[1:], dtype=complex)
        for k, on in enumerate(serving_matrix.T):
            sums[on] += tables[k, on]
        return np.take(sums, self.flat, axis=-1)


def pathloss_beta(distance_m):
    """Linear path-loss gain at a given 3D distance (no shadowing)."""
    return 10.0 ** ((PATHLOSS_INTERCEPT_DB - PATHLOSS_EXPONENT_DB * np.log10(distance_m)) / 10.0)


def _shadowing_covariance(ue_positions, cfg):
    delta = np.linalg.norm(ue_positions[:, None, :] - ue_positions[None, :, :], axis=-1)
    return (cfg.shadowing_std_db ** 2) * 2.0 ** (-delta / cfg.shadowing_decorrelation_m)


def generate_realization(cfg, rng):
    """Drop APs and UEs uniformly over the square and draw large-scale fading.

    Shadowing is log-normal with exponential spatial correlation between
    UEs, independent across APs; at shadowing_std_db = 0 its covariance is
    zero and so is the draw. 2D distances below the clamp are raised to
    cfg.min_distance_m before the AP height enters the 3D distance.
    """
    ap_positions = rng.uniform(0.0, cfg.area_side_m, size=(cfg.L, 2))
    ue_positions = rng.uniform(0.0, cfg.area_side_m, size=(cfg.K, 2))
    d2d = np.linalg.norm(ue_positions[:, None, :] - ap_positions[None, :, :], axis=-1)
    d2d = np.maximum(d2d, cfg.min_distance_m)
    d3d = np.hypot(d2d, cfg.ap_height_m)
    shadowing_db = sample_real_gaussian(_shadowing_covariance(ue_positions, cfg), rng, size=cfg.L).T  # (K, L)
    beta = pathloss_beta(d3d) * 10.0 ** (shadowing_db / 10.0)
    return NetworkRealization(ap_positions, ue_positions, beta, shadowing_db)


def _lattice(rows, cols, cfg, x):
    """Centred rows x cols grid in the y-z plane at depth x, row by row; shape (rows*cols, 3)."""
    spacing = cfg.element_spacing * cfg.wavelength_m
    yy, zz = np.meshgrid(
        (np.arange(cols) - (cols - 1) / 2.0) * spacing,
        (np.arange(rows) - (rows - 1) / 2.0) * spacing,
    )
    return np.stack([np.full(yy.size, float(x)), yy.ravel(), zz.ravel()], axis=1)


def ris_grid_positions(cfg):
    """RIS element positions (N, 3), planar grid in the y-z plane at x=0."""
    return _lattice(cfg.ris_rows, cfg.ris_cols, cfg, 0.0)


def active_array_positions(cfg, x_offset=0.0):
    """Active-antenna positions (M, 3), centered, parallel to the RIS plane.

    A planar array takes the largest divisor of M not above sqrt(M) as its row count.
    """
    m = cfg.M
    rows = 1 if cfg.array_geometry == "linear" else max(d for d in range(1, isqrt(m) + 1) if m % d == 0)
    return _lattice(rows, m // rows, cfg, x_offset)


@lru_cache(maxsize=8)
def _gauss_hermite_nodes(std_rad):
    """Angle offsets and weights of the quadrature; read-only, since every caller shares them."""
    nodes, weights = np.polynomial.hermite.hermgauss(_GH_POINTS)
    offsets, weights = np.sqrt(2.0) * std_rad * nodes, weights / np.sqrt(np.pi)
    offsets.setflags(write=False)
    weights.setflags(write=False)
    return offsets, weights


def build_spatial_correlation(ue_pos, ap_pos, beta, cfg, element_positions):
    """Correlation matrix R = beta * Sigma with unit-diagonal Sigma.

    Gaussian local scattering over azimuth and elevation around the nominal
    UE direction, integrated with Gauss-Hermite quadrature. At an angular
    spread of zero every node lies on the nominal direction, so the sum is
    the rank-one steering outer product.
    """
    n = element_positions.shape[0]
    dx = ue_pos[0] - ap_pos[0]
    dy = ue_pos[1] - ap_pos[1]
    d2d = max(np.hypot(dx, dy), cfg.min_distance_m)
    azimuth = np.arctan2(dy, dx)
    elevation = np.arctan2(-cfg.ap_height_m, d2d)
    lam = cfg.wavelength_m
    std = np.deg2rad(cfg.angular_spread_deg)
    offsets, weights = _gauss_hermite_nodes(std)
    az = azimuth + offsets[:, None]          # (q, q) azimuth x elevation grid
    el = elevation + offsets[None, :]
    kx = np.cos(el) * np.cos(az)
    ky = np.cos(el) * np.sin(az)
    kz = np.sin(el) * np.ones_like(az)
    phase = (2.0 * np.pi / lam) * (
        element_positions[:, 0, None, None] * kx
        + element_positions[:, 1, None, None] * ky
        + element_positions[:, 2, None, None] * kz
    )
    a = np.exp(1j * phase).reshape(n, -1)    # (n, q*q)
    w = (weights[:, None] * weights[None, :]).ravel()
    return beta * ((a * w) @ a.conj().T)


def _lattice_indices(element_positions, cfg):
    """Integer (row, col) lattice index of each element, counted from the lowest one.

    Raises ValueError unless the elements lie on one y-z lattice of pitch
    element_spacing * wavelength at a common depth x.
    """
    spacing = cfg.element_spacing * cfg.wavelength_m
    steps = (element_positions[:, 1:] - element_positions[:, 1:].min(axis=0)) / spacing
    index = np.rint(steps).astype(int)
    if np.ptp(element_positions[:, 0]) > 1e-9 * spacing or np.abs(steps - index).max() > 1e-6:
        raise ValueError("element positions must form one y-z lattice of the element spacing at a common depth")
    return index[:, 1], index[:, 0]


def spatial_correlation_matrices(real, cfg, element_positions):
    """Stack R_kl for all (UE, AP) pairs as a (K, L, n, n) LatticeCorrelation.

    Same model as ``build_spatial_correlation``. With alpha = 2 pi d / lambda
    for lattice pitch d, the phase difference between two elements is
    alpha * (dc * ky + dr * kz) for integer offsets (dr, dc), and kz depends
    on the elevation node only. Per UE, for all APs at once, u = exp(j alpha
    ky) and v = exp(j alpha kz) give every offset as an integer power:
    T[dc, dr] = sum_e w_e v_e^dr sum_a w_a u_ae^dc for dc >= 0, and
    T[-dc, -dr] = conj T[dc, dr]. The stack keeps beta_kl * T, which R_kl
    gathers at the element pairs' offsets.
    """
    K, L = real.beta.shape
    row, col = _lattice_indices(element_positions, cfg)
    rows, cols = row.max() + 1, col.max() + 1
    # flat index of each pair's offset in the (2 cols - 1, 2 rows - 1) table
    flat = (col[:, None] - col[None, :] + cols - 1) * (2 * rows - 1) + (row[:, None] - row[None, :] + rows - 1)
    offsets, weights = _gauss_hermite_nodes(np.deg2rad(cfg.angular_spread_deg))
    alpha = 2.0 * np.pi * cfg.element_spacing
    delta = real.ue_positions[:, None, :] - real.ap_positions[None, :, :]     # (K, L, 2)
    azimuth = np.arctan2(delta[..., 1], delta[..., 0])
    elevation = np.arctan2(-cfg.ap_height_m, np.maximum(np.hypot(delta[..., 0], delta[..., 1]), cfg.min_distance_m))
    tables = np.empty((K, L, 2 * cols - 1, 2 * rows - 1), dtype=complex)
    table = np.empty((L, 2 * cols - 1, 2 * rows - 1), dtype=complex)
    for k in range(K):
        el = elevation[k, :, None] + offsets                                   # (L, q) elevation nodes
        az = azimuth[k, :, None, None] + offsets[:, None]                      # (L, q, 1) azimuth nodes
        phase = np.cos(el)[:, None, :] * np.sin(az)                            # ky, (L, q_az, q_el)
        phase *= alpha
        # u = exp(j phase) written in place; a complex temporary here raised dense peak RSS by 1 MB
        u = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=u.real)
        np.sin(phase, out=u.imag)
        power = np.ones_like(u)
        col_sums = np.empty((L, cols, offsets.size), dtype=complex)            # w_e sum_a w_a u^dc
        for dc in range(cols):
            col_sums[:, dc] = weights @ power
            power *= u
        col_sums *= weights
        v = np.exp(1j * alpha * np.sin(el))                                    # (L, q_el)
        v_powers = np.empty((L, offsets.size, 2 * rows - 1), dtype=complex)   # v^dr, dr = 1 - rows .. rows - 1
        v_powers[..., rows - 1] = 1.0
        for dr in range(rows, 2 * rows - 1):
            v_powers[..., dr] = v_powers[..., dr - 1] * v
        v_powers[..., :rows - 1] = v_powers[..., :rows - 1:-1].conj()         # dr < 0 from dr > 0
        table[:, cols - 1:] = col_sums @ v_powers                              # dc >= 0
        table[:, :cols - 1] = table[:, :cols - 1:-1, ::-1].conj()              # dc < 0 from dc > 0
        np.multiply(real.beta[k, :, None, None], table, out=tables[k])
    return LatticeCorrelation(tables, flat)


def los_matrix(antenna_positions, element_positions, wavelength):
    """Free-space near-field LOS entries lambda/(4 pi d) * exp(-j 2 pi d / lambda)."""
    d = np.linalg.norm(
        antenna_positions[:, None, :] - element_positions[None, :, :], axis=-1
    )
    return (wavelength / (4.0 * np.pi * d)) * np.exp(-2j * np.pi * d / wavelength)


def front_los(cfg):
    """(M, N) free-space LOS entries from each active antenna, box_depth_m in front of the RIS, to each element."""
    return los_matrix(active_array_positions(cfg, x_offset=cfg.box_depth_m), ris_grid_positions(cfg), cfg.wavelength_m)


def build_ap_ris_channels(cfg, rngs):
    """Fixed M x N front channels with unit-norm columns, one per rng; shape (len(rngs), M, N).

    Each column is sqrt(alpha) * LOS direction + sqrt(1-alpha) * NLOS
    direction, where the NLOS draw (i.i.d. complex Gaussian, from that
    front's rng) is projected onto the orthogonal complement of the LOS
    direction, so the column norm is exactly one and the LOS power fraction
    is exactly alpha (at alpha = 1 the columns are the LOS directions bit
    for bit). The LOS directions depend on cfg only and are built once.
    With M = 1 there is no orthogonal complement and every column is pure
    LOS.
    """
    los = front_los(cfg)
    alpha = cfg.rician_los_fraction
    u_los = los / np.linalg.norm(los, axis=0, keepdims=True)
    if cfg.M == 1:
        return np.repeat(u_los[None], len(rngs), axis=0)
    g = np.stack([rng.standard_normal(los.shape) + 1j * rng.standard_normal(los.shape) for rng in rngs])
    g /= np.sqrt(2.0)
    g = g - u_los * np.sum(u_los.conj() * g, axis=1, keepdims=True)
    u_nlos = g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.sqrt(alpha) * u_los + np.sqrt(1.0 - alpha) * u_nlos
