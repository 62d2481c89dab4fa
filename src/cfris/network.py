"""Network geometry, large-scale fading, spatial correlation, AP-RIS channels.

The per-AP front matrix H_l (array side of the transmissive surface) is a
constant near-field channel: free-space LOS entries plus a column-wise NLOS
component, rescaled so every column has unit Euclidean norm. UE-to-RIS
channels are correlated Rayleigh with Gaussian local-scattering correlation
evaluated on the element grid.
"""

from dataclasses import dataclass
from functools import lru_cache

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

    R: np.ndarray          # (K, L, n, n) Hermitian PSD, trace = n * beta
    H: np.ndarray | None   # (L, M, N) front matrices; None for no-RIS setups


def pathloss_beta(distance_m):
    """Linear path-loss gain at a given 3D distance (no shadowing)."""
    return 10.0 ** ((PATHLOSS_INTERCEPT_DB - PATHLOSS_EXPONENT_DB * np.log10(distance_m)) / 10.0)


def _shadowing_covariance(ue_positions, cfg):
    delta = np.linalg.norm(ue_positions[:, None, :] - ue_positions[None, :, :], axis=-1)
    return (cfg.shadowing_std_db ** 2) * 2.0 ** (-delta / cfg.shadowing_decorrelation_m)


def generate_realization(cfg, rng):
    """Drop APs and UEs uniformly over the square and draw large-scale fading.

    Shadowing is log-normal with exponential spatial correlation between
    UEs, independent across APs. 2D distances below the clamp are raised to
    cfg.min_distance_m before the AP height enters the 3D distance.
    """
    ap_positions = rng.uniform(0.0, cfg.area_side_m, size=(cfg.L, 2))
    ue_positions = rng.uniform(0.0, cfg.area_side_m, size=(cfg.K, 2))
    d2d = np.linalg.norm(ue_positions[:, None, :] - ap_positions[None, :, :], axis=-1)
    d2d = np.maximum(d2d, cfg.min_distance_m)
    d3d = np.hypot(d2d, cfg.ap_height_m)
    if cfg.shadowing_std_db > 0:
        cov = _shadowing_covariance(ue_positions, cfg)
        shadowing_db = sample_real_gaussian(cov, rng, size=cfg.L).T  # (K, L)
    else:
        shadowing_db = np.zeros((cfg.K, cfg.L))
    beta = pathloss_beta(d3d) * 10.0 ** (shadowing_db / 10.0)
    return NetworkRealization(ap_positions, ue_positions, beta, shadowing_db)


def ris_grid_positions(cfg):
    """RIS element positions (N, 3), planar grid in the y-z plane at x=0."""
    lam = cfg.wavelength_m
    spacing = cfg.element_spacing * lam
    rows = np.arange(cfg.ris_rows) - (cfg.ris_rows - 1) / 2.0
    cols = np.arange(cfg.ris_cols) - (cfg.ris_cols - 1) / 2.0
    yy, zz = np.meshgrid(cols * spacing, rows * spacing, indexing="xy")
    pos = np.zeros((cfg.N, 3))
    pos[:, 1] = yy.ravel()
    pos[:, 2] = zz.ravel()
    return pos


def active_array_positions(cfg, m=None, x_offset=0.0):
    """Active-antenna positions (m, 3), centered, parallel to the RIS plane."""
    if m is None:
        m = cfg.M
    lam = cfg.wavelength_m
    spacing = cfg.element_spacing * lam
    pos = np.zeros((m, 3))
    if cfg.array_geometry == "linear":
        pos[:, 1] = (np.arange(m) - (m - 1) / 2.0) * spacing
    else:
        rows = int(np.floor(np.sqrt(m)))
        while m % rows:
            rows -= 1
        cols = m // rows
        yy, zz = np.meshgrid(
            (np.arange(cols) - (cols - 1) / 2.0) * spacing,
            (np.arange(rows) - (rows - 1) / 2.0) * spacing,
            indexing="xy",
        )
        pos[:, 1] = yy.ravel()
        pos[:, 2] = zz.ravel()
    pos[:, 0] = x_offset
    return pos


@lru_cache(maxsize=8)
def _gauss_hermite_nodes(std_rad):
    nodes, weights = np.polynomial.hermite.hermgauss(_GH_POINTS)
    return np.sqrt(2.0) * std_rad * nodes, weights / np.sqrt(np.pi)


def build_spatial_correlation(ue_pos, ap_pos, beta, cfg, element_positions):
    """Correlation matrix R = beta * Sigma with unit-diagonal Sigma.

    Gaussian local scattering over azimuth and elevation around the nominal
    UE direction, integrated with Gauss-Hermite quadrature. At an angular
    spread of zero every node lies on the nominal direction, so the sum is
    the rank-one steering outer product; the "white" model returns beta * I.
    """
    n = element_positions.shape[0]
    if cfg.correlation_model == "white":
        return beta * np.eye(n, dtype=complex)
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


def spatial_correlation_matrices(real, cfg, element_positions):
    """Stack R_kl for all (UE, AP) pairs; shape (K, L, n, n)."""
    n = element_positions.shape[0]
    R = np.empty((cfg.K, cfg.L, n, n), dtype=complex)
    for k in range(cfg.K):
        for l in range(cfg.L):
            R[k, l] = build_spatial_correlation(
                real.ue_positions[k], real.ap_positions[l], real.beta[k, l], cfg, element_positions
            )
    return R


def los_matrix(antenna_positions, element_positions, wavelength):
    """Free-space near-field LOS entries lambda/(4 pi d) * exp(-j 2 pi d / lambda)."""
    d = np.linalg.norm(
        antenna_positions[:, None, :] - element_positions[None, :, :], axis=-1
    )
    return (wavelength / (4.0 * np.pi * d)) * np.exp(-2j * np.pi * d / wavelength)


def build_ap_ris_channel(cfg, rng):
    """Fixed M x N front channel with unit-norm columns.

    Each column is sqrt(alpha) * LOS direction + sqrt(1-alpha) * NLOS
    direction, where the NLOS draw (i.i.d. complex Gaussian) is projected
    onto the orthogonal complement of the LOS direction, so the column norm
    is exactly one and the LOS power fraction is exactly alpha. With M = 1
    there is no orthogonal complement and the column is pure LOS.
    """
    lam = cfg.wavelength_m
    antennas = active_array_positions(cfg, x_offset=cfg.box_depth_m)
    elements = ris_grid_positions(cfg)
    los = los_matrix(antennas, elements, lam)
    alpha = cfg.rician_los_fraction
    u_los = los / np.linalg.norm(los, axis=0, keepdims=True)
    if cfg.M == 1 or alpha == 1.0:
        return u_los
    g = (rng.standard_normal(los.shape) + 1j * rng.standard_normal(los.shape)) / np.sqrt(2.0)
    g = g - u_los * np.sum(u_los.conj() * g, axis=0, keepdims=True)
    norms = np.linalg.norm(g, axis=0, keepdims=True)
    u_nlos = g / np.where(norms > 0, norms, 1.0)
    return np.sqrt(alpha) * u_los + np.sqrt(1.0 - alpha) * u_nlos
