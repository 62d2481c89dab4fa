import numpy as np
import pytest

from cfris.association import assign_pilots_and_clusters
from cfris.config import SimConfig
from cfris.estimation import effective_covariance, effective_front
from cfris.network import (
    LatticeCorrelation,
    NetworkRealization,
    _gauss_hermite_nodes,
    active_array_positions,
    build_ap_ris_channels,
    build_spatial_correlation,
    generate_realization,
    los_matrix,
    pathloss_beta,
    ris_grid_positions,
    spatial_correlation_matrices,
)
from cfris.oracles import check_correlation_build_equivalence, correlation_build_error


def small_cfg(**kw):
    base = dict(L=3, K=4, M=2, N=4, tau_p=2, ris_rows=2, ris_cols=2)
    base.update(kw)
    return SimConfig(**base)


def single_pair(ue_pos, ap_pos, beta):
    """A drop of one UE and one AP, for comparing the batched build with a per-pair call."""
    return NetworkRealization(ap_pos[None], ue_pos[None], np.array([[beta]]), np.zeros((1, 1)))


class TestPathloss:
    def test_at_100m(self):
        # -30.5 - 36.7*log10(100) = -103.9 dB
        assert pathloss_beta(100.0) == pytest.approx(4.073802778041128e-11, rel=1e-12)

    def test_at_1m(self):
        # -30.5 dB exactly
        assert pathloss_beta(1.0) == pytest.approx(10.0 ** -3.05, rel=1e-12)

    def test_decade_slope(self):
        ratio_db = 10 * np.log10(pathloss_beta(10.0) / pathloss_beta(100.0))
        assert ratio_db == pytest.approx(36.7, rel=1e-12)

    def test_vectorized(self):
        d = np.array([1.0, 10.0, 100.0])
        assert pathloss_beta(d).shape == (3,)


class TestGenerateRealization:
    def test_shapes_and_bounds(self):
        cfg = small_cfg()
        real = generate_realization(cfg, np.random.default_rng(0))
        assert real.ap_positions.shape == (3, 2)
        assert real.ue_positions.shape == (4, 2)
        assert real.beta.shape == (4, 3)
        assert np.all(real.ap_positions >= 0) and np.all(real.ap_positions <= 1000)
        assert np.all(real.beta > 0)

    def test_distance_clamp_with_height(self):
        # zero area forces every UE on top of every AP: d3d = hypot(1, 10)
        cfg = small_cfg(area_side_m=0.0, shadowing_std_db=0.0)
        real = generate_realization(cfg, np.random.default_rng(1))
        expected = pathloss_beta(np.hypot(1.0, 10.0))
        assert np.allclose(real.beta, expected, rtol=1e-12, atol=0)

    def test_no_shadowing_is_deterministic_in_beta(self):
        cfg = small_cfg(shadowing_std_db=0.0)
        real = generate_realization(cfg, np.random.default_rng(2))
        d2d = np.linalg.norm(
            real.ue_positions[:, None, :] - real.ap_positions[None, :, :], axis=-1
        )
        d3d = np.hypot(np.maximum(d2d, 1.0), 10.0)
        assert np.allclose(real.beta, pathloss_beta(d3d), rtol=1e-12, atol=0)
        assert np.array_equal(real.shadowing_db, np.zeros((4, 3)))

    def test_shadowing_marginal_statistics(self):
        cfg = small_cfg(L=40, K=25)
        draws = [
            generate_realization(cfg, np.random.default_rng(s)).shadowing_db
            for s in range(40)
        ]
        sh = np.concatenate([d.ravel() for d in draws])
        assert abs(sh.mean()) < 0.15
        assert sh.std() == pytest.approx(4.0, rel=0.05)

    def test_shadowing_distance_correlation(self):
        # nearby UEs share shadowing: 2^(-delta/9) correlation model
        cfg = small_cfg(L=200, K=2, area_side_m=3.0)
        corrs = []
        for s in range(30):
            real = generate_realization(cfg, np.random.default_rng(s))
            delta = np.linalg.norm(real.ue_positions[0] - real.ue_positions[1])
            a, b = real.shadowing_db
            corrs.append((np.mean(a * b) / 16.0, 2.0 ** (-delta / 9.0)))
        emp, model = np.mean(corrs, axis=0)
        assert emp == pytest.approx(model, abs=0.1)

    def test_seed_reproducibility(self):
        cfg = small_cfg()
        a = generate_realization(cfg, np.random.default_rng(5))
        b = generate_realization(cfg, np.random.default_rng(5))
        assert np.array_equal(a.beta, b.beta)


class TestGeometry:
    def test_ris_grid_centered_in_yz_plane(self):
        cfg = SimConfig()
        pos = ris_grid_positions(cfg)
        assert pos.shape == (36, 3)
        assert np.all(pos[:, 0] == 0.0)
        assert np.allclose(pos.mean(axis=0), 0.0, atol=1e-12)

    def test_ris_grid_spacing(self):
        cfg = SimConfig()
        pos = ris_grid_positions(cfg)
        # adjacent elements in one row are half a wavelength apart
        gap = np.linalg.norm(pos[1] - pos[0])
        assert gap == pytest.approx(0.5 * cfg.wavelength_m, rel=1e-12)

    def test_linear_array_positions(self):
        cfg = SimConfig()
        pos = active_array_positions(cfg)
        assert pos.shape == (4, 3)
        assert np.all(pos[:, 0] == 0.0) and np.all(pos[:, 2] == 0.0)
        spacing = 0.5 * cfg.wavelength_m
        assert np.allclose(pos[:, 1], (np.arange(4) - 1.5) * spacing)

    def test_planar_array_positions(self):
        cfg = small_cfg(M=4, array_geometry="planar")
        pos = active_array_positions(cfg)
        # 2x2 grid, centered
        assert np.allclose(pos.mean(axis=0), 0.0, atol=1e-12)
        assert len(np.unique(np.round(pos[:, 1], 9))) == 2
        assert len(np.unique(np.round(pos[:, 2], 9))) == 2

    def test_offset_applied(self):
        cfg = SimConfig()
        pos = active_array_positions(cfg, x_offset=0.25)
        assert np.all(pos[:, 0] == 0.25)


class TestSpatialCorrelation:
    def test_zero_spread_rank_one(self):
        cfg = small_cfg(angular_spread_deg=0.0)
        r = build_spatial_correlation(
            np.array([100.0, 50.0]), np.array([0.0, 0.0]), 1.0, cfg, ris_grid_positions(cfg)
        )
        eigs = np.sort(np.linalg.eigvalsh(r))
        assert eigs[-1] == pytest.approx(4.0, rel=1e-10)
        assert np.all(np.abs(eigs[:-1]) < 1e-10)
        # broadside: a UE on the AP's +x axis at AP height 0 hits the x=0
        # grid in phase everywhere, so R = beta * ones
        cfg = small_cfg(angular_spread_deg=0.0, ap_height_m=0.0)
        r = build_spatial_correlation(
            np.array([100.0, 0.0]), np.array([0.0, 0.0]), 2.5, cfg, ris_grid_positions(cfg)
        )
        assert np.allclose(r, 2.5 * np.ones((4, 4)), rtol=1e-12, atol=0)

    def test_hermitian_psd_with_beta_diagonal(self):
        cfg = small_cfg()
        beta = 3.7e-9
        ue, ap = np.array([200.0, -40.0]), np.array([10.0, 5.0])
        per_pair = build_spatial_correlation(ue, ap, beta, cfg, ris_grid_positions(cfg))
        batched = spatial_correlation_matrices(single_pair(ue, ap, beta), cfg, ris_grid_positions(cfg))[0, 0]
        for r in (per_pair, batched):
            assert np.allclose(r, r.conj().T, rtol=0, atol=1e-12 * beta)
            assert np.allclose(np.diag(r).real, beta, rtol=1e-12, atol=0)
            assert np.min(np.linalg.eigvalsh(r)) >= -1e-12 * beta

    def test_matches_numerical_integration(self):
        # independent oracle: brute-force double integral of the Gaussian
        # local-scattering model over azimuth/elevation offsets (Simpson)
        from scipy.integrate import simpson

        cfg = small_cfg()
        elements = ris_grid_positions(cfg)
        ue = np.array([120.0, 80.0])
        ap = np.array([20.0, 30.0])
        per_pair = build_spatial_correlation(ue, ap, 1.0, cfg, elements)
        batched = spatial_correlation_matrices(single_pair(ue, ap, 1.0), cfg, elements)[0, 0]

        dx, dy = ue - ap
        azimuth = np.arctan2(dy, dx)
        elevation = np.arctan2(-10.0, np.hypot(dx, dy))
        std = np.deg2rad(15.0)
        grid = np.linspace(-6 * std, 6 * std, 301)
        pdf = np.exp(-0.5 * (grid / std) ** 2) / (std * np.sqrt(2 * np.pi))
        lam = cfg.wavelength_m
        az = azimuth + grid[:, None]
        el = elevation + grid[None, :]
        kx = np.cos(el) * np.cos(az)
        ky = np.cos(el) * np.sin(az)
        kz = np.sin(el) * np.ones_like(az)
        phase = (2 * np.pi / lam) * (
            elements[:, 0, None, None] * kx
            + elements[:, 1, None, None] * ky
            + elements[:, 2, None, None] * kz
        )
        a = np.exp(1j * phase)                               # (4, n_az, n_el)
        outer = a[:, None] * a.conj()[None, :]               # (4, 4, n_az, n_el)
        weighted = outer * (pdf[:, None] * pdf[None, :])
        expected = simpson(simpson(weighted, x=grid, axis=-1), x=grid, axis=-1)
        for r in (per_pair, batched):
            assert np.linalg.norm(r - expected) / np.linalg.norm(expected) < 1e-6

    def test_stacked_matrices(self):
        cfg = small_cfg()
        real = generate_realization(cfg, np.random.default_rng(3))
        R = spatial_correlation_matrices(real, cfg, ris_grid_positions(cfg))
        assert R.shape == (4, 3, 4, 4)
        traces = np.trace(R, axis1=-2, axis2=-1).real
        assert np.allclose(traces, 4.0 * real.beta, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "sizes",
        [
            dict(M=1),
            dict(M=2),
            dict(M=4),
            dict(M=7),
            dict(M=4, array_geometry="planar"),
            dict(M=6, array_geometry="planar"),
            dict(M=9, array_geometry="planar"),
            dict(N=36, ris_rows=4, ris_cols=9),
            dict(N=5, ris_rows=1, ris_cols=5, M=2),
            dict(N=4, ris_rows=2, ris_cols=2, M=2),
            dict(angular_spread_deg=0.0),
            dict(ap_height_m=0.0),
        ],
        ids=lambda sizes: ",".join(f"{key}={value}" for key, value in sizes.items()),
    )
    def test_batched_matches_per_pair_reference(self, sizes):
        # default 6x6 RIS grid unless the case sets the grid; both element sets on every drop
        cfg = SimConfig(**{"L": 5, "K": 4, **sizes})
        real = generate_realization(cfg, np.random.default_rng(11))
        # UE 0 inside the distance clamp of AP 0, UE 1 at AP 1's ground position
        real.ue_positions[0] = real.ap_positions[0] + [0.3, -0.4]
        real.ue_positions[1] = real.ap_positions[1]
        for elements in (ris_grid_positions(cfg), active_array_positions(cfg)):
            assert correlation_build_error(real, cfg, elements) <= 1e-12

    @pytest.mark.parametrize("sizes", [
        dict(),
        dict(N=36, ris_rows=4, ris_cols=9),
        dict(N=5, ris_rows=1, ris_cols=5, M=2),
        dict(N=4, ris_rows=2, ris_cols=2, M=2),
        dict(M=1),
        dict(angular_spread_deg=0.0),
    ], ids=["6x6", "4x9", "1x5", "2x2", "M=1", "angular_spread_deg=0.0"])
    def test_lattice_effective_covariances_match_per_pair_reference(self, sizes):
        # the gathered R, and E R E^H formed AP by AP off the lattice stack as the bank forms it, on
        # random phases, against the per-pair build and product
        cfg = SimConfig(**{"L": 5, "K": 4, **sizes})
        rng = np.random.default_rng(11)
        real = generate_realization(cfg, rng)
        real.ue_positions[0] = real.ap_positions[0] + [0.3, -0.4]
        real.ue_positions[1] = real.ap_positions[1]
        fronts = effective_front(build_ap_ris_channels(cfg, [rng] * cfg.L),
                                 np.exp(2j * np.pi * rng.uniform(size=(cfg.L, cfg.N))))
        elements = ris_grid_positions(cfg)
        assert correlation_build_error(real, cfg, elements) <= 1e-12
        R = spatial_correlation_matrices(real, cfg, elements)
        for l in range(cfg.L):
            q = effective_covariance(R[:, l], fronts[l])
            for k in range(cfg.K):
                reference = effective_covariance(build_spatial_correlation(
                    real.ue_positions[k], real.ap_positions[l], real.beta[k, l], cfg, elements), fronts[l])
                assert np.linalg.norm(q[k] - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_oracle_check_catches_a_skew_in_the_gathered_r(self, monkeypatch):
        # the oracle's line passes on the build as it is, and fails once the lattice stack's gathered R
        # is off by a relative 1e-9
        assert check_correlation_build_equivalence(np.random.default_rng(4))[1]
        built = LatticeCorrelation.__getitem__
        monkeypatch.setattr(LatticeCorrelation, "__getitem__", lambda self, key: built(self, key) * (1 + 1e-9))
        assert not check_correlation_build_equivalence(np.random.default_rng(4))[1]

    def test_lattice_stack_gathers_like_an_array(self):
        # R[k, l], a (K, L) slice and np.asarray all gather the same matrices
        cfg = small_cfg(ris_rows=1, ris_cols=4)
        real = generate_realization(cfg, np.random.default_rng(5))
        R = spatial_correlation_matrices(real, cfg, ris_grid_positions(cfg))
        full = np.asarray(R)
        assert R.shape == full.shape == (4, 3, 4, 4)
        assert np.array_equal(R[2, 1], full[2, 1])
        assert np.array_equal(R[:, 1:3], full[:, 1:3])
        with pytest.raises(ValueError):
            np.asarray(R, copy=False)

    def test_served_sums_are_the_ue_order_sums_of_the_gathered_matrices(self):
        # the served UEs' offset tables are summed in UE order before one gather per AP: bit for
        # bit the sum of the gathered matrices, so the phases chosen from B_l cannot move
        cfg = SimConfig(L=10, K=8, tau_p=3)
        real = generate_realization(cfg, np.random.default_rng(16))
        assoc = assign_pilots_and_clusters(real, cfg)
        assert max(len(served) for served in assoc.served_sets) > 2
        R = spatial_correlation_matrices(real, cfg, ris_grid_positions(cfg))
        sums = R.served_sums(assoc.serving_matrix)
        assert sums.shape == (cfg.L, cfg.N, cfg.N)
        for l, served in enumerate(assoc.served_sets):
            expected = np.zeros((cfg.N, cfg.N), dtype=complex)
            for k in served:
                expected += R[k, l]
            assert np.array_equal(sums[l], expected)

    def test_off_lattice_elements_rejected(self):
        cfg = small_cfg()
        real = generate_realization(cfg, np.random.default_rng(0))
        shifted = ris_grid_positions(cfg)
        shifted[1, 1] += 0.3 * cfg.element_spacing * cfg.wavelength_m
        deeper = ris_grid_positions(cfg)
        deeper[0, 0] = 0.01
        for elements in (shifted, deeper):
            with pytest.raises(ValueError, match="lattice"):
                spatial_correlation_matrices(real, cfg, elements)

    def test_quadrature_nodes_read_only(self):
        with pytest.raises(ValueError):
            _gauss_hermite_nodes(0.1)[1][0] = 0.0


class TestFrontChannel:
    def test_los_entry_value(self):
        # antenna 4 wavelengths in front of a single element: amplitude
        # lambda/(4 pi d) = 1/(16 pi), phase a whole number of cycles
        lam = 0.149896229
        los = los_matrix(np.array([[4 * lam, 0.0, 0.0]]), np.zeros((1, 3)), lam)
        assert los[0, 0] == pytest.approx(1.0 / (16.0 * np.pi), rel=1e-12)

    def test_los_phase(self):
        lam = 0.149896229
        d = 1.3 * lam
        los = los_matrix(np.array([[d, 0.0, 0.0]]), np.zeros((1, 3)), lam)
        assert np.angle(los[0, 0]) == pytest.approx(np.angle(np.exp(-2j * np.pi * 1.3)), abs=1e-9)

    def test_unit_norm_columns(self):
        cfg = SimConfig()
        h = build_ap_ris_channels(cfg, [np.random.default_rng(0)])[0]
        assert h.shape == (4, 36)
        assert np.allclose(np.linalg.norm(h, axis=0), 1.0, atol=1e-12)

    def test_los_power_fraction(self):
        cfg = SimConfig()
        rng = np.random.default_rng(1)
        h = build_ap_ris_channels(cfg, [rng])[0]
        antennas = active_array_positions(cfg, x_offset=cfg.box_depth_m)
        los = los_matrix(antennas, ris_grid_positions(cfg), cfg.wavelength_m)
        u = los / np.linalg.norm(los, axis=0, keepdims=True)
        frac = np.abs(np.sum(u.conj() * h, axis=0)) ** 2
        assert np.allclose(frac, 0.9, atol=1e-10)

    def test_single_antenna_pure_los(self):
        cfg = small_cfg(M=1)
        h = build_ap_ris_channels(cfg, [np.random.default_rng(2)])[0]
        antennas = active_array_positions(cfg, x_offset=cfg.box_depth_m)
        los = los_matrix(antennas, ris_grid_positions(cfg), cfg.wavelength_m)
        assert np.allclose(h, los / np.linalg.norm(los, axis=0, keepdims=True))

    def test_full_los_fraction(self):
        cfg = small_cfg(rician_los_fraction=1.0)
        a = build_ap_ris_channels(cfg, [np.random.default_rng(3)])[0]
        b = build_ap_ris_channels(cfg, [np.random.default_rng(4)])[0]
        assert np.array_equal(a, b)  # no randomness left

    def test_deterministic_per_seed(self):
        cfg = SimConfig()
        a = build_ap_ris_channels(cfg, [np.random.default_rng(7)])[0]
        b = build_ap_ris_channels(cfg, [np.random.default_rng(7)])[0]
        assert np.array_equal(a, b)
