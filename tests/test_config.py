from dataclasses import asdict

import numpy as np
import pytest

from cfris.config import _MAX_SHADOWING_STD_DB, SimConfig, load_config, parse_config_text
from cfris.exceptions import ConfigError
from cfris.experiment import ExperimentSpec, front_channels, run_experiment


class TestDefaults:
    def test_default_values(self):
        cfg = SimConfig()
        assert cfg.L == 50
        assert cfg.K == 10
        assert cfg.M == 4
        assert cfg.N == 36
        assert cfg.tau_c == 200
        assert cfg.tau_p == 10
        assert cfg.validate() is cfg

    def test_wavelength(self):
        # 2 GHz carrier: c / f = 0.149896229 m
        assert SimConfig().wavelength_m == pytest.approx(0.149896229, rel=1e-9)

    def test_noise_power_watts(self):
        # -94 dBm -> 10^((-94-30)/10) W
        assert SimConfig().noise_power_w == pytest.approx(3.9810717055e-13, rel=1e-9)

    def test_transmit_powers_watts(self):
        cfg = SimConfig()
        assert cfg.pilot_power_w == pytest.approx(0.1)
        assert cfg.data_power_w == pytest.approx(0.1)

    def test_default_box_depth_is_twelve_wavelengths(self):
        cfg = SimConfig()
        assert cfg.box_depth_m == pytest.approx(12 * cfg.wavelength_m, rel=1e-12)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("K", 0),
            ("L", 0),
            ("M", 0),
            ("tau_p", 0),
            ("pilot_power_mw", 0.0),
            ("data_power_mw", -1.0),
            ("box_depth_m", 0.0),
            ("rician_los_fraction", 1.5),
            ("array_geometry", "circular"),
            ("mc_setups", 0),
            ("mc_channel_realizations", 0),
            ("area_side_m", -5.0),
            ("noise_power_dbm", float("nan")),
            ("noise_power_dbm", 4000.0),
            ("area_side_m", float("nan")),
            ("pilot_power_mw", float("inf")),
            ("ap_height_m", float("-inf")),
            ("ap_height_m", -5.0),
            ("carrier_frequency_hz", 0.0),
            ("carrier_frequency_hz", 1e-300),   # the wavelength overflows
            ("carrier_frequency_hz", 1e-299),   # the squared antenna-element distances overflow
            ("carrier_frequency_hz", 1e300),    # the squared LOS amplitudes underflow to 0
            ("element_spacing", 1e300),
            ("box_depth_m", 1e300),
            ("element_spacing", 0.0),
            ("shadowing_decorrelation_m", 0.0),
            ("min_distance_m", 0.0),
            ("angular_spread_deg", -5.0),
            ("shadowing_std_db", -1.0),
            ("seed", -1),
            ("K", 2.5),
            ("L", "4"),
            ("mc_setups", 1.5),
            ("mc_channel_realizations", 2.5),
            ("seed", 1.5),
            ("array_geometry", 3),
            ("K", True),
            ("pilot_power_mw", True),
        ],
    )
    def test_invalid_field_named_in_error(self, field, value):
        cfg = SimConfig(**{field: value})
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert field in str(err.value)

    def test_overflowing_lattice_pitch_names_element_spacing(self):
        # each field is finite, the wavelength too, and their product is not
        with pytest.raises(ConfigError, match="element_spacing"):
            SimConfig(carrier_frequency_hz=1e-290, element_spacing=1e300).validate()

    def test_underflowing_box_depth_named(self):
        # one antenna faces the 3 x 3 grid's centre element, so their distance squares to 0
        with pytest.raises(ConfigError, match="box_depth_m"):
            SimConfig(M=1, N=9, ris_rows=3, ris_cols=3, box_depth_m=1e-200).validate()

    def test_two_unrepresentable_fields_name_one_that_was_set(self):
        # resetting either alone leaves an infinite wavelength or distance, so the first field set is named
        with pytest.raises(ConfigError) as err:
            SimConfig(carrier_frequency_hz=1e-300, box_depth_m=1e300).validate()
        assert err.value.field == "box_depth_m"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_column_power_sum_rejected_without_warning(self):
        # at a 1e-300 m pitch both antennas' LOS powers are about 1.4e308, finite, and their sum is not
        spacing = 1e-300 / SimConfig().wavelength_m
        cfg = SimConfig(M=2, N=4, ris_rows=2, ris_cols=2, box_depth_m=1e-156, element_spacing=spacing)
        with pytest.raises(ConfigError, match="element_spacing"):
            cfg.validate()

    @pytest.mark.parametrize("base", [dict(M=2, N=4, ris_rows=2, ris_cols=2), dict(M=1, N=9, ris_rows=3, ris_cols=3)],
                             ids=["M2-2x2", "M1-3x3"])
    @pytest.mark.parametrize("field,value", [
        *(("carrier_frequency_hz", v) for v in (1e-300, 1e-299, 1e-145, 1e160, 1e162, 1e166, 1e168, 1e169, 1e300)),
        *(("element_spacing", v) for v in (5e-324, 1e-300, 1e152, 1e300)),
        *(("box_depth_m", v) for v in (5e-324, 1e-200, 1e-160, 1e-156, 1e154, 1e300)),
    ])
    def test_extreme_geometry_rejected_by_name_or_runs(self, base, field, value):
        # either validate() names the field, or the front columns keep unit norm and every scenario gives finite SE
        cfg = SimConfig(L=3, K=4, tau_p=2, mc_setups=1, mc_channel_realizations=2, **base, **{field: value})
        try:
            cfg.validate()
        except ConfigError as err:
            assert err.field == field
            return
        assert np.abs(np.linalg.norm(front_channels(cfg), axis=1) - 1.0).max() <= 4 * np.finfo(float).eps
        report = run_experiment(ExperimentSpec(cfg=cfg))   # all four scenarios
        assert all(np.isfinite(se).all() for se in report.se.values())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [1e6, np.nextafter(_MAX_SHADOWING_STD_DB, np.inf), _MAX_SHADOWING_STD_DB])
    def test_extreme_shadowing_rejected_by_name_or_runs(self, value):
        # 1e6 dB passed validate() and overflowed the shadowing gain inside the drop; the largest
        # accepted value runs, without a numpy warning, to finite SE in every scenario
        cfg = SimConfig(L=3, K=4, M=2, N=4, ris_rows=2, ris_cols=2, tau_p=2, mc_setups=1, mc_channel_realizations=2,
                        shadowing_std_db=value)
        try:
            cfg.validate()
        except ConfigError as err:
            assert err.field == "shadowing_std_db" and value > _MAX_SHADOWING_STD_DB
            return
        assert value == _MAX_SHADOWING_STD_DB
        report = run_experiment(ExperimentSpec(cfg=cfg))
        assert all(np.isfinite(se).all() for se in report.se.values())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lengths", [
        dict(min_distance_m=1e-300, ap_height_m=1e-300),
        dict(ap_height_m=1e-300),
        dict(min_distance_m=1e-84, ap_height_m=1e-84, area_side_m=1e-84),
    ], ids=["clamp-1e-300", "height-1e-300", "all-1e-84"])
    def test_path_loss_at_the_distance_clamp_rejected_by_name_or_runs(self, lengths):
        # at a 1.4e-300 m clamp the path-loss gain overflows to inf and every SE would be non-finite, so
        # validate() names min_distance_m; a 1e-300 m height over the 1 m clamp, and a 1.4e-84 m clamp
        # (gain 4.8e304), run without a numpy warning to finite SE in every scenario
        cfg = SimConfig(L=3, K=4, M=2, N=4, ris_rows=2, ris_cols=2, tau_p=2, mc_setups=1, mc_channel_realizations=2,
                        **lengths)
        try:
            cfg.validate()
        except ConfigError as err:
            assert err.field == "min_distance_m" and lengths["min_distance_m"] == 1e-300
            return
        assert lengths.get("min_distance_m") != 1e-300
        report = run_experiment(ExperimentSpec(cfg=cfg))
        assert all(np.isfinite(se).all() for se in report.se.values())

    def test_int_valid_for_float_field(self):
        SimConfig(area_side_m=500, pilot_power_mw=100, noise_power_dbm=-94).validate()

    def test_pilot_longer_than_block(self):
        with pytest.raises(ConfigError, match="tau_p"):
            SimConfig(tau_p=200, tau_c=200).validate()

    def test_ris_grid_shape_must_match_n(self):
        with pytest.raises(ConfigError):
            SimConfig(N=36, ris_rows=5, ris_cols=6).validate()
        with pytest.raises(ConfigError, match="ris_rows"):
            SimConfig(N=36, ris_rows=-6, ris_cols=-6).validate()

    def test_ris_smaller_than_array(self):
        with pytest.raises(ConfigError, match="N"):
            SimConfig(M=8, N=4, ris_rows=2, ris_cols=2).validate()


class TestParsing:
    def test_empty_text(self):
        assert parse_config_text("") == {}

    def test_basic_keys(self):
        values = parse_config_text("L = 25\nK=5\ntau_p = 5\n")
        assert values == {"L": 25, "K": 5, "tau_p": 5}

    def test_comments_and_blank_lines(self):
        text = "# header\nL = 7   # trailing comment\n\n  \nseed = 42\n"
        assert parse_config_text(text) == {"L": 7, "seed": 42}

    def test_float_parsing(self):
        values = parse_config_text("area_side_m = 500.0\nangular_spread_deg=30")
        assert values == {"area_side_m": 500.0, "angular_spread_deg": 30.0}

    def test_string_field(self):
        assert parse_config_text("array_geometry = planar") == {"array_geometry": "planar"}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_text("bogus = 1")

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="L"):
            parse_config_text("L = banana")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words")


class TestLoadConfig:
    def test_defaults_only(self):
        assert load_config() == SimConfig()

    def test_file_values(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("L = 12\nseed = 99\n")
        cfg = load_config(str(path))
        assert cfg.L == 12
        assert cfg.seed == 99
        assert cfg.K == 10  # untouched default

    def test_override_precedence(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("seed = 99\nL = 12\n")
        cfg = load_config(str(path), overrides={"seed": 7})
        assert cfg.seed == 7
        assert cfg.L == 12

    def test_invalid_file_value_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("tau_p = 0\n")
        with pytest.raises(ConfigError, match="tau_p"):
            load_config(str(path))

    def test_unknown_override(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides={"nope": 1})

    def test_removed_correlation_model_key_rejected(self, tmp_path):
        # manifests written before local scattering became the only model carry this key
        path = tmp_path / "manifest.txt"
        path.write_text("L = 12\ncorrelation_model = local-scattering\n")
        with pytest.raises(ConfigError, match="correlation_model: unknown configuration key"):
            load_config(str(path))

    def test_round_trip_dict(self):
        cfg = SimConfig(L=3, K=2, tau_p=2, N=4, ris_rows=2, ris_cols=2, M=2)
        assert SimConfig(**asdict(cfg)) == cfg
