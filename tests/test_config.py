import numpy as np
import pytest

from cfris.config import SimConfig, load_config, parse_config_text
from cfris.exceptions import ConfigError


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
        assert SimConfig(**cfg.as_dict()) == cfg
