"""Simulation configuration: defaults, validation, and flat key=value files.

All keys carry explicit units in their names (``noise_power_dbm``,
``pilot_power_mw``, ...). Linear-unit views are exposed as properties.
"""

import math
from dataclasses import dataclass, fields, asdict

from .exceptions import ConfigError

SPEED_OF_LIGHT = 299792458.0

# 12 wavelengths at 2 GHz; kept absolute so the box geometry is explicit.
_DEFAULT_BOX_DEPTH_M = 12.0 * SPEED_OF_LIGHT / 2e9

# A zero length or power puts log10(0) or a division by zero into the model.
_POSITIVE_FIELDS = ("carrier_frequency_hz", "pilot_power_mw", "data_power_mw", "element_spacing",
                    "box_depth_m", "shadowing_decorrelation_m", "min_distance_m")
_NON_NEGATIVE_FIELDS = ("area_side_m", "angular_spread_deg", "shadowing_std_db", "ap_height_m", "seed")


@dataclass
class SimConfig:
    """All parameters of one simulation run."""

    L: int = 50                     # access points
    K: int = 10                     # user equipments
    M: int = 4                      # active antennas per AP
    N: int = 36                     # RIS elements per AP
    area_side_m: float = 1000.0
    carrier_frequency_hz: float = 2e9
    noise_power_dbm: float = -94.0
    pilot_power_mw: float = 100.0
    data_power_mw: float = 100.0
    tau_c: int = 200                # coherence block length (samples)
    tau_p: int = 10                 # pilot length (samples)
    ris_rows: int = 6
    ris_cols: int = 6
    element_spacing: float = 0.5    # in wavelengths, RIS grid and active array
    array_geometry: str = "linear"  # active array: "linear" or "planar"
    box_depth_m: float = _DEFAULT_BOX_DEPTH_M
    rician_los_fraction: float = 0.9
    angular_spread_deg: float = 15.0
    correlation_model: str = "local-scattering"  # or "white"
    shadowing_std_db: float = 4.0
    shadowing_decorrelation_m: float = 9.0
    ap_height_m: float = 10.0
    min_distance_m: float = 1.0
    mc_setups: int = 50
    mc_channel_realizations: int = 100
    seed: int = 1

    @property
    def wavelength_m(self):
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def noise_power_w(self):
        return 10.0 ** ((self.noise_power_dbm - 30.0) / 10.0)

    @property
    def pilot_power_w(self):
        return self.pilot_power_mw * 1e-3

    @property
    def data_power_w(self):
        return self.data_power_mw * 1e-3

    def validate(self):
        """Raise ConfigError naming the first offending field."""
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f.name, "must be finite")
        if self.K < 1:
            raise ConfigError("K", "need at least one UE")
        if self.L < 1:
            raise ConfigError("L", "need at least one AP")
        if self.M < 1:
            raise ConfigError("M", "need at least one antenna per AP")
        if self.N < self.M:
            raise ConfigError("N", "RIS must have at least as many elements as antennas")
        if self.tau_p < 1:
            raise ConfigError("tau_p", "need at least one pilot sample")
        if self.tau_p >= self.tau_c:
            raise ConfigError("tau_p", "pilot length must be shorter than the coherence block")
        if self.ris_rows < 1 or self.ris_rows * self.ris_cols != self.N:
            raise ConfigError("ris_rows", "ris_rows and ris_cols must be positive with product N")
        if self.noise_power_w <= 0:
            raise ConfigError("noise_power_dbm", "noise power must be positive")
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) <= 0:
                raise ConfigError(name, "must be positive")
        for name in _NON_NEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be non-negative")
        if not 0.0 <= self.rician_los_fraction <= 1.0:
            raise ConfigError("rician_los_fraction", "must lie in [0, 1]")
        if self.array_geometry not in ("linear", "planar"):
            raise ConfigError("array_geometry", "must be 'linear' or 'planar'")
        if self.correlation_model not in ("local-scattering", "white"):
            raise ConfigError("correlation_model", "must be 'local-scattering' or 'white'")
        if self.mc_setups < 1:
            raise ConfigError("mc_setups", "need at least one network realization")
        if self.mc_channel_realizations < 1:
            raise ConfigError("mc_channel_realizations", "need at least one coherence block")
        return self

    def as_dict(self):
        return asdict(self)


_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}


def _parse_value(name, raw):
    try:
        return _FIELD_TYPES[name](raw)  # int, float or str
    except ValueError as exc:
        raise ConfigError(name, f"cannot parse {raw!r}") from exc


def parse_config_text(text):
    """Parse flat ``key = value`` lines into a field dict.

    ``#`` starts a comment; blank lines are ignored. Unknown keys error.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(key, "unknown configuration key")
        values[key] = _parse_value(key, raw)
    return values


def load_config(path=None, overrides=None):
    """Build a SimConfig from defaults, an optional file, and CLI overrides.

    Precedence (lowest to highest): dataclass defaults, file values,
    overrides. The result is validated.
    """
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            values.update(parse_config_text(handle.read()))
    if overrides:
        for key, val in overrides.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(key, "unknown configuration key")
            values[key] = val
    return SimConfig(**values).validate()
