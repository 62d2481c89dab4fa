"""Simulation configuration: defaults, validation, and flat key=value files.

All keys carry explicit units in their names (``noise_power_dbm``,
``pilot_power_mw``, ...). Linear-unit views are exposed as properties.
"""

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

from .exceptions import ConfigError
from .network import active_array_positions, ris_grid_positions

SPEED_OF_LIGHT = 299792458.0

# 12 wavelengths at 2 GHz; kept absolute so the box geometry is explicit.
_DEFAULT_BOX_DEPTH_M = 12.0 * SPEED_OF_LIGHT / 2e9

# A zero length or power puts log10(0) or a division by zero into the model.
_POSITIVE_FIELDS = ("carrier_frequency_hz", "pilot_power_mw", "data_power_mw", "element_spacing",
                    "box_depth_m", "shadowing_decorrelation_m", "min_distance_m")
_NON_NEGATIVE_FIELDS = ("area_side_m", "angular_spread_deg", "shadowing_std_db", "ap_height_m", "seed")
_AT_LEAST_ONE_FIELDS = ("K", "L", "M", "tau_p", "mc_setups", "mc_channel_realizations")
_CHOICES = {"array_geometry": ("linear", "planar")}
_ACCEPTED = {int: numbers.Integral, float: numbers.Real, str: str}   # an int is a valid float, a bool is neither


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
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTED[f.type]):
                raise ConfigError(f.name, f"must be of type {f.type.__name__}, got {value!r}")
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f.name, "must be finite")
        for name in _AT_LEAST_ONE_FIELDS:
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be at least 1")
        if self.N < self.M:
            raise ConfigError("N", "RIS must have at least as many elements as antennas")
        if self.tau_p >= self.tau_c:
            raise ConfigError("tau_p", "pilot length must be shorter than the coherence block")
        if self.ris_rows < 1 or self.ris_rows * self.ris_cols != self.N:
            raise ConfigError("ris_rows", "ris_rows and ris_cols must be positive with product N")
        try:
            noise_w = self.noise_power_w
        except OverflowError:
            noise_w = math.inf
        if not 0 < noise_w < math.inf:
            raise ConfigError("noise_power_dbm", "noise power in watts must be positive and finite")
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) <= 0:
                raise ConfigError(name, "must be positive")
        if not math.isfinite(self.wavelength_m):
            raise ConfigError("carrier_frequency_hz", "wavelength must be finite")
        if not math.isfinite(self.element_spacing * self.wavelength_m):
            raise ConfigError("element_spacing", "element spacing in metres must be finite")
        for name in _NON_NEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be non-negative")
        if not 0.0 <= self.rician_los_fraction <= 1.0:
            raise ConfigError("rician_los_fraction", "must lie in [0, 1]")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(name, f"must be one of {choices}")
        # network.los_matrix squares the antenna-element offsets: the box depth, and across the planes at
        # most `reach`, between opposite corners of the two centred lattices
        unit = replace(self, carrier_frequency_hz=SPEED_OF_LIGHT, element_spacing=1.0)   # a 1 m pitch
        corner = active_array_positions(unit)[:, 1:].max(axis=0) + ris_grid_positions(unit)[:, 1:].max(axis=0)
        reach_per_spacing = self.wavelength_m * math.hypot(*corner)
        reach = self.element_spacing * reach_per_spacing
        if not math.isfinite(self.box_depth_m * self.box_depth_m + reach * reach):
            name = ("box_depth_m" if self.box_depth_m >= reach else "element_spacing"
                    if math.isfinite(reach_per_spacing * reach_per_spacing) else "carrier_frequency_hz")
            raise ConfigError(name, "antenna-element distances must stay finite when squared")
        return self

    def as_dict(self):
        return asdict(self)


_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}


def _field_type(name):
    if name not in _FIELD_TYPES:
        raise ConfigError(name, "unknown configuration key")
    return _FIELD_TYPES[name]


def _parse_value(name, raw):
    try:
        return _field_type(name)(raw)  # int, float or str
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
            _field_type(key)   # rejects an unknown key
            values[key] = val
    return SimConfig(**values).validate()
