"""Simulation configuration: defaults, validation, and flat key=value files.

All keys carry explicit units in their names (``noise_power_dbm``,
``pilot_power_mw``, ...). Linear-unit views are exposed as properties.
"""

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .exceptions import ConfigError
from .network import front_los, pathloss_beta

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
_GEOMETRY_FIELDS = ("element_spacing", "box_depth_m", "carrier_frequency_hz", "min_distance_m", "ap_height_m")
_TINY = np.finfo(float).tiny
# A shadowing draw x is a unit-norm sum of standard normals times shadowing_std_db, so it lies beyond 40 standard
# deviations with probability below 2 exp(-800); up to there, 40 * 77 = 3080 dB, its gain 10^(x/10) is a finite float.
_MAX_SHADOWING_STD_DB = 77.0


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
        for name in _NON_NEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be non-negative")
        if self.shadowing_std_db > _MAX_SHADOWING_STD_DB:
            raise ConfigError("shadowing_std_db", f"must be at most {_MAX_SHADOWING_STD_DB} dB, so that the gain "
                                                  "10^(x/10) of a draw x of 40 standard deviations stays finite")
        if not 0.0 <= self.rician_los_fraction <= 1.0:
            raise ConfigError("rician_los_fraction", "must lie in [0, 1]")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(name, f"must be one of {choices}")
        if not _geometry_representable(self):   # name the first set field whose default passes, else the first set
            given = [name for name in _GEOMETRY_FIELDS if getattr(self, name) != getattr(SimConfig, name)]
            given = given or ["element_spacing"]
            name = next((name for name in given
                         if _geometry_representable(replace(self, **{name: getattr(SimConfig, name)}))), given[0])
            raise ConfigError(name, "the lattice pitch and every LOS power must be normal floats, and the path-loss "
                                    "gain at the distance clamp finite")
        return self


def _geometry_representable(cfg):
    """Lattice pitch and every LOS power |front_los|^2 normal floats, each column's power sum finite, and the largest
    path-loss gain, at the distance clamp, finite: network divides by the pitch to index the lattice, a subnormal
    power loses digits in a front column's unit-norm scaling, and an infinite gain makes every SE non-finite."""
    with np.errstate(all="ignore"):   # numpy's overflow and underflow warnings would repeat the verdict
        power = np.abs(front_los(cfg)) ** 2
        return _TINY <= cfg.element_spacing * cfg.wavelength_m < math.inf and bool(
            (power >= _TINY).all() and np.isfinite(power.sum(axis=0)).all()
            and np.isfinite(pathloss_beta(math.hypot(cfg.min_distance_m, cfg.ap_height_m))))


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
