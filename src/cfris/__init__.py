"""Uplink simulator for user-centric cell-free massive MIMO with
RIS-integrated antenna arrays.

The package exports the run-and-report API; every other name is imported
from its module, for example ``from cfris.ris import constrained_power_iteration``.
"""

from .config import SimConfig, load_config
from .exceptions import CfrisError, ConfigError, ModelError
from .experiment import SCENARIOS, ExperimentSpec, SeReport, emit_report, load_report, run_experiment

__version__ = "0.1.0"
