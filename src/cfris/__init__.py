"""Uplink simulator for user-centric cell-free massive MIMO with
RIS-integrated antenna arrays."""

from .association import Association, assign_pilots_and_clusters
from .config import SimConfig, load_config
from .estimation import (
    EffectiveStats,
    effective_covariance,
    effective_front,
    error_covariance,
    mmse_estimator,
)
from .exceptions import (
    CfrisError,
    ConfigError,
    DimensionError,
    ModelError,
)
from .experiment import (
    SCENARIOS,
    ExperimentSpec,
    SeReport,
    emit_report,
    load_report,
    run_experiment,
)
from .linalg import hermitian_eig, sample_complex_gaussian
from .network import (
    ChannelStats,
    NetworkRealization,
    build_ap_ris_channels,
    build_spatial_correlation,
    generate_realization,
    pathloss_beta,
)
from .receiver import (
    instantaneous_sinr,
    mmse_combiner,
    pmmse_combiner,
    spectral_efficiency,
)
from .ris import (
    SignalStrengthObjective,
    build_objective,
    constrained_power_iteration,
    select_long_term_config,
)

__version__ = "0.1.0"
