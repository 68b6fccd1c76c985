"""Statistical millimeter-wave MIMO channel simulator and capacity analyzer.

Synthesizes spatially correlated local-area channel impulse responses from
Rician fading and exponential spatial-autocorrelation models, computes
wideband MIMO capacity by Monte Carlo, and provides the inverse estimators
(spatial autocorrelation, exponential model fitting, K-factor) to validate
the generative model against its own outputs.
"""

from .capacity import (
    CapacityConfig,
    FrequencyResponse,
    capacity_cdf,
    frequency_response,
    run_monte_carlo,
    wideband_capacity,
)
from .cirgen import (
    CirFileError,
    CirGenConfig,
    export_cir,
    generate_initial_cir,
    import_cir,
    partition_by_void,
)
from .core import (
    ArrayGeometry,
    AutocorrParams,
    ChannelImpulseResponse,
    Environment,
    FadingModel,
    Polarization,
    Scenario,
    ScenarioDefaults,
    all_scenarios,
    lookup_default_params,
)
from .estimators import (
    AutocorrCurve,
    AutocorrFit,
    KFactorEstimate,
    TrackFileError,
    TrackMeasurement,
    average_autocorr,
    empirical_power_cdf,
    estimate_k_factor,
    fit_autocorr_mmse,
    read_track,
    spatial_autocorrelation,
    write_track,
)
from .spatial import (
    build_amplitude_matched_corr,
    build_ula_corr_matrix,
    eval_autocorr,
    matrix_sqrt_psd,
    realize_taps,
    repair_to_correlation,
    simulate_amplitude_track,
)

__version__ = "0.1.0"
