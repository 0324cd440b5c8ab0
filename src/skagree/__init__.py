"""Secret-key capacities, error exponents, and random-binning protocol
simulation for sender-excited broadcast channels."""

from .probability import (
    JointPmf,
    Pmf,
    PmfError,
    binary_entropy,
    bsc_convolve,
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from .channels import (
    BinaryOnOffParams,
    ChannelError,
    DiscreteBroadcastChannel,
    GaussianInterferenceParams,
    build_binary_onoff,
    is_degraded,
    joint_distribution,
    load_channel,
    marginal_channel,
    save_channel,
)
from .capacity import (
    CapacityResult,
    OptimizerConfig,
    binary_onoff_optimize,
    binary_onoff_rate,
    degraded_capacity,
    gaussian_capacity,
    golden_section_lanes,
    golden_section_max,
    maximize_over_inputs,
    rate_split,
    strong_achievability_bound,
    upper_bound,
)
from .exponents import (
    ExponentResult,
    RatePoint,
    optimized_exponents,
    positivity_thresholds,
    reliability_exponent,
    reliability_exponents,
    reliability_objective,
    secrecy_exponent,
    secrecy_exponents,
    secrecy_objective,
)
from .binning_sim import (
    BudgetError,
    SecretKeyCode,
    SimReport,
    ensemble_average,
    ensemble_averages,
    ensemble_error_bound,
    ensemble_leakage_bound,
    exact_evaluate,
    generate_code,
    mlmap_decode,
    monte_carlo_evaluate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
