"""Simulation and certificate checking for impulsive systems with inputs.

States flow along an ordinary differential equation between jump times
and are reset by a jump map at each jump time, right-continuously.
This package integrates such systems, measures input energy in the
flow-plus-jump sense, evaluates jump-aware growth bounds, and checks or
falsifies decay, boundedness, and gain certificates, in both the
jump-counting (strong) and elapsed-time (weak) clocks.
"""

from .certificates import (
    CheckReport,
    EpsDeltaConfig,
    GuasCertificate,
    IissCertificate,
    SearchRanges,
    SettlingConfig,
    SettlingEstimate,
    UbebsCertificate,
    Witness,
    certificate_from_config,
    check_certificate,
    check_eps_delta_conditions,
    check_guas,
    check_iiss,
    check_ubebs,
    derive_guas_from_iiss,
    derive_strong_from_weak,
    derive_ubebs_from_iiss,
    estimate_settling_time,
    falsify,
    replay_witness,
    settling_time_profile,
)
from .comparison import (
    ComparisonFn,
    KLFn,
    comparison_from_config,
    exp_decay_kl,
    guas_decay_from_iiss,
    identity,
    invert,
    kl_from_config,
    lift_weak_beta,
    linear,
    log_growth,
    power,
    rational_decay_kl,
    saturating,
    ubebs_alpha_from_iiss,
)
from .errors import (
    ClassViolation,
    ConfigError,
    HypothesisFailed,
    ImpstabError,
    InconsistentInput,
    InvalidInterval,
    InvalidPhi,
    InvalidSystem,
    NonFiniteState,
    NonZeroInput,
    NotMonotone,
    OutOfRange,
)
from .gronwall import (
    GronwallData,
    GronwallReport,
    gronwall_bound,
    gronwall_bound_at,
    growth_profile,
    scaled_growth_profile,
    verify_gronwall,
)
from .impulses import (
    ImpulseFamily,
    ImpulseSequence,
    count_jumps,
    count_jumps_at,
    dwell_family,
    empty_family,
    family_from_config,
    finite_random_family,
    periodic_family,
    shrinking_gap_family,
)
from .inputs import (
    EnergyProfile,
    HybridInput,
    InputSignal,
    constant_signal,
    decaying_burst,
    energy_norm,
    pulse_train,
    signal_from_config,
    truncate,
    zero_signal,
)
from .library import (
    EXAMPLE_CONFIGS,
    decaying_guas_certificate,
    get_example,
    lin_contract_iiss_certificate,
    make_linear_system,
    pure_jump_weak_certificate,
)
from .scenarios import load_scenario, run_scenario
from .sim import (
    Trajectory,
    closed_form_linear_impulsive,
    integral_residual,
    simulate,
)
from .systems import (
    ImpulsiveSystem,
    compile_map,
    system_from_config,
)

__version__ = "0.1.0"
