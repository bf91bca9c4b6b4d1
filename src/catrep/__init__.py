"""catrep: dual-engine simulator for cat-code quantum repeaters.

An analytic engine produces closed-form fidelities, success probabilities
and secret-key rates for loss-only repeater chains built on rotation
symmetric bosonic codewords; a truncated Fock-space engine simulates the
actual protocol step by step and cross-validates every analytic quantity.
"""

from .catcode import (
    CatCodeSpec,
    LossWeights,
    codeword,
    damped_codeword,
    error_space_state,
    loss_weights,
    segment_fidelity,
)
from .cavity import (
    CavityParams,
    detuning_for_angle,
    full_reflection,
    ideal_reflection,
    reflection_phase,
    sweep_reflection,
)
from .chain import (
    ATTENUATION_LENGTH_KM,
    ChainParams,
    ChainReport,
    PauliFrameState,
    SegmentParams,
    chain_distribution,
    chain_fidelity,
    chain_success,
    evaluate_chain,
    plob_bound,
    secret_key_rate,
    swap_pair,
)
from .fockspace import (
    FockDensity,
    FockVector,
    HybridDensity,
    TruncationError,
    TruncationPolicy,
    amplitude_damping,
    annihilate,
    coherent_state,
    hcrot,
    kraus_op,
    measure_spin,
    rotation_apply,
)
from .protocol_oracle import (
    UnitReport,
    bell_order_equivalence,
    create_entanglement,
    prepare_code_state,
    simulate_unit,
    syndrome_cascade,
    transmit,
)
from .usd import (
    CoherentSuperposition,
    beam_splitter,
    cat_superposition,
    click_probability,
    linear_optics_usd_probability,
    optimal_usd_probability,
    usd_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ATTENUATION_LENGTH_KM",
    "CatCodeSpec",
    "CavityParams",
    "ChainParams",
    "ChainReport",
    "CoherentSuperposition",
    "FockDensity",
    "FockVector",
    "HybridDensity",
    "LossWeights",
    "PauliFrameState",
    "SegmentParams",
    "TruncationError",
    "TruncationPolicy",
    "UnitReport",
    "amplitude_damping",
    "annihilate",
    "beam_splitter",
    "bell_order_equivalence",
    "cat_superposition",
    "chain_distribution",
    "chain_fidelity",
    "chain_success",
    "click_probability",
    "codeword",
    "coherent_state",
    "create_entanglement",
    "damped_codeword",
    "detuning_for_angle",
    "error_space_state",
    "evaluate_chain",
    "full_reflection",
    "hcrot",
    "ideal_reflection",
    "kraus_op",
    "linear_optics_usd_probability",
    "loss_weights",
    "measure_spin",
    "optimal_usd_probability",
    "plob_bound",
    "prepare_code_state",
    "reflection_phase",
    "rotation_apply",
    "secret_key_rate",
    "segment_fidelity",
    "simulate_unit",
    "swap_pair",
    "sweep_reflection",
    "syndrome_cascade",
    "transmit",
    "__version__",
]
