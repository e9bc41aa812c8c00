"""decolab: interaction-dominated decoherence laws and their exact oracle.

Closed-form coherence-norm decay, decoherence time scales, the short-time
propagator expansion, and spin-coherent-state decoherence, all
cross-validated against brute-force evolution of system x finite-bath pure
states.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConvergenceError,
    DecolabError,
    DegenerateBathError,
    DimensionCapError,
    FitWindowError,
    GridMismatchError,
    NumericalError,
    ResolutionError,
    StepSizeError,
    ValidationError,
)
from .packets import (  # noqa: F401
    DensityBlock,
    GaussianPacket,
    PositionGrid,
    Superposition,
    coherence_norm,
    density_block,
    momentum_amplitude,
    position_amplitude,
    superposition_blocks,
)
from .laws import (  # noqa: F401
    BathMoments,
    CorrelationFunction,
    DecoherenceTimes,
    GoldenRuleTimes,
    SystemParams,
    coherence_norm_short_time,
    constant_correlation,
    decoherence_times,
    evolve_density_short_time,
    exponential_correlation,
    flo_time,
    gaussian_correlation,
    golden_rule_times,
    memory_kernel_norm,
    transition_separation,
    two_reservoir_norm,
)
from .expansion import (  # noqa: F401
    ExpandedHamiltonian,
    expansion_error,
    magnus_exponent,
    particle_generators,
    short_time_propagator,
    spin_generators,
    time_ordered_propagator,
)
from .spin import (  # noqa: F401
    MonteCarloNorm,
    SpinCoherent,
    SpinDecoherenceTimes,
    SpinSeparations,
    coherent_means,
    coherent_vector,
    is_special_case_iv,
    separations,
    special_pair,
    spin_coherence_norm,
    spin_decoherence_times,
    spin_matrices,
    unnormalized_ket,
    verify_holomorphic_identities,
)
from .oracle import (  # noqa: F401
    BathComponent,
    BathModel,
    FitResult,
    GridParticle,
    NormCurve,
    SpinSystem,
    bath_characteristic,
    bath_eigen_decomposition,
    bath_statistics,
    build_bath_operators,
    evolve_norm,
    fit_decay_exponent,
    grid_packet_state,
    position_eigenstate,
    spin_bath,
    static_bath_norm,
)
