"""decolab: interaction-dominated decoherence laws and their exact oracle.

Closed-form coherence-norm decay, decoherence time scales, the short-time
propagator expansion, and spin-coherent-state decoherence, all
cross-validated against brute-force evolution of system x finite-bath pure
states.

``import decolab`` loads only the errors; each other name below imports
its module on first use (PEP 562), so ``decolab.evolve_norm`` is
``decolab.oracle.evolve_norm``.
"""

import importlib

__version__ = "0.1.0"

from .errors import DecolabError, NumericalError, ResolutionError, ValidationError  # noqa: F401

_EXPORTS = {  # module -> the public names it gives the package
    "errors": ("DecolabError", "NumericalError", "ResolutionError", "ValidationError"),
    "packets": (
        "DensityBlock", "GaussianPacket", "PositionGrid", "Superposition", "coherence_norm",
        "density_block", "position_amplitude",
    ),
    "laws": (
        "BathMoments", "CorrelationFunction", "DecoherenceTimes", "GoldenRuleTimes",
        "SystemParams", "coherence_norm_short_time", "constant_correlation",
        "decoherence_times", "evolve_density_short_time", "exponential_correlation",
        "gaussian_correlation", "golden_rule_times", "memory_kernel_norm", "two_reservoir_norm",
    ),
    "expansion": (
        "ExpandedHamiltonian", "expansion_error", "magnus_exponent", "particle_generators",
        "short_time_propagator", "spin_generators", "time_ordered_propagator",
    ),
    "spin": (
        "MonteCarloNorm", "SpinCoherent", "SpinDecoherenceTimes", "SpinSeparations",
        "coherent_means", "coherent_vector", "is_special_case_iv", "separations",
        "special_pair", "spin_coherence_norm", "spin_decoherence_times", "spin_matrices",
        "unnormalized_ket", "verify_holomorphic_identities",
    ),
    "oracle": (
        "BathComponent", "BathModel", "FitResult", "GridParticle", "NormCurve", "SpinSystem",
        "bath_characteristic", "bath_eigen_decomposition", "bath_statistics",
        "build_bath_operators", "evolve_norm", "fit_decay_exponent", "grid_packet_state",
        "position_eigenstate", "spin_bath", "static_bath_norm",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a library module: ``decolab.oracle`` after ``import decolab``
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
