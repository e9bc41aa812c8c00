"""Short-time factorization of time-ordered propagators on finite matrices.

For a generator expanded as H(t) = H0 + H1 t + H2 t^2/2, the time-ordered
propagator satisfies

    U(t) = exp(-i Phi(t) / hbar) + O(t^4),
    Phi(t) = H0 t + H1 t^2/2 + (2 H2 + (i/hbar)[H0, H1]) t^3 / 12.

This module builds Phi, supplies the expanded generators for a particle
coupled through its position and for a spin precessing about z while
coupled through Jx, and measures the O(t^4) remainder against a converged
midpoint-product reference propagator.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    as_operator,
    expm_phase,
    expm_phase_stack,
    is_hermitian,
    ordered_product,
    require_same_dim,
    spectral_norm,
)
from .errors import ConvergenceError, ValidationError

REL_SELF_ERROR = 1e-3  # reference self-error allowed, relative to the distance


@dataclass(frozen=True)
class ExpandedHamiltonian:
    """Coefficients of H(t) = h0 + h1 t + h2 t^2/2."""

    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        h0 = as_operator(self.h0, "h0")
        h1 = as_operator(self.h1, "h1")
        h2 = as_operator(self.h2, "h2")
        require_same_dim(h0, h1, h2)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)

    @property
    def dim(self):
        return self.h0.shape[0]

    def at(self, t):
        """The generator H(t) itself (used to drive reference propagators)."""
        return self.h0 + self.h1 * t + self.h2 * (0.5 * t * t)


def magnus_exponent(h, t):
    """Exponent Phi(t) with U(t) ~ exp(-i Phi(t) / hbar), accurate to O(t^4)."""
    if t < 0:
        raise ValidationError("t must be >= 0")
    comm = h.h0 @ h.h1 - h.h1 @ h.h0
    return (
        h.h0 * t
        + h.h1 * (0.5 * t * t)
        + (2.0 * h.h2 + (1j / h.hbar) * comm) * (t ** 3 / 12.0)
    )


def short_time_propagator(h, t):
    """exp(-i Phi(t) / hbar) built from the magnus_exponent."""
    return expm_phase(magnus_exponent(h, t), -1.0 / h.hbar)


def time_ordered_propagator(h_of_t, t, n_steps, hbar=1.0, dim=None):
    """Midpoint-rule reference for the time-ordered exponential.

    Ordered product of exp(-i h((k + 1/2) delta) delta / hbar) with later
    times standing to the left; converges to the exact propagator as
    O(delta^2).

    Parameters
    ----------
    h_of_t : callable
        Maps a time to the (Hermitian) generator matrix at that time.
    t : float
        Final time.
    n_steps : int
        Number of midpoint factors (>= 1).
    """
    if n_steps < 1:
        raise ValidationError("n_steps must be >= 1")
    if t == 0:
        probe = as_operator(h_of_t(0.0)) if dim is None else None
        d = dim if dim is not None else probe.shape[0]
        return np.eye(d, dtype=complex)
    delta = t / n_steps
    mids = (np.arange(n_steps) + 0.5) * delta
    hs = np.stack([as_operator(h_of_t(float(s))) for s in mids])
    if all(is_hermitian(h) for h in hs):
        factors = expm_phase_stack(hs, -delta / hbar)
    else:
        factors = np.stack([expm_phase(h, -delta / hbar) for h in hs])
    return ordered_product(factors)


def particle_generators(Q, P, B, Bdot, mass, hbar=1.0):
    """Expanded generators for H_int = Q B with free system motion.

    h0 = Q (x) B, h1 = (P/M) (x) B + Q (x) Bdot, h2 = 0; the quadratic
    coefficient is not required at the order implemented for the particle
    case.
    """
    Q, P = as_operator(Q, "Q"), as_operator(P, "P")
    B, Bdot = as_operator(B, "B"), as_operator(Bdot, "Bdot")
    require_same_dim(Q, P)
    require_same_dim(B, Bdot)
    h0 = np.kron(Q, B)
    h1 = np.kron(P / mass, B) + np.kron(Q, Bdot)
    return ExpandedHamiltonian(h0, h1, np.zeros_like(h0), hbar)


def spin_generators(Jx, Jy, B, Bdot, Bddot, omega, hbar=1.0):
    """Expanded generators for H_sys = Omega Jz, H_int = Jx B.

    In the interaction picture the coupling rotates into Jy, giving
    h0 = Jx (x) B,
    h1 = Jx (x) Bdot - Omega Jy (x) B,
    h2 = -Omega^2 Jx (x) B - 2 Omega Jy (x) Bdot + Jx (x) Bddot.
    """
    Jx, Jy = as_operator(Jx, "Jx"), as_operator(Jy, "Jy")
    B, Bdot, Bddot = (
        as_operator(B, "B"),
        as_operator(Bdot, "Bdot"),
        as_operator(Bddot, "Bddot"),
    )
    require_same_dim(Jx, Jy)
    require_same_dim(B, Bdot, Bddot)
    h0 = np.kron(Jx, B)
    h1 = np.kron(Jx, Bdot) - omega * np.kron(Jy, B)
    h2 = (
        -(omega ** 2) * np.kron(Jx, B)
        - 2.0 * omega * np.kron(Jy, Bdot)
        + np.kron(Jx, Bddot)
    )
    return ExpandedHamiltonian(h0, h1, h2, hbar)


def expansion_error(h, h_of_t, t):
    """Spectral-norm distance between the O(t^4) propagator and a converged reference.

    The reference step count is doubled until its own Richardson error
    estimate is below REL_SELF_ERROR times the reported distance.
    """
    if t < 0:
        raise ValidationError("t must be >= 0")
    if t == 0:
        return 0.0
    approx = short_time_propagator(h, t)
    n = 32
    coarse = time_ordered_propagator(h_of_t, t, n, h.hbar, dim=h.dim)
    while True:
        n *= 2
        fine = time_ordered_propagator(h_of_t, t, n, h.hbar, dim=h.dim)
        estimate = spectral_norm(fine - coarse) / 3.0
        reference = fine + (fine - coarse) / 3.0
        distance = spectral_norm(reference - approx)
        if estimate <= REL_SELF_ERROR * distance:
            return distance
        if distance <= 1e-10:
            # Below the roundoff floor of the factored reference product;
            # the expansion is exact here for all practical purposes.
            return distance
        if n >= (1 << 18):
            raise ConvergenceError(
                f"reference propagator not converged at n_steps={n}: "
                f"self-error {estimate:.3g} vs distance {distance:.3g}"
            )
        coarse = fine
