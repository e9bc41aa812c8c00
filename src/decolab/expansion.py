"""Short-time factorization of time-ordered propagators on finite matrices.

For a generator expanded as H(t) = H0 + H1 t + H2 t^2/2, the time-ordered
propagator satisfies

    U(t) = exp(-i Phi(t) / hbar) + O(t^4),
    Phi(t) = H0 t + H1 t^2/2 + (2 H2 + (i/hbar)[H0, H1]) t^3 / 12.

This module builds Phi, supplies the expanded generators for a particle
coupled through its position and for a spin precessing about z while
coupled through Jx, and measures the O(t^4) remainder against a converged
reference propagator: the fourth-order commutator-free Magnus product of
Blanes and Moan (Appl. Numer. Math. 56, 1519 (2006)), Richardson-extrapolated
with 1/15.  That extrapolation assumes a smooth h_of_t.  The second-order
midpoint product, time_ordered_propagator, stays public as an independent
referee.

Every generator is Hermitian, so every exponential is one eigendecomposition.
ExpandedHamiltonian, particle_generators, spin_generators and (for their whole
stack of sampled generators) time_ordered_propagator and the fourth-order
reference check this once with ``_linalg.as_hermitian``: non-square,
non-finite or non-Hermitian input raises ValidationError.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    as_hermitian,
    expm_phase,
    expm_phase_stack,
    ordered_product,
    require_same_dim,
    spectral_norm,
)
from .errors import (
    NumericalError, ValidationError, is_int, require_instance, require_nonnegative,
    require_positive, require_real,
)

REL_SELF_ERROR = 1e-3  # reference self-error allowed, relative to the distance
# Gauss-point offsets 1/2 -+ sqrt(3)/6 and weights (3 -+ 2 sqrt(3))/12 of the
# commutator-free fourth-order Magnus step
_CF4_NODES = 0.5 + np.array([-1.0, 1.0]) * (np.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = (3.0 + np.array([-2.0, 2.0]) * np.sqrt(3.0)) / 12.0


@dataclass(frozen=True)
class ExpandedHamiltonian:
    """Hermitian coefficients of H(t) = h0 + h1 t + h2 t^2/2."""

    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("h0", "h1", "h2"):
            object.__setattr__(self, name, as_hermitian(getattr(self, name), name))
        require_same_dim(self.h0, self.h1, self.h2)
        require_positive(hbar=self.hbar)

    @property
    def dim(self):
        return self.h0.shape[0]

    def at(self, t):
        """The generator H(t) itself (used to drive reference propagators)."""
        return self.h0 + self.h1 * t + self.h2 * (0.5 * t * t)


def magnus_exponent(h, t):
    """Exponent Phi(t) with U(t) ~ exp(-i Phi(t) / hbar), accurate to O(t^4)."""
    require_instance(h=(h, ExpandedHamiltonian))
    require_nonnegative(t=t)
    comm = h.h0 @ h.h1 - h.h1 @ h.h0
    return (
        h.h0 * t
        + h.h1 * (0.5 * t * t)
        + (2.0 * h.h2 + (1j / h.hbar) * comm) * (t ** 3 / 12.0)
    )


def short_time_propagator(h, t):
    """exp(-i Phi(t) / hbar) built from the magnus_exponent."""
    return expm_phase(magnus_exponent(h, t), -1.0 / h.hbar)


def time_ordered_propagator(h_of_t, t, n_steps, hbar=1.0):
    """Midpoint-rule reference for the time-ordered exponential.

    Ordered product of exp(-i h((k + 1/2) delta) delta / hbar) with later
    times standing to the left; converges to the exact propagator as
    O(delta^2).

    Parameters
    ----------
    h_of_t : callable
        Maps a time to the Hermitian generator matrix at that time; the
        stack of midpoint generators is checked once with as_hermitian.
    t : float
        Final time.
    n_steps : int
        Number of midpoint factors, an integer >= 1.
    """
    if not (is_int(n_steps) and n_steps >= 1):
        raise ValidationError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    require_nonnegative(t=t)
    require_positive(hbar=hbar)
    delta = t / n_steps
    mids = (np.arange(n_steps) + 0.5) * delta
    hs = as_hermitian([h_of_t(float(s)) for s in mids], "h_of_t")
    if hs.ndim != 3:
        raise ValidationError(f"h_of_t must return one matrix, got shape {hs.shape[1:]}")
    if t == 0:
        return np.eye(hs.shape[-1], dtype=complex)
    return ordered_product(expm_phase_stack(hs, -delta / hbar))


def _cf4_propagator(h_of_t, t, n_steps, hbar):
    """Commutator-free fourth-order Magnus reference; error O(delta^4).

    Each step of length delta samples H1, H2 at the Gauss points
    t_k + c_{1,2} delta and applies exp(-i delta (a2 H1 + a1 H2) / hbar)
    first, then exp(-i delta (a1 H1 + a2 H2) / hbar); swapping the two
    factors drops the step to second order.  t > 0 and n_steps >= 1 are
    the caller's to ensure.
    """
    delta = t / n_steps
    nodes = (np.arange(n_steps)[:, None] + _CF4_NODES) * delta
    hs = as_hermitian([[h_of_t(float(s)) for s in pair] for pair in nodes], "h_of_t")
    if hs.ndim != 4:
        raise ValidationError(f"h_of_t must return one matrix, got shape {hs.shape[2:]}")
    a1, a2 = _CF4_WEIGHTS
    first = a2 * hs[:, 0] + a1 * hs[:, 1]
    second = a1 * hs[:, 0] + a2 * hs[:, 1]
    factors = np.stack([first, second], axis=1).reshape(2 * n_steps, *hs.shape[2:])
    return ordered_product(expm_phase_stack(factors, -delta / hbar))


def particle_generators(Q, P, B, Bdot, mass, hbar=1.0):
    """Expanded generators for H_int = Q B with free system motion.

    h0 = Q (x) B, h1 = (P/M) (x) B + Q (x) Bdot, h2 = 0; the quadratic
    coefficient is not required at the order implemented for the particle
    case.
    """
    if mass != np.inf:
        require_positive(mass=mass)
    Q, P = as_hermitian(Q, "Q"), as_hermitian(P, "P")
    B, Bdot = as_hermitian(B, "B"), as_hermitian(Bdot, "Bdot")
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
    require_real(omega=omega)
    Jx, Jy = as_hermitian(Jx, "Jx"), as_hermitian(Jy, "Jy")
    B, Bdot = as_hermitian(B, "B"), as_hermitian(Bdot, "Bdot")
    Bddot = as_hermitian(Bddot, "Bddot")
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

    The reference is the fourth-order commutator-free Magnus product
    (_cf4_propagator), Richardson-extrapolated with 1/15; h_of_t must be
    smooth on [0, t] for that extrapolation to hold.  Its step count starts
    at 1 and doubles until its own Richardson error estimate is below
    REL_SELF_ERROR times the reported distance.
    """
    require_instance(h=(h, ExpandedHamiltonian))
    require_nonnegative(t=t)
    if t == 0:
        return 0.0
    approx = short_time_propagator(h, t)
    n = 1
    coarse = _cf4_propagator(h_of_t, t, n, h.hbar)
    if coarse.shape != approx.shape:
        raise ValidationError(
            f"h_of_t must return {h.dim} x {h.dim} matrices, got shape {coarse.shape}"
        )
    while True:
        n *= 2
        fine = _cf4_propagator(h_of_t, t, n, h.hbar)
        estimate = spectral_norm(fine - coarse) / 15.0
        reference = fine + (fine - coarse) / 15.0
        distance = spectral_norm(reference - approx)
        if estimate <= REL_SELF_ERROR * distance:
            return distance
        if distance <= 1e-10:
            # Below the roundoff floor of the factored reference product;
            # the expansion is exact here for all practical purposes.
            return distance
        if n >= (1 << 18):
            raise NumericalError(
                f"reference propagator not converged at n_steps={n}: "
                f"self-error {estimate:.3g} vs distance {distance:.3g}"
            )
        coarse = fine
