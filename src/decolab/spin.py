"""Spin-j operators, SU(2) coherent states, and spin decoherence laws.

Coherent states |j, theta, phi> are labeled by the stereographic amplitude
alpha = e^{i phi} tan(theta / 2); the unnormalized ket ||alpha> =
sum_n sqrt(C(2j, n)) alpha^n |j, j - n> is holomorphic in alpha, which
turns the spin operators acting on it into first-order differential
operators (checked here by finite differences).

With H_sys = Omega Jz and H_int = Jx B, a superposition of two coherent
states decoheres at a rate set by which of the three mean separations
d_i = <alpha|J_i|alpha> - <beta|J_i|beta> survives:

    d_x != 0:            N = exp(-(t/tau_x)^2),  tau_x = hbar / (|d_x| sqrt(<B^2>))
    d_x = 0, d_y != 0:   N = exp(-(t/tau_y)^4),  tau_y = (d_y^2 Omega^2 <B^2> / 4 hbar^2)^(-1/4)
    d_x = d_y = 0, d_z:  N = (1 + (t/tau_z)^6)^(-1/2),
                         tau_z = (d_z^2 Omega^2 <B^2>^2 / 36 hbar^2)^(-1/6)

The Monte-Carlo mode samples the full exponent with Gaussian B, Bdot and
the commutator [B, Bdot] replaced by i hbar kappa.
"""

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateBathError, ValidationError, is_int, require_finite


def _check_j(j):
    require_finite(j=j)
    two_j = 2.0 * j
    if two_j < 1 or abs(two_j - round(two_j)) > 1e-12:
        raise ValidationError(f"j must be a half-integer >= 1/2, got {j}")
    return int(round(two_j))


def spin_matrices(j, hbar=1.0):
    """Standard (2j+1)-dimensional Jx, Jy, Jz in the descending Jz basis.

    Basis ordering is m = j, j-1, ..., -j, so index n corresponds to
    m = j - n.  Satisfies [Jx, Jy] = i hbar Jz to machine precision.
    """
    two_j = _check_j(j)
    dim = two_j + 1
    m = j - np.arange(dim)
    jz = hbar * np.diag(m).astype(complex)
    # J+ |j, m> = hbar sqrt(j(j+1) - m(m+1)) |j, m+1>; m+1 sits one index up.
    raising = np.zeros((dim, dim), dtype=complex)
    coeff = hbar * np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    raising[np.arange(dim - 1), np.arange(1, dim)] = coeff
    lowering = raising.conj().T
    jx = 0.5 * (raising + lowering)
    jy = -0.5j * (raising - lowering)
    return jx, jy, jz


@dataclass(frozen=True)
class SpinCoherent:
    """Coherent-state label (j, alpha) with alpha = e^{i phi} tan(theta/2).

    The south pole theta = pi (alpha -> infinity) is excluded by this
    parametrization.
    """

    j: float
    alpha: complex
    hbar: float = 1.0

    def __post_init__(self):
        _check_j(self.j)
        if not (cmath.isfinite(self.alpha)):
            raise ValidationError("alpha must be finite (theta = pi is excluded)")
        if not self.hbar > 0:
            raise ValidationError("hbar must be positive")

    @property
    def theta(self):
        return 2.0 * math.atan(abs(self.alpha))

    @property
    def phi(self):
        return cmath.phase(self.alpha) if self.alpha != 0 else 0.0


def _log_binomials(two_j):
    n = np.arange(two_j + 1)
    return (
        math.lgamma(two_j + 1)
        - np.array([math.lgamma(k + 1) + math.lgamma(two_j - k + 1) for k in n])
    )


def unnormalized_ket(j, alpha):
    """Holomorphic ket ||alpha> = sum_n sqrt(C(2j,n)) alpha^n |j, j-n>."""
    two_j = _check_j(j)
    alpha = complex(alpha)
    if alpha == 0:
        comps = np.zeros(two_j + 1, dtype=complex)
        comps[0] = 1.0
        return comps
    n = np.arange(two_j + 1)
    mag = np.exp(0.5 * _log_binomials(two_j) + n * math.log(abs(alpha)))
    return mag * np.exp(1j * n * cmath.phase(alpha))


def coherent_vector(state):
    """Normalized coherent state in the descending Jz eigenbasis.

    Components are evaluated in the log domain; j above 200 is rejected
    because the binomial range then exceeds what the normalized components
    can represent reliably.
    """
    if state.j > 200:
        raise ValidationError("coherent_vector supports j <= 200")
    two_j = _check_j(state.j)
    alpha = complex(state.alpha)
    n = np.arange(two_j + 1)
    log_norm = state.j * math.log1p(abs(alpha) ** 2)
    if alpha == 0:
        vec = np.zeros(two_j + 1, dtype=complex)
        vec[0] = 1.0
        return vec
    log_mag = 0.5 * _log_binomials(two_j) + n * math.log(abs(alpha)) - log_norm
    return np.exp(log_mag) * np.exp(1j * n * cmath.phase(alpha))


def coherent_means(state):
    """Coherent-state means (<Jx>, <Jy>, <Jz>) from the rational forms in alpha."""
    a = complex(state.alpha)
    denom = 1.0 + abs(a) ** 2
    scale = state.hbar * state.j
    mx = scale * (a + a.conjugate()).real / denom
    my = scale * (1j * (a.conjugate() - a)).real / denom
    mz = scale * (1.0 - abs(a) ** 2) / denom
    return mx, my, mz


@dataclass(frozen=True)
class SpinSeparations:
    """Mean angular-momentum differences between two coherent states."""

    d_x: float
    d_y: float
    d_z: float


def separations(j, alpha, beta, hbar=1.0):
    """d_i = <alpha|J_i|alpha> - <beta|J_i|beta> for i = x, y, z."""
    ma = coherent_means(SpinCoherent(j, alpha, hbar))
    mb = coherent_means(SpinCoherent(j, beta, hbar))
    return SpinSeparations(ma[0] - mb[0], ma[1] - mb[1], ma[2] - mb[2])


def special_pair(alpha, case_id):
    """Partner beta with vanishing d_x for the three constructive cases.

    (i)   beta = 1/alpha*  (reflection in the equatorial plane)
    (ii)  beta = alpha*    (opposite azimuth at equal polar angle)
    (iii) beta = 1/alpha   (antipode)

    The fourth case listed alongside these is exposed only as the predicate
    is_special_case_iv because its printed condition appears corrupted.
    """
    alpha = complex(alpha)
    require_finite(alpha=alpha)
    if case_id == "ii":
        return alpha.conjugate()
    if case_id in ("i", "iii"):
        if alpha == 0:
            raise ValidationError(f"case {case_id} is undefined at alpha = 0")
        return 1.0 / alpha.conjugate() if case_id == "i" else 1.0 / alpha
    raise ValidationError(f"case_id must be one of 'i', 'ii', 'iii', got {case_id!r}")


def is_special_case_iv(alpha, beta, tol=1e-9):
    """Predicate for the fourth d_x = 0 case, recorded verbatim:
    cos(phi_alpha) = sin(theta_beta) and cos(phi_beta) = sin(phi_alpha).

    The mixed angle pairing looks typographical; the condition is exposed
    as printed rather than guessed at, and no constructor is provided.
    """
    alpha, beta = complex(alpha), complex(beta)
    require_finite(alpha=alpha, beta=beta)
    phi_a = cmath.phase(alpha) if alpha != 0 else 0.0
    phi_b = cmath.phase(beta) if beta != 0 else 0.0
    theta_b = 2.0 * math.atan(abs(beta))
    return (
        abs(math.cos(phi_a) - math.sin(theta_b)) <= tol
        and abs(math.cos(phi_b) - math.sin(phi_a)) <= tol
    )


@dataclass(frozen=True)
class SpinDecoherenceTimes:
    tau_x: float
    tau_y: float
    tau_z: float


def spin_decoherence_times(j, alpha, beta, omega, bath, hbar=1.0):
    """Decay times of the three spin decoherence channels.

    tau_x uses the reciprocal form hbar / (|d_x| sqrt(<B^2>)), which is the
    dimensionally consistent reading and reproduces the explicit
    angle-resolved expressions.  Channels whose separation (or, for y and
    z, the precession frequency) vanishes get math.inf.
    """
    require_finite(omega=omega, hbar=hbar)
    if not bath.var_B > 0:
        raise DegenerateBathError("spin decoherence times require var_B > 0")
    v = bath.var_B
    d = separations(j, alpha, beta, hbar)
    tau_x = hbar / (abs(d.d_x) * math.sqrt(v)) if d.d_x != 0 else math.inf
    rate_y4 = d.d_y ** 2 * omega ** 2 * v / (4.0 * hbar ** 2)
    tau_y = rate_y4 ** -0.25 if rate_y4 > 0 else math.inf
    rate_z6 = d.d_z ** 2 * omega ** 2 * v ** 2 / (36.0 * hbar ** 2)
    tau_z = rate_z6 ** (-1.0 / 6.0) if rate_z6 > 0 else math.inf
    return SpinDecoherenceTimes(tau_x, tau_y, tau_z)


class MonteCarloNorm(NamedTuple):
    """Monte-Carlo estimate of a coherence norm with its standard error."""

    value: float
    stderr: float


def _regime_norm(t, seps, times):
    scale = max(abs(seps.d_x), abs(seps.d_y), abs(seps.d_z), 1.0)
    tol = 1e-12 * scale
    if abs(seps.d_x) > tol:
        return np.exp(-((t / times.tau_x) ** 2))
    if abs(seps.d_y) > tol:
        return np.exp(-((t / times.tau_y) ** 4))
    if abs(seps.d_z) > tol:
        return (1.0 + (t / times.tau_z) ** 6) ** -0.5
    return np.ones_like(t)


def spin_coherence_norm(
    t, j, alpha, beta, omega, bath, hbar=1.0, mode="regime",
    samples=100_000, seed=0,
):
    """Coherence norm of a two-coherent-state superposition under Jx B coupling.

    mode="regime" dispatches on which separation survives and returns the
    matching closed form (broadcasting over t).  mode="montecarlo" samples
    the full leading-order-in-j exponent with B ~ N(0, var_B) and
    Bdot ~ N(0, var_Bdot) independent, the commutator replaced by
    i hbar kappa, and returns a MonteCarloNorm(value, stderr); the counter
    -based RNG makes results reproducible for a given seed.  samples (at
    least 10000) and seed (in [0, 2**128)) must be integers.
    """
    t_arr = np.asarray(t, dtype=float)
    require_finite(t=t_arr)
    if np.any(t_arr < 0):
        raise ValidationError("t must be >= 0")
    seps = separations(j, alpha, beta, hbar)
    if mode == "regime":
        times = spin_decoherence_times(j, alpha, beta, omega, bath, hbar)
        result = _regime_norm(t_arr, seps, times)
        return result if result.ndim else float(result)
    if mode != "montecarlo":
        raise ValidationError(f"mode must be 'regime' or 'montecarlo', got {mode!r}")

    if bath.var_Bdot is None:
        raise ValidationError("montecarlo mode requires bath.var_Bdot to be set")
    if not (is_int(samples) and samples >= 10_000):
        raise ValidationError(f"montecarlo mode requires integer samples >= 10000, "
                              f"got {samples!r}")
    if not (is_int(seed) and 0 <= seed < 1 << 128):
        raise ValidationError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    if not np.isscalar(t):
        raise ValidationError("montecarlo mode evaluates one time per call")

    rng = np.random.Generator(np.random.Philox(key=seed))
    b = rng.normal(0.0, math.sqrt(bath.var_B), size=samples)
    bdot = rng.normal(0.0, math.sqrt(bath.var_Bdot), size=samples)

    mxa = coherent_means(SpinCoherent(j, alpha, hbar))[0]
    mxb = coherent_means(SpinCoherent(j, beta, hbar))[0]
    # Leading-order-in-j exponent; the second bath derivative carries no
    # variance in BathMoments and is omitted from the t^3 coefficient.
    phi = (
        seps.d_x * (b * t + bdot * t ** 2 / 2.0 - omega ** 2 * b * t ** 3 / 6.0)
        - omega * seps.d_y * (b * t ** 2 / 2.0 + bdot * t ** 3 / 3.0)
        + omega * seps.d_z * b ** 2 * t ** 3 / 12.0
        - (mxa ** 2 - mxb ** 2) * bath.kappa * t ** 3 / 12.0
    ) / hbar
    z = np.exp(-1j * phi)
    zbar = z.mean()
    var_re = z.real.var(ddof=1) / samples
    var_im = z.imag.var(ddof=1) / samples
    cov = np.cov(z.real, z.imag, ddof=1)[0, 1] / samples
    value = abs(zbar) ** 2 - (var_re + var_im)  # bias-corrected |E z|^2
    grad = np.array([2.0 * zbar.real, 2.0 * zbar.imag])
    cov_mat = np.array([[var_re, cov], [cov, var_im]])
    stderr = float(np.sqrt(max(grad @ cov_mat @ grad, 0.0)))
    return MonteCarloNorm(float(value), stderr)


def verify_holomorphic_identities(j, alpha, step=1e-5):
    """Residual of the differential identities for Jx, Jy, Jz on ||alpha>.

    Builds J_i ||alpha> by matrix action and compares with the holomorphic
    forms

        Jx -> (hbar/2) (2 j alpha - (alpha^2 - 1) d/dalpha)
        Jy -> (hbar/2i)(2 j alpha - (alpha^2 + 1) d/dalpha)
        Jz -> hbar (j - alpha d/dalpha)

    with d/dalpha evaluated by central finite differences of size ``step``.
    Returns the largest vector-norm residual relative to ||alpha>'s norm;
    it shrinks as O(step^2).
    """
    if not (1e-7 <= step <= 1e-3):
        raise ValidationError("step must lie in [1e-7, 1e-3]")
    alpha = complex(alpha)
    hbar = 1.0
    jx, jy, jz = spin_matrices(j, hbar)
    ket = unnormalized_ket(j, alpha)
    d_ket = (unnormalized_ket(j, alpha + step) - unnormalized_ket(j, alpha - step)) / (
        2.0 * step
    )
    x_form = 0.5 * hbar * (2.0 * j * alpha * ket - (alpha ** 2 - 1.0) * d_ket)
    y_form = (0.5 * hbar / 1j) * (2.0 * j * alpha * ket - (alpha ** 2 + 1.0) * d_ket)
    z_form = hbar * (j * ket - alpha * d_ket)
    scale = np.linalg.norm(ket)
    residuals = [
        np.linalg.norm(jx @ ket - x_form),
        np.linalg.norm(jy @ ket - y_form),
        np.linalg.norm(jz @ ket - z_form),
    ]
    return float(max(residuals) / scale)
