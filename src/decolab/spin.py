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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ValidationError, _decay_time, _float_range_checked, is_int, require_complex,
    require_instance, require_positive, require_real, require_times,
)
from .laws import BathMoments


def _check_j(j):
    require_real(j=j)
    two_j = 2.0 * j
    if two_j < 1 or abs(two_j - round(two_j)) > 1e-12:
        raise ValidationError(f"j must be a half-integer >= 1/2, got {j}")
    return int(round(two_j))


def _ladder(j):
    """m = j, j-1, ..., -j and sqrt(j(j+1) - m(m+1)) for m = j-1, ..., -j: J+ / hbar
    between indices n + 1 and n of that basis, and twice Jx / hbar's off-diagonal."""
    m = j - np.arange(int(round(2.0 * j)) + 1)
    return m, np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))


def spin_matrices(j, hbar=1.0):
    """Standard (2j+1)-dimensional Jx, Jy, Jz in the descending Jz basis.

    Basis ordering is m = j, j-1, ..., -j, so index n corresponds to
    m = j - n.  Satisfies [Jx, Jy] = i hbar Jz to machine precision.
    """
    _check_j(j)
    require_positive(hbar=hbar)
    m, ladder = _ladder(j)
    dim = m.size
    jz = hbar * np.diag(m).astype(complex)
    raising = np.zeros((dim, dim), dtype=complex)
    raising[np.arange(dim - 1), np.arange(1, dim)] = hbar * ladder
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
        require_complex(alpha=self.alpha)
        require_positive(hbar=self.hbar)


def _log_binomials(two_j):
    n = np.arange(two_j + 1)
    return (
        math.lgamma(two_j + 1)
        - np.array([math.lgamma(k + 1) + math.lgamma(two_j - k + 1) for k in n])
    )


def _phase(z):
    """arg z; cmath.phase raises on a subnormal result (arg(2 + 5e-324j))."""
    return math.atan2(z.imag, z.real)


def _ket(two_j, alpha, log_norm):
    """sum_n sqrt(C(2j,n)) alpha^n |j, j-n> / e^log_norm, in the log domain."""
    if alpha == 0:
        ket = np.zeros(two_j + 1, dtype=complex)
        ket[0] = 1.0
        return ket
    n = np.arange(two_j + 1)
    log_mag = 0.5 * _log_binomials(two_j) + n * math.log(abs(alpha)) - log_norm
    return np.exp(log_mag) * np.exp(1j * n * _phase(alpha))


def unnormalized_ket(j, alpha):
    """Holomorphic ket ||alpha> = sum_n sqrt(C(2j,n)) alpha^n |j, j-n>."""
    require_complex(alpha=alpha)
    return _ket(_check_j(j), complex(alpha), 0.0)


def coherent_vector(state):
    """Normalized coherent state in the descending Jz eigenbasis.

    Components are evaluated in the log domain; j above 200 is rejected
    because the binomial range then exceeds what the normalized components
    can represent reliably.
    """
    require_instance(state=(state, SpinCoherent))
    if state.j > 200:
        raise ValidationError("coherent_vector supports j <= 200")
    alpha = complex(state.alpha)
    return _ket(_check_j(state.j), alpha, state.j * math.log1p(abs(alpha) ** 2))


def coherent_means(state):
    """Coherent-state means (<Jx>, <Jy>, <Jz>) from the rational forms in alpha."""
    require_instance(state=(state, SpinCoherent))
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

    The fourth case leaves up to four partners, and none where
    cos(phi_alpha) < 0, so it is exposed only as the predicate
    is_special_case_iv.
    """
    require_complex(alpha=alpha)
    alpha = complex(alpha)
    if case_id == "ii":
        return alpha.conjugate()
    if case_id in ("i", "iii"):
        if alpha == 0:
            raise ValidationError(f"case {case_id} is undefined at alpha = 0")
        return 1.0 / alpha.conjugate() if case_id == "i" else 1.0 / alpha
    raise ValidationError(f"case_id must be one of 'i', 'ii', 'iii', got {case_id!r}")


# Absolute tolerance of the two equalities in is_special_case_iv.
CASE_IV_TOL = 1e-9


def is_special_case_iv(alpha, beta):
    """Predicate for the fourth d_x = 0 case:
    cos(phi_alpha) = sin(theta_beta) and cos(phi_beta) = sin(theta_alpha),
    each to within CASE_IV_TOL, with theta = 2 atan|alpha|.

    Both terms of d_x / j = sin theta_a cos phi_a - sin theta_b cos phi_b then
    equal sin theta_a sin theta_b; the printed sin(phi_alpha) gives no d_x = 0.
    """
    require_complex(alpha=alpha, beta=beta)
    alpha, beta = complex(alpha), complex(beta)
    phi_a = _phase(alpha)
    phi_b = _phase(beta)
    theta_a = 2.0 * math.atan(abs(alpha))
    theta_b = 2.0 * math.atan(abs(beta))
    return (
        abs(math.cos(phi_a) - math.sin(theta_b)) <= CASE_IV_TOL
        and abs(math.cos(phi_b) - math.sin(theta_a)) <= CASE_IV_TOL
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
    z, the precession frequency) vanishes get math.inf; a time outside the
    float64 range raises NumericalError.
    """
    require_real(omega=omega)
    require_instance(bath=(bath, BathMoments))
    if not bath.var_B > 0:
        raise ValidationError("spin decoherence times require var_B > 0")
    v = bath.var_B
    d = separations(j, alpha, beta, hbar)
    return SpinDecoherenceTimes(
        _decay_time(lambda: abs(d.d_x) * math.sqrt(v), lambda r: hbar / r),
        _decay_time(lambda: d.d_y ** 2 * omega ** 2 * v / (4.0 * hbar ** 2),
                    lambda r: r ** -0.25),
        _decay_time(lambda: d.d_z ** 2 * omega ** 2 * v ** 2 / (36.0 * hbar ** 2),
                    lambda r: r ** (-1.0 / 6.0)),
    )


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


@functools.lru_cache(maxsize=1)
def _gaussian_draws(seed, samples, var_b, var_bdot):
    """Read-only B ~ N(0, var_b) and Bdot ~ N(0, var_bdot) samples for one key.

    Only the last key's draws are kept.  Keys that compare equal draw the
    same arrays: abs maps a variance of -0.0, equal to 0.0, onto it (numpy
    rejects a scale of -0.0).
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    b = rng.normal(0.0, math.sqrt(abs(var_b)), size=samples)
    bdot = rng.normal(0.0, math.sqrt(abs(var_bdot)), size=samples)
    b.flags.writeable = bdot.flags.writeable = False
    return b, bdot


@_float_range_checked
def spin_coherence_norm(
    t, j, alpha, beta, omega, bath, hbar=1.0, mode="regime",
    samples=100_000, seed=0,
):
    """Coherence norm of a two-coherent-state superposition under Jx B coupling.

    mode="regime" dispatches on which separation survives and returns the
    matching closed form (broadcasting over t).  mode="montecarlo" samples the
    leading-order-in-j phase phi = u B + v Bdot + w B^2 + c, with B ~ N(0, var_B)
    and Bdot ~ N(0, var_Bdot) independent, and returns MonteCarloNorm(value,
    stderr): the bias-corrected |mean exp(-i phi)|^2, which can fall a few
    stderr below 0 where the norm is near 0, and its delta-method standard
    error.  Each sample costs one transcendental: cos phi and sin phi both
    come from tan(phi / 2) by the half-angle identity, within a few 1e-16 of
    np.cos and np.sin at any float64 phi.  kappa (the commutator [B, Bdot]
    replaced by i hbar kappa) enters only the global phase c, so at this
    order it moves neither.  samples (at least 10000) and seed (in
    [0, 2**128)) must be integers.  The draws are a pure function of (seed,
    samples, var_B, var_Bdot) from a counter-based RNG; the last key's draws
    (16 x samples bytes) are kept, and the calls of one curve, one per time,
    draw once.
    """
    require_times(t=t)
    require_real(omega=omega)
    t_arr = np.asarray(t, dtype=float)
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

    b, bdot = _gaussian_draws(seed, samples, bath.var_B, bath.var_Bdot)
    mxa, mxb = (coherent_means(SpinCoherent(j, s, hbar))[0] for s in (alpha, beta))
    # The second bath derivative has no variance in BathMoments and is left out
    # of the t^3 terms; float64 coefficients overflow under the errstate.
    t = np.float64(t)
    u = (seps.d_x * (t - omega ** 2 * t ** 3 / 6.0) - omega * seps.d_y * t ** 2 / 2.0) / hbar
    v = (seps.d_x * t ** 2 / 2.0 - omega * seps.d_y * t ** 3 / 3.0) / hbar
    w = omega * seps.d_z * t ** 3 / 12.0 / hbar
    c = -(mxa ** 2 - mxb ** 2) * bath.kappa * t ** 3 / 12.0 / hbar
    phi = (w * b + u) * b + v * bdot + c
    # Re z = cos phi and Im z = -sin phi; that sign drops out of every moment.
    # Both come from one (SIMD) tangent h = tan(phi / 2): sin phi = 2h / (1 + h^2)
    # and cos phi = (1 - h^2) / (1 + h^2) = 2 / (1 + h^2) - 1.  |h| < 1e19 for
    # any float64, so h^2 cannot overflow.
    h = np.tan(np.multiply(phi, 0.5, out=phi), out=phi)
    d = np.multiply(h, h)
    d += 1.0
    sin = np.divide(h, d, out=h)
    sin *= 2.0
    cos = np.divide(2.0, d, out=d)
    cos -= 1.0
    mean_c, mean_s = cos.mean(), sin.mean()
    cos -= mean_c
    sin -= mean_s
    scale = 1.0 / ((samples - 1) * samples)
    var_c, var_s, cov = cos @ cos * scale, sin @ sin * scale, cos @ sin * scale
    value = mean_c ** 2 + mean_s ** 2 - (var_c + var_s)  # bias-corrected |E z|^2
    delta_var = 4.0 * (mean_c ** 2 * var_c + 2.0 * mean_c * mean_s * cov + mean_s ** 2 * var_s)
    return MonteCarloNorm(float(value), float(np.sqrt(max(delta_var, 0.0))))


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
    require_real(step=step)
    if not (1e-7 <= step <= 1e-3):
        raise ValidationError("step must lie in [1e-7, 1e-3]")
    hbar = 1.0
    jx, jy, jz = spin_matrices(j, hbar)
    ket = unnormalized_ket(j, alpha)
    alpha = complex(alpha)
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
