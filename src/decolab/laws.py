"""Closed-form decoherence laws for a coupling agent Q with bath agent B.

Everything here lives in the interaction-dominated regime where decoherence
outruns the free motion.  The central object is the short-time coherence
norm

    N(t) = P(t) * exp(-dq^2 <B^2> t^2 / hbar^2)
                * exp(-dq dp <B^2> t^3 / (M hbar^2))
                * exp(-dp^2 <B^2> t^4 / (4 M^2 hbar^2)),

    P(t) = (1 + 4 sigma <B^2> t^2 / hbar^2)^(-1/2),

whose three exponentials define the decay times tau_q, tau_qp, tau_p.  The
separations dq, dp are signed; the product of the three exponentials is a
perfect square -<B^2> (dq t + dp t^2 / 2M)^2 / hbar^2 and therefore never
exceeds one even when the cross term transiently does.

The finite-memory generalization replaces the first exponential by a double
time integral over the symmetric bath correlation function, and the
golden-rule rates are provided for comparison with the weak-coupling
regime.

Only the two quadrature-based functions, memory_kernel_norm and
golden_rule_times, load scipy (scipy.integrate, on first call); everything
else here needs numpy alone.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateBathError,
    IntegrationError,
    ResolutionError,
    ValidationError,
    require_finite,
    require_real,
)
from .packets import BLOCK_CHUNK, DensityBlock


@dataclass(frozen=True)
class BathMoments:
    """Initial-state moments of the bath coupling agent B.

    var_B is <B^2>; var_Bdot is <Bdot^2> (None when unknown); kappa models
    the commutator as [B, Bdot] = i hbar kappa * identity.
    """

    var_B: float
    var_Bdot: Optional[float] = None
    kappa: float = 0.0

    def __post_init__(self):
        require_finite(var_B=self.var_B, var_Bdot=self.var_Bdot, kappa=self.kappa)
        if self.var_B < 0:
            raise ValidationError(f"var_B must be >= 0, got {self.var_B}")
        if self.var_Bdot is not None and self.var_Bdot < 0:
            raise ValidationError(f"var_Bdot must be >= 0, got {self.var_Bdot}")


def _zero(s):
    return 0.0


@dataclass(frozen=True)
class CorrelationFunction:
    """Time-domain bath correlations.

    sym(s) is the symmetric correlation <{B~(s), B~(0)}>, resp(s) the
    response <(i/hbar)[B~(s), B]>.  Both are treated as identically zero
    beyond tail_cutoff.  When ``moments`` is supplied, consistency
    sym(0) = 2 var_B is checked at construction.
    """

    sym: Callable[[float], float]
    resp: Callable[[float], float] = _zero
    tail_cutoff: float = math.inf
    moments: Optional[BathMoments] = None

    def __post_init__(self):
        if self.tail_cutoff != math.inf:
            require_real(tail_cutoff=self.tail_cutoff)
        if not self.tail_cutoff > 0:
            raise ValidationError("tail_cutoff must be positive")
        if self.moments is not None:
            expected = 2.0 * self.moments.var_B
            got = float(self.sym(0.0))
            if not math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9):
                raise ValidationError(
                    f"sym(0) = {got} inconsistent with 2 var_B = {expected}"
                )


def constant_correlation(var_b, tail_cutoff=math.inf):
    """sym(s) = 2 var_b for all s (the zero-memory limit)."""
    moments = BathMoments(var_b)
    return CorrelationFunction(
        sym=lambda s: 2.0 * var_b, tail_cutoff=tail_cutoff, moments=moments
    )


def exponential_correlation(var_b, gamma, tail_cutoff=None):
    """sym(s) = 2 var_b exp(-gamma s)."""
    require_real(gamma=gamma)
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    if tail_cutoff is None:
        tail_cutoff = 46.0 / gamma  # exp(-46) ~ 1e-20
    moments = BathMoments(var_b)
    return CorrelationFunction(
        sym=lambda s: 2.0 * var_b * math.exp(-gamma * s),
        tail_cutoff=tail_cutoff,
        moments=moments,
    )


def gaussian_correlation(var_b, tau, tail_cutoff=None):
    """sym(s) = 2 var_b exp(-s^2 / 2 tau^2)."""
    require_real(tau=tau)
    if tau <= 0:
        raise ValidationError("tau must be positive")
    if tail_cutoff is None:
        tail_cutoff = 10.0 * tau
    moments = BathMoments(var_b)
    return CorrelationFunction(
        sym=lambda s: 2.0 * var_b * math.exp(-0.5 * (s / tau) ** 2),
        tail_cutoff=tail_cutoff,
        moments=moments,
    )


@dataclass(frozen=True)
class SystemParams:
    """Mass M, oscillator frequency Omega (golden-rule comparison only), hbar."""

    mass: float
    omega: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.mass != math.inf:
            require_real(mass=self.mass)
        require_real(omega=self.omega, hbar=self.hbar)
        if not self.mass > 0:
            raise ValidationError(f"mass must be positive, got {self.mass}")
        if not self.hbar > 0:
            raise ValidationError(f"hbar must be positive, got {self.hbar}")


@dataclass(frozen=True)
class DecoherenceTimes:
    """Decay times of the three exponentials in the short-time norm.

    math.inf marks a channel whose separation factor vanishes.
    """

    tau_q: float
    tau_qp: float
    tau_p: float

    def __post_init__(self):
        for name in ("tau_q", "tau_qp", "tau_p"):
            value = getattr(self, name)
            if not value > 0:
                raise ValidationError(f"{name} must be positive or inf, got {value}")


@dataclass(frozen=True)
class GoldenRuleTimes:
    """Golden-rule decoherence/dissipation times plus a truncation diagnostic.

    tail_residual is |sym(tail_cutoff)|; the correlation function is treated
    as exactly zero beyond the cutoff, so this measures how sharply it was
    cut rather than an integration error.
    """

    tau_dec: float
    tau_diss: float
    tail_residual: float = 0.0


def decoherence_times(dq, dp, sys, bath):
    """Decay times tau_q, tau_qp, tau_p for signed separations dq, dp.

    tau_q  = hbar / (|dq| sqrt(<B^2>))
    tau_qp = (M hbar^2 / (|dq dp| <B^2>))^(1/3)
    tau_p  = (4 M^2 hbar^2 / (dp^2 <B^2>))^(1/4)
    """
    require_real(dq=dq, dp=dp)
    if not bath.var_B > 0:
        raise DegenerateBathError("decoherence times require var_B > 0")
    v = bath.var_B
    hbar, mass = sys.hbar, sys.mass
    tau_q = hbar / (abs(dq) * math.sqrt(v)) if dq != 0 else math.inf
    tau_qp = (
        (mass * hbar ** 2 / (abs(dq * dp) * v)) ** (1.0 / 3.0)
        if dq * dp != 0
        else math.inf
    )
    tau_p = (
        (4.0 * mass ** 2 * hbar ** 2 / (dp ** 2 * v)) ** 0.25 if dp != 0 else math.inf
    )
    return DecoherenceTimes(tau_q, tau_qp, tau_p)


def coherence_norm_short_time(t, sup, sys, bath):
    """Short-time coherence norm N(t) the off-diagonal block of ``sup`` decays by.

    Broadcasts over an array of times t >= 0.  dq and dp are the signed
    separations q1 - q2 and p1 - p2 of the superposed packets.

    Valid for t much smaller than both the system and the reservoir time
    scales: each exponential carries uncomputed corrections one order
    higher in t, so the law holds for t << min(tau_sys, tau_res).  For the
    reservoir side at longer times use memory_kernel_norm.
    """
    hbar = sup.packet1.hbar
    if sys.hbar != hbar:
        raise ValidationError("SystemParams.hbar differs from the packets' hbar")
    t = np.asarray(t, dtype=float)
    require_finite(t=t)
    if np.any(t < 0):
        raise ValidationError("t must be >= 0")
    v = bath.var_B
    sigma = sup.packet1.sigma
    dq, dp = sup.dq, sup.dp
    prefactor = (1.0 + 4.0 * sigma * v * t ** 2 / hbar ** 2) ** -0.5
    exponent = -(v / hbar ** 2) * (
        dq ** 2 * t ** 2
        + dq * dp * t ** 3 / sys.mass
        + dp ** 2 * t ** 4 / (4.0 * sys.mass ** 2)
    )
    result = prefactor * np.exp(exponent)
    return result if result.ndim else float(result)


def _short_time_factors(t, mass, hbar, var_b):
    """Gaussian suppression scales of the single-block decoherence factor.

    In variables k = q - q' and K (Fourier conjugate of qbar) the factor is
    exp(-a k^2) exp(-b k K) exp(-c K^2) with b = sqrt(4 a c) =
    <B^2> t^3 / (2 M hbar); a and c are returned here.
    """
    a = var_b * t ** 2 / (2.0 * hbar ** 2)
    c = var_b * t ** 4 / (8.0 * mass ** 2)
    return a, c


def evolve_density_short_time(block, t, sys, bath):
    """Apply the short-time decoherence factor D_Q(t) to a density block.

    Multiplies the block by exp(-k^2 <B^2> t^2 / 2 hbar^2) in the relative
    coordinate k = q - q', and by exp(-k K <B^2> t^3 / 2 M hbar)
    exp(-K^2 <B^2> t^4 / 8 M^2) in the mixed (k, K) representation, K being
    the Fourier conjugate of the center of mass qbar.  The norm of the
    result reproduces the closed-form coherence norm: the two code paths
    cross-check each other.
    """
    require_finite(t=t)
    if t < 0:
        raise ValidationError("t must be >= 0")
    grid = block.grid
    n = grid.n_points
    h = grid.spacing
    if t == 0:
        return DensityBlock(grid, block.values.copy())

    a, c = _short_time_factors(t, sys.mass, sys.hbar, bath.var_B)
    if a > 0 and a ** -0.5 < 2.0 * h:
        raise ResolutionError(
            "relative-coordinate Gaussian narrower than two grid cells; "
            "refine the grid or reduce t"
        )
    dK = 2.0 * np.pi / (n * h)
    if c > 0 and c ** -0.5 < 2.0 * dK:
        raise ResolutionError(
            "momentum-diffusion Gaussian narrower than two K cells; "
            "enlarge the box or reduce t"
        )

    # Shear each diagonal d = i - j (k = d h, exact and unwrapped) into one
    # row, FFT it along the center-of-mass direction, multiply, transform
    # back.  The block is the middle n rows of a zero-padded (n + 2, n)
    # buffer, in which entry (i, i - d) lies i (n + 1) - d entries past
    # out[0, 0]: a chunk of diagonals d_hi, d_hi - 1, ... is a copy-free view
    # with strides (1, n + 1) entries, and the padding rows keep its
    # addresses inside the buffer.  Positions with i - d outside [0, n) alias
    # other entries, so the mask zero-fills them on the read and skips them
    # on the write: each entry is read and written once, by its own
    # diagonal.  A chunk holds BLOCK_CHUNK entries, so temporaries stay a few
    # MiB at any n.  b^2 = 4ac makes the joint exponent the perfect square
    # -(sqrt(a) k + sqrt(c) K)^2, which never exceeds zero.
    padded = np.zeros((n + 2, n), dtype=complex)
    out = padded[1:-1]
    out[...] = block.values
    flat, step = padded.reshape(-1), padded.itemsize
    K = np.sqrt(c) * 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    cols = np.arange(n)
    rows = max(1, BLOCK_CHUNK // n)
    for d_hi in range(n - 1, -n, -rows):
        d = np.arange(d_hi, max(d_hi - rows, -n), -1)[:, None]
        view = np.lib.stride_tricks.as_strided(flat[n - d_hi :], (d.size, n), (step, (n + 1) * step))
        valid = (cols >= d) & (cols < n + d)
        spec = np.fft.fft(np.where(valid, view, 0.0), axis=1)
        arg = np.sqrt(a) * h * d + K
        spec *= np.exp(-arg * arg)
        np.copyto(view, np.fft.ifft(spec, axis=1), where=valid)
    return DensityBlock(grid, out)


def two_reservoir_norm(t, dq, dp, var_bq, var_bp, hbar):
    """Coherence norm for independent Q and P reservoirs.

    exp(-(t/tau_Q)^2) exp(-(t/tau_P)^2) with tau_Q = hbar/(|dq| sqrt(var_bq))
    and tau_P = hbar/(|dp| sqrt(var_bp)); symmetric under swapping the two
    (separation, variance) pairs.
    """
    t = np.asarray(t, dtype=float)
    require_finite(t=t, dq=dq, dp=dp, var_bq=var_bq, var_bp=var_bp, hbar=hbar)
    if np.any(t < 0):
        raise ValidationError("t must be >= 0")
    factor_q = np.exp(-(t * dq / hbar) ** 2 * var_bq)
    factor_p = np.exp(-(t * dp / hbar) ** 2 * var_bp)
    result = factor_q * factor_p
    return result if result.ndim else float(result)


def memory_kernel_norm(t, dq, hbar, corr):
    """Finite-memory coherence norm for position-separated packets.

    exp(-(dq^2/hbar^2) * integral_0^t (t - s) sym(s) ds), valid whenever
    decoherence is fast on system time scales, with no assumption about the
    bath correlation time.  The integral is evaluated by adaptive
    quadrature to absolute tolerance 1e-10.
    """
    import scipy.integrate

    require_real(t=t, dq=dq, hbar=hbar)
    if t < 0:
        raise ValidationError("t must be >= 0")
    if t == 0:
        return 1.0
    upper = min(t, corr.tail_cutoff)
    result = scipy.integrate.quad(
        lambda s: (t - s) * corr.sym(s), 0.0, upper,
        epsabs=1e-10, epsrel=1e-10, limit=400, full_output=True,
    )
    integral, abserr = result[0], result[1]
    if len(result) > 3 or abserr > max(1e-8, 1e-6 * abs(integral)):
        raise IntegrationError(
            f"memory-kernel quadrature did not converge (abserr={abserr:.3g})"
        )
    return float(np.exp(-(dq ** 2 / hbar ** 2) * integral))


def _quad_weighted(f, upper, omega, kind):
    import scipy.integrate

    if omega == 0.0:
        result = scipy.integrate.quad(
            f, 0.0, upper, epsabs=1e-12, epsrel=1e-10, limit=400, full_output=True
        )
    else:
        result = scipy.integrate.quad(
            f, 0.0, upper, weight=kind, wvar=omega,
            epsabs=1e-12, epsrel=1e-10, limit=400, full_output=True,
        )
    integral, abserr = result[0], result[1]
    if len(result) > 3 or abserr > max(1e-9, 1e-6 * abs(integral)):
        raise IntegrationError(
            f"golden-rule quadrature did not converge (abserr={abserr:.3g})"
        )
    return integral


def golden_rule_times(corr, sys, dq):
    """Golden-rule decoherence and dissipation times for comparison.

    1/tau_dec  = (dq^2/hbar^2) integral_0^inf (sym(s)/2) cos(Omega s) ds
    1/tau_diss = (1/M Omega)   integral_0^inf resp(s) sin(Omega s) ds

    Integrals are truncated at corr.tail_cutoff (which must be finite),
    where the correlations are zero by contract.
    """
    require_finite(dq=dq)
    upper = corr.tail_cutoff
    if not math.isfinite(upper):
        raise ValidationError("golden_rule_times requires a finite tail_cutoff")
    omega = sys.omega

    i_dec = _quad_weighted(lambda s: 0.5 * corr.sym(s), upper, omega, "cos")
    rate_dec = dq ** 2 / sys.hbar ** 2 * i_dec
    tau_dec = 1.0 / rate_dec if rate_dec > 0 else math.inf

    if omega == 0.0:
        probes = np.linspace(0.0, upper, 7)
        if any(abs(corr.resp(float(s))) > 0 for s in probes):
            raise ValidationError(
                "dissipation time undefined: Omega = 0 with nonzero response"
            )
        tau_diss = math.inf
    else:
        i_diss = _quad_weighted(corr.resp, upper, omega, "sin")
        rate_diss = i_diss / (sys.mass * omega)
        tau_diss = 1.0 / rate_diss if rate_diss > 0 else math.inf

    return GoldenRuleTimes(tau_dec, tau_diss, abs(float(corr.sym(upper))))


def transition_separation(dp, hbar):
    """Position separation sqrt(hbar |dp|) below which E^Q dominance is lost."""
    require_finite(dp=dp, hbar=hbar)
    if dp == 0:
        raise ValidationError("transition_separation requires dp != 0")
    return math.sqrt(hbar * abs(dp))


def flo_time(sigma, d, v):
    """Thermal-ensemble time scale sigma / (d v), independent of hbar.

    sigma is the position variance (width squared); the literature writes
    this sigma^2 / (d v) with sigma denoting the width itself.
    """
    require_real(sigma=sigma, d=d, v=v)
    if not d > 0:
        raise ValidationError("d must be positive")
    if not v > 0:
        raise ValidationError("v must be positive")
    return sigma / (d * v)
