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

Only the quadratures load scipy (scipy.integrate, on first call):
golden_rule_times, and memory_kernel_norm for a correlation given as a
callable alone.  A correlation that carries its spectral lines (as the
oracle's bath_statistics builds) has a closed-form memory kernel, and
everything else here needs numpy alone.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateBathError, IntegrationError, NumericalError, ResolutionError, ValidationError,
    _decay_time, _float_range_checked, require_instance, require_nonnegative, require_positive,
    require_real, require_real_array, require_times,
)
from .packets import BLOCK_CHUNK, DensityBlock, Superposition, _built_block, _nonzero_span


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
        require_nonnegative(var_B=self.var_B)
        require_real(kappa=self.kappa)
        if self.var_Bdot is not None:
            require_nonnegative(var_Bdot=self.var_Bdot)


def _zero(s):
    return 0.0


@dataclass(frozen=True)
class CorrelationFunction:
    """Time-domain bath correlations.

    sym(s) is the symmetric correlation <{B~(s), B~(0)}>, resp(s) the
    response <(i/hbar)[B~(s), B]>.  Both are treated as identically zero
    beyond tail_cutoff.  When ``moments`` is supplied, consistency
    sym(0) = 2 var_B is checked at construction.  ``lines``, when given,
    are the (weight a, frequency nu) pairs of a finite cosine sum
    sym(s) = sum 2 a cos(nu s), which sym must equal, with no tail_cutoff;
    memory_kernel_norm then integrates in closed form.
    """

    sym: Callable[[float], float]
    resp: Callable[[float], float] = _zero
    tail_cutoff: float = math.inf
    moments: Optional[BathMoments] = None
    lines: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.tail_cutoff != math.inf:
            require_positive(tail_cutoff=self.tail_cutoff)
        if self.lines is not None:
            require_real_array(lines=self.lines)
            if np.size(self.lines) and np.shape(self.lines)[1:] != (2,):
                raise ValidationError("lines must be (weight, frequency) pairs")
            if self.tail_cutoff != math.inf:  # a cosine sum has no tail to cut
                raise ValidationError("a correlation with lines takes no tail_cutoff")
        if self.moments is not None:
            expected = 2.0 * self.moments.var_B
            got = float(self.sym(0.0))
            if not math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9):
                raise ValidationError(
                    f"sym(0) = {got} inconsistent with 2 var_B = {expected}"
                )


def constant_correlation(var_b):
    """sym(s) = 2 var_b for all s (the zero-memory limit)."""
    return CorrelationFunction(sym=lambda s: 2.0 * var_b, moments=BathMoments(var_b))


def exponential_correlation(var_b, gamma):
    """sym(s) = 2 var_b exp(-gamma s), cut off at 46 / gamma (exp(-46) ~ 1e-20)."""
    require_positive(gamma=gamma)
    return CorrelationFunction(
        sym=lambda s: 2.0 * var_b * math.exp(-gamma * s),
        tail_cutoff=46.0 / gamma,
        moments=BathMoments(var_b),
    )


def gaussian_correlation(var_b, tau):
    """sym(s) = 2 var_b exp(-s^2 / 2 tau^2), cut off at 10 tau (exp(-50) ~ 2e-22)."""
    require_positive(tau=tau)
    return CorrelationFunction(
        sym=lambda s: 2.0 * var_b * math.exp(-0.5 * (s / tau) ** 2),
        tail_cutoff=10.0 * tau,
        moments=BathMoments(var_b),
    )


@dataclass(frozen=True)
class SystemParams:
    """Mass M, oscillator frequency Omega (golden-rule comparison only), hbar."""

    mass: float
    omega: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.mass != math.inf:
            require_positive(mass=self.mass)
        require_real(omega=self.omega)
        require_positive(hbar=self.hbar)


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

    A channel whose rate (the denominator) is zero, also by underflow of a
    nonzero separation, gets math.inf, as do tau_qp and tau_p for an
    infinite mass; a time outside the float64 range raises NumericalError.
    """
    require_real(dq=dq, dp=dp)
    if not bath.var_B > 0:
        raise DegenerateBathError("decoherence times require var_B > 0")
    dq, dp, v, hbar, mass = map(np.float64, (dq, dp, bath.var_B, sys.hbar, sys.mass))
    return DecoherenceTimes(
        _decay_time(lambda: abs(dq) * math.sqrt(v), lambda r: hbar / r),
        _decay_time(lambda: abs(dq * dp) * v, lambda r: (mass * hbar ** 2 / r) ** (1.0 / 3.0)),
        _decay_time(lambda: dp ** 2 * v, lambda r: (4.0 * mass ** 2 * hbar ** 2 / r) ** 0.25),
    )


@_float_range_checked
def coherence_norm_short_time(t, sup, sys, bath):
    """Short-time coherence norm N(t) the off-diagonal block of ``sup`` decays by.

    Broadcasts over an array of times t >= 0.  dq and dp are the signed
    separations q1 - q2 and p1 - p2 of the superposed packets.

    Valid for t much smaller than both the system and the reservoir time
    scales: each exponential carries uncomputed corrections one order
    higher in t, so the law holds for t << min(tau_sys, tau_res).  For the
    reservoir side at longer times use memory_kernel_norm.
    """
    require_instance(sup=(sup, Superposition), sys=(sys, SystemParams), bath=(bath, BathMoments))
    hbar = sup.packet1.hbar
    if sys.hbar != hbar:
        raise ValidationError("SystemParams.hbar differs from the packets' hbar")
    require_times(t=t)
    t = np.asarray(t, dtype=float)
    v = bath.var_B
    sigma = sup.packet1.sigma
    dq, dp = sup.dq, sup.dp
    prefactor = (1.0 + 4.0 * sigma * v * t ** 2 / hbar ** 2) ** -0.5
    exponent = -(v / hbar ** 2) * (
        dq ** 2 * t ** 2
        + dq * dp * t ** 3 / sys.mass
        + dp ** 2 * t ** 4 / (4.0 * sys.mass ** 2)
    )
    # The bracket is the perfect square (dq t + dp t^2 / 2M)^2, but rounding
    # in the cross term can leave the exponent a few ulps above 0.
    result = prefactor * np.exp(np.minimum(exponent, 0.0))
    return result if result.ndim else float(result)


@_float_range_checked
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
    cross-check each other.  A factor or a transform that leaves the
    float64 range raises NumericalError.

    Only the diagonals that cross the block's nonzero bounding box are
    transformed, each still by its full length-n circular FFT.  The input is
    read only inside that box (after one row scan of the block), the output
    is written only on those diagonals, and every chunk of diagonals reuses
    one set of preallocated buffers for its gather, FFT, filter and IFFT.
    The input block is finite, and every step that could leave the float64
    range raises, so the output is not rescanned.
    """
    require_instance(block=(block, DensityBlock), sys=(sys, SystemParams),
                     bath=(bath, BathMoments))
    require_nonnegative(t=t)
    grid = block.grid
    n = grid.n_points
    h = grid.spacing
    if t == 0:
        return _built_block(grid, block.values.copy())

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
    # row, indexed by i, FFT it along the center-of-mass direction,
    # multiply, transform back.  b^2 = 4ac makes the joint exponent the
    # perfect square -(sqrt(a) k + sqrt(c) K)^2, which never exceeds zero.
    #
    # Only the diagonals that cross the block's nonzero bounding box, rows
    # r0..r1 by columns c0..c1, are transformed: d runs over r0 - c1 ..
    # r1 - c0.  Every other diagonal holds exact zeros, which FFT, the real
    # filter and IFFT keep zero, so skipping them changes no output bit.  A
    # processed diagonal still takes its full length-n FFT, because the
    # circular transform defines the result and its tails outside the box.
    # Each diagonal's input is its segment inside the box, entries
    # i = max(r0, c0 + d) .. min(r1, c1 + d), copied into a zeroed row.
    #
    # The output is the middle n rows of a zero-padded (n + 2, n) buffer, in
    # which entry (i, i - d) lies i (n + 1) - d entries past out[0, 0]: a
    # chunk of diagonals d_hi, d_hi - 1, ... is a copy-free view with
    # strides (1, n + 1) entries, and the padding rows keep its addresses
    # inside the buffer.  Positions with i - d outside [0, n) alias other
    # entries, so the mask skips them on the write: each entry is written
    # once, by its own diagonal.  The mask of diagonal d is
    # inside[n - d : 2n - d], where inside is true on [n, 2n) of 3n entries,
    # so a chunk's mask is a copy-free view of it with strides (1, 1).  A
    # chunk holds BLOCK_CHUNK entries, and its buffers are allocated once, so
    # their pages are faulted in once per call and the temporaries stay a few
    # MiB at any n.
    padded = np.zeros((n + 2, n), dtype=complex)
    out = padded[1:-1]
    row_span = _nonzero_span(block.values.any(axis=1))
    if row_span.start == row_span.stop:
        return _built_block(grid, out)
    col_span = _nonzero_span(block.values[row_span].any(axis=0))
    box = block.values[row_span, col_span]
    r0, r1 = row_span.start, row_span.stop - 1
    c0, c1 = col_span.start, col_span.stop - 1
    d_lo = r0 - c1
    flat, step = padded.reshape(-1), padded.itemsize
    K = np.sqrt(c) * 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    inside = np.zeros(3 * n, dtype=bool)
    inside[n : 2 * n] = True
    rows = max(1, BLOCK_CHUNK // n)
    gathered = np.zeros((rows, n), dtype=complex)
    spec = np.empty_like(gathered)
    arg = np.empty((rows, n))
    try:
        with np.errstate(over="raise", invalid="raise"):  # entries near the float64 limit
            for d_hi in range(r1 - c0, d_lo - 1, -rows):
                d = np.arange(d_hi, max(d_hi - rows, d_lo - 1), -1)[:, None]
                g, f, x = gathered[: d.size], spec[: d.size], arg[: d.size]
                g[:, r0 : r1 + 1] = 0.0
                for row, dk in zip(g, d[:, 0]):
                    segment = box.diagonal(r0 - c0 - dk)
                    i0 = max(r0, c0 + dk)
                    row[i0 : i0 + segment.size] = segment
                np.fft.fft(g, axis=1, out=f)
                np.add(np.sqrt(a) * h * d, K, out=x)
                np.multiply(x, x, out=x)
                np.negative(x, out=x)
                np.exp(x, out=x)
                f *= x
                np.fft.ifft(f, axis=1, out=f)
                view = np.lib.stride_tricks.as_strided(
                    flat[n - d_hi :], (d.size, n), (step, (n + 1) * step))
                mask = np.lib.stride_tricks.as_strided(
                    inside[n - d_hi :], (d.size, n), (1, 1))
                np.copyto(view, f, where=mask)
    except FloatingPointError as exc:
        raise NumericalError(f"density-block transform leaves the float64 range ({exc})") from exc
    return _built_block(grid, out)


@_float_range_checked
def two_reservoir_norm(t, dq, dp, var_bq, var_bp, hbar):
    """Coherence norm for independent Q and P reservoirs.

    exp(-(t/tau_Q)^2) exp(-(t/tau_P)^2) with tau_Q = hbar/(|dq| sqrt(var_bq))
    and tau_P = hbar/(|dp| sqrt(var_bp)); symmetric under swapping the two
    (separation, variance) pairs.
    """
    require_times(t=t)
    require_real(dq=dq, dp=dp)
    require_nonnegative(var_bq=var_bq, var_bp=var_bp)
    require_positive(hbar=hbar)
    t = np.asarray(t, dtype=float)
    factor_q = np.exp(-(t * dq / hbar) ** 2 * var_bq)
    factor_p = np.exp(-(t * dp / hbar) ** 2 * var_bp)
    result = factor_q * factor_p
    return result if result.ndim else float(result)


@_float_range_checked
def memory_kernel_norm(t, dq, hbar, corr):
    """Finite-memory coherence norm for position-separated packets.

    exp(-(dq^2/hbar^2) * integral_0^t (t - s) sym(s) ds), valid whenever
    decoherence is fast on system time scales, with no assumption about the
    bath correlation time.  For a correlation with spectral lines the
    integral is taken line by line in closed form, integral_0^t (t - s)
    2 a cos(nu s) ds = a t^2 sinc^2(nu t / 2), which has no cancellation
    and gives a t^2 at nu = 0; otherwise it is evaluated by adaptive
    quadrature to absolute tolerance 1e-10.
    """
    require_nonnegative(t=t)
    require_real(dq=dq)
    require_positive(hbar=hbar)
    if t == 0:
        return 1.0
    if corr.lines is not None:
        a, nu = np.reshape(corr.lines, (-1, 2)).T
        # np.sinc(x) is sin(pi x) / (pi x), 1 at x = 0
        integral = np.sum(a * (t * np.sinc(nu * t / (2.0 * np.pi))) ** 2)
    else:
        integral = _quad("memory-kernel", lambda s: (t - s) * corr.sym(s),
                         min(t, corr.tail_cutoff), epsabs=1e-10, floor=1e-8)
    return float(np.exp(-(dq ** 2 / hbar ** 2) * integral))


def _quad(what, f, upper, epsabs, floor, **weight):
    """scipy quad of f over [0, upper]; IntegrationError unless it converged
    to a finite value within max(floor, 1e-6 |integral|)."""
    import scipy.integrate

    result = scipy.integrate.quad(
        f, 0.0, upper, epsabs=epsabs, epsrel=1e-10, limit=400, full_output=True, **weight
    )
    integral, abserr = result[0], result[1]
    if len(result) > 3 or not math.isfinite(integral) or abserr > max(floor, 1e-6 * abs(integral)):
        raise IntegrationError(f"{what} quadrature did not converge (abserr={abserr:.3g})")
    return integral


def _quad_weighted(f, upper, omega, kind):
    weight = {} if omega == 0.0 else {"weight": kind, "wvar": omega}
    return _quad("golden-rule", f, upper, epsabs=1e-12, floor=1e-9, **weight)


def golden_rule_times(corr, sys, dq):
    """Golden-rule decoherence and dissipation times for comparison.

    1/tau_dec  = (dq^2/hbar^2) integral_0^inf (sym(s)/2) cos(Omega s) ds
    1/tau_diss = (1/M Omega)   integral_0^inf resp(s) sin(Omega s) ds

    Integrals are truncated at corr.tail_cutoff (which must be finite),
    where the correlations are zero by contract.  A rate <= 0 gives an
    infinite time; a time outside the float64 range raises NumericalError.
    """
    require_real(dq=dq)
    upper = corr.tail_cutoff
    require_positive(tail_cutoff=upper)  # positive already; this rejects inf
    omega = sys.omega

    i_dec = _quad_weighted(lambda s: 0.5 * corr.sym(s), upper, omega, "cos")
    tau_dec = _decay_time(lambda: dq ** 2 / sys.hbar ** 2 * i_dec, lambda r: 1.0 / r)

    if omega == 0.0:
        probes = np.linspace(0.0, upper, 7)
        if any(abs(corr.resp(float(s))) > 0 for s in probes):
            raise ValidationError(
                "dissipation time undefined: Omega = 0 with nonzero response"
            )
        tau_diss = math.inf
    else:
        i_diss = _quad_weighted(corr.resp, upper, omega, "sin")
        tau_diss = _decay_time(lambda: i_diss / (np.float64(sys.mass) * omega), lambda r: 1.0 / r)

    return GoldenRuleTimes(tau_dec, tau_diss, abs(float(corr.sym(upper))))


def transition_separation(dp, hbar):
    """Position separation sqrt(hbar |dp|) below which E^Q dominance is lost."""
    require_real(dp=dp)
    require_positive(hbar=hbar)
    if dp == 0:
        raise ValidationError("transition_separation requires dp != 0")
    return math.sqrt(hbar * abs(dp))


def flo_time(sigma, d, v):
    """Thermal-ensemble time scale sigma / (d v), independent of hbar.

    sigma is the position variance (width squared); the literature writes
    this sigma^2 / (d v) with sigma denoting the width itself.
    """
    require_nonnegative(sigma=sigma)
    require_positive(d=d, v=v)
    return sigma / (d * v)
