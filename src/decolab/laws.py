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
golden-rule rate is provided for comparison with the weak-coupling
regime.  A correlation is held as its spectrum (spectral lines, as the
oracle's bath_statistics builds, or an exponential or Gaussian family), so
its memory kernel, and the golden-rule rate of a decaying family, are
taken in closed form, and everything here needs numpy alone.  Only the
functions taking packets or blocks import them, so the times load neither.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    NumericalError, ResolutionError, ValidationError, _decay_time, _float_range_checked,
    require_instance, require_nonnegative, require_positive, require_real, require_real_array,
    require_times,
)


@dataclass(frozen=True)
class BathMoments:
    """Initial-state moments of the bath coupling agent B.

    var_B is <B^2>; var_Bdot is <Bdot^2> (None when unknown).
    """

    var_B: float
    var_Bdot: Optional[float] = None

    def __post_init__(self):
        require_nonnegative(var_B=self.var_B)
        if self.var_Bdot is not None:
            require_nonnegative(var_Bdot=self.var_Bdot)


@dataclass(frozen=True)
class CorrelationFunction:
    """The symmetric bath correlation sym(s) = <{B~(s), B~(0)}>, held as its spectrum.

    ``kind`` names the family and ``params`` holds its parameters:

    * "lines": (weight a, frequency nu) pairs, sym(s) = sum 2 a cos(nu s);
    * "exponential": (v, gamma), sym(s) = 2 v exp(-gamma |s|), gamma > 0;
    * "gaussian": (v, tau), sym(s) = 2 v exp(-s^2 / 2 tau^2), tau > 0.

    v is <B^2> >= 0.  Every family has a closed-form memory kernel; the
    exponential and Gaussian ones also have a golden-rule rate.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind == "lines":
            require_real_array(lines=self.params)
            if np.size(self.params) and np.shape(self.params)[1:] != (2,):
                raise ValidationError("lines must be (weight, frequency) pairs")
            return
        scale = {"exponential": "gamma", "gaussian": "tau"}.get(self.kind)
        if scale is None:
            raise ValidationError(
                f"kind must be lines, exponential or gaussian, got {self.kind!r}")
        if np.shape(self.params) != (2,):
            raise ValidationError(f"an {self.kind} correlation takes (var_b, {scale})")
        require_nonnegative(var_b=self.params[0])
        require_positive(**{scale: self.params[1]})

    def sym(self, s):
        """sym(s) at the time lag s."""
        if self.kind == "lines":
            a, nu = np.reshape(self.params, (-1, 2)).T
            return float(2.0 * np.sum(a * np.cos(nu * s)))
        v, scale = self.params
        if self.kind == "exponential":
            return 2.0 * v * math.exp(-scale * abs(s))
        return 2.0 * v * math.exp(-0.5 * (s / scale) ** 2)


def constant_correlation(var_b):
    """sym(s) = 2 var_b for all s (the zero-memory limit): one line at nu = 0."""
    require_nonnegative(var_b=var_b)
    return CorrelationFunction("lines", ((var_b, 0.0),))


def exponential_correlation(var_b, gamma):
    """sym(s) = 2 var_b exp(-gamma |s|)."""
    return CorrelationFunction("exponential", (var_b, gamma))


def gaussian_correlation(var_b, tau):
    """sym(s) = 2 var_b exp(-s^2 / 2 tau^2)."""
    return CorrelationFunction("gaussian", (var_b, tau))


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
    """Golden-rule decoherence time, for comparison with the weak-coupling regime."""

    tau_dec: float


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
    require_instance(sys=(sys, SystemParams), bath=(bath, BathMoments))
    if not bath.var_B > 0:
        raise ValidationError("decoherence times require var_B > 0")
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
    from .packets import Superposition

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


def _diagonal_peaks(box):
    """max|box[i, j]| on each diagonal, in order of rising i - j.

    Row chunks of |box| are written into a zeroed buffer through a view
    sheared so that each of its columns holds one diagonal, and reduced
    down the columns; the last chunk is moved up to end at the last row,
    since rereading rows leaves a maximum unchanged.
    """
    from .packets import BLOCK_CHUNK

    n_rows, n_cols = box.shape
    m = min(n_rows, max(1, BLOCK_CHUNK // (n_rows + n_cols)))
    sheared = np.zeros((m, n_cols + m - 1))
    size = sheared.itemsize
    view = np.lib.stride_tricks.as_strided(
        sheared.reshape(-1)[m - 1 :], (m, n_cols), ((n_cols + m - 2) * size, size))
    peak = np.zeros(n_rows + n_cols - 1)  # index j - i + n_rows - 1
    for s in range(0, n_rows, m):
        s = min(s, n_rows - m)
        np.abs(box[s : s + m], out=view)
        part = peak[n_rows - m - s : n_rows - s + n_cols - 1]
        np.maximum(part, sheared.max(axis=0), out=part)
    return peak[::-1]


def evolve_density_short_time(block, t, sys, bath):
    """Apply the short-time decoherence factor D_Q(t) to a density block.

    Multiplies the block by exp(-k^2 <B^2> t^2 / 2 hbar^2) in the relative
    coordinate k = q - q', and by exp(-k K <B^2> t^3 / 2 M hbar)
    exp(-K^2 <B^2> t^4 / 8 M^2) in the mixed (k, K) representation, K being
    the Fourier conjugate of the center of mass qbar.  The norm of the
    result reproduces the closed-form coherence norm: the two code paths
    cross-check each other.  A factor or a transform that leaves the
    float64 range raises NumericalError.

    Only diagonals d = i - j that cross the block's nonzero bounding box
    are transformed, each still by its full length-n circular FFT, and of
    those only the run that can move the output: each diagonal left out
    could change no output entry by more than eps max|out|, eps being the
    float64 machine epsilon, and stays exactly zero.  The input is read
    only inside that box (after one row scan of the block), the output is
    written only on the transformed diagonals, and every chunk of diagonals
    reuses one set of preallocated buffers for its gather, FFT, filter and
    IFFT.  The input block is finite, and every step that could leave the
    float64 range raises, so the output is not rescanned.
    """
    from .packets import BLOCK_CHUNK, DensityBlock, _built_block, _nonzero_span

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
    # r0..r1 by columns c0..c1, can be nonzero: d runs over r0 - c1 ..
    # r1 - c0.  Every other diagonal holds exact zeros, which FFT, the real
    # filter and IFFT keep zero.  Diagonal d's input is its segment g_d
    # inside the box, entries i = max(r0, c0 + d) .. min(r1, c1 + d), copied
    # into a zeroed row; it still takes its full length-n FFT, because the
    # circular transform defines the result and its tails outside the box.
    # By Parseval no output entry of diagonal d exceeds
    #
    #     B_d = sqrt(len_d) max|g_d| max_K exp(-(sqrt(a) k + sqrt(c) K)^2),
    #
    # kept as its logarithm, so that neither an entry near the float64 limit
    # nor a filter below its range can lose it.  The diagonal with the
    # largest B_d is transformed first; the largest entry it writes, M0, is a
    # lower bound on max|out|.  Then only the run from the first to the last
    # diagonal with B_d > eps M0 is transformed, and every diagonal outside
    # it stays zero, off by at most eps max|out|.  The floor comes from the
    # output, not the input: a block whose large entries sit on a strongly
    # damped diagonal can peak, after the filter, on a small undamped one.
    # For a narrow packet's block the run leaves out most of the Gaussian
    # tails, whose rows of subnormal numbers are also the slowest to FFT.
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
    flat, step = padded.reshape(-1), padded.itemsize
    K = np.sqrt(c) * 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    inside = np.zeros(3 * n, dtype=bool)
    inside[n : 2 * n] = True
    rows = max(1, BLOCK_CHUNK // n)
    gathered = np.zeros((rows, n), dtype=complex)
    spec = np.empty_like(gathered)
    arg = np.empty((rows, n))

    def transform(d_hi, count):
        """Evolve diagonals d_hi, d_hi - 1, ..., d_hi - count + 1 into out."""
        d = np.arange(d_hi, d_hi - count, -1)[:, None]
        g, f, x = gathered[:count], spec[:count], arg[:count]
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
            flat[n - d_hi :], (count, n), (step, (n + 1) * step))
        mask = np.lib.stride_tricks.as_strided(
            inside[n - d_hi :], (count, n), (1, 1))
        np.copyto(view, f, where=mask)

    d = np.arange(r0 - c1, r1 - c0 + 1)
    length = np.minimum(r1, c1 + d) - np.maximum(r0, c0 + d) + 1
    # the smallest |sqrt(a) k + sqrt(c) K| over the K grid, from the K values
    # on either side of -sqrt(a) k
    shift = np.sqrt(a) * h * d
    k_sorted = np.sort(K)
    j = np.searchsorted(k_sorted, -shift).clip(1, n - 1)
    gap = np.minimum(np.abs(shift + k_sorted[j - 1]), np.abs(shift + k_sorted[j]))
    try:
        with np.errstate(over="raise", invalid="raise"):  # entries near the float64 limit
            with np.errstate(over="ignore", divide="ignore"):  # log 0 and log inf are kept
                peak = _diagonal_peaks(box)
                log_bound = 0.5 * np.log(length) + np.log(peak) - gap ** 2
            top = int(d[np.argmax(log_bound)])
            transform(top, 1)
            with np.errstate(divide="ignore"):  # M0 = 0 keeps every nonzero diagonal
                floor = np.log(np.finfo(float).eps * np.abs(out.diagonal(-top)).max())
            kept = d[log_bound > floor]
            first, last = (kept[0], kept[-1]) if kept.size else (top, top)
            for d_hi in range(last, first - 1, -rows):
                transform(d_hi, min(rows, d_hi - first + 1))
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
    bath correlation time.  The integral is taken in closed form:

    * lines: sum a t^2 sinc^2(nu t / 2), with no cancellation, a t^2 at nu = 0;
    * exponential: (2 v / gamma^2) (x + expm1(-x)) with x = gamma t, or, for
      x < 0.1, where that sum cancels, its series 2 v t^2 sum_{n=2..11}
      (-x)^(n-2) / n!, whose first omitted term is below 1e-18 relative;
    * gaussian: 2 v [t tau sqrt(pi/2) erf(t / sqrt(2) tau)
      + tau^2 expm1(-t^2 / 2 tau^2)].

    A step that leaves the float64 range raises NumericalError.
    """
    require_nonnegative(t=t)
    require_real(dq=dq)
    require_positive(hbar=hbar)
    require_instance(corr=(corr, CorrelationFunction))
    if t == 0:
        return 1.0
    t = np.float64(t)
    if corr.kind == "lines":
        a, nu = np.reshape(corr.params, (-1, 2)).T
        # np.sinc(x) is sin(pi x) / (pi x), 1 at x = 0
        integral = np.sum(a * (t * np.sinc(nu * t / (2.0 * np.pi))) ** 2)
    elif corr.kind == "exponential":
        v, gamma = corr.params
        x = gamma * t
        if x < 0.1:
            integral = 2.0 * v * t ** 2 * sum((-x) ** (n - 2) / math.factorial(n)
                                              for n in range(2, 12))
        else:
            integral = 2.0 * v / gamma ** 2 * (x + np.expm1(-x))
    else:
        v, tau = corr.params
        y = t / tau
        integral = 2.0 * v * tau ** 2 * (
            y * math.sqrt(0.5 * math.pi) * math.erf(y / math.sqrt(2.0)) + np.expm1(-0.5 * y * y))
    return float(np.exp(-(dq ** 2 / hbar ** 2) * integral))


def golden_rule_times(corr, sys, dq):
    """Golden-rule decoherence time for comparison.

    1/tau_dec = (dq^2/hbar^2) integral_0^inf (sym(s)/2) cos(Omega s) ds, in
    closed form: v gamma / (gamma^2 + Omega^2) for the exponential family and
    v tau sqrt(pi/2) exp(-Omega^2 tau^2 / 2) for the Gaussian one.  A lines
    correlation, whose integral does not converge, raises ValidationError.
    A rate <= 0 gives an infinite time; a time outside the float64 range
    raises NumericalError.
    """
    require_real(dq=dq)
    require_instance(corr=(corr, CorrelationFunction), sys=(sys, SystemParams))
    if corr.kind == "lines":
        raise ValidationError("golden_rule_times needs a decaying correlation, not lines")
    v, scale = map(np.float64, corr.params)
    omega = np.float64(sys.omega)

    def spectrum():
        if corr.kind == "exponential":
            return v * scale / (scale ** 2 + omega ** 2)
        return v * scale * math.sqrt(0.5 * math.pi) * np.exp(-0.5 * (omega * scale) ** 2)

    tau_dec = _decay_time(lambda: dq ** 2 / sys.hbar ** 2 * spectrum(), lambda r: 1.0 / r)
    return GoldenRuleTimes(tau_dec)

