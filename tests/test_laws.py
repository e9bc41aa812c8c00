import math
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import decolab as dl
from decolab.errors import DegenerateBathError, ResolutionError, ValidationError
from helpers import SUPPORT_SHAPES, peak_memory_mib, support_box, support_values

SYS = dl.SystemParams(mass=1.0)
BATH = dl.BathMoments(1.0)


class TestDecoherenceTimes:
    def test_position_only(self):
        taus = dl.decoherence_times(2.0, 0.0, SYS, BATH)
        assert taus.tau_q == 0.5
        assert math.isinf(taus.tau_qp) and math.isinf(taus.tau_p)

    def test_mixed_case(self):
        taus = dl.decoherence_times(1.0, 1.0, SYS, BATH)
        assert taus.tau_q == pytest.approx(1.0, rel=1e-14)
        assert taus.tau_qp == pytest.approx(1.0, rel=1e-14)
        assert taus.tau_p == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_hbar_scaling_exponents(self):
        base = dl.decoherence_times(1.0, 1.0, SYS, BATH)
        doubled = dl.decoherence_times(
            1.0, 1.0, dl.SystemParams(mass=1.0, hbar=2.0), BATH
        )
        assert doubled.tau_q / base.tau_q == pytest.approx(2.0, rel=1e-12)
        assert doubled.tau_qp / base.tau_qp == pytest.approx(2.0 ** (2 / 3), rel=1e-12)
        assert doubled.tau_p / base.tau_p == pytest.approx(2.0 ** 0.5, rel=1e-12)

    def test_classical_limit_ordering(self):
        # tau_q / tau_qp and tau_q / tau_p vanish as hbar -> 0
        ratios_qp, ratios_p = [], []
        for hbar in (1.0, 0.1, 0.01, 0.001):
            taus = dl.decoherence_times(1.0, 1.0, dl.SystemParams(1.0, hbar=hbar), BATH)
            ratios_qp.append(taus.tau_q / taus.tau_qp)
            ratios_p.append(taus.tau_q / taus.tau_p)
        assert all(np.diff(ratios_qp) < 0) and all(np.diff(ratios_p) < 0)
        # tau_q/tau_qp ~ hbar^(1/3), tau_q/tau_p ~ hbar^(1/2)
        assert ratios_qp[-1] == pytest.approx(0.001 ** (1 / 3), rel=1e-6)
        assert ratios_p[-1] == pytest.approx(0.001 ** 0.5 / 2 ** 0.5, rel=1e-6)

    def test_degenerate_bath(self):
        with pytest.raises(DegenerateBathError):
            dl.decoherence_times(1.0, 0.0, SYS, dl.BathMoments(0.0))

    def test_non_numeric_separation_rejected(self):
        with pytest.raises(ValidationError):
            dl.decoherence_times("a", 0.0, SYS, BATH)


def _sup(q1, p1, q2, p2, sigma, hbar=1.0):
    return dl.Superposition(
        dl.GaussianPacket(q1, p1, sigma, hbar), dl.GaussianPacket(q2, p2, sigma, hbar)
    )


class TestSystemParams:
    def test_non_finite_omega_rejected(self):
        with pytest.raises(ValidationError):
            dl.SystemParams(1.0, omega=math.nan)

    @pytest.mark.parametrize("mass", ["a", None], ids=["text", "none"])
    def test_malformed_mass_rejected(self, mass):
        with pytest.raises(ValidationError):
            dl.SystemParams(mass=mass)


class TestBathMoments:
    def test_non_finite_moments_rejected(self):
        for kwargs in (
            {"var_B": math.nan},
            {"var_B": 1.0, "var_Bdot": math.nan},
            {"var_B": 1.0, "kappa": math.inf},
        ):
            with pytest.raises(ValidationError):
                dl.BathMoments(**kwargs)


class TestShortTimeNorm:
    def test_t_zero(self):
        assert dl.coherence_norm_short_time(0.0, _sup(1, 0, -1, 0, 0.1), SYS, BATH) == 1.0

    def test_non_finite_t_rejected(self):
        sup = _sup(1, 0, -1, 0, 0.1)
        for t in (math.nan, [0.1, math.inf]):
            with pytest.raises(ValidationError):
                dl.coherence_norm_short_time(t, sup, SYS, BATH)

    def test_position_exponential(self):
        # dq=2, dp=0, sigma -> 0: N(0.5) = exp(-1)
        sup = _sup(1.0, 0.0, -1.0, 0.0, 1e-12)
        val = dl.coherence_norm_short_time(0.5, sup, SYS, BATH)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_signed_cross_term_vanishes_at_cancellation_time(self):
        # dq=1, dp=-2M: exponent -(dq t + dp t^2/2M)^2 vanishes at t*=1
        sup = _sup(0.5, -1.0, -0.5, 1.0, 1e-14)
        val = dl.coherence_norm_short_time(1.0, sup, SYS, BATH)
        prefactor = (1.0 + 4.0 * 1e-14 * 1.0) ** -0.5
        assert val == pytest.approx(prefactor, rel=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(
        dq=st.floats(-5, 5),
        dp=st.floats(-5, 5),
        t=st.floats(0, 2),
        v=st.floats(0.1, 4),
        mass=st.floats(0.5, 8),
        hbar=st.floats(0.5, 4),
    )
    def test_perfect_square_identity(self, dq, dp, t, v, mass, hbar):
        sup = _sup(dq / 2, dp / 2, -dq / 2, -dp / 2, 1e-15, hbar)
        sysp = dl.SystemParams(mass=mass, hbar=hbar)
        val = dl.coherence_norm_short_time(t, sup, sysp, dl.BathMoments(v))
        prefactor = (1.0 + 4.0 * 1e-15 * v * t ** 2 / hbar ** 2) ** -0.5
        square = -v * (dq * t + dp * t ** 2 / (2 * mass)) ** 2 / hbar ** 2
        assert val / prefactor == pytest.approx(math.exp(square), rel=1e-12, abs=1e-300)
        assert val <= 1.0 + 1e-12

    def test_hbar_consistency_enforced(self):
        sup = _sup(1, 0, -1, 0, 0.1, hbar=2.0)
        with pytest.raises(ValidationError):
            dl.coherence_norm_short_time(0.1, sup, SYS, BATH)


def per_diagonal_reference(values, h, a, b, c):
    """The decoherence factor applied one diagonal d = i - j at a time."""
    n = values.shape[0]
    K = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    out = values.copy()
    for d in range(-(n - 1), n):
        k = d * h
        spec = np.fft.fft(np.diagonal(values, -d), n)  # zero-padded to n
        spec *= np.exp(np.minimum(-a * k ** 2 - b * k * K - c * K ** 2, 0.0))
        rows = np.arange(n - abs(d)) + max(d, 0)
        out[rows, rows - d] = np.fft.ifft(spec)[: rows.size]
    return out


# n = 2048 as in the kernels benchmark: one complex block is 64 MiB
DENSITY_MEMORY_PROBE = textwrap.dedent("""
    import math
    import decolab as dl

    sigma = 5e-3
    half = 20.5 / 2 + 8 * math.sqrt(sigma) + 0.05
    grid = dl.PositionGrid(-half, half, 2048)
    block = dl.density_block(dl.GaussianPacket(10.0, 0.0, sigma),
                             dl.GaussianPacket(-10.0, 0.0, sigma), grid)
    out = dl.evolve_density_short_time(block, 0.05, dl.SystemParams(mass=8.0),
                                       dl.BathMoments(1.0))
    dl.coherence_norm(out, out)
""")


@pytest.fixture(scope="module")
def density_pipeline_peak_mib():
    if sys.platform != "linux":
        pytest.skip("reads /proc/self/status")
    return peak_memory_mib(DENSITY_MEMORY_PROBE)


class TestEvolveDensity:
    def make_block(self, sigma=1.0, q=3.0, n=256):
        p1 = dl.GaussianPacket(q, 0.0, sigma)
        p2 = dl.GaussianPacket(-q, 0.0, sigma)
        grid = dl.PositionGrid(-q - 10, q + 10, n)
        return dl.density_block(p1, p2, grid), grid

    def test_identity_at_t_zero(self):
        block, _ = self.make_block()
        out = dl.evolve_density_short_time(block, 0.0, SYS, BATH)
        np.testing.assert_array_equal(out.values, block.values)

    def test_non_finite_t_rejected(self):
        block, _ = self.make_block()
        with pytest.raises(ValidationError):
            dl.evolve_density_short_time(block, math.nan, SYS, BATH)

    def test_trace_preserved_on_diagonal_block(self):
        pk = dl.GaussianPacket(0.0, 0.5, 1.0)
        grid = dl.PositionGrid(-10, 10, 256)
        block = dl.density_block(pk, pk, grid)
        out = dl.evolve_density_short_time(block, 0.4, SYS, BATH)
        tr0 = np.sum(np.diagonal(block.values) * grid.weights)
        tr1 = np.sum(np.diagonal(out.values) * grid.weights)
        assert abs(tr1 - tr0) < 1e-8

    def test_against_real_space_convolution(self):
        # independent implementation of the same operator: exact Gaussian
        # kernel applied as a dense convolution along each diagonal
        n = 128
        grid = dl.PositionGrid(-8, 8, n)
        pa = dl.GaussianPacket(1.5, 0.7, 0.25)
        pb = dl.GaussianPacket(-1.5, -0.3, 0.25)
        block = dl.density_block(pa, pb, grid)
        t, mass, v = 1.0, 1.0, 1.3
        a = v * t ** 2 / 2
        b = v * t ** 3 / (2 * mass)
        c = v * t ** 4 / (8 * mass ** 2)
        qs, h = grid.points, grid.spacing
        ref = block.values * np.exp(-a * (qs[:, None] - qs[None, :]) ** 2)
        out_ref = np.zeros_like(ref)
        for d in range(-(n - 1), n):
            k = d * h
            length = n - abs(d)
            rows = np.arange(length) + max(d, 0)
            cols = np.arange(length) + max(-d, 0)
            qbar = (qs[rows] + qs[cols]) / 2
            u = qbar[:, None] - qbar[None, :]
            kern = (
                (4 * np.pi * c) ** -0.5
                * np.exp((b ** 2 * k ** 2 - u ** 2 - 2j * b * k * u) / (4 * c))
                * h
            )
            out_ref[rows, cols] = kern @ ref[rows, cols]
        out = dl.evolve_density_short_time(
            block, t, dl.SystemParams(mass=mass), dl.BathMoments(v)
        )
        err = np.abs(out.values - out_ref).max() / np.abs(out_ref).max()
        assert err < 1e-12

    def test_norm_matches_closed_form_law(self):
        # two independent code paths: FFT evolution + quadrature norm
        # against the closed-form product law, 1e-4 relative down to N=0.05
        hbar, v, mass = 1.0, 1.0, 8.0
        dq, sigma = 40.0, 2.8e-3
        half = dq / 2 + 8 * math.sqrt(sigma) + 0.05
        grid = dl.PositionGrid(-half, half, 4096)
        pk1 = dl.GaussianPacket(dq / 2, 0.0, sigma, hbar)
        pk2 = dl.GaussianPacket(-dq / 2, 0.0, sigma, hbar)
        block = dl.density_block(pk1, pk2, grid)
        sup = dl.Superposition(pk1, pk2)
        sysp = dl.SystemParams(mass=mass, hbar=hbar)
        for target in (1.0, 3.0):  # exponent dq^2 v t^2 / hbar^2
            t = math.sqrt(target) * hbar / (dq * math.sqrt(v))
            out = dl.evolve_density_short_time(block, t, sysp, BATH)
            n_num = dl.coherence_norm(out, out)
            n_law = dl.coherence_norm_short_time(t, sup, sysp, BATH)
            assert n_law >= 0.049
            assert abs(n_num / n_law - 1.0) < 1e-4

    def test_resolution_error_when_factors_unresolved(self):
        block, _ = self.make_block(sigma=1.0, q=3.0, n=256)
        with pytest.raises(ResolutionError):
            dl.evolve_density_short_time(block, 50.0, SYS, BATH)

    @settings(deadline=None, max_examples=30)
    @given(n=st.sampled_from([16, 32, 64, 128]), t=st.floats(0.01, 2.0),
           mass=st.floats(0.2, 5.0), v=st.floats(0.1, 4.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_diagonal_reference(self, n, t, mass, v, seed):
        # random non-Hermitian blocks: every diagonal, both signs of d and
        # the one-entry corners d = +-(n - 1), carries independent data
        rng = np.random.default_rng(seed)
        grid = dl.PositionGrid(-n / 8, n / 8, n)
        values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        try:
            out = dl.evolve_density_short_time(
                dl.DensityBlock(grid, values), t, dl.SystemParams(mass=mass), dl.BathMoments(v)
            ).values
        except ResolutionError:
            assume(False)
        ref = per_diagonal_reference(
            values, grid.spacing, v * t ** 2 / 2, v * t ** 3 / (2 * mass), v * t ** 4 / (8 * mass ** 2)
        )
        scale = np.abs(ref).max()
        assert np.abs(out - ref).max() <= 1e-12 * scale
        for corner in ((n - 1, 0), (0, n - 1)):
            assert abs(out[corner] - ref[corner]) <= 1e-12 * scale
            assert out[corner] != values[corner]  # the corner diagonals were evolved

    @settings(deadline=None, max_examples=60)
    @given(n=st.sampled_from([16, 32, 64, 128]),
           shape=st.sampled_from(SUPPORT_SHAPES),
           t=st.floats(0.01, 2.0), mass=st.floats(0.2, 5.0), v=st.floats(0.1, 4.0),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_support_restriction_matches_reference(self, n, shape, t, mass, v, seed, data):
        # only the diagonals crossing the nonzero bounding box are
        # transformed; the result must not depend on that
        rng = np.random.default_rng(seed)
        grid = dl.PositionGrid(-n / 8, n / 8, n)
        box = support_box(lambda lo, hi: data.draw(st.integers(lo, hi)), n, shape)
        values = support_values(rng, n, box)
        try:
            out = dl.evolve_density_short_time(
                dl.DensityBlock(grid, values), t, dl.SystemParams(mass=mass), dl.BathMoments(v)
            ).values
        except ResolutionError:
            assume(False)
        if box is None:
            assert not out.any()
            return
        ref = per_diagonal_reference(
            values, grid.spacing, v * t ** 2 / 2, v * t ** 3 / (2 * mass), v * t ** 4 / (8 * mass ** 2)
        )
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        r0, r1, c0, c1 = box
        d = np.subtract.outer(np.arange(n), np.arange(n))
        assert not out[(d < r0 - c1) | (d > r1 - c0)].any()

    @settings(deadline=None, max_examples=20)
    @given(width=st.floats(1.0, 1.2), q1=st.floats(-6.0, 6.0), q2=st.floats(-6.0, 6.0),
           p1=st.floats(-100.0, 100.0), p2=st.floats(-100.0, 100.0), t=st.floats(0.01, 1.0),
           mass=st.floats(1.0, 5.0), v=st.floats(0.1, 4.0))
    def test_trimmed_gaussian_tails_match_reference(self, width, q1, q2, p1, p2, t, mass, v):
        # narrow packets, widths and centers in units of 1/64, on [-1, 1]:
        # the block's tails underflow, and diagonals that hold nonzero
        # entries but whose bound falls below eps max|out| are left at zero
        n = 512
        grid = dl.PositionGrid(-1.0, 1.0, n)
        sigma = (width / 64) ** 2
        values = dl.density_block(dl.GaussianPacket(q1 / 64, p1, sigma),
                                  dl.GaussianPacket(q2 / 64, p2, sigma), grid).values
        try:
            out = dl.evolve_density_short_time(
                dl.DensityBlock(grid, values), t, dl.SystemParams(mass=mass), dl.BathMoments(v)
            ).values
        except ResolutionError:
            assume(False)
        ref = per_diagonal_reference(
            values, grid.spacing, v * t ** 2 / 2, v * t ** 3 / (2 * mass), v * t ** 4 / (8 * mass ** 2)
        )
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        d = np.subtract.outer(np.arange(n), np.arange(n))
        assert np.setdiff1d(d[values != 0], d[out != 0]).size

    def test_output_floor_beats_a_damped_input(self):
        # entries of 1 on diagonal d = 20, which the filter damps by
        # exp(-69) ~ 1e-30, and of 1e-17 on the undamped d = -1, 0, 1: the
        # output peaks on the small diagonals.  A floor of eps max|input|
        # would keep only the top-bound diagonal; eps max|out| keeps all four.
        n = 64
        grid = dl.PositionGrid(-n / 8, n / 8, n)
        small = np.eye(n, k=-1) + np.eye(n) + np.eye(n, k=1)
        values = np.eye(n, k=-20, dtype=complex) + 1e-17 * small
        a = 69.0 / (20 * grid.spacing) ** 2
        out = dl.evolve_density_short_time(dl.DensityBlock(grid, values), math.sqrt(2 * a),
                                           dl.SystemParams(mass=math.inf), BATH).values
        ref = per_diagonal_reference(values, grid.spacing, a, 0.0, 0.0)
        assert np.abs(ref).max() == np.abs(np.diagonal(ref)).max()
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(np.diagonal(out, -20)).max() > 0

    def test_block_pipeline_peak_memory(self, density_pipeline_peak_mib):
        # input and output blocks are 128 MiB together; the kernel and the
        # norm may add chunk-sized temporaries, not whole blocks
        assert density_pipeline_peak_mib < 256

    def test_block_pipeline_touches_only_the_support(self, density_pipeline_peak_mib):
        # the diagonals crossing the block's nonzero box hold 9% of its
        # entries, and the run of them that can move the output 0.9%: the
        # zero-padded output buffer is written only there, so most of its
        # pages are never touched.  The probe peaks at 62 MiB; the bound
        # leaves 58 MiB, less than one more whole 64 MiB block.
        assert density_pipeline_peak_mib < 120


class TestTwoReservoir:
    def test_t_zero(self):
        assert dl.two_reservoir_norm(0.0, 1.0, 2.0, 1.0, 3.0, 1.0) == 1.0

    def test_non_finite_inputs_rejected(self):
        args = [0.5, 1.0, 2.0, 1.0, 3.0, 1.0]
        for i in range(len(args)):
            bad = list(args)
            bad[i] = math.nan
            with pytest.raises(ValidationError):
                dl.two_reservoir_norm(*bad)

    def test_position_substitution(self):
        assert dl.two_reservoir_norm(1.0, 1.0, 0.0, 1.0, 5.0, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    @settings(deadline=None, max_examples=100)
    @given(
        t=st.floats(0, 3),
        dq=st.floats(-4, 4),
        dp=st.floats(-4, 4),
        vq=st.floats(0.01, 4),
        vp=st.floats(0.01, 4),
    )
    def test_swap_symmetry_exact(self, t, dq, dp, vq, vp):
        a = dl.two_reservoir_norm(t, dq, dp, vq, vp, 1.0)
        b = dl.two_reservoir_norm(t, dp, dq, vp, vq, 1.0)
        assert a == b


class TestMemoryKernel:
    def test_constant_reduces_to_position_gaussian(self):
        corr = dl.constant_correlation(1.0)
        for t in (0.3, 0.9, 1.7):
            assert dl.memory_kernel_norm(t, 2.0, 1.0, corr) == pytest.approx(
                math.exp(-4.0 * t ** 2), abs=1e-10
            )

    def test_exponential_closed_form(self):
        gamma, v, dq = 1.3, 0.8, 1.7
        corr = dl.exponential_correlation(v, gamma)
        for t in (0.3, 1.0, 2.5):
            exact = math.exp(
                -(dq ** 2) * 2 * v * (gamma * t - 1 + math.exp(-gamma * t)) / gamma ** 2
            )
            assert dl.memory_kernel_norm(t, dq, 1.0, corr) == pytest.approx(
                exact, abs=1e-8
            )

    def test_t_zero(self):
        assert dl.memory_kernel_norm(0.0, 3.0, 1.0, dl.constant_correlation(2.0)) == 1.0

    def test_non_finite_inputs_rejected(self):
        corr = dl.constant_correlation(1.0)
        for t, dq in ((0.5, math.nan), (math.nan, 1.0), (math.inf, 1.0)):
            with pytest.raises(ValidationError):
                dl.memory_kernel_norm(t, dq, 1.0, corr)

    @settings(deadline=None, max_examples=30)
    @given(
        gamma=st.floats(0.2, 3.0),
        v=st.floats(0.1, 2.0),
        dq=st.floats(0.2, 3.0),
        t=st.floats(0.01, 2.0),
    )
    def test_non_increasing_for_positive_sym(self, gamma, v, dq, t):
        corr = dl.exponential_correlation(v, gamma)
        a = dl.memory_kernel_norm(t, dq, 1.0, corr)
        b = dl.memory_kernel_norm(1.5 * t, dq, 1.0, corr)
        assert b <= a + 1e-12

    def test_correlation_consistency_check(self):
        with pytest.raises(ValidationError):
            dl.CorrelationFunction(
                sym=lambda s: 1.0, moments=dl.BathMoments(1.0)
            )

    def test_complex_time_rejected(self):
        with pytest.raises(ValidationError):
            dl.memory_kernel_norm(1j, 1.0, 1.0, dl.constant_correlation(1.0))

    def test_exponential_correlation_rejects_non_numeric_rate(self):
        with pytest.raises(ValidationError):
            dl.exponential_correlation(1.0, "a")

    def test_gaussian_correlation_rejects_missing_time(self):
        with pytest.raises(ValidationError):
            dl.gaussian_correlation(1.0, None)

    def test_derived_tail_cutoffs(self):
        assert dl.exponential_correlation(1.0, 2.0).tail_cutoff == 23.0  # 46 / gamma
        assert dl.gaussian_correlation(1.0, 0.5).tail_cutoff == 5.0  # 10 tau
        with pytest.raises(TypeError):
            dl.exponential_correlation(1.0, 2.0, tail_cutoff=1.0)

    def test_tail_cutoff_rejects_text(self):
        with pytest.raises(ValidationError):
            dl.CorrelationFunction(sym=lambda s: 1.0, tail_cutoff="x")

    def test_tail_cutoff_rejects_nan_and_keeps_inf(self):
        with pytest.raises(ValidationError):
            dl.CorrelationFunction(sym=lambda s: 1.0, tail_cutoff=math.nan)
        corr = dl.CorrelationFunction(sym=lambda s: 1.0, tail_cutoff=math.inf)
        assert corr.tail_cutoff == math.inf

    @pytest.mark.parametrize("lines", [((1.0, math.nan),), ((1.0, 2.0, 3.0),), (1.0, 2.0),
                                       ((1.0, 2j),), (("a", 1.0),)])
    def test_lines_must_be_real_pairs(self, lines):
        with pytest.raises(ValidationError):
            dl.CorrelationFunction(sym=lambda s: 2.0, lines=lines)

    def test_lines_take_no_tail_cutoff(self):
        # the closed-form kernel integrates the whole cosine sum, so a cutoff
        # that quad would honour is refused
        with pytest.raises(ValidationError, match="tail_cutoff"):
            dl.CorrelationFunction(sym=lambda s: 2.0, tail_cutoff=1.0, lines=((1.0, 0.0),))


class TestGoldenRule:
    def test_exponential_correlation_rate(self):
        # sym = 2 v exp(-gamma s), Omega = 0: tau_dec = hbar^2 gamma / (d^2 v)
        gamma, v, d = 2.0, 1.0, 1.5
        corr = dl.exponential_correlation(v, gamma)
        gr = dl.golden_rule_times(corr, dl.SystemParams(1.0, omega=0.0), d)
        assert gr.tau_dec == pytest.approx(gamma / (d ** 2 * v), abs=1e-8)

    def test_zero_response_infinite_dissipation(self):
        corr = dl.exponential_correlation(1.0, 1.0)
        gr = dl.golden_rule_times(corr, dl.SystemParams(1.0, omega=0.7), 1.0)
        assert math.isinf(gr.tau_diss)

    def test_rate_scales_as_distance_squared(self):
        corr = dl.exponential_correlation(1.0, 1.0)
        sysp = dl.SystemParams(1.0, omega=0.0)
        products = [
            dl.golden_rule_times(corr, sysp, d).tau_dec * d ** 2
            for d in np.geomspace(0.5, 5.0, 5)
        ]
        np.testing.assert_allclose(products, products[0], rtol=1e-12)

    def test_omega_zero_with_response_rejected(self):
        corr = dl.CorrelationFunction(
            sym=lambda s: 2.0 * math.exp(-s),
            resp=lambda s: math.sin(s),
            tail_cutoff=46.0,
            moments=dl.BathMoments(1.0),
        )
        with pytest.raises(ValidationError):
            dl.golden_rule_times(corr, dl.SystemParams(1.0, omega=0.0), 1.0)

    def test_non_finite_separation_rejected(self):
        corr = dl.exponential_correlation(1.0, 1.0)
        with pytest.raises(ValidationError):
            dl.golden_rule_times(corr, SYS, math.nan)

    def test_oscillator_frequency_reduces_rate(self):
        corr = dl.exponential_correlation(1.0, 1.0)
        at_zero = dl.golden_rule_times(corr, dl.SystemParams(1.0, omega=0.0), 1.0)
        at_two = dl.golden_rule_times(corr, dl.SystemParams(1.0, omega=2.0), 1.0)
        # integral of exp(-s) cos(2s) = 1/5 vs 1 at Omega=0
        assert at_two.tau_dec / at_zero.tau_dec == pytest.approx(5.0, abs=1e-6)


class TestScales:
    def test_transition_separation(self):
        assert dl.transition_separation(1.0, 0.01) == pytest.approx(0.1, rel=1e-14)
        assert dl.transition_separation(4.0, 1.0) == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(ValidationError):
            dl.transition_separation(0.0, 1.0)

    def test_transition_separation_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            dl.transition_separation(math.nan, 1.0)

    @settings(deadline=None, max_examples=50)
    @given(hbar=st.floats(1e-4, 10), dp=st.floats(0.01, 10))
    def test_transition_scales_as_sqrt_hbar(self, hbar, dp):
        ratio = dl.transition_separation(dp, 4 * hbar) / dl.transition_separation(dp, hbar)
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_flo_time(self):
        assert dl.flo_time(1.0, 2.0, 1.0) == 0.5
        assert dl.flo_time(1.0, 4.0, 1.0) == 0.25  # doubling d halves it
        with pytest.raises(ValidationError):
            dl.flo_time(1.0, -1.0, 1.0)

    def test_flo_time_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            dl.flo_time(math.nan, 1.0, 1.0)

    def test_flo_time_rejects_complex_width(self):
        with pytest.raises(ValidationError):
            dl.flo_time(1j, 1.0, 1.0)
