import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import decolab as dl
from decolab.errors import GridMismatchError, ResolutionError, ValidationError
from decolab.packets import BOX_MARGIN_WIDTHS, MAX_SPACING_WIDTHS
from helpers import SUPPORT_SHAPES, peak_memory_mib, support_box, support_values


# (packet, sample points): the benchmark's density-block packet on its n = 2048
# grid at dq = 20, a moving packet, and one with a tiny hbar and a far-off center
FORMULA_CASES = [
    (dl.GaussianPacket(10.0, 0.0, 5e-3),
     dl.PositionGrid(-10.3 - 8 * math.sqrt(5e-3), 10.3 + 8 * math.sqrt(5e-3), 2048).points),
    (dl.GaussianPacket(-5.0, -13.0, 2.0, hbar=0.3), np.linspace(-40.0, 40.0, 2001)),
    (dl.GaussianPacket(1e3, 1e5, 1e-3, hbar=1e-3), np.linspace(990.0, 1010.0, 513)),
]


def past_float64_raises(amplitude, packet, x):
    """True if amplitude(packet, x) raises ValidationError with RuntimeWarnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError):
            amplitude(packet, x)
    return True


def std_grid(sigma=1.0, centers=(0.0,), n=256, margin=10.0):
    width = np.sqrt(sigma)
    lo = min(centers) - margin * width
    hi = max(centers) + margin * width
    return dl.PositionGrid(lo, hi, n)


class TestPositionAmplitude:
    def test_peak_value(self):
        pk = dl.GaussianPacket(0.0, 0.0, 1.0, 1.0)
        assert dl.position_amplitude(pk, 0.0) == pytest.approx(
            (2.0 * np.pi) ** -0.25, abs=1e-10
        )
        assert abs(dl.position_amplitude(pk, 0.0) - 0.63161) < 1e-4

    def test_grid_normalization(self):
        pk = dl.GaussianPacket(0.0, 0.0, 1.0)
        grid = std_grid()
        phi = dl.position_amplitude(pk, grid.points)
        total = np.sum(np.abs(phi) ** 2 * grid.weights)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_modulus_symmetric_about_center(self):
        pk = dl.GaussianPacket(0.0, 2.0, 1.0)
        assert abs(dl.position_amplitude(pk, 1.0)) == pytest.approx(
            abs(dl.position_amplitude(pk, -1.0)), rel=1e-12
        )

    def test_non_finite_q_rejected(self):
        pk = dl.GaussianPacket(0.0, 0.0, 1.0)
        for q in (np.nan, [0.0, np.inf]):
            with pytest.raises(ValidationError):
                dl.position_amplitude(pk, q)

    def test_phase_past_float64_rejected(self):
        # p0 (q - q0) / hbar = 1e310: a ValidationError, not NaN or a RuntimeWarning
        fast = dl.GaussianPacket(0.0, 1e300, 1.0, hbar=1e-10)
        assert past_float64_raises(dl.position_amplitude, fast, [1.0, 2.0])

    @pytest.mark.parametrize("case", range(len(FORMULA_CASES)))
    def test_finite_amplitudes_follow_the_formula_bit_for_bit(self, case):
        pk, q = FORMULA_CASES[case]
        expected = ((2.0 * np.pi * pk.sigma) ** -0.25
                    * np.exp(1j * pk.p0 * (q - pk.q0) / pk.hbar)
                    * np.exp(-((q - pk.q0) ** 2) / (4.0 * pk.sigma)))
        assert np.array_equal(dl.position_amplitude(pk, q), expected)


class TestMomentumAmplitude:
    def test_peak_value(self):
        pk = dl.GaussianPacket(0.0, 0.0, 1.0, 1.0)
        # (2 pi)^(1/4) / sqrt(pi) evaluated from the stated formula
        expected = (2.0 * np.pi) ** 0.25 / np.sqrt(np.pi)
        assert dl.momentum_amplitude(pk, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.8932438, abs=1e-6)

    def test_momentum_normalization(self):
        pk = dl.GaussianPacket(0.5, -1.0, 0.7, 1.3)
        p = np.linspace(-40, 40, 4001)
        total = np.trapezoid(np.abs(dl.momentum_amplitude(pk, p)) ** 2, p)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_fft_duality(self):
        # DFT of position samples against the closed momentum form,
        # relative sup-norm over the grid, on a 512-point grid.
        pk = dl.GaussianPacket(1.0, 3.0, 0.5, 1.0)
        grid = std_grid(sigma=0.5, centers=(1.0,), n=512, margin=14.0)
        h = grid.spacing
        n = grid.n_points
        qs = grid.points
        phi = dl.position_amplitude(pk, qs)
        p_grid = 2.0 * np.pi * pk.hbar * np.fft.fftfreq(n, d=h)
        dft = (
            h
            / np.sqrt(2.0 * np.pi * pk.hbar)
            * np.exp(-1j * p_grid * grid.q_min / pk.hbar)
            * np.fft.fft(phi)
        )
        exact = dl.momentum_amplitude(pk, p_grid)
        keep = np.abs(exact) > 1e-12
        err = np.abs(dft - exact)[keep].max() / np.abs(exact).max()
        assert err < 1e-6

    def test_modulus_independent_of_center(self):
        p = np.linspace(-3, 3, 31)
        a = np.abs(dl.momentum_amplitude(dl.GaussianPacket(3.0, 0.0, 1.0), p))
        b = np.abs(dl.momentum_amplitude(dl.GaussianPacket(0.0, 0.0, 1.0), p))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_phase_past_float64_rejected(self):
        # p q0 / hbar = 1e310
        far = dl.GaussianPacket(1e300, 0.0, 1.0, hbar=1e-10)
        assert past_float64_raises(dl.momentum_amplitude, far, [1.0, 2.0])

    @pytest.mark.parametrize("case", range(len(FORMULA_CASES)))
    def test_finite_amplitudes_follow_the_formula_bit_for_bit(self, case):
        pk, p = FORMULA_CASES[case]
        expected = ((2.0 * np.pi * pk.sigma) ** 0.25 / np.sqrt(np.pi * pk.hbar)
                    * np.exp(-1j * p * pk.q0 / pk.hbar)
                    * np.exp(-pk.sigma * ((p - pk.p0) / pk.hbar) ** 2))
        assert np.array_equal(dl.momentum_amplitude(pk, p), expected)

    def test_envelope_survives_an_underflowing_hbar_squared(self):
        # hbar^2 = 1e-400 underflows to 0: the envelope is scaled by hbar
        # before squaring, so p = p0 gives e^0 = 1 and not 0 / 0
        pk = dl.GaussianPacket(0.0, 0.0, 1.0, hbar=1e-200)
        amp = dl.momentum_amplitude(pk, [0.0, 2.0])
        peak = (2.0 * np.pi) ** 0.25 / np.sqrt(np.pi * 1e-200)
        assert amp[0] == pytest.approx(peak, rel=1e-15) and amp[1] == 0.0

    def test_non_finite_p_rejected(self):
        pk = dl.GaussianPacket(0.0, 0.0, 1.0)
        for p in (np.nan, [0.0, -np.inf]):
            with pytest.raises(ValidationError):
                dl.momentum_amplitude(pk, p)


class TestDensityBlock:
    def test_diagonal_block_hermitian_unit_trace(self):
        pk = dl.GaussianPacket(0.0, 1.0, 1.0)
        grid = std_grid()
        block = dl.density_block(pk, pk, grid)
        assert np.abs(block.values - block.values.conj().T).max() < 1e-12
        trace = np.sum(np.diagonal(block.values) * grid.weights)
        assert trace == pytest.approx(1.0, abs=1e-8)

    def test_off_diagonal_adjoint_pair(self):
        p1 = dl.GaussianPacket(1.0, 0.5, 1.0)
        p2 = dl.GaussianPacket(-1.0, -0.5, 1.0)
        grid = std_grid(centers=(-1.0, 1.0))
        b12 = dl.density_block(p1, p2, grid)
        b21 = dl.density_block(p2, p1, grid)
        np.testing.assert_allclose(b12.values, b21.values.conj().T, atol=1e-15)

    def test_separated_block_peaks_at_centers(self):
        sigma = 0.25
        q1, q2 = 6.0 * np.sqrt(sigma), -6.0 * np.sqrt(sigma)  # |q1-q2| = 12 sqrt(sigma)
        p1 = dl.GaussianPacket(q1, 0.0, sigma)
        p2 = dl.GaussianPacket(q2, 0.0, sigma)
        grid = std_grid(sigma=sigma, centers=(q2, q1), n=512)
        block = dl.density_block(p1, p2, grid)
        i, j = np.unravel_index(np.argmax(np.abs(block.values)), block.values.shape)
        assert abs(grid.points[i] - q1) <= grid.spacing
        assert abs(grid.points[j] - q2) <= grid.spacing

    def test_box_coverage_error(self):
        pk = dl.GaussianPacket(0.0, 0.0, 1.0)
        with pytest.raises(ResolutionError):
            dl.density_block(pk, pk, dl.PositionGrid(-4.0, 4.0, 256))

    def test_spacing_error(self):
        pk = dl.GaussianPacket(0.0, 0.0, 0.01)
        with pytest.raises(ResolutionError):
            dl.density_block(pk, pk, dl.PositionGrid(-10.0, 10.0, 64))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.nan)])
    def test_user_block_with_non_finite_entry_rejected(self, bad):
        values = np.zeros((16, 16), dtype=complex)
        values[3, 11] = bad
        with pytest.raises(ValidationError):
            dl.DensityBlock(dl.PositionGrid(-1.0, 1.0, 16), values)

    def test_overflowing_phase_rejected(self):
        # p0 (q - q0) / hbar overflows, so the amplitudes would hold NaN
        fast = dl.GaussianPacket(0.0, 1e300, 1.0, hbar=1e-10)
        grid = std_grid(centers=(0.0, 1.0))
        with np.errstate(all="ignore"), pytest.raises(ValidationError):
            dl.density_block(fast, dl.GaussianPacket(1.0, 0.0, 1.0, hbar=1e-10), grid)

    def test_mismatched_packets_rejected(self):
        with pytest.raises(ValidationError):
            dl.density_block(
                dl.GaussianPacket(0.0, 0.0, 1.0),
                dl.GaussianPacket(0.0, 0.0, 2.0),
                std_grid(),
            )

    @settings(deadline=None, max_examples=80)
    @given(n=st.sampled_from([16, 64, 256, 1024]), log_sigma=st.floats(-4.0, 1.0),
           fill=st.floats(0.05, 1.0), q_min=st.floats(-10.0, 10.0), u1=st.floats(0.0, 1.0),
           u2=st.floats(0.0, 1.0), p1=st.floats(-5.0, 5.0), p2=st.floats(-5.0, 5.0))
    # the amplitudes underflow to 0 inside the box, far from both grid edges
    @example(n=1024, log_sigma=-2.0, fill=1.0, q_min=-3.0, u1=0.5, u2=0.6, p1=1.0, p2=-2.0)
    # the box is 16 widths: both amplitudes are nonzero up to the grid edges
    @example(n=64, log_sigma=0.0, fill=1.0, q_min=0.0, u1=0.0, u2=1.0, p1=0.0, p2=3.0)
    def test_values_are_the_outer_product(self, n, log_sigma, fill, q_min, u1, u2, p1, p2):
        sigma = 10.0 ** log_sigma
        width = math.sqrt(sigma)
        span = n * fill * MAX_SPACING_WIDTHS * width
        margin = BOX_MARGIN_WIDTHS * width
        assume(span > 2.0 * margin)
        q1, q2 = (q_min + margin + u * (span - 2.0 * margin) for u in (u1, u2))
        grid = dl.PositionGrid(q_min, q_min + span, n)
        pk1, pk2 = dl.GaussianPacket(q1, p1, sigma), dl.GaussianPacket(q2, p2, sigma)
        try:
            block = dl.density_block(pk1, pk2, grid)
        except ResolutionError:  # the rounded box misses a margin by an ulp
            assume(False)
        qs = grid.points
        outer = np.outer(dl.position_amplitude(pk1, qs), dl.position_amplitude(pk2, qs).conj())
        assert np.array_equal(block.values, outer)

    def test_block_touches_only_its_support(self):
        # n = 2048 as in the kernels benchmark: a full complex block is 64 MiB,
        # and the rows by columns where both amplitudes are nonzero hold 5% of it
        if sys.platform != "linux":
            pytest.skip("reads /proc/self/status")
        setup = (
            "import math\n"
            "import decolab as dl\n"
            "sigma = 5e-3\n"
            "grid = dl.PositionGrid(-10.9, 10.9, 2048)\n"
            "pk1, pk2 = dl.GaussianPacket(10.0, 0.0, sigma), dl.GaussianPacket(-10.0, 0.0, sigma)\n"
        )
        base = peak_memory_mib(setup)
        peak = peak_memory_mib(setup + "block = dl.density_block(pk1, pk2, grid)\n")
        assert peak - base < 32  # a whole-block outer product peaks 68 MiB above base

    def test_superposition_blocks_structure(self):
        sup = dl.Superposition(
            dl.GaussianPacket(2.0, 0.5, 1.0), dl.GaussianPacket(-2.0, 0.0, 1.0)
        )
        grid = std_grid(centers=(-2.0, 2.0))
        blocks = dl.superposition_blocks(sup, grid)
        assert set(blocks) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        np.testing.assert_allclose(
            blocks[(1, 2)].values, blocks[(2, 1)].values.conj().T, atol=1e-15
        )
        for i in (1, 2):
            diag = blocks[(i, i)].values
            assert np.abs(diag - diag.conj().T).max() < 1e-12


class TestCoherenceNorm:
    def test_pure_projector_norm(self):
        pk = dl.GaussianPacket(0.0, 0.0, 1.0)
        grid = std_grid()
        b11 = dl.density_block(pk, pk, grid)
        assert dl.coherence_norm(b11, b11) == pytest.approx(1.0, abs=1e-6)

    def test_interference_norm_is_one_for_separated_packets(self):
        sigma = 0.25
        q1, q2 = 6.0 * np.sqrt(sigma), -6.0 * np.sqrt(sigma)
        b12 = dl.density_block(
            dl.GaussianPacket(q1, 0.0, sigma),
            dl.GaussianPacket(q2, 0.0, sigma),
            std_grid(sigma=sigma, centers=(q2, q1), n=512),
        )
        assert dl.coherence_norm(b12, b12) == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_against_gaussian_overlap_form(self):
        # Tr(rho12 rho12+) = <phi1|phi1><phi2|phi2> = 1 exactly for
        # normalized packets, including oscillatory momentum phases.
        sigma = 1.0
        p1 = dl.GaussianPacket(2.0, 3.0, sigma)
        p2 = dl.GaussianPacket(-2.0, -2.0, sigma)
        grid = std_grid(sigma=sigma, centers=(-2.0, 2.0), n=512)
        b12 = dl.density_block(p1, p2, grid)
        assert dl.coherence_norm(b12, b12) == pytest.approx(1.0, abs=1e-6)

    def test_blocks_with_zero_rows(self):
        # 8 row chunks at n = 1024; the first chunk is live only in its last row
        n = 1024
        grid = dl.PositionGrid(-8.0, 8.0, n)
        rng = np.random.default_rng(3)
        values = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        rows_a = np.r_[127, 300:400, 1023]
        rows_b = np.r_[127, 350:900]
        a, b = np.zeros((2, n, n), dtype=complex)
        a[rows_a], b[rows_b] = values[0, rows_a], values[1, rows_b]
        w = grid.weights
        block_a, block_b = dl.DensityBlock(grid, a), dl.DensityBlock(grid, b)
        for x, y in ((block_a, block_b), (block_b, block_a), (block_a, block_a)):
            exact = (w @ (x.values * y.values.conj()) @ w).real
            assert dl.coherence_norm(x, y) == pytest.approx(exact, rel=1e-12)
        disjoint = np.zeros((n, n), dtype=complex)
        disjoint[128:300] = values[1, 128:300]
        assert dl.coherence_norm(block_a, dl.DensityBlock(grid, disjoint)) == 0.0

    @settings(deadline=None, max_examples=100)
    @given(n=st.sampled_from([16, 32, 64, 128]), shape_a=st.sampled_from(SUPPORT_SHAPES),
           shape_b=st.sampled_from(SUPPORT_SHAPES + ("same", "disjoint")),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_live_rectangle_matches_dense_sum(self, n, shape_a, shape_b, seed, data):
        # only the rows, then the columns, nonzero in both blocks are summed
        rng = np.random.default_rng(seed)
        draw = lambda lo, hi: data.draw(st.integers(lo, hi))
        grid = dl.PositionGrid(-n / 8, n / 8, n)
        a = support_values(rng, n, support_box(draw, n, shape_a))
        if shape_b == "same":
            b = a
        elif shape_b == "disjoint":  # nonzero everywhere a is 0, so every product is 0
            b = np.where(a == 0, support_values(rng, n, (0, n - 1, 0, n - 1)), 0.0)
        else:
            b = support_values(rng, n, support_box(draw, n, shape_b))
        w = grid.weights
        exact = (w @ (a * b.conj()) @ w).real
        magnitude = w @ np.abs(a * b) @ w
        got = dl.coherence_norm(dl.DensityBlock(grid, a), dl.DensityBlock(grid, b))
        assert abs(got - exact) <= 1e-12 * magnitude

    def test_grid_mismatch(self):
        pk = dl.GaussianPacket(0.0, 0.0, 1.0)
        b1 = dl.density_block(pk, pk, std_grid(n=256))
        b2 = dl.density_block(pk, pk, std_grid(n=512))
        with pytest.raises(GridMismatchError):
            dl.coherence_norm(b1, b2)

    def test_grid_refinement_stable(self):
        # doubling n_points changes the norm by < 1e-6 once spacing < sqrt(sigma)/8
        pk1 = dl.GaussianPacket(3.0, 1.0, 1.0)
        pk2 = dl.GaussianPacket(-3.0, 0.0, 1.0)
        lo, hi = -3.0 - 10.0, 3.0 + 10.0
        vals = []
        for n in (256, 512):
            grid = dl.PositionGrid(lo, hi, n)
            assert grid.spacing < np.sqrt(1.0) / 8.0
            b = dl.density_block(pk1, pk2, grid)
            vals.append(dl.coherence_norm(b, b))
        assert abs(vals[1] - vals[0]) < 1e-6


class TestTypes:
    def test_packet_invariants(self):
        with pytest.raises(ValidationError):
            dl.GaussianPacket(0.0, 0.0, -1.0)
        with pytest.raises(ValidationError):
            dl.GaussianPacket(0.0, 0.0, 1.0, 0.0)

    def test_packet_rejects_non_finite_values(self):
        with pytest.raises(ValidationError):
            dl.GaussianPacket(float("nan"), 0.0, 1.0)
        with pytest.raises(ValidationError):
            dl.GaussianPacket(0.0, float("inf"), 1.0)

    def test_superposition_separations(self):
        pk = dl.GaussianPacket(0.0, 0.0, 1.0)
        sup = dl.Superposition(dl.GaussianPacket(1.0, 2.0, 1.0), pk)
        assert sup.dq == 1.0 and sup.dp == 2.0

    def test_grid_invariants(self):
        with pytest.raises(ValidationError):
            dl.PositionGrid(0.0, -1.0, 64)
        with pytest.raises(ValidationError):
            dl.PositionGrid(0.0, 1.0, 100)  # not a power of two
        with pytest.raises(ValidationError):
            dl.PositionGrid(0.0, 1.0, 8)  # too few points

    @pytest.mark.parametrize("args", [
        ("a", 1.0, 16), (0.0, 1.0, "16"), (0.0, 1.0, 16.0),
        (-float("inf"), 1.0, 16), (0.0, float("inf"), 16),
    ], ids=["text-bound", "text-size", "float-size", "infinite-q-min", "infinite-q-max"])
    def test_grid_rejects_malformed_arguments(self, args):
        with pytest.raises(ValidationError):
            dl.PositionGrid(*args)

    def test_grid_accepts_numpy_integer_size(self):
        assert dl.PositionGrid(0.0, 1.0, np.int64(16)).spacing == 1.0 / 16
