import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import decolab as dl
from decolab.cli import fit_scaling
from decolab.errors import DegenerateBathError, ValidationError
from decolab.spin import _gaussian_draws

from helpers import exact_mc_spin_norm


class TestSpinMatrices:
    def test_pauli_half(self):
        jx, jy, jz = dl.spin_matrices(0.5, hbar=1.0)
        np.testing.assert_allclose(2 * jx, [[0, 1], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(2 * jy, [[0, -1j], [1j, 0]], atol=1e-15)
        np.testing.assert_allclose(2 * jz, [[1, 0], [0, -1]], atol=1e-15)

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 7.0, 25.5])
    def test_commutation_and_casimir(self, j):
        hbar = 0.7
        jx, jy, jz = dl.spin_matrices(j, hbar)
        comm = jx @ jy - jy @ jx
        assert np.abs(comm - 1j * hbar * jz).max() < 1e-12 * max(1.0, hbar ** 2 * j)
        casimir = jx @ jx + jy @ jy + jz @ jz
        expected = hbar ** 2 * j * (j + 1) * np.eye(int(2 * j) + 1)
        assert np.abs(casimir - expected).max() < 1e-10 * max(1.0, hbar ** 2 * j ** 2)
        assert abs(np.trace(jz)) < 1e-12 * j

    def test_invalid_j(self):
        with pytest.raises(ValidationError):
            dl.spin_matrices(0.3)
        with pytest.raises(ValidationError):
            dl.spin_matrices(0.0)

    def test_non_finite_j_rejected(self):
        for j in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                dl.spin_matrices(j)


class TestCoherentStates:
    def test_north_pole(self):
        vec = dl.coherent_vector(dl.SpinCoherent(3.0, 0.0))
        expected = np.zeros(7)
        expected[0] = 1.0
        np.testing.assert_allclose(vec, expected, atol=1e-15)

    def test_normalized_at_large_j(self):
        vec = dl.coherent_vector(dl.SpinCoherent(25.0, 0.7 + 0.3j))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_closed_form(self):
        j = 8.0
        for a, b in [(0.4, -0.3), (0.9 + 0.1j, 0.2 - 0.5j), (1.2, 0.7j)]:
            va = dl.coherent_vector(dl.SpinCoherent(j, a))
            vb = dl.coherent_vector(dl.SpinCoherent(j, b))
            overlap_sq = abs(np.vdot(va, vb)) ** 2
            closed = (
                ((1 + np.conj(a) * b) * (1 + a * np.conj(b))).real
                / ((1 + abs(a) ** 2) * (1 + abs(b) ** 2))
            ) ** (2 * j)
            assert overlap_sq == pytest.approx(closed, rel=1e-10)

    def test_j_range_guard(self):
        with pytest.raises(ValidationError):
            dl.coherent_vector(dl.SpinCoherent(201.0, 0.1))


class TestCoherentMeans:
    def test_north_pole(self):
        assert dl.coherent_means(dl.SpinCoherent(4.0, 0.0)) == (0.0, 0.0, 4.0)

    def test_equatorial_x(self):
        mx, my, mz = dl.coherent_means(dl.SpinCoherent(3.0, 1.0))
        assert mx == pytest.approx(3.0, abs=1e-14)
        assert my == pytest.approx(0.0, abs=1e-14)
        assert mz == pytest.approx(0.0, abs=1e-14)

    def test_matches_matrix_expectation(self):
        j, alpha = 10.0, 0.4 - 0.9j
        state = dl.SpinCoherent(j, alpha)
        vec = dl.coherent_vector(state)
        means = dl.coherent_means(state)
        for m, op in zip(means, dl.spin_matrices(j)):
            assert m == pytest.approx(float(np.real(np.vdot(vec, op @ vec))), abs=1e-10)

    def test_mean_length_is_hbar_j(self):
        for alpha in (0.0, 0.3 + 0.4j, 2.0, -1.5j):
            m = dl.coherent_means(dl.SpinCoherent(7.5, alpha, hbar=1.3))
            assert np.hypot(np.hypot(m[0], m[1]), m[2]) == pytest.approx(
                1.3 * 7.5, abs=1e-10
            )


class TestSeparationsAndPairs:
    def test_identical_states(self):
        d = dl.separations(5.0, 0.3 + 0.1j, 0.3 + 0.1j)
        assert d.d_x == d.d_y == d.d_z == 0.0

    def test_antipodal_x(self):
        d = dl.separations(10.0, 1.0, -1.0)
        assert d.d_x == pytest.approx(20.0, abs=1e-12)
        assert d.d_y == pytest.approx(0.0, abs=1e-12)
        assert d.d_z == pytest.approx(0.0, abs=1e-12)

    def test_case_i_equatorial_reflection(self):
        j, alpha = 6.0, 0.5 * cmath.exp(0.3j)
        beta = dl.special_pair(alpha, "i")
        assert beta == pytest.approx(1.0 / alpha.conjugate())
        d = dl.separations(j, alpha, beta)
        assert abs(d.d_x) < 1e-12 and abs(d.d_y) < 1e-12
        theta = 2.0 * math.atan(abs(alpha))
        assert d.d_z == pytest.approx(2.0 * j * math.cos(theta), rel=1e-12)

    def test_case_ii_conjugate(self):
        assert dl.special_pair(1j, "ii") == -1j

    def test_case_iii_antipode(self):
        assert dl.special_pair(2.0, "iii") == pytest.approx(0.5)

    def test_case_i_fixed_point_on_equator(self):
        alpha = cmath.exp(1j * math.pi / 4)
        assert dl.special_pair(alpha, "i") == pytest.approx(alpha)

    def test_inverse_cases_reject_zero(self):
        for case in ("i", "iii"):
            with pytest.raises(ValidationError):
                dl.special_pair(0.0, case)

    def test_non_finite_alpha_rejected(self):
        for alpha in (math.nan, math.inf, complex(0.5, math.nan)):
            for case in ("i", "ii", "iii"):
                with pytest.raises(ValidationError):
                    dl.special_pair(alpha, case)

    def test_case_iv_predicate_matches_printed_condition(self):
        # recorded verbatim: cos(phi_a) = sin(theta_b), cos(phi_b) = sin(phi_a)
        alpha = cmath.exp(1j * math.pi / 2)  # cos(phi_a) = 0, sin(phi_a) = 1
        beta = 0.0  # theta_b = 0 -> sin = 0; phi_b = 0 -> cos = 1
        assert dl.is_special_case_iv(alpha, beta)
        assert not dl.is_special_case_iv(0.5, 0.5)

    def test_case_iv_predicate_rejects_non_finite(self):
        for alpha, beta in ((math.nan, 0.5), (0.5, math.inf), (complex(0.5, math.nan), 0.5)):
            with pytest.raises(ValidationError):
                dl.is_special_case_iv(alpha, beta)


class TestSpinDecoherenceTimes:
    def test_non_finite_omega_rejected(self):
        with pytest.raises(ValidationError):
            dl.spin_decoherence_times(10.0, 1.0, 1j, math.nan, dl.BathMoments(1.0))
    def test_antipodal_x_pair(self):
        taus = dl.spin_decoherence_times(10.0, 1.0, -1.0, 1.0, dl.BathMoments(1.0))
        assert taus.tau_x == pytest.approx(400.0 ** -0.5, rel=1e-12)  # 0.05
        assert math.isinf(taus.tau_y) and math.isinf(taus.tau_z)

    def test_y_channel_value(self):
        # d_y = 2 hbar j with others zero: case (ii) at phi = pi/2
        taus = dl.spin_decoherence_times(10.0, 1j, -1j, 1.0, dl.BathMoments(1.0))
        assert taus.tau_y == pytest.approx(100.0 ** -0.25, rel=1e-12)
        assert math.isinf(taus.tau_x)

    def test_z_channel_value(self):
        j, alpha = 8.0, 0.5
        beta = dl.special_pair(alpha, "i")
        taus = dl.spin_decoherence_times(j, alpha, beta, 2.0, dl.BathMoments(0.5))
        d = dl.separations(j, alpha, beta)
        expected = (d.d_z ** 2 * 4.0 * 0.25 / 36.0) ** (-1 / 6)
        assert taus.tau_z == pytest.approx(expected, rel=1e-12)

    def test_j_scaling_exponents(self):
        # slopes -1, -1/2, -1/3 in log tau vs log j at fixed angles
        js = np.array([8.0, 16.0, 32.0, 64.0])
        alpha, beta = 0.6 + 0.2j, -0.4 + 0.7j
        bath = dl.BathMoments(1.0)
        tx, ty, tz = [], [], []
        for j in js:
            taus = dl.spin_decoherence_times(j, alpha, beta, 1.0, bath)
            tx.append(taus.tau_x)
            ty.append(taus.tau_y)
            tz.append(taus.tau_z)
        for taus, expected in ((tx, 1.0), (ty, 0.5), (tz, 1 / 3)):
            fit = fit_scaling(js, taus, axis="j")
            assert fit.exponent == pytest.approx(expected, abs=0.02)

    def test_regime_ordering(self):
        taus = dl.spin_decoherence_times(12.0, 0.6 + 0.2j, -0.4 + 0.7j, 1.0, dl.BathMoments(1.0))
        assert taus.tau_x < taus.tau_y < taus.tau_z

    def test_degenerate_bath(self):
        with pytest.raises(DegenerateBathError):
            dl.spin_decoherence_times(5.0, 1.0, -1.0, 1.0, dl.BathMoments(0.0))


class TestSpinCoherenceNorm:
    def test_unity_at_t_zero(self):
        bath = dl.BathMoments(1.0, var_Bdot=0.0)
        assert dl.spin_coherence_norm(0.0, 10.0, 1.0, -1.0, 1.0, bath) == 1.0
        est = dl.spin_coherence_norm(
            0.0, 10.0, 1.0, -1.0, 1.0, bath, mode="montecarlo", seed=1
        )
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_negative_or_non_finite_t_rejected(self):
        bath = dl.BathMoments(1.0, var_Bdot=0.0)
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                dl.spin_coherence_norm(t, 10.0, 1.0, -1.0, 1.0, bath)
        with pytest.raises(ValidationError):
            dl.spin_coherence_norm(-1.0, 10.0, 1.0, -1.0, 1.0, bath, mode="montecarlo")

    def test_regime_z_at_tau(self):
        j, alpha = 15.0, math.tan(math.pi / 6)
        beta = dl.special_pair(alpha, "i")
        bath = dl.BathMoments(1.0)
        tz = dl.spin_decoherence_times(j, alpha, beta, 1.0, bath).tau_z
        val = dl.spin_coherence_norm(tz, j, alpha, beta, 1.0, bath)
        assert val == pytest.approx(2.0 ** -0.5, rel=1e-12)

    def test_montecarlo_matches_gaussian_channel(self):
        # only d_x nonzero, static moments: N -> exp(-(t/tau_x)^2)
        j, bath = 15.0, dl.BathMoments(1.0, var_Bdot=0.0)
        tx = dl.spin_decoherence_times(j, 1.0, -1.0, 0.0, bath).tau_x
        for t in (0.3 * tx, 0.8 * tx, 1.2 * tx):
            est = dl.spin_coherence_norm(
                t, j, 1.0, -1.0, 0.0, bath, mode="montecarlo", samples=100_000, seed=3
            )
            exact = math.exp(-((t / tx) ** 2))
            assert abs(est.value - exact) <= 3.0 * est.stderr

    def test_montecarlo_linear_exponent_analytic(self):
        # linear-in-(B, Bdot) exponent has an exact Gaussian characteristic
        # function: checks the sampled dx channel with rotation corrections
        j, omega = 9.0, 0.7
        bath = dl.BathMoments(0.8, var_Bdot=0.5)
        d = dl.separations(j, 1.0, -1.0)
        t = 0.02
        lam_b = d.d_x * (t - omega ** 2 * t ** 3 / 6.0)
        lam_bd = d.d_x * t ** 2 / 2.0
        exact = math.exp(-(lam_b ** 2) * 0.8 - (lam_bd ** 2) * 0.5)
        est = dl.spin_coherence_norm(
            t, j, 1.0, -1.0, omega, bath, mode="montecarlo", samples=200_000, seed=7
        )
        assert abs(est.value - exact) <= 4.0 * est.stderr

    def test_montecarlo_gaussian_square_identity(self):
        # <exp(i a B^2)> = (1 - 2 i a v)^(-1/2) for Gaussian B, checked by
        # quadrature; anchors the sixth-power law's closed form
        import scipy.integrate

        a, v = 0.7, 1.3
        def integrand_re(x):
            return math.cos(a * x * x) * math.exp(-x * x / (2 * v)) / math.sqrt(2 * math.pi * v)
        def integrand_im(x):
            return math.sin(a * x * x) * math.exp(-x * x / (2 * v)) / math.sqrt(2 * math.pi * v)
        re = scipy.integrate.quad(integrand_re, -np.inf, np.inf)[0]
        im = scipy.integrate.quad(integrand_im, -np.inf, np.inf)[0]
        closed = (1.0 - 2.0j * a * v) ** -0.5
        assert complex(re, im) == pytest.approx(closed, abs=1e-10)

    def test_montecarlo_requires_var_bdot(self):
        with pytest.raises(ValidationError):
            dl.spin_coherence_norm(
                0.1, 5.0, 1.0, -1.0, 1.0, dl.BathMoments(1.0), mode="montecarlo"
            )

    @pytest.mark.parametrize("samples", [1e5, "a"], ids=["float", "text"])
    def test_montecarlo_rejects_non_integer_samples(self, samples):
        bath = dl.BathMoments(1.0, var_Bdot=0.0)
        with pytest.raises(ValidationError):
            dl.spin_coherence_norm(0.02, 15.0, 1.0, -1.0, 1.0, bath, mode="montecarlo",
                                   samples=samples)

    @pytest.mark.parametrize("seed", [-1, "a", 1.5, True, 1 << 128],
                             ids=["negative", "text", "float", "bool", "too-large"])
    def test_montecarlo_rejects_bad_seed(self, seed):
        bath = dl.BathMoments(1.0, var_Bdot=0.0)
        with pytest.raises(ValidationError):
            dl.spin_coherence_norm(0.02, 15.0, 1.0, -1.0, 1.0, bath, mode="montecarlo",
                                   seed=seed)

    def test_montecarlo_reproducible(self):
        bath = dl.BathMoments(1.0, var_Bdot=0.0)
        a = dl.spin_coherence_norm(0.02, 15.0, 1.0, -1.0, 1.0, bath, mode="montecarlo", seed=9)
        b = dl.spin_coherence_norm(0.02, 15.0, 1.0, -1.0, 1.0, bath, mode="montecarlo", seed=9)
        assert a == b

    def test_regime_monotone_nonincreasing(self):
        bath = dl.BathMoments(1.0)
        ts = np.linspace(0.0, 0.3, 50)
        for pair in [(1.0, -1.0), (1j, -1j), (0.5, dl.special_pair(0.5, "i"))]:
            vals = dl.spin_coherence_norm(ts, 12.0, pair[0], pair[1], 1.0, bath)
            assert np.all(np.diff(vals) <= 1e-15)


class TestMonteCarloDraws:
    """spin_coherence_norm keeps the last key's draws; a warm call equals a cold one."""

    BATH = dl.BathMoments(1.0, var_Bdot=0.5)
    CHANGED = {
        "var_B": (dl.BathMoments(0.7, var_Bdot=0.5), 10_000),
        "var_Bdot": (dl.BathMoments(1.0, var_Bdot=0.3), 10_000),
        "samples": (BATH, 10_001),
    }

    @staticmethod
    def norm(bath, samples=10_000, seed=5):
        # d_x and d_y both nonzero, so both draws enter the exponent
        est = dl.spin_coherence_norm(0.05, 15.0, 1.0, 1j, 1.0, bath, mode="montecarlo",
                                     samples=samples, seed=seed)
        return tuple(x.hex() for x in est)

    def cold(self, *args, **kwargs):
        _gaussian_draws.cache_clear()
        return self.norm(*args, **kwargs)

    def test_warm_call_equals_cold(self):
        cold = self.cold(self.BATH)
        assert self.norm(self.BATH) == cold
        assert _gaussian_draws.cache_info().hits >= 1

    def test_seeds_in_turn_equal_cold(self):
        cold = {seed: self.cold(self.BATH, seed=seed) for seed in (11, 12)}
        assert [self.norm(self.BATH, seed=seed) for seed in (11, 12, 11)] == [
            cold[11], cold[12], cold[11]]

    @pytest.mark.parametrize("bath, samples", CHANGED.values(), ids=CHANGED.keys())
    def test_warm_call_with_changed_key_equals_cold(self, bath, samples):
        cold = self.cold(bath, samples=samples)
        self.cold(self.BATH)  # the cache now holds the unchanged key
        assert self.norm(bath, samples=samples) == cold

    def test_negative_zero_variances_draw_as_zero(self):
        # numpy rejects a scale of -0.0; the variance -0.0 equals 0.0 and draws as it
        zero = dl.BathMoments(0.0, var_Bdot=0.0)
        cold = self.cold(dl.BathMoments(-0.0, var_Bdot=-0.0))
        assert self.norm(zero) == cold == self.cold(zero)

    def test_draws_are_read_only(self):
        for draws in _gaussian_draws(5, 10_000, 1.0, 0.5):
            with pytest.raises(ValueError):
                draws[0] = 0.0


def _time_at_norm(exact, level):
    """A t > 0 where exact(t) crosses level: the first fall below it on a
    geometric scan, refined by bisection; None if it never falls."""
    lo = 0.0
    for hi in np.geomspace(1e-4, 1e4, 81):
        if exact(hi) <= level:
            break
        lo = hi
    else:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if exact(mid) > level else (lo, mid)
    return hi


CASE_I_ALPHA = math.tan(math.pi / 6)


class TestMonteCarloExactReferee:
    """The sampled norm against its exact Gaussian expectation (tests/helpers.py)."""

    @settings(deadline=None, max_examples=20)
    @given(j=st.sampled_from([1.5, 5.0, 15.0]),
           alpha=st.complex_numbers(max_magnitude=3.0),
           beta=st.complex_numbers(max_magnitude=3.0),
           omega=st.floats(-2.0, 2.0), var_b=st.floats(0.1, 2.0),
           var_bdot=st.floats(0.0, 2.0), kappa=st.floats(0.0, 50.0),
           level=st.floats(0.06, 0.94), seed=st.integers(0, 2 ** 31))
    @example(j=15.0, alpha=CASE_I_ALPHA, beta=dl.special_pair(CASE_I_ALPHA, "i"),
             omega=1.0, var_b=1.0, var_bdot=0.5, kappa=0.7, level=0.5, seed=3)
    @example(j=15.0, alpha=1j, beta=dl.special_pair(1j, "ii"), omega=1.0, var_b=1.0,
             var_bdot=0.5, kappa=0.7, level=0.3, seed=4)
    def test_within_five_stderr_of_exact(self, j, alpha, beta, omega, var_b, var_bdot,
                                         kappa, level, seed):
        bath = dl.BathMoments(var_b, var_Bdot=var_bdot, kappa=kappa)
        def exact(t):
            return exact_mc_spin_norm(t, j, alpha, beta, omega, bath)
        t = _time_at_norm(exact, level)
        assume(t is not None)
        assert 0.05 <= exact(t) <= 0.95
        est = dl.spin_coherence_norm(t, j, alpha, beta, omega, bath, mode="montecarlo",
                                     seed=seed)
        assert abs(est.value - exact(t)) <= 5.0 * est.stderr

    def test_kappa_moves_neither_value_nor_stderr(self):
        # kappa enters only the global phase; the pair has mx(alpha)^2 != mx(beta)^2
        def norm(kappa):
            bath = dl.BathMoments(1.0, var_Bdot=0.5, kappa=kappa)
            return dl.spin_coherence_norm(0.07, 15.0, 0.5, 2j, 1.0, bath, mode="montecarlo",
                                          seed=8)
        ref = norm(0.0)
        assert 0.2 < ref.value < 0.8
        for kappa in (0.7, 50.0):
            est = norm(kappa)
            assert est.value == pytest.approx(ref.value, rel=1e-12)
            assert est.stderr == pytest.approx(ref.stderr, rel=1e-12)


def _cos_sin_mc_norm(t, j, alpha, beta, omega, bath, samples, seed):
    """(value, stderr) of the Monte-Carlo norm from np.cos and np.sin of the
    same draws and phase, with the sampler's two-pass moments."""
    b, bdot = _gaussian_draws(seed, samples, bath.var_B, bath.var_Bdot)
    d = dl.separations(j, alpha, beta)
    mxa, mxb = (dl.coherent_means(dl.SpinCoherent(j, s))[0] for s in (alpha, beta))
    u = d.d_x * (t - omega ** 2 * t ** 3 / 6.0) - omega * d.d_y * t ** 2 / 2.0
    v = d.d_x * t ** 2 / 2.0 - omega * d.d_y * t ** 3 / 3.0
    w = omega * d.d_z * t ** 3 / 12.0
    c = -(mxa ** 2 - mxb ** 2) * bath.kappa * t ** 3 / 12.0
    phi = (w * b + u) * b + v * bdot + c
    cos, sin = np.cos(phi), np.sin(phi)
    mean_c, mean_s = cos.mean(), sin.mean()
    cos -= mean_c
    sin -= mean_s
    scale = 1.0 / ((samples - 1) * samples)
    var_c, var_s, cov = cos @ cos * scale, sin @ sin * scale, cos @ sin * scale
    value = mean_c ** 2 + mean_s ** 2 - (var_c + var_s)
    delta_var = 4.0 * (mean_c ** 2 * var_c + 2.0 * mean_c * mean_s * cov + mean_s ** 2 * var_s)
    return value, math.sqrt(max(delta_var, 0.0)), phi


ODD_PI = st.integers(-15_915_494, 15_915_494).map(lambda k: (2 * k + 1) * math.pi)


class TestMonteCarloHalfAngle:
    """cos phi and sin phi from tan(phi / 2) give the np.cos / np.sin estimate."""

    @settings(deadline=None, max_examples=12)
    @given(center=st.one_of(st.floats(-1e8, 1e8), ODD_PI), spread=st.floats(1e-9, 10.0),
           omega=st.sampled_from([0.0, 0.8]), bdot_share=st.sampled_from([0.0, 1.0]),
           seed=st.integers(0, 2 ** 31))
    @example(center=1e8, spread=1e-9, omega=0.0, bdot_share=0.0, seed=1)
    @example(center=31_415_927 * math.pi, spread=1e-6, omega=0.8, bdot_share=0.0, seed=2)
    @example(center=math.pi, spread=3.0, omega=0.8, bdot_share=1.0, seed=3)
    def test_matches_cos_sin_of_the_same_draws(self, center, spread, omega, bdot_share, seed):
        # at t = 1, phi is centred on c (set through kappa), with spread u sqrt(var_B)
        # from B and bdot_share times that from Bdot
        t, j, alpha, beta, samples = 1.0, 15.0, 0.5, 2j, 10_000
        d = dl.separations(j, alpha, beta)
        mxa, mxb = (dl.coherent_means(dl.SpinCoherent(j, s))[0] for s in (alpha, beta))
        u = d.d_x * (1.0 - omega ** 2 / 6.0) - omega * d.d_y / 2.0
        v = d.d_x / 2.0 - omega * d.d_y / 3.0
        kappa = -12.0 * center / (mxa ** 2 - mxb ** 2)
        bath = dl.BathMoments((spread / u) ** 2, var_Bdot=bdot_share * (spread / v) ** 2,
                              kappa=kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = dl.spin_coherence_norm(t, j, alpha, beta, omega, bath, mode="montecarlo",
                                         samples=samples, seed=seed)
            value, stderr, phi = _cos_sin_mc_norm(t, j, alpha, beta, omega, bath, samples, seed)
        assert abs(np.median(phi) - center) <= 1e-15 * abs(center) + 10.0 * spread
        assert abs(est.value - value) <= 1e-14
        assert abs(est.stderr - stderr) <= 1e-14


class TestHolomorphicIdentities:
    def test_north_pole_half_spin(self):
        assert dl.verify_holomorphic_identities(0.5, 0.0, step=1e-5) < 1e-9

    def test_generic_point(self):
        assert dl.verify_holomorphic_identities(5.0, 0.3 + 0.2j, step=1e-5) < 1e-6

    def test_second_order_in_step(self):
        r1 = dl.verify_holomorphic_identities(5.0, 0.3 + 0.2j, step=1e-3)
        r2 = dl.verify_holomorphic_identities(5.0, 0.3 + 0.2j, step=5e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)

    def test_step_range_enforced(self):
        with pytest.raises(ValidationError):
            dl.verify_holomorphic_identities(1.0, 0.1, step=1e-8)
