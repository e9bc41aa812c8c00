import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import decolab as dl
from decolab._linalg import expm_phase, spectral_norm
from decolab.errors import ValidationError
from decolab.expansion import _cf4_propagator

from helpers import midpoint_expansion_error


def random_hermitian(dim, rng, unit_norm=True):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    return h / spectral_norm(h) if unit_norm else h


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=2024))


class TestMagnusExponent:
    def test_time_independent_case(self, rng):
        h0 = random_hermitian(4, rng)
        zero = np.zeros((4, 4))
        h = dl.ExpandedHamiltonian(h0, zero, zero)
        np.testing.assert_allclose(dl.magnus_exponent(h, 0.7), 0.7 * h0, atol=1e-15)

    def test_commuting_case_is_exact(self, rng):
        h0 = random_hermitian(4, rng)
        h = dl.ExpandedHamiltonian(h0, 2.0 * h0, np.zeros((4, 4)))
        t = 0.5
        phi = dl.magnus_exponent(h, t)
        np.testing.assert_allclose(phi, h0 * t + 2.0 * h0 * t ** 2 / 2, atol=1e-15)
        assert dl.expansion_error(h, h.at, t) < 1e-10

    def test_order_sixteen_under_halving(self, rng):
        h = dl.ExpandedHamiltonian(
            random_hermitian(4, rng), random_hermitian(4, rng), random_hermitian(4, rng)
        )
        t = 0.05  # ||h0|| t = 0.05
        ratio = dl.expansion_error(h, h.at, t) / dl.expansion_error(h, h.at, t / 2)
        assert 12.8 <= ratio <= 19.2

    def test_hermitian_inputs_give_unitary_propagator(self, rng):
        h = dl.ExpandedHamiltonian(
            random_hermitian(4, rng), random_hermitian(4, rng), random_hermitian(4, rng)
        )
        u = dl.short_time_propagator(h, 0.3)
        assert spectral_norm(u.conj().T @ u - np.eye(4)) < 1e-10

    def test_merging_identity_fourth_order(self, rng):
        # exp(-i H0 t/h) exp(-i H1 t^2/2h) equals the single exponential of
        # H0 t + H1 t^2/2 - (i/4h)[H0,H1] t^3 up to O(t^4)
        h0, h1 = random_hermitian(4, rng), random_hermitian(4, rng)
        comm = h0 @ h1 - h1 @ h0

        def deviation(t):
            product = expm_phase(h0, -t) @ expm_phase(h1, -0.5 * t * t)
            merged = h0 * t + h1 * (0.5 * t * t) - (0.25j) * comm * t ** 3
            return spectral_norm(product - expm_phase(merged, -1.0))

        ratio = deviation(0.1) / deviation(0.05)
        assert 12.8 <= ratio <= 19.2

    def test_non_finite_t_rejected(self, rng):
        h = dl.ExpandedHamiltonian(random_hermitian(2, rng), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            dl.magnus_exponent(h, math.nan)

    def test_two_factor_product_misses_third_order(self, rng):
        # dropping the commutator correction leaves an O(t^3) defect: the
        # two-factor product is NOT the full O(t^4)-accurate propagator
        h0, h1 = random_hermitian(4, rng), random_hermitian(4, rng)
        h = dl.ExpandedHamiltonian(h0, h1, np.zeros((4, 4)))

        def deviation(t):
            product = expm_phase(h0, -t) @ expm_phase(h1, -0.5 * t * t)
            return spectral_norm(product - dl.short_time_propagator(h, t))

        ratio = deviation(0.1) / deviation(0.05)
        assert ratio == pytest.approx(8.0, rel=0.05)


class TestTimeOrderedPropagator:
    def test_constant_generator(self, rng):
        h0 = random_hermitian(4, rng)
        for n_steps in (1, 7, 64):
            u = dl.time_ordered_propagator(lambda s: h0, 0.3, n_steps)
            assert spectral_norm(u - expm_phase(h0, -0.3)) < 1e-12

    def test_unitarity(self, rng):
        h0, h1 = random_hermitian(4, rng), random_hermitian(4, rng)
        u = dl.time_ordered_propagator(lambda s: h0 + s * h1, 0.8, 50)
        assert spectral_norm(u.conj().T @ u - np.eye(4)) < 1e-10

    def test_second_order_self_convergence(self, rng):
        h0, h1 = random_hermitian(4, rng), random_hermitian(4, rng)

        def h_of_t(s):
            return h0 + np.sin(2.0 * s) * h1

        t = 1.0
        u64 = dl.time_ordered_propagator(h_of_t, t, 64)
        u128 = dl.time_ordered_propagator(h_of_t, t, 128)
        u256 = dl.time_ordered_propagator(h_of_t, t, 256)
        limit = u256 + (u256 - u128) / 3.0  # Richardson
        ratio = spectral_norm(u64 - limit) / spectral_norm(u128 - limit)
        assert ratio == pytest.approx(4.0, rel=0.1)

    def test_step_count_validated(self, rng):
        with pytest.raises(ValidationError):
            dl.time_ordered_propagator(lambda s: np.eye(2), 1.0, 0)

    def test_zero_time_is_exact_identity(self, rng):
        h0 = random_hermitian(3, rng)
        u = dl.time_ordered_propagator(lambda s: h0, 0.0, 5)
        assert u.dtype == complex
        np.testing.assert_array_equal(u, np.eye(3))

    def test_non_hermitian_generator_rejected(self, rng):
        h0 = random_hermitian(3, rng)
        h0[0, 1] += 0.5
        with pytest.raises(ValidationError):
            dl.time_ordered_propagator(lambda s: h0, 0.3, 8)

    def test_generator_shape_change_rejected(self, rng):
        h2, h3 = random_hermitian(2, rng), random_hermitian(3, rng)
        with pytest.raises(ValidationError):
            dl.time_ordered_propagator(lambda s: h2 if s < 0.5 else h3, 1.0, 4)

    @settings(deadline=None, max_examples=50)
    @given(
        dim=st.integers(1, 5),
        seed=st.integers(0, 2 ** 32 - 1),
        t=st.floats(0.0, 3.0),
        n_steps=st.integers(1, 64),
        freq=st.floats(-4.0, 4.0),
    )
    def test_hermitian_families_give_unitary_propagators(self, dim, seed, t, n_steps, freq):
        rng = np.random.default_rng(seed)
        h0, h1, h2 = (random_hermitian(dim, rng, unit_norm=False) for _ in range(3))

        def h_of_t(s):
            return h0 + np.sin(freq * s) * h1 + s * s * h2

        u = dl.time_ordered_propagator(h_of_t, t, n_steps)
        assert spectral_norm(u.conj().T @ u - np.eye(dim)) < 1e-10


def bath_pair(rng, dim=4, omega_scale=1.0):
    """Concrete bath: Hermitian B with H_res driving it; exact derivatives."""
    h_res = omega_scale * random_hermitian(dim, rng)
    b = random_hermitian(dim, rng)
    bdot = 1j * (h_res @ b - b @ h_res)
    bddot = 1j * (h_res @ bdot - bdot @ h_res)

    def b_of_t(s):
        u = expm_phase(h_res, s)
        return u @ b @ u.conj().T

    return h_res, b, bdot, bddot, b_of_t


def non_hermitian(dim, rng):
    h = random_hermitian(dim, rng)
    h[0, -1] += 0.5
    return h


class TestParticleGenerators:
    def test_non_hermitian_operator_rejected(self, rng):
        p, b, bdot = (random_hermitian(2, rng) for _ in range(3))
        with pytest.raises(ValidationError):
            dl.particle_generators(non_hermitian(2, rng), p, b, bdot, mass=1.0)
    def test_static_coupling_is_exact(self, rng):
        q = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        zero = np.zeros((4, 4))
        h = dl.particle_generators(q, zero, b, zero, mass=1.0)
        t = 0.4
        u = dl.short_time_propagator(h, t)
        np.testing.assert_allclose(u, expm_phase(np.kron(q, b), -t), atol=1e-12)

    def test_quadratic_coefficient_grouping(self, rng):
        q, p = random_hermitian(4, rng), random_hermitian(4, rng)
        h_res, b, bdot, _, _ = bath_pair(rng)
        mass = 2.0
        h = dl.particle_generators(q, p, b, bdot, mass)
        phi = dl.magnus_exponent(h, 1.0)
        # t^2/2 coefficient: P (x) B / 2M + Q (x) Bdot / 2
        expected_h1 = np.kron(p, b) / mass + np.kron(q, bdot)
        comm = h.h0 @ h.h1 - h.h1 @ h.h0
        np.testing.assert_allclose(
            phi, h.h0 + expected_h1 / 2 + (1j * comm) / 12.0, atol=1e-14
        )

    def test_third_order_error_without_h2(self, rng):
        # the particle generators omit h2; against the exact
        # (Q + P t / M) (x) B(t) driving, the error is O(t^3): ratio 8
        q, p = random_hermitian(4, rng), random_hermitian(4, rng)
        h_res, b, bdot, _, b_of_t = bath_pair(rng)
        mass = 1.5
        h = dl.particle_generators(q, p, b, bdot, mass)

        def h_exact(s):
            return np.kron(q + p * (s / mass), b_of_t(s))

        t = 0.04
        ratio = dl.expansion_error(h, h_exact, t) / dl.expansion_error(h, h_exact, t / 2)
        assert ratio == pytest.approx(8.0, rel=0.25)


class TestSpinGenerators:
    def test_non_hermitian_operator_rejected(self, rng):
        jx, jy, _ = dl.spin_matrices(0.5)
        b, bddot = random_hermitian(2, rng), random_hermitian(2, rng)
        with pytest.raises(ValidationError):
            dl.spin_generators(jx, jy, b, non_hermitian(2, rng), bddot, omega=0.5)
    def test_static_limit(self, rng):
        jx, jy, _ = dl.spin_matrices(1.0)
        b = random_hermitian(2, rng)
        zero = np.zeros((2, 2))
        h = dl.spin_generators(jx, jy, b, zero, zero, omega=0.0)
        np.testing.assert_allclose(h.h0, np.kron(jx, b), atol=1e-15)
        np.testing.assert_allclose(h.h1, 0.0 * h.h1, atol=1e-15)
        np.testing.assert_allclose(h.h2, 0.0 * h.h2, atol=1e-15)

    def test_commutator_expansion(self, rng):
        # (i/hbar)[h0, h1] = (i/hbar) Jx^2 (x) [B, Bdot] + Omega Jz (x) B^2
        jx, jy, jz = dl.spin_matrices(1.0)
        h_res, b, bdot, bddot, _ = bath_pair(rng, dim=2)
        omega = 0.8
        h = dl.spin_generators(jx, jy, b, bdot, bddot, omega)
        comm = 1j * (h.h0 @ h.h1 - h.h1 @ h.h0)
        bcomm = b @ bdot - bdot @ b
        expected = 1j * np.kron(jx @ jx, bcomm) + omega * np.kron(jz, b @ b)
        np.testing.assert_allclose(comm, expected, atol=1e-12)

    def test_fourth_order_error(self, rng):
        # full interaction-picture generator B(t) (x) (Jx cos - Jy sin)
        jx, jy, _ = dl.spin_matrices(1.5)
        h_res, b, bdot, bddot, b_of_t = bath_pair(rng, dim=2)
        omega = 0.9
        h = dl.spin_generators(jx, jy, b, bdot, bddot, omega)

        def h_exact(s):
            return np.kron(
                jx * np.cos(omega * s) - jy * np.sin(omega * s), b_of_t(s)
            )

        t = 0.05
        ratio = dl.expansion_error(h, h_exact, t) / dl.expansion_error(h, h_exact, t / 2)
        assert ratio == pytest.approx(16.0, rel=0.2)


class TestExpansionError:
    def test_zero_time(self, rng):
        h0 = random_hermitian(4, rng)
        h = dl.ExpandedHamiltonian(h0, h0, h0)
        assert dl.expansion_error(h, h.at, 0.0) == 0.0

    def test_commuting_family_negligible(self, rng):
        h0 = random_hermitian(4, rng)
        h = dl.ExpandedHamiltonian(h0, 0.5 * h0, 0.25 * h0)
        for t in (0.2, 0.9):
            assert dl.expansion_error(h, h.at, t) < 1e-10

    def test_non_hermitian_coefficient_rejected(self, rng):
        zero = np.zeros((3, 3))
        with pytest.raises(ValidationError):
            dl.ExpandedHamiltonian(random_hermitian(3, rng), non_hermitian(3, rng), zero)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError):
            dl.ExpandedHamiltonian(
                random_hermitian(4, rng), random_hermitian(2, rng), np.zeros((4, 4))
            )


class TestFourthOrderReference:
    def test_cf4_converges_at_fourth_order(self, rng):
        # swapping the two factors of a step leaves a second-order product
        # (ratio 4) that the O(t^4) checks above cannot tell apart
        h0, h1 = random_hermitian(4, rng), random_hermitian(4, rng)

        def h_of_t(s):
            return h0 + np.sin(2.0 * s) * h1

        t = 1.0
        coarse = dl.time_ordered_propagator(h_of_t, t, 1 << 13)
        fine = dl.time_ordered_propagator(h_of_t, t, 1 << 14)
        limit = fine + (fine - coarse) / 3.0  # Richardson
        errors = [spectral_norm(_cf4_propagator(h_of_t, t, n, 1.0) - limit) for n in (4, 8, 16)]
        for coarse_error, fine_error in zip(errors, errors[1:]):
            assert coarse_error / fine_error == pytest.approx(16.0, rel=0.2)

    @settings(deadline=None, max_examples=30)
    @given(
        kind=st.sampled_from(["triple", "particle", "spin"]),
        seed=st.integers(0, 2 ** 32 - 1),
        hnorm_t=st.floats(0.02, 0.1),
        dim=st.integers(2, 5),
        scale=st.floats(0.25, 2.0),
    )
    def test_agrees_with_midpoint_referee(self, kind, seed, hnorm_t, dim, scale):
        # scale sizes h1, h2 for a triple and the bath frequencies for the
        # particle and spin cases
        rng = np.random.default_rng(seed)
        if kind == "triple":
            h0, h1, h2 = (random_hermitian(dim, rng) for _ in range(3))
            h = dl.ExpandedHamiltonian(h0, scale * h1, scale * h2)
            h_exact = h.at
        elif kind == "particle":
            q, p = random_hermitian(dim, rng), random_hermitian(dim, rng)
            _, b, bdot, _, b_of_t = bath_pair(rng, dim=2, omega_scale=scale)
            h = dl.particle_generators(q, p, b, bdot, mass=1.5)

            def h_exact(s):
                return np.kron(q + p * (s / 1.5), b_of_t(s))
        else:
            jx, jy, _ = dl.spin_matrices(0.5 * (dim - 1))
            _, b, bdot, bddot, b_of_t = bath_pair(rng, dim=2, omega_scale=scale)
            omega = 0.9
            h = dl.spin_generators(jx, jy, b, bdot, bddot, omega)

            def h_exact(s):
                return np.kron(jx * np.cos(omega * s) - jy * np.sin(omega * s), b_of_t(s))

        t = hnorm_t / spectral_norm(h.h0)
        expected = midpoint_expansion_error(h, h_exact, t)
        assert dl.expansion_error(h, h_exact, t) == pytest.approx(expected, rel=1e-5)
