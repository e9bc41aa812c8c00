import dataclasses
import math
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

import decolab as dl
from decolab import oracle
from decolab._linalg import expm_phase
from decolab.errors import DimensionCapError, FitWindowError, ValidationError, require_finite
from helpers import (
    frozen_position_curve, grid_joint_eigh_norms, joint_eigh_norms, momentum_separation_curve,
    peak_memory_mib,
)


LARGE_OSCILLATOR_PROBE = textwrap.dedent("""
    import decolab as dl

    comp = dl.BathComponent("oscillator", 0.5, 1.0, levels=4096)
    dl.bath_statistics(dl.BathModel((comp,), (0,)))
""")


class TestBathModel:
    def test_dimension_cap_default(self):
        # no cap by default; an explicit one still refuses a larger bath
        bath = dl.spin_bath(13, 1.0)
        assert bath.dimension_cap is None and bath.dimension == 8192
        with pytest.raises(DimensionCapError):
            dl.spin_bath(13, 1.0, dimension_cap=1 << 12)
        with pytest.raises(DimensionCapError):
            dl.build_bath_operators(bath)

    def test_component_validation(self):
        with pytest.raises(ValidationError):
            dl.BathComponent("squeezed", 1.0)
        with pytest.raises(ValidationError):
            dl.BathComponent("oscillator", 1.0, levels=1)
        with pytest.raises(ValidationError):
            dl.BathComponent("spin-half", math.inf)

    def test_component_rejects_non_finite_omega(self):
        for omega in (math.inf, math.nan):
            with pytest.raises(ValidationError):
                dl.BathComponent("spin-half", 1.0, omega=omega)

    def test_spin_bath_rejects_bad_variance(self):
        for var in (-1.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                dl.spin_bath(4, var)

    def test_spin_bath_rejects_non_integer_m(self):
        for m in (2.5, 3.0, "3", None):
            with pytest.raises(ValidationError):
                dl.spin_bath(m, 1.0)

    def test_spin_bath_rejects_non_numeric_omegas(self):
        for omegas in ("fast", 1j, [0.5, "x", 1.0], [[0.5, 1.0, 1.5]], object()):
            with pytest.raises(ValidationError):
                dl.spin_bath(3, 1.0, omegas=omegas)

    def test_spin_bath_takes_zero_d_array_as_scalar(self):
        bath = dl.spin_bath(3, 1.0, omegas=np.array(0.7))
        assert bath == dl.spin_bath(3, 1.0, omegas=0.7)

    def test_component_rejects_non_integer_levels(self):
        for levels in (2.5, 3.0, "3"):
            with pytest.raises(ValidationError):
                dl.BathComponent("oscillator", 1.0, 0.5, levels=levels)

    def test_dimension_cap_must_be_positive_integer(self):
        comp = dl.BathComponent("spin-half", 1.0)
        for cap in (math.nan, math.inf, 0, -4, 100.5, 4096.0):
            with pytest.raises(ValidationError):
                dl.BathModel((comp,), ("up",), dimension_cap=cap)
            with pytest.raises(ValidationError):
                dl.spin_bath(13, 1.0, dimension_cap=cap)

    def test_non_numeric_parameters_rejected(self):
        for make in (
            lambda: dl.BathComponent("spin-half", "a"),
            lambda: dl.BathComponent("spin-half", 1.0, "x"),
            lambda: dl.BathComponent("spin-half", None),
            lambda: dl.BathComponent("spin-half", 1j),
            lambda: dl.spin_bath(3, "a"),
            lambda: dl.spin_bath(3, None),
        ):
            with pytest.raises(ValidationError):
                make()

    def test_bool_rejected_where_an_integer_is_required(self):
        comp = dl.BathComponent("spin-half", 1.0)
        for make in (
            lambda: dl.spin_bath(True, 1.0),
            lambda: dl.BathComponent("spin-half", 1.0, levels=True),
            lambda: dl.BathModel((comp,), ("up",), dimension_cap=True),
            lambda: dl.spin_bath(1, 1.0, dimension_cap=True),
        ):
            with pytest.raises(ValidationError, match="integer"):
                make()

    @pytest.mark.parametrize("label", ["x", 1.7, True])
    def test_oscillator_initial_must_be_fock_index(self, label):
        comp = dl.BathComponent("oscillator", 0.5, omega=1.0, levels=4)
        with pytest.raises(ValidationError, match="Fock index"):
            dl.BathModel((comp,), (label,))

    def test_oscillator_initial_label_may_be_numpy_integer(self):
        comp = dl.BathComponent("oscillator", 0.5, omega=1.0, levels=4)
        assert dl.BathModel((comp,), (np.int64(1),)).dimension == 4

    def test_oscillator_initial_leaves_truncation_headroom(self):
        comp = dl.BathComponent("oscillator", 0.5, omega=1.0, levels=4)
        with pytest.raises(ValidationError):
            dl.BathModel((comp,), (3,))  # top level: <B^2> would be truncated
        model = dl.BathModel((comp,), (2,))
        assert model.dimension == 4

    def test_coupling_column_matches_operator(self):
        for comp in (dl.BathComponent("spin-half", -0.7, 0.3),
                     dl.BathComponent("oscillator", 0.45, 1.2, levels=7)):
            dense = comp.coupling_operator()
            for n in range(comp.levels):
                np.testing.assert_array_equal(comp.coupling_column(n), dense[:, n])
            for n in (-1, comp.levels, 1.0, True):
                with pytest.raises(ValidationError):
                    comp.coupling_column(n)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_large_oscillator_statistics_fast_and_small(self):
        # the mean check and the spectral lines read one column of the
        # coupling operator; the dense 4096 x 4096 matrix is 256 MiB
        comp = dl.BathComponent("oscillator", 0.5, 1.0, levels=4096)
        start = time.perf_counter()
        moments, _ = dl.bath_statistics(dl.BathModel((comp,), (3,)))
        assert time.perf_counter() - start < 0.1
        assert moments.var_B == pytest.approx(0.25 * (3 + 4), rel=1e-15)
        assert peak_memory_mib(LARGE_OSCILLATOR_PROBE) < 80


@st.composite
def mixed_baths(draw):
    """A bath of 1-4 spin-halves and oscillators with random labels, and an hbar.

    The dense references diagonalize H_res, so the bath stays under 300 levels.
    """
    comps, labels = [], []
    for _ in range(draw(st.integers(1, 4))):
        g = math.copysign(draw(st.floats(0.1, 0.6)), draw(st.sampled_from([1, -1])))
        omega = draw(st.floats(-2.0, 2.0))
        if draw(st.booleans()):
            comps.append(dl.BathComponent("spin-half", g, omega))
            labels.append(draw(st.sampled_from(["up", "down"])))
        else:
            levels = draw(st.integers(3, 6))
            comps.append(dl.BathComponent("oscillator", g, omega, levels))
            labels.append(draw(st.integers(0, levels - 2)))
    bath = dl.BathModel(tuple(comps), tuple(labels))
    assume(bath.dimension < 300)
    return bath, draw(st.floats(0.5, 2.0))


class TestBathOperators:
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_statistics_match_dense_expectations(self, data):
        # reference: expectation values in the initial state of products of
        # the dense B, Bdot = (i/hbar)[H_res, B] and B(s) = U(s)^dagger B U(s)
        bath, hbar = data.draw(mixed_baths())
        moments, corr = dl.bath_statistics(bath, hbar)
        ops = dl.build_bath_operators(bath, hbar)
        b, h, chi = ops.B, np.diag(ops.H_res), ops.initial_state
        b_chi = b @ chi
        bdot_chi = (1j / hbar) * (h @ b_chi - b @ (h @ chi))
        assert moments.var_B == pytest.approx(np.vdot(b_chi, b_chi).real, abs=1e-12)
        assert moments.var_Bdot == pytest.approx(np.vdot(bdot_chi, bdot_chi).real, abs=1e-12)
        # <[B, Bdot]> = i hbar kappa
        assert moments.kappa == pytest.approx(2.0 * np.vdot(b_chi, bdot_chi).imag / hbar,
                                              abs=1e-12)
        for s in data.draw(st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3)):
            u = expm_phase(h, s / hbar)
            bs_chi = u @ (b @ (u.conj().T @ chi))
            cross = np.vdot(bs_chi, b_chi)  # <B(s) B>; <B B(s)> is its conjugate
            assert corr.sym(s) == pytest.approx(2.0 * cross.real, abs=1e-12)
            assert corr.resp(s) == pytest.approx(-2.0 * cross.imag / hbar, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(case=mixed_baths())
    # a subnormal frequency: |i[H, B]|max = 1.1e-313, where 1e-12 of it is
    # below the float64 spacing (5e-324) and one rounding used to fail
    @example(case=(dl.BathModel((dl.BathComponent("spin-half", 0.5, 2.2250738585e-313),),
                                ("up",)), 1.0))
    def test_derivatives_match_matmul_commutators(self, case):
        bath, hbar = case
        ops = dl.build_bath_operators(bath, hbar)
        h = np.diag(ops.H_res)
        bdot = (1j / hbar) * (h @ ops.B - ops.B @ h)
        bddot = (1j / hbar) * (h @ bdot - bdot @ h)
        for got, want in ((ops.Bdot, bdot), (ops.Bddot, bddot)):
            scale = np.abs(want).max()
            # 1e-12 relative; the floor of 4 spacings binds only at subnormal scales
            assert np.abs(got - want).max() <= max(1e-12 * scale, 4 * np.spacing(scale))

    def test_moments_pauli_algebra(self):
        gs = [0.3, 0.5, 0.7]
        comps = tuple(dl.BathComponent("spin-half", g) for g in gs)
        bath = dl.BathModel(comps, ("up", "down", "up"))
        ops = dl.build_bath_operators(bath)
        chi = ops.initial_state
        assert abs(chi.conj() @ ops.B @ chi) < 1e-12
        assert ops.moments.var_B == pytest.approx(sum(g * g for g in gs), rel=1e-14)

    def test_h_res_is_the_real_storage_basis_diagonal(self):
        bath = dl.BathModel((dl.BathComponent("spin-half", 0.3, 1.7),
                             dl.BathComponent("spin-half", 0.5, 0.4)), ("up", "down"))
        ops = dl.build_bath_operators(bath, hbar=2.0)
        assert ops.H_res.shape == (4,) and np.isrealobj(ops.H_res)
        # hbar (+-omega_1 +- omega_2) / 2 in the storage basis, up first
        np.testing.assert_allclose(ops.H_res, 2.0 * np.array([1.05, 0.65, -0.65, -1.05]),
                                   rtol=1e-15)

    def test_static_bath_has_zero_bdot(self):
        bath = dl.spin_bath(1, 1.0)
        ops = dl.build_bath_operators(bath)
        assert np.abs(ops.Bdot).max() == 0.0

    def test_correlation_matches_heisenberg_evolution(self):
        # closed-form sym/resp against dense 2x2 Heisenberg evolution
        omega, g, hbar = 1.7, 1.0, 1.0
        bath = dl.BathModel((dl.BathComponent("spin-half", g, omega),), ("up",))
        ops = dl.build_bath_operators(bath, hbar)
        chi = ops.initial_state
        for s in (0.0, 0.4, 1.1):
            u = expm_phase(np.diag(ops.H_res), s / hbar)
            b_t = u @ ops.B @ u.conj().T
            sym_dense = float(np.real(chi.conj() @ (b_t @ ops.B + ops.B @ b_t) @ chi))
            resp_dense = float(
                np.real(chi.conj() @ ((1j / hbar) * (b_t @ ops.B - ops.B @ b_t)) @ chi)
            )
            assert ops.corr.sym(s) == pytest.approx(sym_dense, abs=1e-12)
            assert ops.corr.sym(s) == pytest.approx(2.0 * math.cos(omega * s), abs=1e-12)
            assert ops.corr.resp(s) == pytest.approx(resp_dense, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_line_memory_kernel_matches_quadrature(self, data):
        # a bath_statistics correlation carries its lines, and memory_kernel_norm
        # integrates them in closed form; the same correlation without lines
        # goes to quad.  Frequencies include static lines (nu = 0) and small nu t.
        frequency = st.just(0.0) | st.floats(1e-9, 1e-6) | st.floats(0.1, 3.0)
        comps, labels = [], []
        for _ in range(data.draw(st.integers(1, 5))):
            g, omega = data.draw(st.floats(0.1, 1.0)), data.draw(frequency)
            if data.draw(st.booleans()):
                comps.append(dl.BathComponent("spin-half", g, omega))
                labels.append(data.draw(st.sampled_from(["up", "down"])))
            else:
                levels = data.draw(st.integers(2, 6))
                comps.append(dl.BathComponent("oscillator", g, omega, levels))
                labels.append(data.draw(st.integers(0, levels - 2)))
        hbar = data.draw(st.floats(0.5, 2.0))
        _, corr = dl.bath_statistics(dl.BathModel(tuple(comps), tuple(labels)), hbar)
        assert corr.lines
        by_quadrature = dataclasses.replace(corr, lines=None)
        dq = data.draw(st.floats(0.1, 1.5))
        for t in data.draw(st.lists(st.floats(1e-6, 5.0), min_size=1, max_size=4)):
            exact = dl.memory_kernel_norm(t, dq, hbar, corr)
            assert exact == pytest.approx(dl.memory_kernel_norm(t, dq, hbar, by_quadrature),
                                          rel=0, abs=1e-13)

    def test_derivative_moments_and_kappa_match_dense(self):
        bath = dl.spin_bath(3, 0.9, omegas=[0.5, 1.0, 1.5])
        ops = dl.build_bath_operators(bath)
        chi = ops.initial_state
        var_bdot = float(np.real(chi.conj() @ ops.Bdot @ ops.Bdot @ chi))
        assert ops.moments.var_Bdot == pytest.approx(var_bdot, rel=1e-12)
        comm = ops.B @ ops.Bdot - ops.Bdot @ ops.B
        kappa_dense = float(np.imag(chi.conj() @ comm @ chi))  # [B,Bdot] = i hbar kappa
        assert ops.moments.kappa == pytest.approx(kappa_dense, rel=1e-12)

    def test_oscillator_component_statistics(self):
        comp = dl.BathComponent("oscillator", 0.4, omega=0.8, levels=6)
        bath = dl.BathModel((comp,), (1,))
        ops = dl.build_bath_operators(bath)
        chi = ops.initial_state
        assert ops.moments.var_B == pytest.approx(0.4 ** 2 * 3.0, rel=1e-13)  # 2n+1
        assert ops.moments.var_B == pytest.approx(
            float(np.real(chi.conj() @ ops.B @ ops.B @ chi)), rel=1e-12
        )

    def test_dense_assembly_refused_above_limit(self):
        bath = dl.spin_bath(13, 1.0, dimension_cap=1 << 13)
        with pytest.raises(DimensionCapError):
            dl.build_bath_operators(bath)

    def test_bad_hbar_rejected(self):
        bath = dl.spin_bath(2, 1.0, omegas=0.5)
        for hbar in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                dl.bath_statistics(bath, hbar)
            with pytest.raises(ValidationError):
                dl.build_bath_operators(bath, hbar)

    @pytest.mark.parametrize("m", [14, 16, 60, 200])
    def test_eigen_decomposition_collapses_to_exact_binomial(self, m):
        # every eigenvalue 2g(k - m/2) appears once, at its exact value
        values, weights = dl.bath_eigen_decomposition(
            dl.spin_bath(m, 1.0, dimension_cap=1 << m)
        )
        g = math.sqrt(1.0 / m)
        k = np.arange(m + 1)
        assert values.size == m + 1
        np.testing.assert_allclose(values, 2.0 * g * (k - m / 2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            weights, [math.comb(m, i) / 2.0 ** m for i in k], rtol=0, atol=1e-12
        )

    def test_eigen_decomposition_is_binomial(self):
        m, var = 6, 0.9
        bath = dl.spin_bath(m, var)
        values, weights = dl.bath_eigen_decomposition(bath)
        g = math.sqrt(var / m)
        assert values.size == m + 1
        np.testing.assert_allclose(values, g * (2 * np.arange(m + 1) - m), atol=1e-12)
        np.testing.assert_allclose(
            weights, [math.comb(m, k) / 2 ** m for k in range(m + 1)], atol=1e-12
        )


def _distinct_spins(m):
    """m spin-halves with generic couplings: B has 2^m distinct eigenvalues."""
    gs = np.random.default_rng(5).uniform(0.5, 1.5, m) / math.sqrt(m)
    return dl.BathModel(tuple(dl.BathComponent("spin-half", float(g)) for g in gs), ("up",) * m)


class TestSizeLimits:
    """Each array that grows with the bath is refused before it is allocated.

    The sizes are chosen so that the refused array would hold millions of
    entries or more; a refusal is immediate.
    """

    def test_component_levels(self):
        with pytest.raises(DimensionCapError, match="component coupling operator"):
            dl.BathComponent("oscillator", 1.0, 1.0, levels=1 << 40)

    def test_initial_state(self):
        with pytest.raises(DimensionCapError, match=f"bath initial state would hold {1 << 200}"):
            dl.spin_bath(200, 1.0).initial_state()

    def test_static_spin_stack(self):
        # 16 eigenvalues of B x 601^2 entries per spin-300 eigenvector matrix
        bath = _distinct_spins(4)
        assert dl.bath_eigen_decomposition(bath)[0].size == 16
        branch = np.eye(601)[0]
        with pytest.raises(DimensionCapError, match="static spin eigenvector stack"):
            dl.evolve_norm(dl.SpinSystem(300.0, 0.7), bath, branch, branch, [0.1])

    def test_static_grid_columns(self):
        # 64 grid points x 2^16 eigenvalues of B
        grid = dl.PositionGrid(-4.0, 4.0, 64)
        b1, _ = dl.position_eigenstate(grid, 1.0)
        b2, _ = dl.position_eigenstate(grid, -1.0)
        with pytest.raises(DimensionCapError, match="static grid columns"):
            dl.evolve_norm(dl.GridParticle(grid, 1.0), _distinct_spins(16), b1, b2, [0.1])

    def test_frozen_stacks(self):
        # 8192 occupied pointers x 200 components x 2^2 levels
        grid = dl.PositionGrid(-4.0, 4.0, 8192)
        branch = np.ones(grid.n_points)
        with pytest.raises(DimensionCapError, match="pointer eigenvector stacks"):
            dl.evolve_norm(dl.GridParticle(grid, math.inf), dl.spin_bath(200, 1.0),
                           branch, branch, [0.1])

    def test_frozen_pointer_overlaps(self):
        # 4096 occupied pointers: 4096^2 overlaps per sampled time
        grid = dl.PositionGrid(-4.0, 4.0, 4096)
        branch = np.ones(grid.n_points)
        with pytest.raises(DimensionCapError, match=f"pointer overlaps would hold {1 << 24}"):
            dl.evolve_norm(dl.GridParticle(grid, math.inf), dl.spin_bath(2, 1.0),
                           branch, branch, [0.1])

    def test_dynamic_grid_state(self):
        # 64 grid points x 2^16 levels of distinct spins
        grid = dl.PositionGrid(-4.0, 4.0, 64)
        b1, _ = dl.position_eigenstate(grid, 1.0)
        bath = dl.spin_bath(16, 1.0, omegas=list(np.linspace(0.5, 1.5, 16)))
        with pytest.raises(DimensionCapError, match=f"dynamic grid state would hold {1 << 22}"):
            dl.evolve_norm(dl.GridParticle(grid, 1.0), bath, b1, b1, [0.1])

    @pytest.mark.parametrize("backend", ["krylov", "grid"])
    def test_chebyshev_order(self, backend):
        # one span of 1e15 would take about 2e15 Bessel coefficients
        bath = dl.spin_bath(2, 1.0, omegas=1.0)
        if backend == "krylov":
            sys_s = dl.SpinSystem(1.5, 1.0)
            a = dl.coherent_vector(dl.SpinCoherent(1.5, 1.0))
            b = dl.coherent_vector(dl.SpinCoherent(1.5, -1.0))
        else:
            grid = dl.PositionGrid(-4.0, 4.0, 16)
            sys_s = dl.GridParticle(grid, 1.0)
            (a, _), (b, _) = dl.position_eigenstate(grid, 1.0), dl.position_eigenstate(grid, -1.0)
        with pytest.raises(DimensionCapError, match="Chebyshev coefficients"):
            dl.evolve_norm(sys_s, bath, a, b, [1e15])

    def test_dicke_factor(self):
        # 5000 equal spins merge into one factor of 5001 levels
        bath = dl.spin_bath(5000, 1.0, omegas=1.0)
        a = dl.coherent_vector(dl.SpinCoherent(0.5, 1.0))
        with pytest.raises(DimensionCapError, match="Dicke factor"):
            dl.evolve_norm(dl.SpinSystem(0.5, 0.7), bath, a, a, [0.1])


class TestEvolveNorm:
    def test_initial_norm_is_one(self):
        bath = dl.spin_bath(4, 1.0)
        grid = dl.PositionGrid(-4, 4, 64)
        sys_p = dl.GridParticle(grid, mass=math.inf)
        b1, _ = dl.position_eigenstate(grid, 1.0)
        b2, _ = dl.position_eigenstate(grid, -1.0)
        curve = dl.evolve_norm(sys_p, bath, b1, b2, [0.0, 0.3])
        assert curve.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_frozen_particle_matches_static_bath_norm(self):
        # two independent code paths must agree to 1e-10
        bath = dl.spin_bath(6, 1.0)
        times = np.linspace(0.001, 1.2, 23)
        curve, d = frozen_position_curve(bath, 2.0, times)
        np.testing.assert_allclose(
            curve.values, dl.static_bath_norm(d, bath, times), atol=1e-10
        )

    def test_frozen_krylov_path_matches_closed_form(self):
        # nine components (bath dimension 512), the largest closed-form check
        bath = dl.spin_bath(9, 1.0)  # dim 512
        times = np.linspace(0.01, 0.9, 7)
        curve, d = frozen_position_curve(bath, 1.5, times)
        np.testing.assert_allclose(
            curve.values, dl.static_bath_norm(d, bath, times), atol=1e-9
        )

    def test_frozen_large_bath_matches_memory_law(self):
        # 2^200-dimensional bath: only the product over components can run
        # it, and at m = 200 the finite-bath curve sits on the Gaussian
        # (CLT) limit of the memory-kernel law
        m = 200
        bath = dl.spin_bath(
            m, 1.0, omegas=list(np.linspace(0.6, 1.8, m)), dimension_cap=1 << m
        )
        _, corr = dl.bath_statistics(bath)
        times = np.linspace(0.02, 2.4, 40)
        curve, d = frozen_position_curve(bath, 1.0, times)
        law = np.array([dl.memory_kernel_norm(t, d, 1.0, corr) for t in times])
        mask = curve.values >= 0.05
        assert mask.sum() > 10
        assert np.abs(curve.values - law)[mask].max() <= 1e-3

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_frozen_curve_matches_joint_propagator(self, data):
        # reference: dense joint bath and expm of q B + H_res per pointer
        comps, labels = [], []
        for _ in range(data.draw(st.integers(1, 4))):
            g = data.draw(st.floats(-1.5, 1.5))
            omega = data.draw(st.floats(0.0, 2.5))
            if data.draw(st.booleans()):
                comps.append(dl.BathComponent("spin-half", g, omega))
                labels.append(data.draw(st.sampled_from(["up", "down"])))
            else:
                levels = data.draw(st.integers(2, 4))
                comps.append(dl.BathComponent("oscillator", g, omega, levels))
                labels.append(data.draw(st.integers(0, levels - 2)))
        bath = dl.BathModel(tuple(comps), tuple(labels))
        hbar = data.draw(st.floats(0.5, 2.0))
        grid = dl.PositionGrid(-2.0, 2.0, 16)
        amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
        branches = []
        for _ in range(2):
            vec = np.zeros(16, dtype=complex)
            for idx in data.draw(st.sets(st.integers(0, 15), min_size=1, max_size=3)):
                vec[idx] = data.draw(amp.filter(lambda z: abs(z) > 0.1))
            branches.append(vec / np.linalg.norm(vec))
        times = sorted(data.draw(st.sets(st.floats(0.0, 3.0), min_size=1, max_size=3)))
        sys_p = dl.GridParticle(grid, mass=math.inf, hbar=hbar)
        curve = dl.evolve_norm(sys_p, bath, branches[0], branches[1], times)

        ops = dl.build_bath_operators(bath, hbar)
        occupied = np.flatnonzero(np.abs(branches[0]) + np.abs(branches[1]))
        expected = []
        for t in times:
            chis = np.array([
                scipy.linalg.expm(-1j * t * (q * ops.B + np.diag(ops.H_res)) / hbar)
                @ ops.initial_state
                for q in grid.points[occupied]
            ])
            a1, a2 = (b[occupied, None] * chis for b in branches)
            expected.append(np.sum(np.abs(a1 @ a2.conj().T) ** 2))
        np.testing.assert_allclose(curve.values, expected, rtol=0, atol=1e-12)

    def test_spin_static_matches_product_formula(self):
        # alpha = +-1 are Jx eigenstates: exact product of cosines at 2 hbar j
        j, bath = 5.0, dl.spin_bath(6, 1.0)
        sys_s = dl.SpinSystem(j=j, omega=0.0)
        a = dl.coherent_vector(dl.SpinCoherent(j, 1.0))
        b = dl.coherent_vector(dl.SpinCoherent(j, -1.0))
        times = np.linspace(0.0005, 0.12, 20)
        curve = dl.evolve_norm(sys_s, bath, a, b, times)
        np.testing.assert_allclose(
            curve.values, dl.static_bath_norm(2.0 * j, bath, times), atol=1e-10
        )

    def test_half_integer_spin_matches_product_formula(self):
        j, bath = 2.5, dl.spin_bath(5, 1.0)
        sys_s = dl.SpinSystem(j=j, omega=0.0)
        a = dl.coherent_vector(dl.SpinCoherent(j, 1.0))
        b = dl.coherent_vector(dl.SpinCoherent(j, -1.0))
        times = np.linspace(0.001, 0.25, 12)
        curve = dl.evolve_norm(sys_s, bath, a, b, times)
        np.testing.assert_allclose(
            curve.values, dl.static_bath_norm(2.0 * j, bath, times), atol=1e-10
        )

    def test_spin_sparse_agrees_with_static_path(self):
        j = 2.0
        a = dl.coherent_vector(dl.SpinCoherent(j, 1.0))
        b = dl.coherent_vector(dl.SpinCoherent(j, 0.3 + 0.2j))
        times = np.linspace(0.01, 0.4, 8)
        static = dl.evolve_norm(dl.SpinSystem(j, 0.7), dl.spin_bath(4, 1.0), a, b, times)
        # omega ~ 0 forces the Krylov back end while staying physically static
        dynamic = dl.evolve_norm(
            dl.SpinSystem(j, 0.7), dl.spin_bath(4, 1.0, omegas=[1e-30] * 4), a, b, times
        )
        np.testing.assert_allclose(static.values, dynamic.values, atol=1e-12)

    def test_spin_static_chunks_match_one_call_per_time(self, monkeypatch):
        # 2 branches x 6 eigenvalues x 7 levels = 84 entries per time, so a
        # budget of 400 holds 4 times and the 23 times cross 6 sampler chunks
        monkeypatch.setattr(oracle, "SAMPLE_BUDGET", 400)
        j, bath = 3.0, dl.spin_bath(5, 1.0)
        sys_s = dl.SpinSystem(j=j, omega=1.3)
        branches = [dl.coherent_vector(dl.SpinCoherent(j, alpha))
                    for alpha in (0.4 + 0.7j, -0.6 + 0.3j)]
        times = np.linspace(0.0, 2.0, 23)
        curve = dl.evolve_norm(sys_s, bath, *branches, times)
        single = [dl.evolve_norm(sys_s, bath, *branches, [t]).values[0] for t in times]
        np.testing.assert_allclose(curve.values, single, rtol=0, atol=1e-14)
        expected = joint_eigh_norms(sys_s, bath, branches, times)
        np.testing.assert_allclose(curve.values, expected, rtol=0, atol=1e-12)

    def test_grid_static_agrees_with_dense_path(self):
        grid = dl.PositionGrid(-8, 8, 64)
        sys_p = dl.GridParticle(grid, mass=1.0)
        b1 = dl.grid_packet_state(dl.GaussianPacket(0.0, 2.0, 0.5), grid)
        b2 = dl.grid_packet_state(dl.GaussianPacket(0.0, -2.0, 0.5), grid)
        times = np.linspace(0.05, 0.6, 6)
        static = dl.evolve_norm(sys_p, dl.spin_bath(3, 1.0), b1, b2, times, dt=1e-3)
        dense = dl.evolve_norm(
            sys_p, dl.spin_bath(3, 1.0, omegas=[1e-30] * 3), b1, b2, times, dt=1e-3
        )
        np.testing.assert_allclose(static.values, dense.values, atol=1e-11)

    def test_harmonic_potential_norm_invariant_without_coupling(self):
        # free system motion alone (zero coupling) cannot change the norm
        grid = dl.PositionGrid(-8, 8, 128)
        sys_p = dl.GridParticle(grid, mass=1.0, potential_omega=2.0)
        b1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.0, 0.3), grid)
        b2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, 0.0, 0.3), grid)
        bath = dl.BathModel((dl.BathComponent("spin-half", 0.0),), ("up",))
        times = np.linspace(0.2, 2.0, 5)
        curve = dl.evolve_norm(sys_p, bath, b1, b2, times, dt=1e-3)
        np.testing.assert_allclose(curve.values, 1.0, atol=1e-9)

    def test_harmonic_potential_paths_agree(self):
        grid = dl.PositionGrid(-8, 8, 64)
        sys_p = dl.GridParticle(grid, mass=1.0, potential_omega=1.5)
        b1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.0, 0.5), grid)
        b2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, 0.0, 0.5), grid)
        times = np.linspace(0.1, 0.8, 4)
        static = dl.evolve_norm(sys_p, dl.spin_bath(3, 1.0), b1, b2, times, dt=1e-3)
        dense = dl.evolve_norm(
            sys_p, dl.spin_bath(3, 1.0, omegas=[1e-30] * 3), b1, b2, times, dt=1e-3
        )
        np.testing.assert_allclose(static.values, dense.values, atol=1e-11)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_dense_path_matches_frozen_for_mixed_dynamic_bath(self, reverse):
        # A huge mass leaves only q B + H_res acting, which the frozen path
        # evolves exactly; an asymmetric mixed bath catches a wrong
        # Kronecker order in either component order.
        grid = dl.PositionGrid(-8, 8, 64)
        b1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.0, 0.5), grid)
        b2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, 0.0, 0.5), grid)
        parts = [
            (dl.BathComponent("oscillator", 0.4, 0.8, levels=5), 1),
            (dl.BathComponent("spin-half", 0.7, 1.3), "down"),
            (dl.BathComponent("oscillator", 0.3, 1.7, levels=4), 0),
        ]
        if reverse:
            parts.reverse()
        bath = dl.BathModel(*zip(*parts))
        times = np.linspace(0.0, 1.5, 10)
        dense = dl.evolve_norm(dl.GridParticle(grid, mass=1e12), bath, b1, b2, times, dt=0.05)
        frozen = dl.evolve_norm(dl.GridParticle(grid, mass=math.inf), bath, b1, b2, times)
        assert frozen.values[-1] < 0.9  # the bath has visibly decohered the pair
        np.testing.assert_allclose(dense.values, frozen.values, atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_dicke_factors_match_full_joint_evolution(self, data):
        # repeated (g, omega, label) spin groups, distinct spins and an
        # optional oscillator; reference: eigh of the full 2^m joint H
        # couplings and times are kept away from zero so every factor acts;
        # a system Omega = 0 runs the pointer back end, any other Krylov
        coupling = st.builds(math.copysign, st.floats(0.2, 1.0), st.sampled_from([1.0, -1.0]))
        comps, labels = [], []
        if data.draw(st.booleans()):
            levels = data.draw(st.integers(2, 3))
            comps.append(dl.BathComponent("oscillator", data.draw(coupling),
                                          data.draw(st.floats(0.1, 2.0)), levels))
            labels.append(data.draw(st.integers(0, levels - 2)))
        spins = 0
        max_spins = 6 if comps else 8
        while spins < max_spins and (spins == 0 or data.draw(st.booleans())):
            size = data.draw(st.integers(1, max_spins - spins))
            g = data.draw(coupling)
            omega = data.draw(st.floats(0.1, 2.0))
            label = data.draw(st.sampled_from(["up", "down"]))
            comps += [dl.BathComponent("spin-half", g, omega)] * size
            labels += [label] * size
            spins += size
        order = data.draw(st.permutations(range(len(comps))))
        bath = dl.BathModel(tuple(comps[i] for i in order), tuple(labels[i] for i in order))
        j = data.draw(st.sampled_from([0.5, 1.0]))
        hbar = data.draw(st.floats(0.5, 2.0))
        sys_s = dl.SpinSystem(j, data.draw(st.just(0.0) | st.floats(-1.5, 1.5)), hbar)
        dim_s = int(2 * j) + 1
        amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
        vectors = st.lists(amp, min_size=dim_s, max_size=dim_s).map(np.array).filter(
            lambda v: np.linalg.norm(v) > 0.1
        )
        branches = [vec / np.linalg.norm(vec) for vec in (data.draw(vectors), data.draw(vectors))]
        times = sorted(data.draw(st.sets(st.floats(0.1, 2.0), min_size=1, max_size=3)))
        # a first span below 1e-150 (the Chebyshev sum's R -> 0) and a last
        # one above 20 (R in the hundreds)
        if data.draw(st.booleans()):
            times.insert(0, data.draw(st.floats(1e-300, 1e-150)))
        if data.draw(st.booleans()):
            times.append(times[-1] + data.draw(st.floats(20.0, 40.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = dl.evolve_norm(sys_s, bath, branches[0], branches[1], times)
        expected = joint_eigh_norms(sys_s, bath, branches, times)
        np.testing.assert_allclose(curve.values, expected, rtol=0, atol=1e-12)

    def test_krylov_leaves_global_rng_alone_and_matches_joint_eigh(self):
        # spans of 20 put R ~ 1e3 in the Chebyshev sum; a complex alpha tells
        # forward from time-reversed propagation.  The curve draws nothing
        # from numpy's global random stream.
        bath = dl.spin_bath(4, 1.0, omegas=np.linspace(0.5, 1.5, 4))
        sys_s = dl.SpinSystem(15.0, 3.0)
        branches = [dl.coherent_vector(dl.SpinCoherent(15.0, alpha)) for alpha in (1.0, 0.3 + 0.5j)]
        times = [0.0, 20.0, 40.0]
        state = np.random.get_state()
        try:
            np.random.seed(0)
            curve = dl.evolve_norm(sys_s, bath, *branches, times)
            assert np.random.random() == np.random.RandomState(0).random_sample()
        finally:
            np.random.set_state(state)
        expected = joint_eigh_norms(sys_s, bath, branches, times)
        np.testing.assert_allclose(curve.values, expected, rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_pointer_path_matches_stepped_paths_near_zero_omega(self, data):
        # Omega = 0 conserves Jx and runs the pointer back end; Omega = 1e-30
        # is the same physics on the Krylov (dynamic bath) or the static
        # eigen path (static bath)
        static = data.draw(st.booleans())
        comps, labels = [], []
        for _ in range(data.draw(st.integers(1, 4))):
            g = math.copysign(data.draw(st.floats(0.2, 1.0)), data.draw(st.sampled_from([1, -1])))
            omega = 0.0 if static else data.draw(st.floats(0.1, 2.0))
            if data.draw(st.booleans()):
                comps.append(dl.BathComponent("spin-half", g, omega))
                labels.append(data.draw(st.sampled_from(["up", "down"])))
            else:
                levels = data.draw(st.integers(2, 3))
                comps.append(dl.BathComponent("oscillator", g, omega, levels))
                labels.append(data.draw(st.integers(0, levels - 2)))
        bath = dl.BathModel(tuple(comps), tuple(labels))
        assert bath.is_static() == static
        j = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
        hbar = data.draw(st.floats(0.5, 2.0))
        alpha = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
        a, b = (dl.coherent_vector(dl.SpinCoherent(j, data.draw(alpha))) for _ in range(2))
        times = sorted(data.draw(st.sets(st.floats(0.0, 2.0), min_size=1, max_size=4)))
        pointer = dl.evolve_norm(dl.SpinSystem(j, 0.0, hbar), bath, a, b, times)
        stepped = dl.evolve_norm(dl.SpinSystem(j, 1e-30, hbar), bath, a, b, times)
        np.testing.assert_allclose(pointer.values, stepped.values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("j, m", [(0.5, 12), (3.0, 12), (15.0, 20)])
    def test_zero_omega_spin_decoheres_as_a_frozen_particle(self, j, m):
        # universality: with H_sys = 0 only the pointer separation counts, so
        # |+-j>_x of a spin decohere exactly as a frozen particle at q = +-j hbar,
        # in acceptance 05's bath; both follow the memory-kernel law there
        bath = dl.spin_bath(m, 1.0, omegas=list(np.linspace(0.6, 1.8, m)))
        times = np.linspace(0.02, 2.4, 40) / (2.0 * j)
        a = dl.coherent_vector(dl.SpinCoherent(j, 1.0))
        b = dl.coherent_vector(dl.SpinCoherent(j, -1.0))
        spin = dl.evolve_norm(dl.SpinSystem(j, 0.0), bath, a, b, times)
        grid = dl.PositionGrid(-16.0, 16.0, 64)
        b1, q1 = dl.position_eigenstate(grid, j)
        b2, q2 = dl.position_eigenstate(grid, -j)
        assert (q1, q2) == (j, -j)
        frozen = dl.evolve_norm(dl.GridParticle(grid, mass=math.inf), bath, b1, b2, times)
        np.testing.assert_allclose(spin.values, frozen.values, rtol=0, atol=1e-12)
        _, corr = dl.bath_statistics(bath)
        law = np.array([dl.memory_kernel_norm(t, 2.0 * j, 1.0, corr) for t in times])
        mask = spin.values >= 0.05
        assert mask.sum() > 10
        assert np.abs(spin.values - law)[mask].max() <= 0.03

    def test_zero_omega_spin_runs_where_krylov_refuses(self):
        # 20 distinct spins leave no symmetry: the Krylov joint state would be
        # 31 x 2^20, while the pointer back end holds 31 pointers x 2 levels
        bath = dl.spin_bath(20, 1.0, omegas=list(np.linspace(0.6, 1.8, 20)))
        a = dl.coherent_vector(dl.SpinCoherent(15.0, 1.0))
        with pytest.raises(DimensionCapError, match="Krylov joint state"):
            dl.evolve_norm(dl.SpinSystem(15.0, 1e-30), bath, a, a, [0.1])
        assert dl.evolve_norm(dl.SpinSystem(15.0, 0.0), bath, a, a, [0.1]).values.size == 1

    @pytest.mark.parametrize("m", [4, 10])
    def test_dense_path_with_dicke_bath_matches_frozen(self, m):
        # 4 equal spins: one spin-2 factor of 5 levels on the dynamic grid
        # path; 10 of them (1024 levels as separate spins) run as one
        # spin-5 factor of 11 levels
        grid = dl.PositionGrid(-8, 8, 64)
        b1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.0, 0.5), grid)
        b2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, 0.0, 0.5), grid)
        bath = dl.spin_bath(m, 1.0, omegas=1.0)
        times = np.linspace(0.0, 1.5, 10)
        dense = dl.evolve_norm(dl.GridParticle(grid, mass=1e12), bath, b1, b2, times, dt=0.05)
        frozen = dl.evolve_norm(dl.GridParticle(grid, mass=math.inf), bath, b1, b2, times)
        assert frozen.values[-1] < 0.9
        np.testing.assert_allclose(dense.values, frozen.values, rtol=0, atol=1e-12)

    def test_krylov_runs_thirty_equal_spins(self):
        # 2^30 bath levels, 31 in the symmetric subspace
        j = 1.5
        a = dl.coherent_vector(dl.SpinCoherent(j, 1.0))
        b = dl.coherent_vector(dl.SpinCoherent(j, -1.0))
        times = np.linspace(0.01, 0.5, 10)
        sys_s = dl.SpinSystem(j, 0.7)
        static = dl.evolve_norm(sys_s, dl.spin_bath(30, 1.0, dimension_cap=1 << 30), a, b, times)
        dynamic = dl.evolve_norm(
            sys_s, dl.spin_bath(30, 1.0, omegas=1e-30, dimension_cap=1 << 30), a, b, times
        )
        assert static.values[-1] < 0.5
        np.testing.assert_allclose(dynamic.values, static.values, rtol=0, atol=1e-12)

    def test_two_hundred_spins_run_frozen_and_static_spin_paths(self):
        bath = dl.spin_bath(200, 1.0)
        times = np.linspace(0.0, 2.0, 12)
        grid = dl.PositionGrid(-4.0, 4.0, 16)
        b1, q1 = dl.position_eigenstate(grid, 0.5)
        b2, q2 = dl.position_eigenstate(grid, -0.5)
        frozen = dl.evolve_norm(dl.GridParticle(grid, mass=math.inf), bath, b1, b2, times)
        np.testing.assert_allclose(frozen.values, dl.static_bath_norm(q1 - q2, bath, times),
                                   rtol=0, atol=1e-12)
        a = dl.coherent_vector(dl.SpinCoherent(1.5, 1.0))
        b = dl.coherent_vector(dl.SpinCoherent(1.5, -1.0))
        sys_s = dl.SpinSystem(1.5, 0.7)
        static = dl.evolve_norm(sys_s, bath, a, b, times)
        dicke = dl.evolve_norm(sys_s, dl.spin_bath(200, 1.0, omegas=1e-30), a, b, times)
        assert static.values[-1] < 0.5
        np.testing.assert_allclose(static.values, dicke.values, rtol=0, atol=1e-12)

    def test_krylov_refuses_distinct_spins_above_joint_limit(self):
        # distinct frequencies leave no symmetry: the joint dimension is 3 x 2^20
        bath = dl.spin_bath(20, 1.0, omegas=list(np.linspace(0.5, 1.5, 20)),
                            dimension_cap=1 << 20)
        a = dl.coherent_vector(dl.SpinCoherent(1.0, 1.0))
        with pytest.raises(DimensionCapError):
            dl.evolve_norm(dl.SpinSystem(1.0, 0.7), bath, a, a, [0.1])

    # The grid back end was once a merged Strang split step refereed by an
    # unmerged one; it is now the Chebyshev expansion, and the referee is
    # eigh of the full joint H, with the FFT's kinetic energy written out as
    # a circulant matrix.  dt is still passed: it must move no value.

    @pytest.mark.parametrize("omegas", [0.0, 1.0], ids=["static", "dicke"])
    def test_merged_strang_matches_unmerged_reference(self, omegas):
        # spans 0.25, 0.5, 0.75 and 0.6 from t = 0; four equal spins form one
        # Dicke factor on the dynamic path
        grid = dl.PositionGrid(-8, 8, 64)
        sys_p = dl.GridParticle(grid, mass=1.0, potential_omega=1.5)
        b1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.5, 0.5), grid)
        b2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, -0.5, 0.5), grid)
        bath = dl.spin_bath(4, 1.0, omegas=omegas)
        times = [0.0, 0.25, 0.75, 1.5, 2.1]
        curve = dl.evolve_norm(sys_p, bath, b1, b2, times, dt=0.25)
        expected = grid_joint_eigh_norms(sys_p, bath, [b1, b2], times)
        assert expected[-1] < 0.9
        np.testing.assert_allclose(curve.values, expected, rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_merged_strang_matches_unmerged_reference_random(self, data):
        # static, Dicke, distinct-frequency and mixed oscillator baths on
        # 16-64 points, joint dimension <= 1024
        n = data.draw(st.sampled_from([16, 32, 64]))
        grid = dl.PositionGrid(-6, 6, n)
        hbar = data.draw(st.floats(0.5, 2.0))
        sys_p = dl.GridParticle(grid, data.draw(st.floats(0.5, 4.0)),
                                data.draw(st.none() | st.floats(0.2, 2.0)), hbar)
        kind = data.draw(st.sampled_from(["static", "dicke", "distinct", "mixed"]))
        max_dim = 1024 // n
        if kind == "mixed":
            levels = data.draw(st.integers(2, 3))
            comps = [dl.BathComponent("oscillator", data.draw(st.floats(0.2, 1.0)),
                                      data.draw(st.floats(0.1, 2.0)), levels)]
            labels = [data.draw(st.integers(0, levels - 2))]
            for _ in range(data.draw(st.integers(0, int(math.log2(max_dim // levels))))):
                comps.append(dl.BathComponent("spin-half", data.draw(st.floats(0.2, 1.0)),
                                              data.draw(st.sampled_from([0.0, 0.7, 1.3]))))
                labels.append(data.draw(st.sampled_from(["up", "down"])))
            bath = dl.BathModel(tuple(comps), tuple(labels))
        else:
            m = data.draw(st.integers(1, min(4, int(math.log2(max_dim)))))
            if kind == "distinct":
                omegas = data.draw(st.lists(st.sampled_from([0.0, 0.7, 1.3]),
                                            min_size=m, max_size=m))
            else:
                omegas = 0.0 if kind == "static" else data.draw(st.floats(0.1, 2.0))
            bath = dl.spin_bath(m, data.draw(st.floats(0.2, 2.0)), omegas=omegas)
        assert n * bath.dimension <= 1024
        q0 = data.draw(st.floats(0.3, 1.5))
        p0 = data.draw(st.floats(-1.0, 1.0))
        b1 = dl.grid_packet_state(dl.GaussianPacket(q0, p0, 0.6, hbar), grid)
        b2 = dl.grid_packet_state(dl.GaussianPacket(-q0, -p0, 0.6, hbar), grid)
        times = sorted(data.draw(st.sets(st.floats(0.01, 2.0), min_size=1, max_size=3)))
        dt = data.draw(st.none() | st.floats(0.02, 0.3))
        curve = dl.evolve_norm(sys_p, bath, b1, b2, times, dt=dt)
        expected = grid_joint_eigh_norms(sys_p, bath, [b1, b2], times)
        np.testing.assert_allclose(curve.values, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dt", [1.0, None])
    def test_harmonic_grid_is_exact_at_any_dt(self, dt):
        # one unit span of a harmonic grid particle in a static bath: exact
        # whatever dt says
        grid = dl.PositionGrid(-8, 8, 64)
        sys_p = dl.GridParticle(grid, mass=1.0, potential_omega=1.5)
        b1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.0, 0.5), grid)
        b2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, 0.0, 0.5), grid)
        bath = dl.spin_bath(3, 1.0)
        curve = dl.evolve_norm(sys_p, bath, b1, b2, [1.0], dt=dt)
        assert curve.values[0] == pytest.approx(0.286839142211318, rel=0, abs=1e-12)

    def test_grid_runs_nine_distinct_spins_as_frozen(self):
        # 64 points x 2^9 bath levels with no Dicke symmetry; a huge mass
        # leaves only q B + H_res acting, which the frozen path evolves exactly
        grid = dl.PositionGrid(-8, 8, 64)
        b1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.0, 0.5), grid)
        b2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, 0.0, 0.5), grid)
        bath = dl.spin_bath(9, 1.0, omegas=list(np.linspace(0.6, 1.8, 9)))
        times = np.linspace(0.0, 1.5, 10)
        grid_curve = dl.evolve_norm(dl.GridParticle(grid, mass=1e12), bath, b1, b2, times)
        frozen = dl.evolve_norm(dl.GridParticle(grid, mass=math.inf), bath, b1, b2, times)
        assert frozen.values[-1] < 0.9
        np.testing.assert_allclose(grid_curve.values, frozen.values, rtol=0, atol=1e-12)

    def test_spin_gaussian_decay_matches_law(self):
        # CLT-converged product of cosines vs the Gaussian law: fitted tau
        # within 3% once M >= 12 equal couplings
        j, m = 10.0, 12
        bath = dl.spin_bath(m, 1.0)
        sys_s = dl.SpinSystem(j=j, omega=0.0)
        a = dl.coherent_vector(dl.SpinCoherent(j, 1.0))
        b = dl.coherent_vector(dl.SpinCoherent(j, -1.0))
        tau_x = dl.spin_decoherence_times(j, 1.0, -1.0, 0.0, dl.BathMoments(1.0)).tau_x
        times = np.linspace(tau_x / 30, 2.0 * tau_x, 60)
        curve = dl.evolve_norm(sys_s, bath, a, b, times)
        mask = (curve.values > 0.1) & (curve.values < 0.9)
        tt, nn = curve.times[mask], curve.values[mask]
        tau_fit = (np.sum(tt ** 2 * -np.log(nn)) / np.sum(tt ** 4)) ** -0.5
        assert tau_fit == pytest.approx(tau_x, rel=0.03)

    def test_short_time_law_agreement_window(self):
        # for t <= 0.1 min(tau_sys, tau_res): |N_oracle - N_law| <= 0.03
        sigma, dq, m_bath = 0.1, 30.0, 10
        grid = dl.PositionGrid(-17.0, 17.0, 512)
        mass = 5.0
        sys_p = dl.GridParticle(grid, mass=mass)
        pk1 = dl.GaussianPacket(dq / 2, 0.0, sigma)
        pk2 = dl.GaussianPacket(-dq / 2, 0.0, sigma)
        b1 = dl.grid_packet_state(pk1, grid)
        b2 = dl.grid_packet_state(pk2, grid)
        bath = dl.spin_bath(m_bath, 1.0)
        tau_sys = 2 * mass * sigma  # packet spreading time; tau_res = inf
        times = np.linspace(0.002, 0.1 * tau_sys, 25)
        curve = dl.evolve_norm(sys_p, bath, b1, b2, times, dt=2e-4)
        law = dl.coherence_norm_short_time(
            times, dl.Superposition(pk1, pk2), dl.SystemParams(mass), dl.BathMoments(1.0)
        )
        mask = curve.values >= 0.05
        assert mask.any()
        assert np.abs(curve.values - law)[mask].max() <= 0.03

    def test_momentum_separation_quartic_exponent(self):
        curve, _ = momentum_separation_curve(30.0, n_times=40)
        fit = dl.fit_decay_exponent(curve, window=(0.1, 0.9))
        assert fit.exponent == pytest.approx(4.0, abs=0.3)

    def test_spin_quartic_channel_approaches_law_with_j(self):
        # at j = 15 the coupling-agent spread (an O(j) t^2 term beside the
        # O(j^2 Omega^2) t^4 channel) caps the fitted exponent near 3.5; the
        # quartic law is leading order in j and emerges as j grows
        fits = []
        for j, x in ((15.0, 0.05), (60.0, 0.04)):
            omega, var = 1.0, x * x
            bath = dl.spin_bath(14, var, dimension_cap=1 << 14)
            beta = dl.special_pair(1j, "ii")
            ty = dl.spin_decoherence_times(j, 1j, beta, omega, dl.BathMoments(var)).tau_y
            sys_s = dl.SpinSystem(j=j, omega=omega)
            av = dl.coherent_vector(dl.SpinCoherent(j, 1j))
            bv = dl.coherent_vector(dl.SpinCoherent(j, beta))
            ts = np.linspace(ty / 30, 1.6 * ty, 120)
            curve = dl.evolve_norm(sys_s, bath, av, bv, ts)
            fits.append(dl.fit_decay_exponent(curve, window=(0.1, 0.9)).exponent)
        assert fits[0] > 3.0
        assert fits[1] > fits[0]
        assert fits[1] == pytest.approx(4.0, abs=0.4)

    def test_memory_effects_slow_decay(self):
        # dynamic bath with tau_res ~ tau_dec decoheres slower than the
        # static Gaussian law predicts
        m = 12
        bath = dl.spin_bath(m, 1.0, omegas=list(np.linspace(0.6, 1.8, m)))
        times = np.linspace(0.02, 2.4, 30)
        curve, d = frozen_position_curve(bath, 1.0, times)
        static_law = np.exp(-(d ** 2) * times ** 2)
        assert np.all(curve.values >= static_law - 1e-12)
        assert (curve.values - static_law).max() > 0.05

    def test_fingerprint_reproducible_and_input_sensitive(self):
        bath = dl.spin_bath(4, 1.0)
        times = np.linspace(0.01, 0.5, 5)
        a, _ = frozen_position_curve(bath, 1.0, times)
        b, _ = frozen_position_curve(bath, 1.0, times)
        c, _ = frozen_position_curve(bath, 1.2, times)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_fingerprint_hashes_the_step_used(self):
        # every back end is exact in the step size: dt moves no value and no
        # fingerprint
        static, dynamic = dl.spin_bath(3, 1.0), dl.spin_bath(3, 1.0, omegas=[0.5, 1.0, 1.5])
        times = np.linspace(0.0, 0.2, 4)
        s1 = dl.coherent_vector(dl.SpinCoherent(1.0, 1.0))
        s2 = dl.coherent_vector(dl.SpinCoherent(1.0, -1.0))
        grid = dl.PositionGrid(-8.0, 8.0, 64)
        g1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.0, 0.5), grid)
        g2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, 0.0, 0.5), grid)
        cases = [
            (dl.SpinSystem(1.0, 0.0), static, s1, s2),  # pointer
            (dl.SpinSystem(1.0, 0.7), static, s1, s2),  # static spin
            (dl.SpinSystem(1.0, 0.7), dynamic, s1, s2),  # Krylov
            (dl.GridParticle(grid, mass=math.inf), dynamic, g1, g2),  # pointer
            (dl.GridParticle(grid, mass=1.0), static, g1, g2),  # static grid
            (dl.GridParticle(grid, mass=1.0), dynamic, g1, g2),  # dynamic grid
        ]
        for sys_p, bath, b1, b2 in cases:
            plain = dl.evolve_norm(sys_p, bath, b1, b2, times)
            for dt in (0.01, 1.0):
                stepped = dl.evolve_norm(sys_p, bath, b1, b2, times, dt=dt)
                np.testing.assert_array_equal(plain.values, stepped.values)
                assert plain.fingerprint == stepped.fingerprint


class TestChebyshevChunks:
    """The stepped back ends' one Chebyshev series per chunk of sample times,
    refereed by eigh of the full joint H."""

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_chunked_series_match_joint_eigh(self, data):
        # the Krylov spin, the static-bath grid or the dynamic-bath grid, at
        # irregular times with and without t = 0 and with a run of offsets in
        # [1e-300, 1e-150].  A drawn SAMPLE_BUDGET of at most 160 entries
        # holds at most 4 times of >= 40 coefficients, so 8 or more times
        # cross several chunks and the ring (budget // state entries, at
        # least 3 terms) wraps and flushes partial blocks
        backend = data.draw(st.sampled_from(["krylov", "grid-static", "grid-dynamic"]))
        hbar = data.draw(st.floats(0.5, 2.0))
        m = data.draw(st.integers(1, 3))
        omegas = data.draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m))
        if backend == "krylov":
            j = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
            sys_x = dl.SpinSystem(j, data.draw(st.floats(0.2, 1.5)), hbar)
            amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
            vectors = st.lists(amp, min_size=int(2 * j) + 1, max_size=int(2 * j) + 1).map(
                np.array).filter(lambda v: np.linalg.norm(v) > 0.1)
            branches = [data.draw(vectors), data.draw(vectors)]
            referee = joint_eigh_norms
        else:
            grid = dl.PositionGrid(-6, 6, data.draw(st.sampled_from([16, 32])))
            sys_x = dl.GridParticle(grid, data.draw(st.floats(1.0, 4.0)),
                                    data.draw(st.none() | st.floats(0.2, 2.0)), hbar)
            q0, p0 = data.draw(st.floats(0.3, 1.5)), data.draw(st.floats(-1.0, 1.0))
            branches = [dl.grid_packet_state(dl.GaussianPacket(s * q0, s * p0, 0.6, hbar), grid)
                        for s in (1, -1)]
            omegas = 0.0 if backend == "grid-static" else omegas
            referee = grid_joint_eigh_norms
        bath = dl.spin_bath(m, data.draw(st.floats(0.2, 2.0)), omegas=omegas)
        times = [0.0] if data.draw(st.booleans()) else []
        times += sorted(data.draw(st.sets(st.floats(1e-300, 1e-150), max_size=3)))
        spans = data.draw(st.lists(st.floats(0.005, 0.2) | st.floats(1.0, 3.0),
                                   min_size=8, max_size=30))
        times += list(np.cumsum(spans))
        budget = data.draw(st.none() | st.integers(1, 160))
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(oracle, "SAMPLE_BUDGET", budget)
            curve = dl.evolve_norm(sys_x, bath, branches[0], branches[1], times)
        expected = referee(sys_x, bath, branches, times)
        np.testing.assert_allclose(curve.values, expected, rtol=0, atol=1e-12)

    # hw = 3.95 for this spin and bath: a span of 15 gives R = 59, whose
    # series starts at 177 ratios, and t = 150 in one span would need 929
    ORDER_LIMIT = 200
    SPIN, BATH = dl.SpinSystem(1.0, 0.7), dl.spin_bath(3, 1.0, omegas=[0.5, 1.0, 1.5])
    BRANCHES = [dl.coherent_vector(dl.SpinCoherent(1.0, alpha)) for alpha in (1.0, -1.0 + 0.5j)]

    def test_curve_past_the_order_limit_runs_one_span_per_chunk(self, monkeypatch):
        monkeypatch.setattr(oracle, "CHEBYSHEV_ORDER_LIMIT", self.ORDER_LIMIT)
        times = np.linspace(0.0, 150.0, 11)
        curve = dl.evolve_norm(self.SPIN, self.BATH, *self.BRANCHES, times)
        expected = joint_eigh_norms(self.SPIN, self.BATH, self.BRANCHES, times)
        np.testing.assert_allclose(curve.values, expected, rtol=0, atol=1e-12)

    def test_one_span_past_the_order_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(oracle, "CHEBYSHEV_ORDER_LIMIT", self.ORDER_LIMIT)
        with pytest.raises(DimensionCapError, match="Chebyshev coefficients"):
            dl.evolve_norm(self.SPIN, self.BATH, *self.BRANCHES, [0.0, 150.0])


KRYLOV_MEMORY_PROBE = textwrap.dedent("""
    import numpy as np
    import decolab as dl

    bath = dl.spin_bath(382, 1.0, omegas=[0.5] * 127 + [0.9] * 255)
    a = dl.coherent_vector(dl.SpinCoherent(1.5, 1.0))
    b = dl.coherent_vector(dl.SpinCoherent(1.5, -1.0))
    dl.evolve_norm(dl.SpinSystem(1.5, 0.1), bath, a, b, np.linspace(0.0, 0.01, 40))
""")


class TestKrylovMemory:
    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_chunked_series_stay_within_the_per_span_driver(self):
        # two Dicke factors of 128 and 256 levels: a joint state of 4 x 2^15
        # per branch, 2^18 entries (4 MiB) for both, one time per chunk.
        # The per-span driver (a scaled copy of H, six states) peaked at
        # 123.8 MiB (numpy 2.4, scipy 1.17, x86-64 Linux); this driver's
        # ring of 3 reads 112 MiB, a 16-term ring 134 MiB and one
        # accumulator per time 424 MiB
        assert peak_memory_mib(KRYLOV_MEMORY_PROBE) <= 124


DICKE_MEMORY_PROBE = textwrap.dedent("""
    import numpy as np
    import decolab as dl

    bath = dl.spin_bath(1023, 1e-2, omegas=0.01)
    a = dl.coherent_vector(dl.SpinCoherent(0.5, 1.0))
    b = dl.coherent_vector(dl.SpinCoherent(0.5, -1.0))
    dl.evolve_norm(dl.SpinSystem(0.5, 1.0), bath, a, b, np.linspace(0.0, 1.0, 5))
""")


class TestDickeMemory:
    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_merged_factor_holds_only_its_real_coupling(self):
        # 1,023 equal spins merge into one spin 1023/2 of 1,024 levels.
        # Built from spin_matrices (three dense complex matrices and their
        # temporaries) the Krylov curve peaked at 129.5 MiB; its real 2g Jx
        # alone reads 62-63 MiB (numpy 2.4, scipy 1.17, x86-64 Linux)
        assert peak_memory_mib(DICKE_MEMORY_PROBE) <= 80


FROZEN_MEMORY_PROBE = textwrap.dedent("""
    import numpy as np
    import decolab as dl

    grid = dl.PositionGrid(-8.0, 8.0, 1024)
    b1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.0, 0.5), grid)
    b2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, 0.0, 0.5), grid)
    dl.evolve_norm(dl.GridParticle(grid, mass=float("inf")), dl.spin_bath(4, 1.0, omegas=1.0),
                   b1, b2, np.linspace(0.0, 2.0, 40))
""")


class TestFrozenMemory:
    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_wide_packets_on_fine_grid_stay_small(self):
        # the packets cover all Q = 1024 grid points, so one (times, Q, Q)
        # overlap array would hold 40 x 1024^2 complex entries (640 MiB)
        assert peak_memory_mib(FROZEN_MEMORY_PROBE) < 400


STATIC_NORM_MEMORY_PROBE = textwrap.dedent("""
    import numpy as np
    import decolab as dl

    dl.static_bath_norm(1.0, dl.spin_bath(5000, 1.0), np.linspace(0.0, 2.0, 2000))
""")


class TestStaticBathNormMemory:
    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_many_components_stay_small(self):
        # one (times, components) array would hold 2000 x 5000 floats (76 MiB)
        assert peak_memory_mib(STATIC_NORM_MEMORY_PROBE) < 80


class TestSandwichNorm:
    @pytest.mark.parametrize("tall", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(short=st.integers(1, 5), extra=st.integers(1, 6),
           batch=st.lists(st.integers(1, 3), max_size=2), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_explicit_frobenius_norm(self, tall, short, extra, batch, seed):
        rows, cols = (short + extra, short) if tall else (short, short + extra)
        rng = np.random.default_rng(seed)
        shape = (2, *batch, rows, cols)
        a, b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho = np.einsum("...ik,...jk->...ij", a, b.conj())
        expected = np.sum(rho.real ** 2 + rho.imag ** 2, axis=(-2, -1))
        got = oracle._sandwich_norm(a, b)
        assert np.shape(got) == tuple(batch)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestRequireFinite:
    def test_non_numeric_value_is_a_validation_error(self):
        for value in ("a", "1.0", [1.0, "b"], object(), {"x": 1.0}):
            with pytest.raises(ValidationError, match="numeric"):
                require_finite(x=value)

    def test_finite_numbers_and_none_pass(self):
        require_finite(x=1.0, y=np.arange(3.0), z=None, w=2 + 1j)


class TestEvolveNormValidation:
    def _frozen(self):
        grid = dl.PositionGrid(-4, 4, 64)
        b1, _ = dl.position_eigenstate(grid, 1.0)
        b2, _ = dl.position_eigenstate(grid, -1.0)
        return dl.GridParticle(grid, mass=math.inf), b1, b2

    def test_non_finite_times_rejected(self):
        sys_p, b1, b2 = self._frozen()
        for times in ([0.0, math.nan], [0.0, math.inf]):
            with pytest.raises(ValidationError):
                dl.evolve_norm(sys_p, dl.spin_bath(4, 1.0), b1, b2, times)

    def test_bad_step_size_rejected(self):
        grid = dl.PositionGrid(-8, 8, 64)
        sys_p = dl.GridParticle(grid, mass=1.0)
        b1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.0, 0.5), grid)
        b2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, 0.0, 0.5), grid)
        for dt in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                dl.evolve_norm(sys_p, dl.spin_bath(3, 1.0), b1, b2, [0.5], dt=dt)

    def test_non_finite_branch_rejected(self):
        sys_p, b1, b2 = self._frozen()
        for bad in (math.nan, math.inf):
            vec = b1.copy()
            vec[3] = bad
            with pytest.raises(ValidationError):
                dl.evolve_norm(sys_p, dl.spin_bath(4, 1.0), vec, b2, [0.1])
            with pytest.raises(ValidationError):
                dl.evolve_norm(sys_p, dl.spin_bath(4, 1.0), b1, vec, [0.1])

    def test_position_eigenstate_rejects_non_finite_q(self):
        grid = dl.PositionGrid(-1, 1, 16)
        for q in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                dl.position_eigenstate(grid, q)

    def test_spin_system_rejects_non_finite_j(self):
        with pytest.raises(ValidationError):
            dl.SpinSystem(math.nan, 1.0)

    def test_spin_system_rejects_non_finite_omega(self):
        for omega in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                dl.SpinSystem(1.0, omega)

    @pytest.mark.parametrize("mass", ["a", None, 1j, -math.inf, math.nan])
    def test_grid_particle_rejects_malformed_mass(self, mass):
        with pytest.raises(ValidationError):
            dl.GridParticle(dl.PositionGrid(-8, 8, 64), mass=mass)

    def test_non_numeric_times_rejected(self):
        sys_p, b1, b2 = self._frozen()
        for times in ("a", [0.0, "b"], [0.0, 1j], [[0.0], [0.5, 1.0]]):
            with pytest.raises(ValidationError):
                dl.evolve_norm(sys_p, dl.spin_bath(4, 1.0), b1, b2, times)

    def test_non_real_step_size_rejected(self):
        sys_p, b1, b2 = self._frozen()
        for dt in (1j, "0.1"):
            with pytest.raises(ValidationError):
                dl.evolve_norm(sys_p, dl.spin_bath(4, 1.0), b1, b2, [0.5], dt=dt)

    def test_grid_particle_rejects_non_finite_potential(self):
        grid = dl.PositionGrid(-8, 8, 64)
        for omega in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                dl.GridParticle(grid, mass=1.0, potential_omega=omega)


class TestStaticBathNorm:
    def test_unity_at_zero(self):
        assert dl.static_bath_norm(1.0, dl.spin_bath(4, 1.0), 0.0) == 1.0

    def test_single_component_zero(self):
        bath = dl.BathModel((dl.BathComponent("spin-half", 1.0),), ("up",))
        assert dl.static_bath_norm(1.0, bath, math.pi / 2) == pytest.approx(0.0, abs=1e-30)

    def test_oscillator_components_rejected(self):
        bath = dl.BathModel((dl.BathComponent("oscillator", 1.0, levels=3),), (0,))
        with pytest.raises(ValidationError):
            dl.static_bath_norm(1.0, bath, 0.5)

    def test_non_finite_arguments_rejected(self):
        bath = dl.spin_bath(4, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                dl.static_bath_norm(bad, bath, 0.5)
            with pytest.raises(ValidationError):
                dl.static_bath_norm(1.0, bath, [0.1, bad])

    def test_bad_hbar_rejected(self):
        for hbar in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                dl.static_bath_norm(1.0, dl.spin_bath(4, 1.0), 0.5, hbar=hbar)

    def test_clt_agreement_with_gaussian(self):
        bath = dl.spin_bath(16, 1.0, dimension_cap=1 << 16)
        ts = np.linspace(0.0, 1.0, 200)
        oracle = dl.static_bath_norm(2.0, bath, ts)
        gauss = np.exp(-4.0 * ts ** 2)
        assert np.abs(oracle - gauss)[oracle >= 0.1].max() <= 0.02


class TestBathCharacteristic:
    def test_at_zero(self):
        assert dl.bath_characteristic(dl.spin_bath(4, 1.0), 0.0) == 1.0

    def test_product_of_cosines(self):
        gs = [0.2, 0.5]
        comps = tuple(dl.BathComponent("spin-half", g) for g in gs)
        bath = dl.BathModel(comps, ("up", "up"))
        lam = 0.7
        expected = math.cos(lam * 0.2) * math.cos(lam * 0.5)
        assert dl.bath_characteristic(bath, lam) == pytest.approx(expected, rel=1e-13)

    def test_oscillator_ground_state_gaussian(self):
        # <0| e^{i lam g (a + a+)} |0> = exp(-lam^2 g^2 / 2), truncation-exact
        # once enough levels are kept
        comp = dl.BathComponent("oscillator", 0.4, levels=40)
        bath = dl.BathModel((comp,), (0,))
        for lam in (0.3, 1.0, 2.5):
            assert dl.bath_characteristic(bath, lam) == pytest.approx(
                math.exp(-(lam * 0.4) ** 2 / 2), abs=1e-10
            )

    def test_non_finite_lam_rejected(self):
        for lam in (math.nan, [0.0, math.inf]):
            with pytest.raises(ValidationError):
                dl.bath_characteristic(dl.spin_bath(4, 1.0), lam)

    def test_clt_monotone_convergence(self):
        lam = np.linspace(-3.0, 3.0, 301)
        gauss = np.exp(-(lam ** 2) / 2)
        dists = []
        for m in (4, 8, 16, 32):
            bath = dl.spin_bath(m, 1.0, dimension_cap=1 << m)
            dists.append(np.abs(dl.bath_characteristic(bath, lam) - gauss).max())
        assert all(np.diff(dists) < 0)


class TestFitDecayExponent:
    def test_recovers_quartic_model(self):
        ts = np.linspace(0.3, 4.0, 120)
        curve = dl.NormCurve(ts, np.exp(-((ts / 2.0) ** 4)), "synthetic")
        fit = dl.fit_decay_exponent(curve)
        assert fit.exponent == pytest.approx(4.0, abs=0.01)
        assert fit.tau == pytest.approx(2.0, abs=0.01)

    def test_sixth_power_lorentzian_local_slope(self):
        # (1 + (t/tau)^6)^(-1/2) is not in the fitted model class; the local
        # slope near N ~ 0.5 lands between 2 and 6 (documented mismatch)
        tau = 1.3
        ts = np.linspace(0.4, 2.2, 200) * tau
        curve = dl.NormCurve(ts, (1 + (ts / tau) ** 6) ** -0.5, "synthetic")
        fit = dl.fit_decay_exponent(curve, window=(0.3, 0.7))
        assert 2.0 < fit.exponent < 6.0

    def test_constant_curve_rejected(self):
        ts = np.linspace(0.1, 1.0, 30)
        curve = dl.NormCurve(ts, np.full(30, 0.5), "synthetic")
        with pytest.raises(FitWindowError):
            dl.fit_decay_exponent(curve)

    def test_non_monotone_window_rejected(self):
        ts = np.linspace(0.1, 1.0, 30)
        vals = 0.5 + 0.3 * np.sin(8 * ts)
        with pytest.raises(FitWindowError):
            dl.fit_decay_exponent(dl.NormCurve(ts, np.clip(vals, 0, 1), "synthetic"))

    def test_bad_window_rejected(self):
        # bad input, not a numerical failure: ValidationError, never FitWindowError
        ts = np.linspace(0.3, 4.0, 120)
        curve = dl.NormCurve(ts, np.exp(-((ts / 2.0) ** 4)), "synthetic")
        for window in ((0.9, 0.1), (0.5, 0.5), (-0.1, 0.9), (0.1, 1.5),
                       (math.nan, 0.9), (0.1, math.inf)):
            with pytest.raises(ValidationError):
                dl.fit_decay_exponent(curve, window=window)

    def test_non_numeric_window_rejected(self):
        ts = np.linspace(0.3, 4.0, 120)
        curve = dl.NormCurve(ts, np.exp(-((ts / 2.0) ** 4)), "synthetic")
        for window in (("a", 1.0), (0.1, None), (0.1j, 0.9)):
            with pytest.raises(ValidationError):
                dl.fit_decay_exponent(curve, window=window)


class TestNormCurve:
    def test_validation(self):
        with pytest.raises(ValidationError):
            dl.NormCurve(np.array([0.0, 0.0]), np.array([1.0, 1.0]), "x")
        with pytest.raises(ValidationError):
            dl.NormCurve(np.array([0.0, 1.0]), np.array([1.0, 1.5]), "x")

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValidationError):
            dl.NormCurve(np.array([0.0, 1.0]), np.array([1.0, math.nan]), "x")
