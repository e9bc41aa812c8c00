import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import decolab as dl
from decolab._linalg import expm_phase
from decolab.errors import DimensionCapError, FitWindowError, ValidationError
from helpers import frozen_position_curve, momentum_separation_curve


class TestBathModel:
    def test_dimension_cap_default(self):
        with pytest.raises(DimensionCapError):
            dl.spin_bath(13, 1.0)  # 8192 > 4096
        bath = dl.spin_bath(13, 1.0, dimension_cap=1 << 13)
        assert bath.dimension == 8192

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

    def test_oscillator_initial_leaves_truncation_headroom(self):
        comp = dl.BathComponent("oscillator", 0.5, omega=1.0, levels=4)
        with pytest.raises(ValidationError):
            dl.BathModel((comp,), (3,))  # top level: <B^2> would be truncated
        model = dl.BathModel((comp,), (2,))
        assert model.dimension == 4


class TestBathOperators:
    def test_moments_pauli_algebra(self):
        gs = [0.3, 0.5, 0.7]
        comps = tuple(dl.BathComponent("spin-half", g) for g in gs)
        bath = dl.BathModel(comps, ("up", "down", "up"))
        ops = dl.build_bath_operators(bath)
        chi = ops.initial_state
        assert abs(chi.conj() @ ops.B @ chi) < 1e-12
        assert ops.moments.var_B == pytest.approx(sum(g * g for g in gs), rel=1e-14)

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
            u = expm_phase(ops.H_res, s / hbar)
            b_t = u @ ops.B @ u.conj().T
            sym_dense = float(np.real(chi.conj() @ (b_t @ ops.B + ops.B @ b_t) @ chi))
            resp_dense = float(
                np.real(chi.conj() @ ((1j / hbar) * (b_t @ ops.B - ops.B @ b_t)) @ chi)
            )
            assert ops.corr.sym(s) == pytest.approx(sym_dense, abs=1e-12)
            assert ops.corr.sym(s) == pytest.approx(2.0 * math.cos(omega * s), abs=1e-12)
            assert ops.corr.resp(s) == pytest.approx(resp_dense, abs=1e-12)

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
                scipy.linalg.expm(-1j * t * (q * ops.B + ops.H_res) / hbar)
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

    def test_split_step_converges_in_dt(self):
        curve_a, tau = momentum_separation_curve(24.0, n_times=5, dt=4e-4)
        curve_b, _ = momentum_separation_curve(24.0, n_times=5, dt=2e-4)
        assert np.abs(curve_a.values - curve_b.values).max() < 1e-6

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


FROZEN_MEMORY_PROBE = textwrap.dedent("""
    import numpy as np
    import decolab as dl

    grid = dl.PositionGrid(-8.0, 8.0, 1024)
    b1 = dl.grid_packet_state(dl.GaussianPacket(1.0, 0.0, 0.5), grid)
    b2 = dl.grid_packet_state(dl.GaussianPacket(-1.0, 0.0, 0.5), grid)
    dl.evolve_norm(dl.GridParticle(grid, mass=float("inf")), dl.spin_bath(4, 1.0, omegas=1.0),
                   b1, b2, np.linspace(0.0, 2.0, 40))
    # VmHWM is this address space's own peak; ru_maxrss would also count
    # the memory of the forking test process
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))  # KiB
""")


class TestFrozenMemory:
    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_wide_packets_on_fine_grid_stay_small(self):
        # the packets cover all Q = 1024 grid points, so one (times, Q, Q)
        # overlap array would hold 40 x 1024^2 complex entries (640 MiB)
        src = os.path.dirname(os.path.dirname(dl.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", FROZEN_MEMORY_PROBE],
                              capture_output=True, text=True, env=env, check=True)
        assert int(proc.stdout.split()[-1]) / 1024 < 400


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


class TestNormCurve:
    def test_validation(self):
        with pytest.raises(ValidationError):
            dl.NormCurve(np.array([0.0, 0.0]), np.array([1.0, 1.0]), "x")
        with pytest.raises(ValidationError):
            dl.NormCurve(np.array([0.0, 1.0]), np.array([1.0, 1.5]), "x")

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValidationError):
            dl.NormCurve(np.array([0.0, 1.0]), np.array([1.0, math.nan]), "x")
