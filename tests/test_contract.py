"""The input contract of decolab.errors, checked at the public entry points.

Each row of PROBES is a call that, before the shared validators, returned a
wrong value or raised an exception outside the decolab hierarchy; each row
of RANGE_PROBES leaves the float64 range and must raise NumericalError.  The
hypothesis properties check that the closed-form norms either return values
in [0, 1] or raise a DecolabError for any finite real input, that the
golden-rule time is > 0 (inf included) or raises one, that the
density-block kernel never grows a block's Frobenius norm, and that the
coherence norm of a finite block is finite and >= 0 or raises
NumericalError.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import decolab as dl
from decolab.errors import DecolabError, NumericalError, ValidationError

PACKET = dl.GaussianPacket(1.0, 0.0, 0.01)
SUP = dl.Superposition(PACKET, dl.GaussianPacket(-1.0, 0.0, 0.01))
SYS = dl.SystemParams(mass=1.0)
BATH = dl.BathMoments(1.0)
MC_BATH = dl.BathMoments(1.0, var_Bdot=1.0)
H = dl.ExpandedHamiltonian(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]),
                           np.zeros((2, 2)))
MATS = (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)))
GRID = dl.PositionGrid(-4.0, 4.0, 64)
WIDE = dl.GaussianPacket(0.0, 0.0, 1.0)
BLOCK = dl.density_block(WIDE, WIDE, dl.PositionGrid(-16.0, 16.0, 256))
CURVE = dl.NormCurve(np.linspace(0.1, 1.0, 10), np.linspace(0.9, 0.1, 10), "synthetic")

PROBES = {
    # silently wrong results
    "two_reservoir_norm-negative-var_bq": lambda: dl.two_reservoir_norm(1, 1, 0, -1, 1, 1),
    "two_reservoir_norm-negative-var_bp": lambda: dl.two_reservoir_norm(1, 0, 1, 1, -1, 1),
    "two_reservoir_norm-zero-hbar": lambda: dl.two_reservoir_norm(1, 1, 0, 1, 1, 0),
    "static_bath_norm-complex-d": lambda: dl.static_bath_norm(1j, dl.spin_bath(2, 1.0), 1.0),
    "time_ordered_propagator-negative-t": lambda: dl.time_ordered_propagator(H.at, -1.0, 4),
    "time_ordered_propagator-complex-t": lambda: dl.time_ordered_propagator(H.at, 1j, 4),
    "verify_holomorphic_identities-nan-alpha":
        lambda: dl.verify_holomorphic_identities(1.0, math.nan),
    "unnormalized_ket-nan-alpha": lambda: dl.unnormalized_ket(1.0, math.nan),
    "SpinCoherent-inf-hbar": lambda: dl.SpinCoherent(1.0, 0.5, hbar=math.inf),
    "spin_matrices-nan-hbar": lambda: dl.spin_matrices(1.0, hbar=math.nan),
    "ExpandedHamiltonian-zero-hbar": lambda: dl.ExpandedHamiltonian(*MATS, hbar=0.0),
    "ExpandedHamiltonian-nan-hbar": lambda: dl.ExpandedHamiltonian(*MATS, hbar=math.nan),
    "GaussianPacket-complex-q0": lambda: dl.GaussianPacket(1j, 0.0, 0.01),
    "PositionGrid-overflowing-span": lambda: dl.PositionGrid(-1e308, 1e308, 16),
    "PositionGrid-zero-spacing": lambda: dl.PositionGrid(0.0, 5e-324, 16),
    "SpinSystem-complex-omega": lambda: dl.SpinSystem(1.0, 1j),
    "GridParticle-complex-potential_omega":
        lambda: dl.GridParticle(GRID, 1.0, potential_omega=1j),
    "position_eigenstate-complex-q": lambda: dl.position_eigenstate(GRID, 1j),
    "particle_generators-negative-mass":
        lambda: dl.particle_generators(MATS[0], MATS[1], MATS[0], MATS[1], mass=-1.0),
    "spin_coherence_norm-montecarlo-complex-omega":
        lambda: dl.spin_coherence_norm(0.5, 1.0, 1.0, -1.0, 1j, MC_BATH, mode="montecarlo",
                                       samples=10_000),
    # exceptions outside the decolab hierarchy
    "two_reservoir_norm-complex-t": lambda: dl.two_reservoir_norm(1j, 1, 0, 1, 1, 1),
    "coherence_norm_short_time-complex-t":
        lambda: dl.coherence_norm_short_time(1j, SUP, SYS, BATH),
    "BathMoments-complex-var_B": lambda: dl.BathMoments(1j),
    "spin_decoherence_times-complex-omega":
        lambda: dl.spin_decoherence_times(10.0, 1.0, -1.0, 1j, BATH),
    "golden_rule_times-complex-dq":
        lambda: dl.golden_rule_times(dl.exponential_correlation(1.0, 1.0), SYS, 1j),
    "magnus_exponent-complex-t": lambda: dl.magnus_exponent(H, 1j),
    "expansion_error-complex-t": lambda: dl.expansion_error(H, H.at, 1j),
    # the fourth-order reference validates its own stack of Gauss-point generators
    "expansion_error-non-hermitian-h_of_t":
        lambda: dl.expansion_error(H, lambda s: np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0),
    "expansion_error-nan-h_of_t":
        lambda: dl.expansion_error(H, lambda s: np.full((2, 2), math.nan), 1.0),
    "expansion_error-h_of_t-wrong-dimension":
        lambda: dl.expansion_error(H, lambda s: np.eye(3), 1.0),
    # one step on [0, 1] samples s = 0.21 and s = 0.79
    "expansion_error-h_of_t-shape-changes":
        lambda: dl.expansion_error(H, lambda s: H.at(s) if s < 0.5 else np.eye(3), 1.0),
    "spin_coherence_norm-complex-t":
        lambda: dl.spin_coherence_norm(1j, 1.0, 1.0, -1.0, 1.0, BATH),
    "spin_coherence_norm-complex-omega":
        lambda: dl.spin_coherence_norm(0.5, 1.0, 1.0, -1.0, 1j, BATH),
    "spin_matrices-complex-j": lambda: dl.spin_matrices(1j),
    "SpinCoherent-complex-j": lambda: dl.SpinCoherent(1j, 0.5),
    "SpinCoherent-complex-hbar": lambda: dl.SpinCoherent(1.0, 0.5, 1j),
    "SpinCoherent-None-alpha": lambda: dl.SpinCoherent(1.0, None),
    "verify_holomorphic_identities-complex-step":
        lambda: dl.verify_holomorphic_identities(1.0, 0.5, step=1j),
    "exponential_correlation-complex-var_b": lambda: dl.exponential_correlation(1j, 1.0),
    "bath_characteristic-complex-lam":
        lambda: dl.bath_characteristic(dl.spin_bath(2, 1.0), 1j),
    "special_pair-None-alpha": lambda: dl.special_pair(None, "i"),
    "position_amplitude-complex-q": lambda: dl.position_amplitude(PACKET, 1j),
    "evolve_density_short_time-complex-t":
        lambda: dl.evolve_density_short_time(BLOCK, 1j, SYS, BATH),
    # one NaN entry spread to 30 and coherence_norm returned nan
    "DensityBlock-nan-entry":
        lambda: dl.DensityBlock(GRID, np.where(np.eye(64) > 0, math.nan, 0.0)),
    "DensityBlock-nested-list": lambda: dl.DensityBlock(GRID, [[0.0, "a"]] * 64),
    "time_ordered_propagator-zero-hbar":
        lambda: dl.time_ordered_propagator(H.at, 1.0, 4, hbar=0.0),
    "memory_kernel_norm-zero-hbar":
        lambda: dl.memory_kernel_norm(1.0, 1.0, 0.0, dl.constant_correlation(1.0)),
    # a non-integer step count used to integrate to the wrong time
    "time_ordered_propagator-fractional-n_steps":
        lambda: dl.time_ordered_propagator(H.at, 1.0, 2.5),
    "time_ordered_propagator-bool-n_steps":
        lambda: dl.time_ordered_propagator(H.at, 1.0, True),
    "fit_decay_exponent-scalar-window": lambda: dl.fit_decay_exponent(CURVE, window=5),
    "fit_decay_exponent-three-entry-window":
        lambda: dl.fit_decay_exponent(CURVE, window=(0.1, 0.5, 0.9)),
    "spin_generators-text-omega": lambda: dl.spin_generators(*MATS[:2], *MATS, omega="x"),
    # these two were reported as a fault of h1, not of omega
    "spin_generators-nan-omega": lambda: dl.spin_generators(*MATS[:2], *MATS, omega=math.nan),
    "spin_generators-complex-omega": lambda: dl.spin_generators(*MATS[:2], *MATS, omega=1j),
    # an argument of the wrong type used to raise AttributeError
    "Superposition-text-packet2": lambda: dl.Superposition(PACKET, "x"),
    "density_block-text-packet_j": lambda: dl.density_block(PACKET, "x", GRID),
    "density_block-text-grid": lambda: dl.density_block(PACKET, PACKET, "g"),
    "DensityBlock-text-grid": lambda: dl.DensityBlock("g", BLOCK.values),
    "coherence_norm-text-block_b": lambda: dl.coherence_norm(BLOCK, "x"),
    "evolve_density_short_time-text-block":
        lambda: dl.evolve_density_short_time("x", 0.1, SYS, BATH),
    "evolve_density_short_time-text-sys":
        lambda: dl.evolve_density_short_time(BLOCK, 0.1, "sys", BATH),
    "evolve_density_short_time-text-bath":
        lambda: dl.evolve_density_short_time(BLOCK, 0.1, SYS, "bath"),
    "coherence_norm_short_time-text-sup":
        lambda: dl.coherence_norm_short_time(0.1, "sup", SYS, BATH),
    "evolve_norm-text-bath":
        lambda: dl.evolve_norm(dl.SpinSystem(1.0, 0.0), "bath", [1.0, 0.0, 0.0],
                               [0.0, 0.0, 1.0], [0.0, 0.1]),
    "fit_decay_exponent-text-curve": lambda: dl.fit_decay_exponent("curve"),
    "bath_statistics-text-bath": lambda: dl.bath_statistics("bath"),
    "bath_eigen_decomposition-text-bath": lambda: dl.bath_eigen_decomposition("bath"),
    "bath_characteristic-text-bath": lambda: dl.bath_characteristic("bath", 0.1),
    "static_bath_norm-text-bath": lambda: dl.static_bath_norm(1.0, "bath", 0.1),
    "build_bath_operators-text-bath": lambda: dl.build_bath_operators("bath"),
    "grid_packet_state-text-grid": lambda: dl.grid_packet_state(PACKET, "g"),
    "position_eigenstate-text-grid": lambda: dl.position_eigenstate("g", 0.0),
    "decoherence_times-text-sys": lambda: dl.decoherence_times(1.0, 0.0, "sys", BATH),
    "decoherence_times-text-bath": lambda: dl.decoherence_times(1.0, 0.0, SYS, "bath"),
    "spin_decoherence_times-text-bath":
        lambda: dl.spin_decoherence_times(10.0, 1.0, -1.0, 1.0, "bath"),
    "coherent_vector-text-state": lambda: dl.coherent_vector("state"),
    "coherent_means-text-state": lambda: dl.coherent_means("state"),
    "magnus_exponent-text-h": lambda: dl.magnus_exponent("h", 0.1),
    "short_time_propagator-text-h": lambda: dl.short_time_propagator("h", 0.1),
    # at t = 0 the distance used to be 0.0 for any h
    "expansion_error-text-h": lambda: dl.expansion_error("h", H.at, 0.0),
}


@pytest.mark.parametrize("call", PROBES.values(), ids=PROBES.keys())
def test_probe_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


# Closed-form decay times whose arithmetic leaves the float64 range at
# finite input; each used to raise a Python ArithmeticError or, for a time
# that underflows to 0, a ValidationError.
RANGE_PROBES = {
    "decoherence_times-overflowing-hbar":
        lambda: dl.decoherence_times(2.0, 1.0, dl.SystemParams(1.0, hbar=1e200), BATH),
    "spin_decoherence_times-overflowing-omega":
        lambda: dl.spin_decoherence_times(1.0, 1.0, 1j, 1e200, BATH),
    "golden_rule_times-underflowing-hbar":
        lambda: dl.golden_rule_times(dl.exponential_correlation(1.0, 1.0),
                                     dl.SystemParams(1.0, hbar=1e-200), 1.0),
    "memory_kernel_norm-gaussian-overflowing-t-tau":
        lambda: dl.memory_kernel_norm(1e200, 1.0, 1.0, dl.gaussian_correlation(1.0, 1e200)),
    "decoherence_times-time-underflows-to-zero":
        lambda: dl.decoherence_times(1e300, 0.0, dl.SystemParams(1.0, hbar=1e-300), BATH),
    "spin_coherence_norm-montecarlo-overflowing-t":
        lambda: dl.spin_coherence_norm(1e103, 15.0, 1.0, -1.0, 1.0, MC_BATH, mode="montecarlo",
                                       samples=10_000),
}


@pytest.mark.parametrize("call", RANGE_PROBES.values(), ids=RANGE_PROBES.keys())
def test_range_probe_is_a_numerical_error(call):
    with pytest.raises(NumericalError):
        call()


def test_integer_step_counts_still_pass():
    for n_steps in (1, np.int64(3)):
        u = dl.time_ordered_propagator(H.at, 0.5, n_steps)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


# Finite inputs, mostly inside each argument's domain so that the call
# computes; the PROBES table covers out-of-domain input.
FINITE = st.floats(-1e300, 1e300)
TIME = st.floats(0.0, 1e300)
VAR = st.floats(0.0, 1e300)
SCALE = st.floats(1e-300, 1e300)
COMPLEX = st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False)


def _in_unit_interval_or_decolab_error(call):
    try:
        values = np.asarray(call(), dtype=float)
    except DecolabError:
        return
    assert np.all(np.isfinite(values)), values
    assert np.all((values >= 0.0) & (values <= 1.0)), values


class TestClosedFormNormsStayInUnitInterval:
    @settings(deadline=None, max_examples=150)
    @given(t=TIME, q1=FINITE, p1=FINITE, q2=FINITE, p2=FINITE, sigma=SCALE,
           hbar=SCALE, mass=SCALE, var=VAR)
    # dq t + dp t^2 / 2M = 0 up to rounding: the cross term used to lift N above 1
    @example(t=3.1, q1=7.1, p1=-0.4580645161290322, q2=0.0, p2=0.0, sigma=1e-30, hbar=1.0,
             mass=0.1, var=1.0)
    def test_short_time(self, t, q1, p1, q2, p2, sigma, hbar, mass, var):
        def call():
            packets = [dl.GaussianPacket(q, p, sigma, hbar) for q, p in ((q1, p1), (q2, p2))]
            sys_p = dl.SystemParams(mass=mass, hbar=hbar)
            return dl.coherence_norm_short_time(t, dl.Superposition(*packets), sys_p,
                                                dl.BathMoments(var))
        _in_unit_interval_or_decolab_error(call)

    @settings(deadline=None, max_examples=150)
    @given(t=TIME, dq=FINITE, dp=FINITE, var_bq=VAR, var_bp=VAR, hbar=SCALE)
    def test_two_reservoir(self, t, dq, dp, var_bq, var_bp, hbar):
        _in_unit_interval_or_decolab_error(
            lambda: dl.two_reservoir_norm(t, dq, dp, var_bq, var_bp, hbar))

    @settings(deadline=None, max_examples=150)
    @given(t=TIME, j=st.sampled_from([0.5, 1.0, 2.5, 10.0]), alpha=COMPLEX, beta=COMPLEX,
           omega=FINITE, var=VAR, hbar=SCALE)
    def test_spin_regime(self, t, j, alpha, beta, omega, var, hbar):
        _in_unit_interval_or_decolab_error(
            lambda: dl.spin_coherence_norm(t, j, alpha, beta, omega, dl.BathMoments(var), hbar))

    @settings(deadline=None, max_examples=150)
    @given(d=FINITE, m=st.integers(1, 6), var=VAR, t=TIME, hbar=SCALE)
    def test_static_bath(self, d, m, var, t, hbar):
        _in_unit_interval_or_decolab_error(
            lambda: dl.static_bath_norm(d, dl.spin_bath(m, var), t, hbar))

    @settings(deadline=None, max_examples=150)
    @given(t=TIME, dq=FINITE, hbar=SCALE, var=VAR,
           kind=st.sampled_from(["constant", "exponential", "gaussian"]), scale=SCALE)
    # t tau and tau^2 overflow: the Gaussian form's inf - inf
    @example(t=1e200, dq=1.0, hbar=1.0, var=1.0, kind="gaussian", scale=1e200)
    def test_memory_kernel_constant_correlation(self, t, dq, hbar, var, kind, scale):
        corr = (dl.constant_correlation(var) if kind == "constant"
                else dl.CorrelationFunction(kind, (var, scale)))
        _in_unit_interval_or_decolab_error(lambda: dl.memory_kernel_norm(t, dq, hbar, corr))


class TestGoldenRuleContract:
    @settings(deadline=None, max_examples=150)
    @given(kind=st.sampled_from(["exponential", "gaussian"]), var=VAR, scale=SCALE,
           omega=FINITE, hbar=SCALE, dq=FINITE)
    def test_time_positive_or_decolab_error(self, kind, var, scale, omega, hbar, dq):
        corr = dl.CorrelationFunction(kind, (var, scale))
        try:
            tau = dl.golden_rule_times(corr, dl.SystemParams(1.0, omega, hbar), dq).tau_dec
        except DecolabError:
            return
        assert tau > 0 and not math.isnan(tau), tau


class TestDensityKernelContract:
    @settings(deadline=None, max_examples=150)
    @given(n=st.sampled_from([16, 32]), compact=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           exponent=st.integers(-300, 308), t=TIME, mass=SCALE, var=VAR, hbar=SCALE)
    def test_output_finite_and_norm_never_grows(self, n, compact, seed, exponent, t, mass, var,
                                                hbar):
        # every diagonal's filter exp(-(sqrt(a) k + sqrt(c) K)^2) has modulus <= 1
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
        if compact:
            r0, r1 = np.sort(rng.integers(0, n, 2))
            c0, c1 = np.sort(rng.integers(0, n, 2))
            values[:r0] = values[r1 + 1 :] = values[:, :c0] = values[:, c1 + 1 :] = 0.0
        values *= 10.0 ** (exponent - 1)  # finite entries whose row FFTs may overflow
        block = dl.DensityBlock(dl.PositionGrid(-n / 8, n / 8, n), values)
        try:
            out = dl.evolve_density_short_time(block, t, dl.SystemParams(mass=mass, hbar=hbar),
                                               dl.BathMoments(var)).values
        except DecolabError:
            return
        assert np.all(np.isfinite(out))
        scale = np.abs(values.view(float)).max() or 1.0  # the norms themselves may overflow
        assert np.linalg.norm(out / scale) <= np.linalg.norm(values / scale) * (1 + 1e-12)


class TestCoherenceNormContract:
    @settings(deadline=None, max_examples=150)
    @given(n=st.sampled_from([16, 32]), seed=st.integers(0, 2 ** 32 - 1),
           exponent=st.integers(-320, 308))
    # squared entries of 1e200 overflow: the norm used to return inf
    @example(n=16, seed=0, exponent=200)
    def test_finite_and_nonnegative_or_numerical_error(self, n, seed, exponent):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
        block = dl.DensityBlock(dl.PositionGrid(-8.0, 8.0, n), values * 10.0 ** exponent)
        try:
            norm = dl.coherence_norm(block, block)
        except NumericalError:
            return
        assert math.isfinite(norm) and norm >= 0.0


class TestEvolveNormContract:
    # Small instances of every back end: the pointer path (a spin with
    # Omega = 0 or a frozen particle) and the stepped path (a spin in a static
    # or any bath, a grid particle in a static or dynamic bath).  Half the
    # examples take any finite input, most of which leaves the float64 range;
    # the other half take desk-scale values, which compute.
    # CHEBYSHEV_ORDER_LIMIT is patched to 2,000 so a stepped curve past
    # R ~ 1,900 is refused instead of run.
    BACKENDS = ("pointer-spin", "pointer-grid", "spin-static", "spin", "grid-static",
                "grid-dynamic")

    @settings(deadline=None, max_examples=60)
    @given(backend=st.sampled_from(BACKENDS), wide=st.booleans(), data=st.data())
    def test_values_in_unit_interval_or_decolab_error(self, backend, wide, data):
        real, scale, time, size = (FINITE, SCALE, TIME, SCALE) if wide else (
            st.floats(-3.0, 3.0), st.floats(0.5, 2.0), st.floats(0.0, 2.0), st.floats(2.0, 8.0))
        m = data.draw(st.integers(1, 3))
        static = backend in ("spin-static", "grid-static") or data.draw(st.booleans())
        omegas = 0.0 if static else data.draw(st.lists(real, min_size=m, max_size=m))
        bath = dl.spin_bath(m, data.draw(VAR if wide else scale), omegas=omegas)
        hbar = data.draw(scale)
        if backend in ("pointer-spin", "spin-static", "spin"):
            j = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
            omega = 0.0 if backend == "pointer-spin" else data.draw(real.filter(bool))
            sys_x = dl.SpinSystem(j, omega, hbar)
            dim = int(2 * j) + 1
        else:
            dim = data.draw(st.sampled_from([16, 32]))
            half = data.draw(size)
            mass = math.inf if backend == "pointer-grid" else data.draw(scale)
            potential = None if mass == math.inf else data.draw(st.none() | real)
            sys_x = dl.GridParticle(dl.PositionGrid(-half, half, dim), mass, potential, hbar)
        branches = [data.draw(st.lists(COMPLEX, min_size=dim, max_size=dim)) for _ in range(2)]
        times = sorted(data.draw(st.sets(time, min_size=1, max_size=4)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dl.oracle, "CHEBYSHEV_ORDER_LIMIT", 2000)
            _in_unit_interval_or_decolab_error(
                lambda: dl.evolve_norm(sys_x, bath, *branches, times).values)
