"""Exact evolution of system x finite-bath pure states.

The oracle measures coherence norms directly from the full Hamiltonian
H = H_sys + H_res + Q (x) B (or Jx (x) B) on small composite Hilbert
spaces, with no short-time or Gaussian approximation, so every closed-form
law can be validated against it at desk scale.

The bath is a product of independent components (spin-halves coupled
through sigma_x, truncated oscillators through a + a^dagger), each
prepared in a pure state with vanishing coupling mean.  Norms are computed
by the pure-state sandwich: reshaping the two evolved joint states into
system x bath matrices A1, A2 gives rho^{12} = A1 A2^dagger after the bath
contraction, and N_12 = ||A1 A2^dagger||_F^2, so the full density matrix is
never stored.

Evolution strategies by model structure:

* static bath (all component frequencies zero): B is diagonalized once and
  the joint evolution factorizes over its eigenvalues, which is exact;
* spin system with a dynamic bath: sparse Krylov propagation
  (``expm_multiply``);
* grid particle: symmetric split-step Fourier; a dynamic bath's per-point
  half-step is a Kronecker product of per-component propagators;
* frozen particle (infinite mass): the position is a conserved pointer, so
  q B + H_res is a sum of commuting single-component terms and each
  pointer's bath state stays a product; the pointer overlaps are products
  over components of levels x levels evolutions, with no joint bath.

Only the sparse Krylov back end and build_bath_operators load scipy
(scipy.sparse, on first call); the other back ends, the closed forms and
the fits need numpy alone.
"""

import hashlib
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from ._linalg import expm_phase_stack
from .errors import (
    DimensionCapError,
    FitWindowError,
    StepSizeError,
    ValidationError,
    require_finite,
)
from .laws import BathMoments, CorrelationFunction
from .packets import PositionGrid, position_amplitude
from .spin import spin_matrices

DEFAULT_DIMENSION_CAP = 4096
DENSE_BATH_LIMIT = 4096          # largest bath materialized as dense matrices
JOINT_DIMENSION_LIMIT = 1 << 21  # largest system x bath state vector
MAX_UNIQUE_EIGENVALUES = 1 << 16
FROZEN_OVERLAP_LIMIT = 1 << 20   # pointer-overlap entries (times x Q x Q) held at once
UNITARITY_DRIFT = 1e-8


@dataclass(frozen=True)
class BathComponent:
    """One bath degree of freedom: kind, coupling strength, local frequency."""

    kind: str
    g: float
    omega: float = 0.0
    levels: int = 2

    def __post_init__(self):
        if self.kind not in ("spin-half", "oscillator"):
            raise ValidationError(f"unknown bath component kind {self.kind!r}")
        if not math.isfinite(self.g):
            raise ValidationError("coupling g must be finite")
        if not math.isfinite(self.omega):
            raise ValidationError("frequency omega must be finite")
        if self.kind == "spin-half" and self.levels != 2:
            raise ValidationError("spin-half components have exactly 2 levels")
        if self.kind == "oscillator" and self.levels < 2:
            raise ValidationError("oscillator components need levels >= 2")

    def coupling_operator(self):
        """Local coupling operator including the strength g."""
        if self.kind == "spin-half":
            return self.g * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        n = np.arange(self.levels - 1)
        a = np.zeros((self.levels, self.levels), dtype=complex)
        a[n, n + 1] = np.sqrt(n + 1.0)
        return self.g * (a + a.conj().T)

    def frequency_operator(self):
        """Local H / hbar (diagonal in the storage basis)."""
        if self.kind == "spin-half":
            return np.diag([0.5 * self.omega, -0.5 * self.omega]).astype(complex)
        return np.diag(self.omega * (np.arange(self.levels) + 0.5)).astype(complex)

    def initial_vector(self, label):
        if self.kind == "spin-half":
            if label == "up":
                return np.array([1.0, 0.0], dtype=complex)
            if label == "down":
                return np.array([0.0, 1.0], dtype=complex)
            raise ValidationError(f"spin-half initial state must be 'up'/'down', got {label!r}")
        n = int(label)
        # n <= levels - 2 keeps <B^2> and the correlation function free of
        # truncation artifacts (a^dagger must act within the kept space).
        if not 0 <= n <= self.levels - 2:
            raise ValidationError(
                f"oscillator initial Fock index must be in [0, levels-2], got {label!r}"
            )
        vec = np.zeros(self.levels, dtype=complex)
        vec[n] = 1.0
        return vec


@dataclass(frozen=True)
class BathModel:
    """Ordered bath components with a pure product initial state.

    Every component's initial state must have a vanishing coupling mean
    (checked numerically), and the total bath dimension must respect
    ``dimension_cap`` (default 4096; raise it deliberately for models that
    are only ever used through closed-form or factorized paths).
    """

    components: Tuple[BathComponent, ...]
    initial: Tuple[Union[str, int], ...]
    dimension_cap: int = DEFAULT_DIMENSION_CAP

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "initial", tuple(self.initial))
        if len(self.components) != len(self.initial):
            raise ValidationError("one initial-state label per component is required")
        if not self.components:
            raise ValidationError("bath needs at least one component")
        if self.dimension > self.dimension_cap:
            raise DimensionCapError(
                f"bath dimension {self.dimension} exceeds cap {self.dimension_cap}"
            )
        for comp, label in zip(self.components, self.initial):
            vec = comp.initial_vector(label)
            mean = vec.conj() @ comp.coupling_operator() @ vec
            if abs(mean) > 1e-12 * max(1.0, abs(comp.g)):
                raise ValidationError(
                    f"initial state {label!r} has nonzero coupling mean {mean:.3g}"
                )

    @property
    def dimension(self):
        d = 1
        for comp in self.components:
            d *= comp.levels
        return d

    def is_static(self):
        return all(comp.omega == 0.0 for comp in self.components)

    def initial_state(self):
        vecs = [c.initial_vector(l) for c, l in zip(self.components, self.initial)]
        return reduce(np.kron, vecs)


def spin_bath(m, var_total, omegas=0.0, dimension_cap=None):
    """Equal-coupling spin-half bath with <B^2> = var_total, all spins up.

    omegas may be a scalar (shared frequency) or a sequence of length m.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    if not (math.isfinite(var_total) and var_total >= 0):
        raise ValidationError("var_total must be finite and nonnegative")
    g = math.sqrt(var_total / m)
    if np.isscalar(omegas):
        omegas = [float(omegas)] * m
    if len(omegas) != m:
        raise ValidationError("omegas must be scalar or of length m")
    comps = tuple(BathComponent("spin-half", g, float(w)) for w in omegas)
    kwargs = {} if dimension_cap is None else {"dimension_cap": dimension_cap}
    return BathModel(comps, ("up",) * m, **kwargs)


# ---------------------------------------------------------------------------
# Bath operators, moments and correlation functions


@dataclass(frozen=True)
class OracleBathOperators:
    """Dense bath operators plus the derived moments and correlations."""

    B: np.ndarray
    Bdot: np.ndarray
    Bddot: np.ndarray
    H_res: np.ndarray
    moments: BathMoments
    corr: CorrelationFunction
    initial_state: np.ndarray = field(repr=False, default=None)


def _component_statistics(comp, label):
    """(variance factor c, response coefficient r, kappa contribution k1).

    sym_i(s) = 2 g^2 c cos(omega s); resp_i(s) = r sin(omega s) * (g^2/hbar);
    kappa_i = k1 * g^2 omega / hbar.
    """
    if comp.kind == "spin-half":
        z = 1.0 if label == "up" else -1.0
        return 1.0, -2.0 * z, -2.0 * z
    n = int(label)
    return 2.0 * n + 1.0, 2.0, 2.0


def bath_statistics(bath, hbar=1.0):
    """Exact (moments, corr) of the coupling agent, from component spectra.

    For spin-half components in sigma_z eigenstates the symmetric
    correlation is a sum of cosines, sym(s) = sum_i 2 g_i^2 cos(omega_i s);
    Fock-state oscillators contribute 2 g^2 (2n+1) cos(omega s).
    """
    terms = [
        (_component_statistics(c, l), c.g, c.omega)
        for c, l in zip(bath.components, bath.initial)
    ]
    var_b = sum(c * g * g for (c, _, _), g, _ in terms)
    var_bdot = sum(c * (g * w) ** 2 for (c, _, _), g, w in terms)
    kappa = sum(k1 * g * g * w for (_, _, k1), g, w in terms) / hbar

    def sym(s):
        return sum(2.0 * c * g * g * math.cos(w * s) for (c, _, _), g, w in terms)

    def resp(s):
        return sum(
            r * g * g * math.sin(w * s) / hbar for (_, r, _), g, w in terms
        )

    moments = BathMoments(var_b, var_bdot, kappa)
    corr = CorrelationFunction(sym=sym, resp=resp, moments=moments)
    return moments, corr


def build_bath_operators(bath, hbar=1.0):
    """Dense B, Bdot, Bddot, H_res plus exact moments and correlations.

    B and H_res are ``_sparse_bath_ops`` made dense; Bdot and Bddot are the
    nested commutators (i/hbar)[H_res, .] applied to B.  Refused above a
    bath dimension of 4096 even when the model's own cap was raised (the
    evolution paths never need these matrices at such sizes).
    """
    dim = bath.dimension
    if dim > min(bath.dimension_cap, DENSE_BATH_LIMIT):
        raise DimensionCapError(
            f"dense bath operators refused at dimension {dim}"
        )
    b_sp, hres_diag = _sparse_bath_ops(bath, hbar)
    b_total = b_sp.toarray()
    h_res = np.diag(hres_diag).astype(complex)
    bdot = (1j / hbar) * (h_res @ b_total - b_total @ h_res)
    bddot = (1j / hbar) * (h_res @ bdot - bdot @ h_res)
    moments, corr = bath_statistics(bath, hbar)
    return OracleBathOperators(
        B=b_total, Bdot=bdot, Bddot=bddot, H_res=h_res,
        moments=moments, corr=corr, initial_state=bath.initial_state(),
    )


def bath_eigen_decomposition(bath):
    """Eigenvalues of B and their weights in the initial product state.

    Returns (values, weights) with duplicates (up to 1e-12 relative)
    collapsed; for M equal couplings this is the binomial distribution on
    M + 1 points.  Exact because the initial state is a product and B is a
    sum of commuting local terms.
    """
    values = np.array([0.0])
    weights = np.array([1.0])
    for comp, label in zip(bath.components, bath.initial):
        w_loc, v_loc = np.linalg.eigh(comp.coupling_operator())
        init = comp.initial_vector(label)
        p_loc = np.abs(v_loc.conj().T @ init) ** 2
        values = (values[:, None] + w_loc[None, :]).ravel()
        weights = (weights[:, None] * p_loc[None, :]).ravel()
        scale = max(np.abs(values).max(), 1e-300)
        keys = np.round(values / scale, 12)
        uniq, inverse = np.unique(keys, return_inverse=True)
        collapsed = np.bincount(inverse, weights=weights)
        values = uniq * scale
        weights = collapsed
        if values.size > MAX_UNIQUE_EIGENVALUES:
            raise DimensionCapError(
                f"bath spectrum exceeds {MAX_UNIQUE_EIGENVALUES} distinct eigenvalues"
            )
    keep = weights > 1e-300
    return values[keep], weights[keep]


# ---------------------------------------------------------------------------
# System specifications and norm curves


@dataclass(frozen=True)
class GridParticle:
    """Particle on a periodic position grid; mass may be math.inf (frozen Q)."""

    grid: PositionGrid
    mass: float
    potential_omega: Optional[float] = None
    hbar: float = 1.0

    def __post_init__(self):
        if not self.mass > 0:
            raise ValidationError("mass must be positive (math.inf allowed)")
        if self.potential_omega is not None and math.isinf(self.mass):
            raise ValidationError("harmonic potential requires finite mass")
        if not self.hbar > 0:
            raise ValidationError("hbar must be positive")
        require_finite(potential_omega=self.potential_omega, hbar=self.hbar)

    def potential(self):
        q = self.grid.points
        if self.potential_omega is None:
            return np.zeros_like(q)
        return 0.5 * self.mass * self.potential_omega ** 2 * q ** 2


@dataclass(frozen=True)
class SpinSystem:
    """Spin j precessing as H_sys = Omega Jz, coupled through Jx."""

    j: float
    omega: float
    hbar: float = 1.0

    def __post_init__(self):
        spin_matrices(self.j)  # validates j
        if not self.hbar > 0:
            raise ValidationError("hbar must be positive")
        require_finite(omega=self.omega, hbar=self.hbar)


SystemSpec = Union[GridParticle, SpinSystem]


@dataclass(frozen=True)
class NormCurve:
    """Sampled coherence norm N_12(t) with a model fingerprint."""

    times: np.ndarray
    values: np.ndarray
    fingerprint: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValidationError("times and values must be matching 1-d arrays")
        require_finite(times=times, values=values)
        if np.any(np.diff(times) <= 0):
            raise ValidationError("times must be strictly ascending")
        if np.any(values < -1e-9) or np.any(values > 1.0 + 1e-9):
            raise ValidationError("norm values must lie in [0, 1] (within 1e-9)")


class FitResult(NamedTuple):
    exponent: float
    tau: float


def grid_packet_state(packet, grid):
    """l2-normalized grid samples of a Gaussian packet."""
    vec = position_amplitude(packet, grid.points).astype(complex)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValidationError("packet has no support on the grid")
    return vec / norm


def position_eigenstate(grid, q):
    """Delta state at the grid point nearest q; returns (state, snapped q)."""
    require_finite(q=q)
    idx = int(np.argmin(np.abs(grid.points - q)))
    vec = np.zeros(grid.n_points, dtype=complex)
    vec[idx] = 1.0
    return vec, float(grid.points[idx])


def _fingerprint(sys, bath, branch1, branch2, times, dt):
    payload = "|".join(
        [
            repr(sys),
            repr(bath),
            hashlib.sha256(np.ascontiguousarray(branch1).tobytes()).hexdigest(),
            hashlib.sha256(np.ascontiguousarray(branch2).tobytes()).hexdigest(),
            hashlib.sha256(np.asarray(times, dtype=float).tobytes()).hexdigest(),
            repr(dt),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _normalized_branch(vec, dim, name):
    v = np.asarray(vec, dtype=complex).ravel()
    if v.size != dim:
        raise ValidationError(f"{name} has length {v.size}, expected {dim}")
    require_finite(**{name: v})
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValidationError(f"{name} is the zero vector")
    return v / norm


def _check_times(times):
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValidationError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(t)):
        raise ValidationError("times must be finite")
    if t[0] < 0 or np.any(np.diff(t) <= 0):
        raise ValidationError("times must be ascending and nonnegative")
    return t


def _sandwich_norm(a_mat, b_mat):
    """N = ||A B^dagger||_F^2 for system x bath matrices A, B."""
    rho = a_mat @ b_mat.conj().T
    return float(np.sum(np.abs(rho) ** 2))


# ---------------------------------------------------------------------------
# Evolution back ends


def _product_norms(weights, psi1, psi2):
    """Norm from the eigenvalue-factorized representation.

    psi_k has shape (n_unique, dim_sys); the reduced block is
    rho^{12} = sum_m W_m psi1_m psi2_m^dagger and its squared Frobenius
    norm is assembled from the two Gram matrices.
    """
    g1 = psi1.conj() @ psi1.T
    g2 = psi2.conj() @ psi2.T
    ww = np.outer(weights, weights)
    return float(np.real(np.sum(ww * g2 * g1.T)))


def _spin_static_curve(sys, bath, branch1, branch2, times):
    bvals, weights = bath_eigen_decomposition(bath)
    jx, _, jz = spin_matrices(sys.j, sys.hbar)
    h_stack = sys.omega * jz[None, :, :] + bvals[:, None, None] * jx[None, :, :]
    w, v = np.linalg.eigh(h_stack)
    v_dag = v.conj().transpose(0, 2, 1)
    c1 = v_dag @ branch1
    c2 = v_dag @ branch2
    norms = np.empty(times.size)
    for i, t in enumerate(times):
        phase = np.exp(-1j * w * t / sys.hbar)
        psi1 = np.einsum("mij,mj->mi", v, phase * c1)
        psi2 = np.einsum("mij,mj->mi", v, phase * c2)
        norms[i] = _product_norms(weights, psi1, psi2)
    return norms


def _sparse_embed(local_ops, index):
    import scipy.sparse

    mats = [
        scipy.sparse.csr_matrix(local_ops[k]) if k == index
        else scipy.sparse.identity(local_ops[k].shape[0], format="csr")
        for k in range(len(local_ops))
    ]
    return reduce(lambda a, b: scipy.sparse.kron(a, b, format="csr"), mats)


def _sparse_bath_ops(bath, hbar):
    """Sparse coupling agent B and the (diagonal) H_res of the bath."""
    coupling = [c.coupling_operator() for c in bath.components]
    b_sp = sum(_sparse_embed(coupling, i) for i in range(len(coupling)))
    # Local frequency operators are diagonal in the storage basis.
    diag = np.zeros(bath.dimension)
    for i, comp in enumerate(bath.components):
        pattern = [np.ones(c.levels) for c in bath.components]
        pattern[i] = np.real(np.diag(comp.frequency_operator()))
        diag += reduce(np.kron, pattern)
    return b_sp, hbar * diag


def _propagate(times, psi, advance, branch_norms, reduce_norm):
    """Advance psi through the sample times and reduce it at each one.

    advance(psi, span) propagates by a span > 0; branch_norms(psi) gives the
    norm of each branch, which exact propagation keeps at one.
    """
    norms = np.empty(times.size)
    t_prev = 0.0
    for i, t in enumerate(times):
        span = t - t_prev
        if span > 0:
            psi = advance(psi, span)
        t_prev = t
        drift = np.abs(branch_norms(psi) - 1.0).max()
        if drift > UNITARITY_DRIFT:
            raise StepSizeError(f"unitarity drift {drift:.3g}")
        norms[i] = reduce_norm(psi)
    return norms


def _spin_sparse_curve(sys, bath, branch1, branch2, times):
    import scipy.sparse
    import scipy.sparse.linalg

    dim_s = branch1.size
    dim_b = bath.dimension
    if dim_s * dim_b > JOINT_DIMENSION_LIMIT:
        raise DimensionCapError(
            f"joint dimension {dim_s * dim_b} exceeds {JOINT_DIMENSION_LIMIT}"
        )
    jx, _, jz = spin_matrices(sys.j, sys.hbar)
    b_sp, hres_diag = _sparse_bath_ops(bath, sys.hbar)
    eye_b = scipy.sparse.identity(dim_b, format="csr")
    h = (
        sys.omega * scipy.sparse.kron(scipy.sparse.csr_matrix(jz), eye_b, format="csr")
        + scipy.sparse.kron(scipy.sparse.identity(dim_s, format="csr"),
                            scipy.sparse.diags(hres_diag), format="csr")
        + scipy.sparse.kron(scipy.sparse.csr_matrix(jx), b_sp, format="csr")
    )
    generator = (-1j / sys.hbar) * h.tocsc()
    chi0 = bath.initial_state()
    psi = np.stack([np.kron(branch1, chi0), np.kron(branch2, chi0)], axis=1)
    return _propagate(
        times, psi,
        lambda psi, span: scipy.sparse.linalg.expm_multiply(generator * span, psi),
        lambda psi: np.linalg.norm(psi, axis=0),
        lambda psi: _sandwich_norm(*psi.T.reshape(2, dim_s, dim_b)),
    )


def _local_hamiltonians(bath, qs, hbar):
    """Per component, q coupling + hbar frequency over qs: (len(qs), l, l) each."""
    return [
        qs[:, None, None] * c.coupling_operator() + hbar * c.frequency_operator()
        for c in bath.components
    ]


def _grid_frozen_curve(sys, bath, branch1, branch2, times):
    """Pointer overlaps <chi_q(t)|chi_q'(t)> = prod_i <chi_{q,i}(t)|chi_{q',i}(t)>.

    Exact because q B + H_res is a sum of commuting single-component terms
    and the initial bath state is a product; each factor comes from the
    eigendecomposition of one component's levels x levels Hamiltonian.  The
    Q x Q overlaps (Q occupied grid points) are reduced one chunk of at most
    FROZEN_OVERLAP_LIMIT / Q^2 times at a time, so memory stays O(Q^2).
    """
    occupied = np.flatnonzero((np.abs(branch1) > 1e-14) | (np.abs(branch2) > 1e-14))
    qs = sys.grid.points[occupied]
    eigen = []
    for h, comp, label in zip(_local_hamiltonians(bath, qs, sys.hbar),
                              bath.components, bath.initial):
        w, v = np.linalg.eigh(h)
        eigen.append((w, v, v.conj().transpose(0, 2, 1) @ comp.initial_vector(label)))
    w1 = np.abs(branch1[occupied]) ** 2
    w2 = np.abs(branch2[occupied]) ** 2
    chunk = max(1, FROZEN_OVERLAP_LIMIT // qs.size ** 2)
    norms = []
    for start in range(0, times.size, chunk):
        ts = times[start:start + chunk]
        overlaps = np.ones((ts.size, qs.size, qs.size), dtype=complex)
        for w, v, coeffs in eigen:
            phases = np.exp(-1j * np.multiply.outer(ts, w) / sys.hbar)
            chi = np.einsum("qij,tqj->tqi", v, phases * coeffs)
            overlaps *= chi.conj() @ chi.transpose(0, 2, 1)
        norms.append((np.abs(overlaps) ** 2 @ w1) @ w2)
    return np.concatenate(norms)


def _strang_advance(sys, dt, half_potential, axis):
    """Split-step propagation along the grid axis of psi.

    A span is cut into ceil(span / dt) equal symmetric Strang steps
    exp(-i V delta / 2 hbar) exp(-i T delta / hbar) exp(-i V delta / 2 hbar);
    half_potential(delta) returns the map psi -> exp(-i V delta / 2 hbar) psi.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(sys.grid.n_points, d=sys.grid.spacing)
    k = k.reshape((-1,) + (1,) * (-1 - axis))

    def advance(psi, span):
        n_steps = max(1, int(math.ceil(span / dt)))
        delta = span / n_steps
        kin = np.exp(-1j * sys.hbar * k ** 2 * delta / (2.0 * sys.mass))
        half = half_potential(delta)
        for _ in range(n_steps):
            psi = half(np.fft.ifft(kin * np.fft.fft(half(psi), axis=axis), axis=axis))
        return psi

    return advance


def _grid_static_curve(sys, bath, branch1, branch2, times, dt):
    bvals, weights = bath_eigen_decomposition(bath)
    pot = sys.potential()[None, :] + bvals[:, None] * sys.grid.points[None, :]

    def half_potential(delta):
        phase = np.exp(-0.5j * pot * delta / sys.hbar)
        return lambda psi: phase * psi

    return _propagate(
        times,
        np.stack([np.tile(branch1, (bvals.size, 1)), np.tile(branch2, (bvals.size, 1))]),
        _strang_advance(sys, dt, half_potential, axis=-1),
        lambda psi: np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1) @ weights),
        lambda psi: _product_norms(weights, psi[0], psi[1]),
    )


def _grid_dense_curve(sys, bath, branch1, branch2, times, dt):
    n = sys.grid.n_points
    dim_b = bath.dimension
    if n * dim_b ** 2 > (1 << 22):
        raise DimensionCapError(
            "per-point bath propagators would exceed the memory budget; "
            "use a static bath, a smaller grid, or an infinite-mass particle"
        )
    local = _local_hamiltonians(bath, sys.grid.points, sys.hbar)
    v_pot = sys.potential()
    chi0 = bath.initial_state()

    def half_potential(delta):
        # Per point: the potential phase times the Kronecker product of the
        # component propagators, in the component order of chi0.
        factor = -0.5 * delta / sys.hbar
        u = np.exp(1j * factor * v_pot)[:, None, None]
        for h in local:
            f = expm_phase_stack(h, factor)
            u = np.einsum("qab,qcd->qacbd", u, f).reshape(n, u.shape[1] * f.shape[1], -1)
        return lambda psi: (u @ psi[..., None])[..., 0]

    return _propagate(
        times,
        np.stack([np.outer(branch1, chi0), np.outer(branch2, chi0)]),
        _strang_advance(sys, dt, half_potential, axis=-2),
        lambda psi: np.linalg.norm(psi, axis=(1, 2)),
        lambda psi: _sandwich_norm(psi[0], psi[1]),
    )


def evolve_norm(sys, bath, branch1, branch2, times, dt=None):
    """Exact coherence norm N_12(t) from the full composite evolution.

    Parameters
    ----------
    sys : GridParticle or SpinSystem
    bath : BathModel
    branch1, branch2 : array_like
        Initial system states (grid samples or spin components); they are
        normalized internally.
    times : array_like
        Ascending sample times starting at >= 0.
    dt : float, optional
        Split-step size for finite-mass grid particles (default: total
        span / 4096); must be finite and positive when given.  Ignored by
        the factorized and Krylov back ends, which are exact in the step
        size.
    """
    times = _check_times(times)
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be finite and positive")
    if isinstance(sys, SpinSystem):
        dim_s = int(round(2 * sys.j)) + 1
        b1 = _normalized_branch(branch1, dim_s, "branch1")
        b2 = _normalized_branch(branch2, dim_s, "branch2")
        if bath.is_static():
            values = _spin_static_curve(sys, bath, b1, b2, times)
        else:
            values = _spin_sparse_curve(sys, bath, b1, b2, times)
    elif isinstance(sys, GridParticle):
        n = sys.grid.n_points
        b1 = _normalized_branch(branch1, n, "branch1")
        b2 = _normalized_branch(branch2, n, "branch2")
        if dt is None:
            dt = max(times[-1], 1e-30) / 4096.0
        if math.isinf(sys.mass):
            values = _grid_frozen_curve(sys, bath, b1, b2, times)
        elif bath.is_static():
            values = _grid_static_curve(sys, bath, b1, b2, times, dt)
        else:
            values = _grid_dense_curve(sys, bath, b1, b2, times, dt)
    else:
        raise ValidationError(f"unsupported system spec {type(sys).__name__}")
    values = np.clip(values, 0.0, None)
    return NormCurve(times, values, _fingerprint(sys, bath, branch1, branch2, times, dt))


# ---------------------------------------------------------------------------
# Closed-form oracle limits and fits


def static_bath_norm(d, bath, t, hbar=1.0):
    """Exact norm for frozen system and bath: N(t) = prod_i cos^2(d g_i t / hbar).

    Requires spin-half components in sigma_z eigenstates under sigma_x
    coupling; ``d`` is the effective separation in the coupling agent.
    """
    for comp in bath.components:
        if comp.kind != "spin-half":
            raise ValidationError("static_bath_norm requires spin-half components")
    t = np.asarray(t, dtype=float)
    require_finite(d=d, t=t, hbar=hbar)
    if not hbar > 0:
        raise ValidationError("hbar must be positive")
    gs = np.array([c.g for c in bath.components])
    result = np.prod(np.cos(np.multiply.outer(t, gs) * d / hbar) ** 2, axis=-1)
    return result if result.ndim else float(result)


def bath_characteristic(bath, lam):
    """Exact characteristic function <e^{i lam B}> of the initial state."""
    lam = np.asarray(lam, dtype=float)
    require_finite(lam=lam)
    result = np.ones(lam.shape, dtype=complex)
    for comp, label in zip(bath.components, bath.initial):
        if comp.kind == "spin-half":
            result = result * np.cos(lam * comp.g)
        else:
            w_loc, v_loc = np.linalg.eigh(comp.coupling_operator())
            probs = np.abs(v_loc.conj().T @ comp.initial_vector(label)) ** 2
            result = result * (np.exp(1j * np.multiply.outer(lam, w_loc)) @ probs)
    return result if result.ndim else complex(result)


def fit_decay_exponent(curve, window=(0.05, 0.95)):
    """Least-squares fit of log(-log N) vs log t; returns (exponent n, scale tau).

    Only samples with window[0] < N < window[1] and t > 0 participate; the
    curve must be strictly decreasing there and provide at least 8 points.
    """
    lo, hi = window
    if not 0 <= lo < hi <= 1:  # also false for a NaN or infinite bound
        raise ValidationError(f"fit window must satisfy 0 <= lo < hi <= 1, got {window}")
    mask = (curve.values > lo) & (curve.values < hi) & (curve.times > 0)
    if np.count_nonzero(mask) < 8:
        raise FitWindowError(
            f"only {np.count_nonzero(mask)} points in the fit window (need >= 8)"
        )
    t = curve.times[mask]
    n_vals = curve.values[mask]
    if np.any(np.diff(n_vals) >= 0):
        raise FitWindowError("curve is not strictly decreasing over the fit window")
    x = np.log(t)
    y = np.log(-np.log(n_vals))
    slope, intercept = np.polyfit(x, y, 1)
    return FitResult(float(slope), float(math.exp(-intercept / slope)))
