"""Exact evolution of system x finite-bath pure states.

The oracle measures coherence norms directly from the full Hamiltonian
H = H_sys + H_res + Q (x) B (or Jx (x) B) on small composite Hilbert
spaces, with no short-time or Gaussian approximation, so every closed-form
law can be validated against it at desk scale.

The bath is a product of independent components (spin-halves coupled
through sigma_x, truncated oscillators through a + a^dagger), each
prepared in a pure state with vanishing coupling mean.  Norms are computed
by the pure-state sandwich: the two branches, held on axis 0 as system x
bath matrices A1, A2, give rho^{12} = A1 A2^dagger after the bath
contraction and N_12 = ||A1 A2^dagger||_F^2, never the full density matrix.

The bath statistics (moments of B and its correlation functions) are read
off the same component operators the back ends evolve: out of its initial
level n, a component with coupling operator c has spectral lines of weight
|<k|c|n>|^2 at frequency omega_k - omega_n, so no component kind needs its
own formula.

Evolution strategies, by what the Hamiltonian conserves:

* the system's coupling operator, when H_sys = 0 (a frozen particle of
  infinite mass, or a spin with Omega = 0): its eigenvalues q are pointers,
  q B + H_res is a sum of commuting single-component terms and each
  pointer's bath state stays a product; the pointer overlaps are products
  over components of levels x levels evolutions, with no joint bath;
* otherwise B, when the bath is static (all component frequencies zero):
  B is diagonalized once and the bath is written in its eigenbasis as one
  factor with amplitude sqrt(W_m) on each distinct eigenvalue, which is
  exact; a spin then evolves each column from eigh of H_sys + b_m Jx, a
  grid particle is stepped as below with q B diagonal;
* otherwise the joint state is stepped by the Chebyshev expansion of its
  propagator (Tal-Ezer and Kosloff), one series per chunk of sample times
  whose terms S_k = (-i)^k T_k(h~) psi every sample of the chunk shares,
  each sample their real combination with coefficients 2 J_k, cut where
  these fall below 1e-17, exact to roundoff at any time offset: a spin's
  sparse joint H (the terms span the Krylov space, hence the back end's
  name), or a grid particle's H = T + V + q B + H_res, with T applied by
  FFT along the contiguous grid axis of a (bath, branch, grid) state and a
  dynamic B as one sparse product on the bath axis.

The exact back ends (pointer, spin system in a static bath) share one
sampler of v e^{-i w t / hbar} c over chunks of times, with the times on
the last axis of each matrix product; the stepped ones share one Chebyshev
driver, which checks unitarity at every sample.

The two back ends that hold a dynamic joint bath state (Krylov and the
dynamic-bath grid) use the bath's permutation symmetry: spin-halves with
equal g, omega and initial sigma_z state stay in their symmetric (Dicke)
subspace, so k of them evolve as one spin k/2 of dimension k + 1 instead
of 2^k.

A bath model sets no size limit.  Before each allocation that grows with
the bath, ``_check_entries`` refuses an array above the limit of the code
making it (the constants below say what each limit counts and where it
applies) with DimensionCapError naming the array and its entry count.

Only the two dynamic-bath stepped back ends and build_bath_operators load
scipy, and only scipy.sparse, on first call: the Chebyshev sum and its
Bessel coefficients need numpy alone, as do the other back ends, the closed
forms and the fits.  The correlation bath_statistics returns carries its
spectral lines, so memory_kernel_norm integrates it in closed form with no
scipy.integrate.
"""

import hashlib
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import (
    DimensionCapError, FitWindowError, StepSizeError, ValidationError, _float_range_checked,
    is_int, require_finite, require_instance, require_nonnegative, require_positive, require_real,
    require_real_array, require_times,
)
from .laws import BathMoments, CorrelationFunction
from .packets import PositionGrid, position_amplitude
from .spin import spin_matrices

# levels of a dense bath vector, squared for a matrix: component and Dicke-factor
# operators, BathModel.initial_state and build_bath_operators
DENSE_BATH_LIMIT = 4096
MAX_UNIQUE_EIGENVALUES = 1 << 16  # distinct eigenvalues of B, for the static back ends
JOINT_DIMENSION_LIMIT = 1 << 21   # system x bath state per branch: Krylov, grid
STACK_BUDGET = 1 << 22           # per-eigenvalue or per-pointer matrix stack: static spin, pointer
CHEBYSHEV_ORDER_LIMIT = 1 << 20  # Bessel coefficients of one Chebyshev offset: Krylov, grid
SAMPLE_BUDGET = 1 << 17          # entries per time-chunk stack or Chebyshev coefficient table
UNITARITY_DRIFT = 1e-8


def _check_entries(array, entries, limit):
    """Raise DimensionCapError before allocating an array of more than limit entries."""
    if entries > limit:
        raise DimensionCapError(f"{array} would hold {entries} entries, above the limit {limit}")


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
        require_real(g=self.g, omega=self.omega)
        if not is_int(self.levels):
            raise ValidationError(f"levels must be an integer, got {self.levels!r}")
        if self.kind == "spin-half" and self.levels != 2:
            raise ValidationError("spin-half components have exactly 2 levels")
        if self.kind == "oscillator" and self.levels < 2:
            raise ValidationError("oscillator components need levels >= 2")
        _check_entries("component coupling operator", self.levels ** 2, DENSE_BATH_LIMIT ** 2)

    def coupling_operator(self):
        """Local coupling operator g (a + a^dagger); for two levels that is g sigma_x."""
        n = np.arange(self.levels - 1)
        a = np.zeros((self.levels, self.levels), dtype=complex)
        a[n, n + 1] = np.sqrt(n + 1.0)
        return self.g * (a + a.conj().T)

    def coupling_column(self, n):
        """Column n of coupling_operator(), bit for bit, in O(levels)."""
        if not (is_int(n) and 0 <= n < self.levels):
            raise ValidationError(f"level must be an integer in [0, {self.levels}), got {n!r}")
        col = np.zeros(self.levels, dtype=complex)
        if n > 0:
            col[n - 1] = np.sqrt(float(n))
        if n + 1 < self.levels:
            col[n + 1] = np.sqrt(n + 1.0)
        return self.g * col

    def level_frequencies(self):
        """Local H / hbar as its real diagonal (it is diagonal in the storage basis)."""
        if self.kind == "spin-half":
            return np.array([0.5 * self.omega, -0.5 * self.omega])
        return self.omega * (np.arange(self.levels) + 0.5)

    def initial_level(self, label):
        """Storage-basis index of the initial state named by label."""
        if self.kind == "spin-half":
            if label not in ("up", "down"):
                raise ValidationError(f"spin-half initial state must be 'up'/'down', got {label!r}")
            return ("up", "down").index(label)
        if not is_int(label):
            raise ValidationError(f"oscillator initial state must be a Fock index, got {label!r}")
        n = int(label)
        # n <= levels - 2 keeps <B^2> and the correlation function free of
        # truncation artifacts (a^dagger must act within the kept space).
        if not 0 <= n <= self.levels - 2:
            raise ValidationError(
                f"oscillator initial Fock index must be in [0, levels-2], got {label!r}"
            )
        return n

    def initial_vector(self, label):
        vec = np.zeros(self.levels, dtype=complex)
        vec[self.initial_level(label)] = 1.0
        return vec


@dataclass(frozen=True)
class BathModel:
    """Ordered bath components with a pure product initial state.

    Every component's initial state must have a vanishing coupling mean
    (checked numerically).  The size limits live in the oracle paths (see
    the module docstring); ``dimension_cap``, when given, is an explicit
    ceiling on the full dimension, the product of the components' levels.
    """

    components: Tuple[BathComponent, ...]
    initial: Tuple[Union[str, int], ...]
    dimension_cap: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "initial", tuple(self.initial))
        if len(self.components) != len(self.initial):
            raise ValidationError("one initial-state label per component is required")
        if not self.components:
            raise ValidationError("bath needs at least one component")
        cap = self.dimension_cap
        if cap is not None and not (is_int(cap) and cap >= 1):
            raise ValidationError(f"dimension_cap must be a positive integer, got {cap!r}")
        _check_entries("bath state", self.dimension, math.inf if cap is None else cap)
        for comp, label in zip(self.components, self.initial):
            n = comp.initial_level(label)
            mean = comp.coupling_column(n)[n]
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
        _check_entries("bath initial state", self.dimension, DENSE_BATH_LIMIT)
        vecs = [c.initial_vector(l) for c, l in zip(self.components, self.initial)]
        return reduce(np.kron, vecs)


def spin_bath(m, var_total, omegas=0.0, dimension_cap=None):
    """Equal-coupling spin-half bath with <B^2> = var_total, all spins up.

    omegas may be a scalar (shared frequency) or a sequence of length m.
    Any m is accepted: only the dense paths form the 2^m levels, and they
    refuse more than DENSE_BATH_LIMIT.
    """
    if not (is_int(m) and m >= 1):
        raise ValidationError(f"m must be an integer >= 1, got {m!r}")
    require_nonnegative(var_total=var_total)
    require_real_array(omegas=omegas)
    g = math.sqrt(var_total / m)
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim == 0:
        omegas = np.full(m, omegas)
    if omegas.shape != (m,):
        raise ValidationError("omegas must be scalar or of length m")
    comps = tuple(BathComponent("spin-half", g, float(w)) for w in omegas)
    return BathModel(comps, ("up",) * m, dimension_cap)


# ---------------------------------------------------------------------------
# Bath operators, moments and correlation functions


@dataclass(frozen=True)
class OracleBathOperators:
    """Dense bath operators plus the derived moments and correlations.

    B, Bdot and Bddot are dimension x dimension matrices; H_res is the real
    diagonal of the bath Hamiltonian in the storage basis (a vector), since
    it is diagonal there by construction.
    """

    B: np.ndarray
    Bdot: np.ndarray
    Bddot: np.ndarray
    H_res: np.ndarray
    moments: BathMoments
    corr: CorrelationFunction
    initial_state: np.ndarray = field(repr=False, default=None)


def bath_statistics(bath, hbar=1.0):
    """Exact (moments, corr) of the coupling agent, from its spectral lines.

    Each component starts in a storage-basis state |n> (true of every
    component kind), so out of it the component's coupling operator c has
    lines of weight a = |<k|c|n>|^2 at the frequencies nu = omega_k - omega_n
    of its frequency operator; zero-weight lines are skipped.  Then
    <B^2> = sum a, <Bdot^2> = sum a nu^2, kappa = (2/hbar) sum a nu,
    sym(s) = 2 sum a cos(nu s) and resp(s) = (2/hbar) sum a sin(nu s).
    """
    require_positive(hbar=hbar)
    lines = []
    for comp, label in zip(bath.components, bath.initial):
        n = comp.initial_level(label)
        levels = comp.level_frequencies()
        weights = np.abs(comp.coupling_column(n)) ** 2
        lines += [(float(weights[k]), float(levels[k] - levels[n]))
                  for k in np.flatnonzero(weights)]
    var_b = sum(a for a, _ in lines)
    var_bdot = sum(a * nu * nu for a, nu in lines)
    kappa = sum(2.0 * a * nu for a, nu in lines) / hbar

    def sym(s):
        return sum(2.0 * a * math.cos(nu * s) for a, nu in lines)

    def resp(s):
        return sum(2.0 * a * math.sin(nu * s) / hbar for a, nu in lines)

    moments = BathMoments(var_b, var_bdot, kappa)
    corr = CorrelationFunction(sym=sym, resp=resp, moments=moments, lines=tuple(lines))
    return moments, corr


def build_bath_operators(bath, hbar=1.0):
    """Dense B, Bdot, Bddot, the diagonal of H_res, moments and correlations.

    B is ``_sparse_bath_ops`` made dense; Bdot and Bddot are the nested
    commutators (i/hbar)[H_res, .] applied to B.  H_res is diagonal in the
    storage basis and is returned as that real diagonal h, so each
    commutator is the elementwise product (i/hbar)(h_k - h_l) X_kl, with no
    matrix product.  B, Bdot and Bddot are full-bath dimension x dimension
    matrices: refused above DENSE_BATH_LIMIT (4096, 12 spin-halves) levels.
    """
    require_positive(hbar=hbar)
    dim = bath.dimension
    _check_entries("dense bath operator", dim * dim, DENSE_BATH_LIMIT ** 2)
    b_sp, hres_diag = _sparse_bath_ops(_bath_factors(bath, dicke=False), hbar)
    b_total = b_sp.toarray()
    gaps = (1j / hbar) * np.subtract.outer(hres_diag, hres_diag)
    bdot = gaps * b_total
    bddot = np.multiply(gaps, bdot, out=gaps)  # gaps' last use: reuse its memory
    moments, corr = bath_statistics(bath, hbar)
    return OracleBathOperators(
        B=b_total, Bdot=bdot, Bddot=bddot, H_res=hres_diag,
        moments=moments, corr=corr, initial_state=bath.initial_state(),
    )


def bath_eigen_decomposition(bath):
    """Eigenvalues of B and their weights in the initial product state.

    Returns ascending (values, weights).  After each component the sums of
    local eigenvalues are sorted and split into clusters wherever a gap
    exceeds 1e-12 times the largest magnitude; each cluster keeps its
    smallest member as its value and the sum of its weights.  For M equal
    couplings this is the binomial distribution on the M + 1 points
    g (2k - M), each value a sum of local eigenvalues.  Exact because the
    initial state is a product and B is a sum of commuting local terms.
    """
    values = np.array([0.0])
    weights = np.array([1.0])
    for comp, label in zip(bath.components, bath.initial):
        w_loc, v_loc = np.linalg.eigh(comp.coupling_operator())
        init = comp.initial_vector(label)
        p_loc = np.abs(v_loc.conj().T @ init) ** 2
        values = (values[:, None] + w_loc[None, :]).ravel()
        weights = (weights[:, None] * p_loc[None, :]).ravel()
        order = np.argsort(values, kind="stable")
        values, weights = values[order], weights[order]
        scale = max(np.abs(values).max(), 1e-300)
        starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > 1e-12 * scale)
        values = values[starts]
        weights = np.add.reduceat(weights, starts)
        _check_entries("distinct eigenvalues of B", values.size, MAX_UNIQUE_EIGENVALUES)
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
        if self.mass != math.inf or self.potential_omega is not None:
            require_positive(mass=self.mass)  # a harmonic potential needs a finite mass
        if self.potential_omega is not None:
            require_real(potential_omega=self.potential_omega)
        require_positive(hbar=self.hbar)

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
        spin_matrices(self.j, self.hbar)  # validates j and hbar
        require_real(omega=self.omega)


SystemSpec = Union[GridParticle, SpinSystem]


@dataclass(frozen=True)
class NormCurve:
    """Sampled coherence norm N_12(t) with a model fingerprint."""

    times: np.ndarray
    values: np.ndarray
    fingerprint: str

    def __post_init__(self):
        times = _check_times(self.times)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape:
            raise ValidationError("times and values must be matching 1-d arrays")
        require_finite(values=values)
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
    require_real(q=q)
    idx = int(np.argmin(np.abs(grid.points - q)))
    vec = np.zeros(grid.n_points, dtype=complex)
    vec[idx] = 1.0
    return vec, float(grid.points[idx])


def _fingerprint(sys, bath, branch1, branch2, times):
    payload = "|".join(
        [
            repr(sys),
            repr(bath),
            hashlib.sha256(np.ascontiguousarray(branch1).tobytes()).hexdigest(),
            hashlib.sha256(np.ascontiguousarray(branch2).tobytes()).hexdigest(),
            hashlib.sha256(np.asarray(times, dtype=float).tobytes()).hexdigest(),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _normalized_branch(vec, dim, name):
    require_finite(**{name: vec})
    v = np.asarray(vec, dtype=complex).ravel()
    if v.size != dim:
        raise ValidationError(f"{name} has length {v.size}, expected {dim}")
    peak = np.abs(v).max()
    if peak == 0:
        raise ValidationError(f"{name} is the zero vector")
    v = v / peak  # so the norm neither overflows nor underflows
    return v / np.linalg.norm(v)


def _check_times(times):
    require_times(times=times)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValidationError("times must be a non-empty 1-d sequence")
    if np.any(np.diff(t) <= 0):
        raise ValidationError("times must be strictly ascending")
    return t


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


def _sandwich_norm(a, b):
    """N = ||A B^dagger||_F^2 = tr(A^dagger A B^dagger B) for system x bath A, B.

    Contracts the longer matrix axis, so the product formed is the smaller
    square (B^dagger B is Hermitian); leading axes are batched.
    """
    if a.shape[-2] <= a.shape[-1]:
        return np.sum(np.abs(a @ _dagger(b)) ** 2, axis=(-2, -1))
    return np.sum((_dagger(a) @ a) * (_dagger(b) @ b).conj(), axis=(-2, -1)).real


# ---------------------------------------------------------------------------
# Evolution back ends


def _eigen_phase_chunks(times, hbar, eigen, entries_per_time):
    """Per chunk of times ts, the states psi(ts) = v e^{-i w ts / hbar} c.

    For each (w, v, c) in eigen (eigenvalues, eigenvectors, initial
    coefficients in that eigenbasis) a lazy sequence gives a stack of shape
    c.shape + (ts.size,): times on the last axis, so each block of v is one
    matrix product with all the chunk's times, not one per time.  A chunk
    holds SAMPLE_BUDGET // entries_per_time times (at least one), bounding
    the caller's largest stack.  A real v takes half the flops of a complex one.
    """
    step = max(1, SAMPLE_BUDGET // entries_per_time)
    for start in range(0, times.size, step):
        ts = times[start:start + step]
        phased = ((v, np.exp(-1j * np.multiply.outer(w, ts) / hbar) * c[..., None])
                  for w, v, c in eigen)
        # a real v multiplies the float view: real and imaginary parts interleave along t
        yield ((v @ x.view(float)).view(complex) if np.isrealobj(v) else v @ x for v, x in phased)


def _spin_static_curve(sys, bath, branch1, branch2, times):
    """Static bath in B's eigenbasis: column m of a branch is sqrt(W_m) times
    the system state evolved under H_sys + b_m Jx."""
    bvals, weights = bath_eigen_decomposition(bath)
    jx, _, jz = spin_matrices(sys.j, sys.hbar)
    _check_entries("static spin eigenvector stack", bvals.size * jx.size, STACK_BUDGET)
    # Omega Jz + b_m Jx is real symmetric in the Jz basis: v is real
    w, v = np.linalg.eigh(sys.omega * jz.real + bvals[:, None, None] * jx.real)
    c = _dagger(v) @ np.stack([branch1, branch2], axis=-1)
    c = (np.sqrt(weights)[:, None, None] * c).transpose(2, 0, 1)  # (branch, M, d)
    # w gains the branch axis; psi is (branch, M, d, t), the sandwich (t, d, M).
    chunks = _eigen_phase_chunks(times, sys.hbar, [(w[None], v, c)], c.size)
    return np.concatenate([_sandwich_norm(*psi.transpose(0, 3, 2, 1)) for (psi,) in chunks])


def _bath_factors(bath, dicke=True):
    """The bath as independent factors (coupling, level frequencies, initial vector).

    With dicke=False there is one factor per component.  With dicke=True,
    spin-halves sharing g, omega and initial label are merged: k of them
    stay in their symmetric (Dicke) subspace, where sum g sigma_x = 2g Jx,
    sum omega sigma_z / 2 = omega Jz for spin k/2, and the initial state is
    |M = +k/2> ('up') or |M = -k/2> ('down').  A group of one keeps the
    component's own matrices.
    """
    groups = {}
    for i, (comp, label) in enumerate(zip(bath.components, bath.initial)):
        key = (comp.g, comp.omega, label) if dicke and comp.kind == "spin-half" else i
        groups.setdefault(key, [comp, label, 0])[2] += 1
    factors = []
    for comp, label, k in groups.values():
        if k == 1:
            factors.append((comp.coupling_operator(), comp.level_frequencies(),
                            comp.initial_vector(label)))
            continue
        _check_entries("Dicke factor coupling operator", (k + 1) ** 2, DENSE_BATH_LIMIT ** 2)
        # spin_matrices' basis, m = k/2, ..., -k/2, written directly: 2g Jx is real
        # tridiagonal, g sqrt(j(j+1) - m(m+1)) between m and m + 1, and Jz is m
        j, m = 0.5 * k, 0.5 * k - np.arange(k + 1)
        ladder, n = comp.g * np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), np.arange(k)
        coupling = np.zeros((k + 1, k + 1))
        coupling[n, n + 1] = coupling[n + 1, n] = ladder
        vec = np.zeros(k + 1, dtype=complex)
        vec[0 if label == "up" else k] = 1.0
        factors.append((coupling, comp.omega * m, vec))
    return factors


def _sparse_bath_ops(factors, hbar):
    """Sparse coupling agent B and the (diagonal) H_res of a product of factors."""
    import scipy.sparse

    def embed(index, op):  # op on factor index, identity on the others
        mats = [scipy.sparse.csr_matrix(op) if k == index
                else scipy.sparse.identity(chi.size, format="csr")
                for k, (_, _, chi) in enumerate(factors)]
        return reduce(lambda a, b: scipy.sparse.kron(a, b, format="csr"), mats)

    b_sp = sum(embed(i, c) for i, (c, _, _) in enumerate(factors))
    # H_res is diagonal in the storage basis: the Kronecker sum of level frequencies
    diag = reduce(lambda a, b: np.add.outer(a, b).ravel(), [f for _, f, _ in factors])
    return b_sp, hbar * diag


def _chebyshev_top(r):
    """Where Miller's recurrence for J_k(r) starts: past the Airy turning region k ~ r + r^(1/3)."""
    return r + 20.0 * r ** (1.0 / 3.0) + 40.0


def _bessel_j(r):
    """Table of J_k(r_i) for r_i >= 0 (row i, order k) and each row's order K_i.

    K_i is the last order with |J_k(r_i)| >= 1e-17; a row is zero past it.
    Miller's backward recurrence, run on the ratios J_k / J_{k-1} =
    r / (2k - r J_{k+1} / J_k) so that no step overflows (2k / r does as
    r -> 0), started for every row at J_{top+1} = 0 with top =
    _chebyshev_top(max r), where J_top is negligible, and normalized by
    J_0 + 2 sum_k J_2k = 1.  More than CHEBYSHEV_ORDER_LIMIT ratios are
    refused before they are allocated.
    """
    top = _chebyshev_top(r.max())
    _check_entries("Chebyshev coefficients", top, CHEBYSHEV_ORDER_LIMIT)
    ratios = np.empty((int(top), r.size))
    ratio = np.zeros(r.size)
    for k in range(int(top), 0, -1):
        ratio = r / (2.0 * k - r * ratio)
        ratios[k - 1] = ratio
    j = np.vstack((np.ones(r.size), np.cumprod(ratios, axis=0)))  # J_k / J_0
    j /= j[0] + 2.0 * j[2::2].sum(axis=0)
    orders = j.shape[0] - 1 - np.argmax(np.abs(j[::-1]) >= 1e-17, axis=0)
    j[np.arange(j.shape[0])[:, None] > orders] = 0.0
    return j[:orders.max() + 1].T, orders


def _spectral_scale(lo, hi):
    """(mid, hw) mapping a Hermitian H with spectrum in [lo, hi] to h~ = (H - mid) / hw
    with spectrum in [-1, 1]; the shift is a global phase, which cancels in every norm."""
    return 0.5 * (lo + hi), max(0.5 * (hi - lo), np.finfo(float).tiny)  # scalar H: R = 0


def _chebyshev_advance(times, branch1, branch2, bath_state, step, hw, hbar, axes):
    """N_12(times) from psi = branch_k (x) bath_state (branches on axis 0,
    system x bath matrices) under exp(-i H t / hbar), checking each branch
    stays at unit norm at every sample.

    Tal-Ezer and Kosloff's expansion, one series per chunk of sample times,
    for h~ = (H - mid) / hw of _spectral_scale, run on the terms
    S_k = (-i)^k T_k(h~) psi: S_1 = -i h~ S_0 and S_{k+1} = -2i h~ S_k + S_{k-1},
    where step(x, prev, out) writes -2i h~ x + prev into the buffer out (never
    x or prev).  From the state psi = S_0 at a chunk's start the terms are
    built once and shared: the sample at offset tau_i is the real-coefficient
    sum_k (2 - delta_k0) J_k(hw tau_i / hbar) S_k, each row of coefficients
    cut where |J_k| < 1e-17.  The last B >= 3 terms are held in a ring, which
    is also the recurrence's buffer; every B terms are added, as one real
    matrix product on float views, to the samples whose series still runs, a
    suffix since times ascend.  A chunk holds at least one time and ends
    before its accumulators or its coefficient table would pass
    SAMPLE_BUDGET entries, or its next offset's recurrence would pass
    CHEBYSHEV_ORDER_LIMIT; the next chunk starts from its last sample.  The
    recurrence runs on psi.transpose(axes), made contiguous, and each sample
    is reduced through the inverse transpose.
    """
    shape = tuple(((2,) + branch1.shape + bath_state.shape)[a] for a in axes)
    inverse = np.argsort(axes)
    rows = max(1, SAMPLE_BUDGET // math.prod(shape))  # accumulators per chunk
    ring = np.empty((max(3, rows),) + shape, dtype=complex)
    ring[0] = np.multiply.outer(np.stack([branch1, branch2]), bath_state).transpose(axes)
    acc = np.empty((min(rows, times.size), ring[0].size), dtype=complex)
    norms, start, t0 = np.empty(times.size), 0, 0.0
    while start < times.size:
        r = hw * (times[start:start + rows] - t0) / hbar
        tops = _chebyshev_top(r)
        fits = (np.arange(1, r.size + 1) * tops <= SAMPLE_BUDGET) & (tops <= CHEBYSHEV_ORDER_LIMIT)
        coef, orders = _bessel_j(r[:max(1, int(np.cumprod(fits).sum()))])
        coef[:, 1:] *= 2.0
        chunk = acc[:orders.size]
        chunk[:] = 0.0
        for k in range(coef.shape[1]):
            slot = k % len(ring)
            if k == 1:  # S_1 = (-2i h~ S_0 + 0) / 2; slot 2 is free until k = 2
                ring[2] = 0.0
                step(ring[0], ring[2], ring[1])
                ring[1] *= 0.5
            elif k > 1:
                step(ring[(k - 1) % len(ring)], ring[(k - 2) % len(ring)], ring[slot])
            if slot == len(ring) - 1 or k == coef.shape[1] - 1:  # add the terms k0..k
                k0 = k - slot
                first = int(np.argmax(orders >= k0))  # the samples whose series still runs
                terms = ring[:slot + 1].reshape(slot + 1, -1).view(float)
                chunk.view(float)[first:] += coef[first:, k0:k + 1] @ terms
        for i, state in enumerate(chunk, start):
            psi = np.ascontiguousarray(state.reshape(shape).transpose(inverse))
            drift = max(abs(np.linalg.norm(branch) - 1.0) for branch in psi)
            if drift > UNITARITY_DRIFT:
                raise StepSizeError(f"unitarity drift {drift:.3g}")
            norms[i] = _sandwich_norm(psi[0], psi[1])
        ring[0] = chunk[-1].reshape(shape)
        start += orders.size
        t0 = times[start - 1]
    return norms


def _spin_sparse_curve(sys, bath, branch1, branch2, times):
    """The joint H as one scipy.sparse matrix on a (system, bath, branch)
    state, its spectral interval from Gershgorin's row sums."""
    import scipy.sparse

    factors = _bath_factors(bath)
    dim_s = branch1.size
    dim_b = math.prod(chi.size for _, _, chi in factors)
    _check_entries("Krylov joint state", dim_s * dim_b, JOINT_DIMENSION_LIMIT)
    jx, _, jz = spin_matrices(sys.j, sys.hbar)
    b_sp, hres_diag = _sparse_bath_ops(factors, sys.hbar)
    eye_b = scipy.sparse.identity(dim_b, format="csr")
    h = (
        sys.omega * scipy.sparse.kron(scipy.sparse.csr_matrix(jz), eye_b, format="csr")
        + scipy.sparse.kron(scipy.sparse.identity(dim_s, format="csr"),
                            scipy.sparse.diags(hres_diag), format="csr")
        + scipy.sparse.kron(scipy.sparse.csr_matrix(jx), b_sp, format="csr")
    )
    diag = h.diagonal().real
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    mid, hw = _spectral_scale(np.min(diag - radius), np.max(diag + radius))
    h = h - mid * scipy.sparse.identity(len(diag), format="csr")  # -2i h~ replaces H: one copy
    h.data *= -2j / hw
    chi0 = reduce(np.kron, [chi for _, _, chi in factors])

    def step(x, prev, out):
        n = len(diag)
        np.add(h @ x.reshape(n, -1), prev.reshape(n, -1), out=out.reshape(n, -1))

    return _chebyshev_advance(times, branch1, branch2, chi0, step, hw, sys.hbar, axes=(1, 2, 0))


def _pointer_curve(pointers, amp1, amp2, bath, hbar, times):
    """N = sum |amp1_q amp2_q'|^2 |<chi_q(t)|chi_q'(t)>|^2 for a conserved coupling operator.

    pointers are its eigenvalues q, amp1 and amp2 the branches in its
    eigenbasis.  <chi_q(t)|chi_q'(t)> = prod_i <chi_{q,i}(t)|chi_{q',i}(t)>,
    exact because q B + H_res is a sum of commuting single-component terms
    and the initial bath state is a product.  The Q x Q overlaps (Q occupied
    pointers, refused above STACK_BUDGET entries) are reduced one sampler
    chunk at a time, so memory stays O(Q^2).
    """
    occupied = np.flatnonzero((np.abs(amp1) > 1e-14) | (np.abs(amp2) > 1e-14))
    qs = pointers[occupied]
    factors = _bath_factors(bath, dicke=False)
    _check_entries("pointer eigenvector stacks", qs.size * sum(c.size for c, _, _ in factors),
                   STACK_BUDGET)
    _check_entries("pointer overlaps", qs.size * qs.size, STACK_BUDGET)
    eigen = []
    for c, f, chi in factors:  # per pointer q: q coupling + hbar level frequencies
        w, v = np.linalg.eigh(qs[:, None, None] * c + hbar * np.diag(f))
        eigen.append((w, v, _dagger(v) @ chi))
    w1, w2 = (np.abs(amp[occupied]) ** 2 for amp in (amp1, amp2))
    norms = []
    for chis in _eigen_phase_chunks(times, hbar, eigen, qs.size ** 2):
        # chi has axes (q, level, t); the overlaps are (t, q, q').
        overlaps = reduce(np.multiply, (chi.transpose(2, 0, 1).conj() @ chi.transpose(2, 1, 0)
                                        for chi in chis))
        norms.append((np.abs(overlaps) ** 2 @ w1) @ w2)
    return np.concatenate(norms)


def _grid_curve(sys, bath, branch1, branch2, times):
    """H = T + V + q B + H_res on a (bath, branch, grid) state, by _chebyshev_advance.

    T = hbar^2 k^2 / 2M is applied by FFT along the contiguous grid axis.  A
    static bath is held in B's eigenbasis: B is diagonal, so q B joins the
    potential, H_res = 0 and the initial bath vector is sqrt(W).  A dynamic
    bath is held as Dicke factors, with B applied as one sparse product on
    the bath axis.  With D = V + h_res (plus q b_m when static) and the
    radius rad = |q| rowsum|B| (zero when static), the spectrum lies in
    [min(D - rad), max(D + rad) + max T]: Gershgorin for V + q B + H_res,
    and T >= 0 adds at most max T.
    """
    q = sys.grid.points
    if bath.is_static():
        bvals, weights = bath_eigen_decomposition(bath)
        _check_entries("static grid columns", q.size * bvals.size, JOINT_DIMENSION_LIMIT)
        diag, radius, b_sp, chi0 = bvals[:, None] * q, 0.0, None, np.sqrt(weights)
    else:
        factors = _bath_factors(bath)
        dim_b = math.prod(chi.size for _, _, chi in factors)
        _check_entries("dynamic grid state", q.size * dim_b, JOINT_DIMENSION_LIMIT)
        b_sp, hres_diag = _sparse_bath_ops(factors, sys.hbar)
        diag, radius = hres_diag[:, None], np.abs(q) * np.asarray(abs(b_sp).sum(axis=1))
        chi0 = reduce(np.kron, [chi for _, _, chi in factors])
    diag = diag + sys.potential()  # (bath, grid)
    k = 2.0 * np.pi * np.fft.fftfreq(q.size, d=sys.grid.spacing)
    kin = (sys.hbar * k) ** 2 / (2.0 * sys.mass)

    mid, hw = _spectral_scale(np.min(diag - radius), np.max(diag + radius) + kin.max())
    scale = -2j / hw  # the parts of -2i h~ = -2i (H - mid) / hw
    kin_s, diag_s, q_s = scale * kin, (scale * (diag - mid))[:, None, :], scale * q

    def step(x, prev, out):
        np.fft.fft(x, axis=-1, out=out)
        out *= kin_s
        np.fft.ifft(out, axis=-1, out=out)
        out += diag_s * x
        if b_sp is not None:
            out += q_s * (b_sp @ x.reshape(x.shape[0], -1)).reshape(x.shape)
        out += prev

    return _chebyshev_advance(times, branch1, branch2, chi0, step, hw, sys.hbar, axes=(2, 0, 1))


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
        Ignored: every back end is exact in the step size, so dt moves no
        value and no fingerprint.  It is still validated (finite and
        positive when given) and is due to be removed.

    The back end follows what is conserved (see the module docstring): an
    infinite mass or omega == 0 conserves the coupling operator (pointers).
    A stepped back end (Krylov, finite-mass grid) costs about hw t_total / hbar
    applications of H, plus one Bessel tail of about 20 R^(1/3) + 40 terms per
    chunk of sample times; on the grid hw is dominated by hbar^2 k_max^2 / 2M
    with k_max = pi / spacing.
    """
    times = _check_times(times)
    if dt is not None:
        require_positive(dt=dt)
    require_instance(sys=(sys, (SpinSystem, GridParticle)), bath=(bath, BathModel))
    values = _norm_values(sys, bath, branch1, branch2, times)
    return NormCurve(times, values, _fingerprint(sys, bath, branch1, branch2, times))


@_float_range_checked
def _norm_values(sys, bath, branch1, branch2, times):
    """evolve_norm's values, from the back end that follows what is conserved."""
    dim = int(round(2 * sys.j)) + 1 if isinstance(sys, SpinSystem) else sys.grid.n_points
    b1 = _normalized_branch(branch1, dim, "branch1")
    b2 = _normalized_branch(branch2, dim, "branch2")
    if isinstance(sys, SpinSystem) and sys.omega == 0:
        w, v = np.linalg.eigh(spin_matrices(sys.j, sys.hbar)[0])
        values = _pointer_curve(w, _dagger(v) @ b1, _dagger(v) @ b2, bath, sys.hbar, times)
    elif isinstance(sys, SpinSystem):
        curve = _spin_static_curve if bath.is_static() else _spin_sparse_curve
        values = curve(sys, bath, b1, b2, times)
    elif math.isinf(sys.mass):
        values = _pointer_curve(sys.grid.points, b1, b2, bath, sys.hbar, times)
    else:
        values = _grid_curve(sys, bath, b1, b2, times)
    # N <= 1: roundoff past it is clipped, a larger excess left for NormCurve to refuse
    return np.where(values > 1.0 + 1e-9, values, np.clip(values, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Closed-form oracle limits and fits


@_float_range_checked
def static_bath_norm(d, bath, t, hbar=1.0):
    """Exact norm for frozen system and bath: N(t) = prod_i cos^2(d g_i t / hbar).

    Requires spin-half components in sigma_z eigenstates under sigma_x
    coupling; ``d`` is the effective separation in the coupling agent.
    """
    for comp in bath.components:
        if comp.kind != "spin-half":
            raise ValidationError("static_bath_norm requires spin-half components")
    require_real(d=d)
    require_times(t=t)
    require_positive(hbar=hbar)
    t = np.asarray(t, dtype=float)
    # a running product over the distinct couplings keeps memory O(times)
    gs, counts = np.unique([c.g for c in bath.components], return_counts=True)
    result = np.ones_like(t)
    for g, k in zip(gs, counts):
        result *= np.cos(t * g * d / hbar) ** (2 * k)
    return result if result.ndim else float(result)


def bath_characteristic(bath, lam):
    """Exact characteristic function <e^{i lam B}> of the initial state."""
    require_real_array(lam=lam)
    lam = np.asarray(lam, dtype=float)
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
    try:
        lo, hi = window
    except (TypeError, ValueError):  # not iterable, or not two entries
        raise ValidationError(f"fit window must be a pair (lo, hi), got {window!r}") from None
    require_real(lo=lo, hi=hi)
    if not 0 <= lo < hi <= 1:
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
