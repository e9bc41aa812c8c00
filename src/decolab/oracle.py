"""Exact evolution of system x finite-bath pure states.

The oracle measures coherence norms directly from the full Hamiltonian
H = H_sys + H_res + q (x) B, q the system's coupling operator (a
particle's position, a spin's Jx), on small composite Hilbert spaces, with
no short-time or Gaussian approximation, so every closed-form law can be
validated against it at desk scale.

The bath is a product of independent components (spin-halves coupled
through sigma_x, truncated oscillators through a + a^dagger), each
prepared in a pure state with vanishing coupling mean.  Norms are computed
by the pure-state sandwich: the two branches, as system x bath matrices
A1, A2, give rho^{12} = A1 A2^dagger after the bath contraction and
N_12 = ||A1 A2^dagger||_F^2, never the full density matrix.

Every path reads a component through one description, its tridiagonal
factor (``_bath_factors``: coupling off-diagonal c, level frequencies,
initial level n).  The bath statistics (moments of B and its correlations)
are its spectral lines, of weight c_{n-1}^2 and c_n^2 at the frequencies
omega_{n-1} - omega_n and omega_{n+1} - omega_n: no kind has its own formula.

Every path reads the system through one description too, in the eigenbasis
of q (``_coupling_basis``): the pointers (q's eigenvalues), the two
branches in that basis, a diagonal potential and the free motion.  A grid
particle is in that form already, its kinetic energy applied by FFT.  A
spin enters it through the rotation exp(-i pi Jy / 2 hbar) of its two
branches, a Chebyshev series, after which Jx is the diagonal -hbar m and
Omega Jz a real tridiagonal: no dense matrix of the spin is formed.

Evolution strategies, by what the Hamiltonian conserves:

* q, when the free motion is zero (a frozen particle of infinite mass, or
  a spin with Omega = 0): q B + H_res is then a sum of commuting
  single-component terms and each pointer's bath state stays a product;
  the pointer overlaps are products over components of levels x levels
  evolutions, with no joint bath, from one sampler of v e^{-i w t / hbar} c
  over chunks of times;
* otherwise the joint state is stepped by the Chebyshev expansion of its
  propagator (Tal-Ezer and Kosloff), one series per chunk of sample times
  whose terms S_k = (-i)^k T_k(h~) psi every sample of the chunk shares,
  each sample their real combination with coefficients 2 J_k, cut where
  these fall below 1e-17, exact to roundoff at any time offset.  One
  driver, on a (bath..., branch, system) state, serves every system
  (H = T + V + q B + H_res) and the spin's rotation, and checks unitarity
  at every sample.

How the stepped back end holds the bath:

* a static bath (all component frequencies zero) in B's eigenbasis, one
  axis with amplitude sqrt(W_m) on each distinct eigenvalue b_m, which is
  exact: B is diagonal and H_res = 0;
* a dynamic bath as its independent factors, one axis each.  Every
  coupling decolab builds (g sigma_x, g (a + a^dagger), the Dicke 2g Jx) is
  real symmetric tridiagonal with a zero diagonal, and so is a spin's
  Omega Jz in the pointer basis: each is applied along its own axis as two
  shifted multiply-adds with its off-diagonal (times q for a coupling),
  V + H_res (+ q b_m when static) as one diagonal multiply, and the
  Gershgorin bounds come from their row sums.  Spin-halves with equal g,
  omega and initial sigma_z state stay in their symmetric (Dicke)
  subspace, so k of them evolve as one spin k/2 of dimension k + 1 instead
  of 2^k.

A bath model sets no limit on its dimension, only on one component's
levels, which every path holds as vectors.  Before each allocation that
grows with the bath, ``_check_entries`` refuses an array above the limit
of the code making it (the constants below say what each limit counts and
where it applies) with a ValidationError naming the array and its entry
count.

Every back end, bath operator, closed form and fit here needs numpy
alone.
"""

import hashlib
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import (
    NumericalError, ValidationError, _float_range_checked, is_int, require_finite,
    require_instance, require_nonnegative, require_positive, require_real, require_real_array,
    require_times,
)
from .laws import BathMoments, CorrelationFunction
from .packets import GaussianPacket, PositionGrid, position_amplitude
from .spin import _check_j, _ladder

# levels of a dense vector, squared for a matrix: a component's dense coupling (the eigh
# callers), BathModel.initial_state and build_bath_operators
DENSE_BATH_LIMIT = 4096
MAX_UNIQUE_EIGENVALUES = 1 << 16  # distinct eigenvalues of B, for a static bath's eigenbasis
JOINT_DIMENSION_LIMIT = 1 << 21  # the stepped system x bath state per branch; a component's levels
STACK_BUDGET = 1 << 22           # per-pointer matrix stack: pointer
CHEBYSHEV_ORDER_LIMIT = 1 << 20  # Bessel coefficients of one Chebyshev offset
SAMPLE_BUDGET = 1 << 17          # entries per time-chunk stack or Chebyshev coefficient table
UNITARITY_DRIFT = 1e-8


def _check_entries(array, entries, limit):
    """Raise ValidationError before allocating an array of more than limit entries."""
    if entries > limit:
        raise ValidationError(f"{array} would hold {entries} entries, above the limit {limit}")


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
        # each path holds the levels as vectors; a stepped one holds a joint state at least as large
        _check_entries("component level vector", self.levels, JOINT_DIMENSION_LIMIT)

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


@dataclass(frozen=True)
class BathModel:
    """Ordered bath components with a pure product initial state.

    Every component's initial state has a vanishing coupling mean, zero by
    construction: each starts in a storage-basis level and each coupling has
    a zero diagonal there.  The size limits live in the oracle paths (see
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
            comp.initial_level(label)

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
        return reduce(np.kron, [chi for _, _, chi in _bath_factors(self, dicke=False)])


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


def _bath_factors(bath, dicke=True):
    """The bath as independent factors (off-diagonal, level frequencies, initial vector).

    The one description of a component that every path reads.  Every
    factor's coupling is real symmetric tridiagonal with a zero diagonal in
    its storage basis (g (a + a^dagger), g sigma_x or 2g Jx), so it is held
    as its off-diagonal: entry n couples levels n and n + 1; the initial
    vector is one storage-basis level.  With dicke=False there is one factor
    per component.  With dicke=True,
    spin-halves sharing g, omega and initial label are merged: k of them stay
    in their symmetric (Dicke) subspace, where sum g sigma_x = 2g Jx,
    sum omega sigma_z / 2 = omega Jz for spin k/2, and the initial state is
    |M = +k/2> ('up') or |M = -k/2> ('down').  A group of one keeps the
    component's own levels.
    """
    groups = {}
    for i, (comp, label) in enumerate(zip(bath.components, bath.initial)):
        key = (comp.g, comp.omega, label) if dicke and comp.kind == "spin-half" else i
        groups.setdefault(key, [comp, label, 0])[2] += 1
    factors = []
    for comp, label, k in groups.values():
        if k == 1:  # g (a + a^dagger) has g sqrt(n + 1) between n and n + 1
            off = comp.g * np.sqrt(np.arange(comp.levels - 1) + 1.0)
            freqs, n = comp.level_frequencies(), comp.initial_level(label)
        else:  # spin k/2 in spin_matrices' basis m = k/2, ..., -k/2: 2g Jx and omega Jz
            m, ladder = _ladder(0.5 * k)
            off, freqs, n = comp.g * ladder, comp.omega * m, 0 if label == "up" else k
        chi = np.zeros(freqs.size, dtype=complex)
        chi[n] = 1.0
        factors.append((off, freqs, chi))
    return factors


def _dense_coupling(off):
    """The zero-diagonal symmetric tridiagonal with off-diagonal off, as a dense matrix."""
    _check_entries("dense coupling", (off.size + 1) ** 2, DENSE_BATH_LIMIT ** 2)
    n = np.arange(off.size)
    dense = np.zeros((off.size + 1, off.size + 1), dtype=complex)
    dense[n, n + 1] = dense[n + 1, n] = off
    return dense


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
    component kind), so out of it the component's tridiagonal coupling c
    has lines of weight a = |<k|c|n>|^2 (k = n - 1 and n + 1 only) at the
    frequencies nu = omega_k - omega_n of its frequency operator;
    zero-weight lines are skipped.  Then
    <B^2> = sum a, <Bdot^2> = sum a nu^2, kappa = (2/hbar) sum a nu and
    <B~(s) B> = sum a exp(-i nu s); corr holds the lines, so
    sym(s) = 2 sum a cos(nu s).
    """
    require_instance(bath=(bath, BathModel))
    require_positive(hbar=hbar)
    lines = []
    for off, freqs, chi in _bath_factors(bath, dicke=False):
        n = int(np.flatnonzero(chi)[0])
        weights = np.zeros(freqs.size)  # c links n to n - 1 by off[n - 1], n + 1 by off[n]
        weights[n - 1:n] = off[n - 1:n] ** 2
        weights[n + 1:n + 2] = off[n:n + 1] ** 2
        lines += [(float(weights[k]), float(freqs[k] - freqs[n]))
                  for k in np.flatnonzero(weights)]
    var_b = sum(a for a, _ in lines)
    var_bdot = sum(a * nu * nu for a, nu in lines)
    kappa = sum(2.0 * a * nu for a, nu in lines) / hbar
    return BathMoments(var_b, var_bdot, kappa), CorrelationFunction("lines", tuple(lines))


def build_bath_operators(bath, hbar=1.0):
    """Dense B, Bdot, Bddot, the diagonal of H_res, moments and correlations.

    B is the Kronecker sum of the components' tridiagonal couplings, its
    nonzeros written straight into the dense matrix; Bdot and Bddot are the
    nested commutators (i/hbar)[H_res, .] applied to B.  H_res is diagonal in
    the storage basis and is returned as that real diagonal h, so each
    commutator is the elementwise product (i/hbar)(h_k - h_l) X_kl, with no
    matrix product.  B, Bdot and Bddot are full-bath dimension x dimension
    matrices: refused above DENSE_BATH_LIMIT (4096, 12 spin-halves) levels.
    """
    require_instance(bath=(bath, BathModel))
    require_positive(hbar=hbar)
    dim = bath.dimension
    _check_entries("dense bath operator", dim * dim, DENSE_BATH_LIMIT ** 2)
    factors = _bath_factors(bath, dicke=False)
    b_total = np.zeros((dim, dim), dtype=complex)
    after = dim
    for off, _, chi in factors:  # level n -> n + 1 of this factor is a step of `after`
        before, after = dim // after, after // chi.size
        lower = (np.arange(before)[:, None, None] * chi.size + np.arange(off.size)[:, None]) * after
        lower = lower + np.arange(after)
        b_total[lower, lower + after] = b_total[lower + after, lower] = off[:, None]
    hres_diag = hbar * _kron_sum([f for _, f, _ in factors])
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
    require_instance(bath=(bath, BathModel))
    values = np.array([0.0])
    weights = np.array([1.0])
    for off, _, chi in _bath_factors(bath, dicke=False):
        w_loc, v_loc = np.linalg.eigh(_dense_coupling(off))
        p_loc = np.abs(v_loc.conj().T @ chi) ** 2
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
        _check_j(self.j)
        require_positive(hbar=self.hbar)
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
    require_instance(packet=(packet, GaussianPacket), grid=(grid, PositionGrid))
    vec = position_amplitude(packet, grid.points).astype(complex)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValidationError("packet has no support on the grid")
    return vec / norm


def position_eigenstate(grid, q):
    """Delta state at the grid point nearest q; returns (state, snapped q)."""
    require_instance(grid=(grid, PositionGrid))
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


def _float_rows(x):
    """x with its last two axes flattened, as floats (real and imaginary parts interleaved)."""
    return x.reshape(x.shape[:-2] + (-1,)).view(float)


def _sandwich_norm(a, b):
    """N = ||A B^dagger||_F^2 = tr(A^dagger A B^dagger B) for system x bath A, B.

    Contracts the longer matrix axis, so the product formed is the smaller
    square (B^dagger B is Hermitian); leading axes are batched.  The final
    sum of Re x Re y + Im x Im y is one dot product on float views.
    """
    if a.shape[-2] <= a.shape[-1]:
        x = y = a @ _dagger(b)
    else:
        x, y = _dagger(a) @ a, _dagger(b) @ b
    return np.einsum("...i,...i->...", _float_rows(x), _float_rows(y))


# ---------------------------------------------------------------------------
# Evolution back ends


def _kron_sum(vectors):
    """The diagonal of sum_f 1 (x) diag(v_f) (x) 1, flattened in storage order."""
    return reduce(lambda a, b: np.add.outer(a, b).ravel(), vectors)


def _row_sums(off):
    """Row sums of |T|, T the zero-diagonal symmetric tridiagonal with off-diagonal off."""
    return np.convolve(np.abs(off), [1.0, 1.0])


def _stepped_bath(bath, dim_s, hbar):
    """The bath as the stepped back end holds it: (bvals, offs, chi0, hres, rows).

    A static bath is one axis in B's eigenbasis, which is exact: B = diag(bvals),
    H_res = 0 and the initial vector chi0 = sqrt(W), with offs None.  A
    dynamic bath has one axis per factor of _bath_factors: offs are their
    off-diagonals, chi0 the product of their initial vectors (one axis each)
    and bvals None.  hres (hbar times the level frequencies) and rows
    (rowsum|B|, the Kronecker sum of the factors' row sums) are flat over the
    bath.  The joint state of dim_s system levels per bath level is refused
    above JOINT_DIMENSION_LIMIT entries per branch.
    """
    if bath.is_static():
        bvals, weights = bath_eigen_decomposition(bath)
        _check_entries("stepped joint state", dim_s * bvals.size, JOINT_DIMENSION_LIMIT)
        return bvals, None, np.sqrt(weights), np.zeros(bvals.size), np.abs(bvals)
    factors = _bath_factors(bath)
    _check_entries("stepped joint state", dim_s * math.prod(chi.size for _, _, chi in factors),
                   JOINT_DIMENSION_LIMIT)
    offs = [off for off, _, _ in factors]
    chi0 = reduce(np.multiply.outer, [chi for _, _, chi in factors])
    hres = hbar * _kron_sum([f for _, f, _ in factors])
    return None, offs, chi0, hres, _kron_sum([_row_sums(off) for off in offs])


def _tridiagonal(out, x, tmp, coef, shift):
    """out += T x for T a real symmetric tridiagonal with a zero diagonal, held as coef.

    The flat state is cut into blocks of coef.size + shift entries, and
    coef[i] couples entries i and i + shift of every block: T acts along an
    axis of stride shift, and coef holds its off-diagonal at the full shape
    of that axis and the later ones (zero where an index would wrap), so
    each multiply runs over whole contiguous blocks.  tmp is a scratch
    state; nothing is allocated per call.
    """
    cols = coef.size + shift
    out, x, tmp = out.reshape(-1, cols), x.reshape(-1, cols), tmp.reshape(-1, cols)
    lo, hi = (slice(None), slice(None, -shift)), (slice(None), slice(shift, None))
    for dst, src in ((lo, hi), (hi, lo)):  # T_{i,i+s} x_{i+s}, then T_{i+s,i} x_i
        np.multiply(coef, x[src], out=tmp[dst])
        np.add(out[dst], tmp[dst], out=out[dst])


def _last_axis(off, shape):
    """_tridiagonal's (coef, shift) for the off-diagonal off along the last axis of shape."""
    return np.broadcast_to(np.append(off, 0.0), shape).ravel()[:-1], 1


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


def _chebyshev_samples(times, psi, hw, hbar, diag, kin, tridiagonals):
    """Yield exp(-i H t / hbar) psi at the times, chunk by chunk, checking that
    each branch stays at unit norm at every sample.

    psi has the axes (bath..., branch, system), the system contiguous last.
    H has its spectrum in [mid - hw, mid + hw] and h~ = (H - mid) / hw; -2i h~
    comes in parts: diag, a multiply broadcast against the state; kin, one in the
    Fourier basis of the last axis, or None; and tridiagonals, _tridiagonal's
    (coef, shift) pairs.  Tal-Ezer and Kosloff's expansion, one series per
    chunk of sample times, run on the terms S_k = (-i)^k T_k(h~) psi:
    S_1 = -i h~ S_0 and S_{k+1} = -2i h~ S_k + S_{k-1}.  From the state
    psi = S_0 at a chunk's start the terms are built once and shared: the
    sample at offset tau_i is the real-coefficient
    sum_k (2 - delta_k0) J_k(hw tau_i / hbar) S_k, each row of coefficients
    cut where |J_k| < 1e-17.  The last B >= 3 terms are held in a ring, which
    is also the recurrence's buffer; every B terms are added, as one real
    matrix product on float views, to the samples whose series still runs, a
    suffix since times ascend.  A chunk holds at least one time and ends
    before its accumulators or its coefficient table would pass
    SAMPLE_BUDGET entries, or its next offset's recurrence would pass
    CHEBYSHEV_ORDER_LIMIT; the next chunk starts from its last sample.  Each
    chunk is yielded as a (sample, bath, branch, system) view, valid until
    the next one.
    """
    shape = psi.shape
    rows = max(1, SAMPLE_BUDGET // psi.size)  # accumulators per chunk
    ring = np.empty((max(3, rows),) + shape, dtype=complex)
    ring[0] = psi
    tmp = np.empty_like(psi)
    acc = np.empty((min(rows, times.size), psi.size), dtype=complex)

    def step(x, prev, out):  # out = -2i h~ x + prev
        np.multiply(diag, x, out=out)
        if kin is not None:  # the kinetic energy, by FFT
            np.fft.fft(x, axis=-1, out=tmp)
            out += np.fft.ifft(np.multiply(tmp, kin, out=tmp), axis=-1, out=tmp)
        for coef, shift in tridiagonals:
            _tridiagonal(out, x, tmp, coef, shift)
        out += prev

    start, t0 = 0, 0.0
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
        samples = chunk.reshape(orders.size, -1, 2, shape[-1])
        squares = samples.view(float)
        drift = np.abs(np.sqrt(np.einsum("nbks,nbks->nk", squares, squares)) - 1.0).max()
        if drift > UNITARITY_DRIFT:
            raise NumericalError(f"unitarity drift {drift:.3g}")
        yield samples
        ring[0] = chunk[-1].reshape(shape)
        start += orders.size
        t0 = times[start - 1]


def _coupling_basis(sys, amps):
    """The system in the eigenbasis of its coupling operator: (q, amps, potential, kin, off).

    q are the operator's eigenvalues (the pointers), amps the branches (rows)
    in that basis and the potential a diagonal there.  The free motion is
    kin, applied by FFT along the system axis, or off, the off-diagonal of a
    real symmetric tridiagonal along it; the other is None.  A grid particle
    is in this form already.  A spin enters it through U = exp(-i pi Jy / 2 hbar),
    which takes Jx to the diagonal -hbar m (ascending) and Jz to Jx, so
    Omega Jz has off = Omega hbar ladder / 2.  U = Rz Ex Rz^dagger, Rz the
    phases e^{-i pi m / 2} of exp(-i pi Jz / 2 hbar) and Ex = exp(-i pi Jx / 2 hbar)
    a Chebyshev series on the branches, about pi j / 2 tridiagonal terms
    (Jx / hbar has the spectrum [-j, j]).
    """
    if isinstance(sys, GridParticle):
        k = 2.0 * np.pi * np.fft.fftfreq(amps.shape[1], d=sys.grid.spacing)
        return sys.grid.points, amps, sys.potential(), (sys.hbar * k) ** 2 / (2.0 * sys.mass), None
    m, ladder = _ladder(sys.j)
    phases = np.exp(-0.5j * np.pi * m)
    jx = _last_axis((-1j / sys.j) * ladder, amps.shape)  # -2i h~ = -2i (Jx / hbar) / j
    rotated = next(_chebyshev_samples(np.array([0.5 * np.pi]), amps * phases.conj(), sys.j, 1.0,
                                      0.0, None, [jx]))
    return (-sys.hbar * m, rotated[0, 0] * phases, np.zeros(m.size), None,
            sys.omega * (0.5 * sys.hbar * ladder))


def _pointer_curve(pointers, amp1, amp2, bath, hbar, times):
    """N = sum |amp1_q amp2_q'|^2 |<chi_q(t)|chi_q'(t)>|^2 for a conserved coupling operator.

    pointers are its eigenvalues q, amp1 and amp2 the branches in its
    eigenbasis.  <chi_q(t)|chi_q'(t)> = prod_i <chi_{q,i}(t)|chi_{q',i}(t)>,
    exact because q B + H_res is a sum of commuting single-component terms
    and the initial bath state is a product: chi_{q,i}(t) = v e^{-i w t / hbar} c0
    for the eigh (w, v) of q c + hbar diag(omega) and c0 = v^dagger chi_i(0).
    Times come in chunks of SAMPLE_BUDGET // Q^2 (at least one), so the Q x Q
    overlaps (Q occupied pointers, refused above STACK_BUDGET entries) stay
    O(Q^2) per time.
    """
    occupied = np.flatnonzero((np.abs(amp1) > 1e-14) | (np.abs(amp2) > 1e-14))
    qs = pointers[occupied]
    factors = _bath_factors(bath, dicke=False)
    _check_entries("pointer eigenvector stacks",
                   qs.size * sum(chi.size ** 2 for _, _, chi in factors), STACK_BUDGET)
    _check_entries("pointer overlaps", qs.size * qs.size, STACK_BUDGET)
    eigen = []
    for off, freqs, chi in factors:
        w, v = np.linalg.eigh(qs[:, None, None] * _dense_coupling(off) + hbar * np.diag(freqs))
        eigen.append((w, v, _dagger(v) @ chi))
    w1, w2 = (np.abs(amp[occupied]) ** 2 for amp in (amp1, amp2))
    step = max(1, SAMPLE_BUDGET // qs.size ** 2)
    norms = []
    for start in range(0, times.size, step):
        ts = times[start:start + step]
        # chi has axes (q, level, t); the overlaps are (t, q, q').
        chis = (v @ (np.exp(-1j * np.multiply.outer(w, ts) / hbar) * c0[..., None])
                for w, v, c0 in eigen)
        overlaps = reduce(np.multiply, (chi.transpose(2, 0, 1).conj() @ chi.transpose(2, 1, 0)
                                        for chi in chis))
        norms.append((np.abs(overlaps) ** 2 @ w1) @ w2)
    return np.concatenate(norms)


def _stepped_curve(q, amps, potential, kin, off, bath, hbar, times):
    """H = T + V + q B + H_res on a (bath..., branch, system) state, by _chebyshev_samples.

    The system comes as _coupling_basis gives it, T being kin or off; the
    bath as _stepped_bath gives it: when static, q B = diag(q b_m) joins the
    potential, otherwise q B is each factor's tridiagonal coupling times q,
    along the factor's own axis.  With D = V + h_res (+ q b_m) and the radius
    rad = |q| rowsum|B| + rowsum|off| (zero where absent), the spectrum lies
    in [min(D - rad), max(D + rad) + max kin]: Gershgorin for all but kin,
    which is >= 0.  The shift to the middle is a global phase, which cancels
    in every norm.
    """
    bvals, offs, chi0, hres, rows = _stepped_bath(bath, q.size, hbar)
    if offs is None:
        diag, radius = np.multiply.outer(bvals, q), 0.0
    else:
        diag, radius = hres[:, None], np.multiply.outer(rows, np.abs(q))
    diag = diag + potential  # (bath, system)
    if off is not None:
        radius = radius + _row_sums(off)
    lo, hi = np.min(diag - radius), np.max(diag + radius) + (0.0 if kin is None else kin.max())
    mid, hw = 0.5 * (lo + hi), max(0.5 * (hi - lo), np.finfo(float).tiny)  # scalar H: R = 0
    scale = -2j / hw  # the parts of -2i h~ = -2i (H - mid) / hw
    psi = np.multiply.outer(chi0, amps)
    shape = psi.shape
    diag_s = (scale * (diag - mid)).reshape(chi0.shape + (1, q.size))
    terms = [(np.multiply.outer(scale * c, np.broadcast_to(q, shape[i + 1:])).ravel(),
              math.prod(shape[i + 1:])) for i, c in enumerate(offs or ())]
    if off is not None:
        terms.append(_last_axis(scale * off, shape))
    kin_s = None if kin is None else scale * kin
    norms = []
    for samples in _chebyshev_samples(times, psi, hw, hbar, diag_s, kin_s, terms):
        a = np.ascontiguousarray(samples.transpose(2, 0, 3, 1))  # (branch, sample, system, bath)
        norms.append(_sandwich_norm(a[0], a[1]))
    return np.concatenate(norms)


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
    The stepped back end (spin with omega != 0, finite-mass grid) costs
    about hw t_total / hbar applications of H, plus one Bessel tail of about
    20 R^(1/3) + 40 terms per chunk of sample times; on the grid hw is
    dominated by hbar^2 k_max^2 / 2M with k_max = pi / spacing.  A spin
    first rotates its two branches into the eigenbasis of Jx, about pi j / 2
    tridiagonal applications on 2j + 1 levels, O(j^2) in all, with either
    back end.
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
    amps = np.stack([_normalized_branch(branch1, dim, "branch1"),
                     _normalized_branch(branch2, dim, "branch2")])
    q, amps, potential, kin, off = _coupling_basis(sys, amps)
    if sys.omega == 0 if isinstance(sys, SpinSystem) else math.isinf(sys.mass):
        values = _pointer_curve(q, amps[0], amps[1], bath, sys.hbar, times)
    else:
        values = _stepped_curve(q, amps, potential, kin, off, bath, sys.hbar, times)
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
    require_instance(bath=(bath, BathModel))
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
    require_instance(bath=(bath, BathModel))
    require_real_array(lam=lam)
    lam = np.asarray(lam, dtype=float)
    result = np.ones(lam.shape, dtype=complex)
    for comp, (off, _, chi) in zip(bath.components, _bath_factors(bath, dicke=False)):
        if comp.kind == "spin-half":
            result = result * np.cos(lam * comp.g)
        else:
            w_loc, v_loc = np.linalg.eigh(_dense_coupling(off))
            probs = np.abs(v_loc.conj().T @ chi) ** 2
            result = result * (np.exp(1j * np.multiply.outer(lam, w_loc)) @ probs)
    return result if result.ndim else complex(result)


def fit_decay_exponent(curve, window=(0.05, 0.95)):
    """Least-squares fit of log(-log N) vs log t; returns (exponent n, scale tau).

    Only samples with window[0] < N < window[1] and t > 0 participate; the
    curve must be strictly decreasing there and provide at least 8 points.
    """
    require_instance(curve=(curve, NormCurve))
    try:
        lo, hi = window
    except (TypeError, ValueError):  # not iterable, or not two entries
        raise ValidationError(f"fit window must be a pair (lo, hi), got {window!r}") from None
    require_real(lo=lo, hi=hi)
    if not 0 <= lo < hi <= 1:
        raise ValidationError(f"fit window must satisfy 0 <= lo < hi <= 1, got {window}")
    mask = (curve.values > lo) & (curve.values < hi) & (curve.times > 0)
    if np.count_nonzero(mask) < 8:
        raise NumericalError(
            f"only {np.count_nonzero(mask)} points in the fit window (need >= 8)"
        )
    t = curve.times[mask]
    n_vals = curve.values[mask]
    if np.any(np.diff(n_vals) >= 0):
        raise NumericalError("curve is not strictly decreasing over the fit window")
    x = np.log(t)
    y = np.log(-np.log(n_vals))
    slope, intercept = np.polyfit(x, y, 1)
    return FitResult(float(slope), float(math.exp(-intercept / slope)))
