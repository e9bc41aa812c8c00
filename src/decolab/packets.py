"""Gaussian wave packets, two-branch superpositions, and coherence norms.

A packet is the minimum-uncertainty Gaussian

    phi(q) = (2 pi sigma)^(-1/4) exp(i p0 (q - q0) / hbar) exp(-(q - q0)^2 / 4 sigma)

with position variance ``sigma`` (rms width sqrt(sigma)) and momentum width
hbar / 2 sqrt(sigma).  Density-matrix blocks rho(q, q') = phi_i(q) phi_j(q')*
are sampled on uniform position grids and reduced with trapezoidal
quadrature, which is exponentially accurate for Gaussians that decay inside
the box.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError, ResolutionError, ValidationError, _float_range_checked, is_int,
    require_finite, require_instance, require_positive, require_real, require_real_array,
)

# Grid sizing rule: the box has to cover the packet centers with this many
# rms widths of margin, and the spacing may not exceed sqrt(sigma)/4.
BOX_MARGIN_WIDTHS = 8.0
MAX_SPACING_WIDTHS = 0.25
# Entries per chunk of the block kernels (2 MiB complex temporaries): as
# fast as 1 << 18 at n = 2048, with a quarter of its page faults per call.
BLOCK_CHUNK = 1 << 17


@dataclass(frozen=True)
class GaussianPacket:
    """Minimum-uncertainty Gaussian at position q0, momentum p0."""

    q0: float
    p0: float
    sigma: float
    hbar: float = 1.0

    def __post_init__(self):
        require_real(q0=self.q0, p0=self.p0)
        require_positive(sigma=self.sigma, hbar=self.hbar)


@dataclass(frozen=True)
class Superposition:
    """Two-branch superposition of |phi1> and |phi2>.

    The laws depend only on the branches' separations, not on how the
    branches are weighted, so no amplitudes are stored.
    """

    packet1: GaussianPacket
    packet2: GaussianPacket

    def __post_init__(self):
        require_instance(packet1=(self.packet1, GaussianPacket),
                         packet2=(self.packet2, GaussianPacket))
        if self.packet1.sigma != self.packet2.sigma or self.packet1.hbar != self.packet2.hbar:
            raise ValidationError("superposed packets must share sigma and hbar")

    @property
    def dq(self):
        return self.packet1.q0 - self.packet2.q0

    @property
    def dp(self):
        return self.packet1.p0 - self.packet2.p0


@dataclass(frozen=True)
class PositionGrid:
    """Uniform grid of n_points positions spanning [q_min, q_max]."""

    q_min: float
    q_max: float
    n_points: int

    def __post_init__(self):
        require_real(q_min=self.q_min, q_max=self.q_max)
        if not self.q_max > self.q_min:
            raise ValidationError("q_max must exceed q_min")
        n = self.n_points
        if not is_int(n) or n < 16 or (n & (n - 1)) != 0:
            raise ValidationError(f"n_points must be a power of two >= 16, got {n!r}")
        # In Python floats a span past the float64 range is inf (numpy would
        # warn), and a span of a few subnormals gives a spacing of 0.
        require_positive(spacing=(float(self.q_max) - float(self.q_min)) / n)

    @property
    def spacing(self):
        return (self.q_max - self.q_min) / self.n_points

    @property
    def points(self):
        # Endpoint-exclusive: the grid doubles as a periodic FFT box.
        return self.q_min + self.spacing * np.arange(self.n_points)

    @property
    def weights(self):
        """Trapezoidal quadrature weights over the sampled points."""
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class DensityBlock:
    """One block rho^{ij}(q, q') of a density operator, sampled on grid x grid.

    ``values`` must be numeric and finite; a nested list is taken as an array.
    """

    grid: PositionGrid
    values: np.ndarray

    def __post_init__(self):
        require_instance(grid=(self.grid, PositionGrid))
        require_finite(values=self.values)
        object.__setattr__(self, "values", np.asarray(self.values))
        n = self.grid.n_points
        if self.values.shape != (n, n):
            raise ValidationError(
                f"values shape {self.values.shape} does not match grid ({n}, {n})"
            )


def _built_block(grid, values):
    """A DensityBlock over an (n, n) array this package computed from checked input.

    It skips DensityBlock's finiteness scan of the whole block (about 7 ms and
    a 4 MiB bool temporary at n = 2048); each caller rules out non-finite
    entries where they can arise.
    """
    block = object.__new__(DensityBlock)
    object.__setattr__(block, "grid", grid)
    object.__setattr__(block, "values", values)
    return block


def position_amplitude(packet, q):
    """Position-representation amplitude phi(q); broadcasts over q."""
    require_real_array(q=q)
    q = np.asarray(q, dtype=float)
    norm = (2.0 * np.pi * packet.sigma) ** -0.25
    with np.errstate(all="ignore"):  # a phase p0 (q - q0) / hbar past float64 gives NaN
        phi = norm * np.exp(1j * packet.p0 * (q - packet.q0) / packet.hbar) * np.exp(
            -((q - packet.q0) ** 2) / (4.0 * packet.sigma))
    require_finite(amplitude=phi)
    return phi


def momentum_amplitude(packet, p):
    """Momentum-representation amplitude, the Fourier dual of position_amplitude.

    Convention: phi~(p) = (2 pi hbar)^(-1/2) * integral dq e^{-i p q / hbar} phi(q),
    which evaluates to
    (2 pi sigma)^(1/4) (pi hbar)^(-1/2) e^{-i p q0 / hbar} e^{-sigma ((p - p0) / hbar)^2},
    the envelope scaled by hbar before squaring so that hbar^2 cannot underflow.
    """
    require_real_array(p=p)
    p = np.asarray(p, dtype=float)
    norm = (2.0 * np.pi * packet.sigma) ** 0.25 / np.sqrt(np.pi * packet.hbar)
    with np.errstate(all="ignore"):  # a phase p q0 / hbar past float64 gives NaN
        phi = norm * np.exp(-1j * p * packet.q0 / packet.hbar) * np.exp(
            -packet.sigma * ((p - packet.p0) / packet.hbar) ** 2)
    require_finite(amplitude=phi)
    return phi


def _check_grid_resolves(grid, packets):
    width = np.sqrt(packets[0].sigma)
    lo = min(p.q0 for p in packets) - BOX_MARGIN_WIDTHS * width
    hi = max(p.q0 for p in packets) + BOX_MARGIN_WIDTHS * width
    if grid.q_min > lo or grid.q_max < hi:
        raise ResolutionError(
            f"grid [{grid.q_min}, {grid.q_max}] does not cover the required box "
            f"[{lo:.6g}, {hi:.6g}]"
        )
    if grid.spacing > MAX_SPACING_WIDTHS * width:
        raise ResolutionError(
            f"grid spacing {grid.spacing:.6g} exceeds sqrt(sigma)/4 = "
            f"{MAX_SPACING_WIDTHS * width:.6g}"
        )


def _nonzero_span(values):
    """slice(first, last + 1) over the nonzero entries of a 1-d array; empty if none."""
    idx = np.flatnonzero(values)
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


def density_block(packet_i, packet_j, grid):
    """Block rho^{ij}(q, q') = phi_i(q) phi_j(q')* on grid x grid.

    A packet's amplitude underflows to exact zeros far from its center, so
    the outer product is taken only over the rows where phi_i and the
    columns where phi_j is nonzero, into a fresh zero block: the pages
    outside that rectangle are never touched.  Every entry equals
    np.outer(phi_i, phi_j.conj()).
    """
    require_instance(packet_i=(packet_i, GaussianPacket), packet_j=(packet_j, GaussianPacket),
                     grid=(grid, PositionGrid))
    if packet_i.sigma != packet_j.sigma or packet_i.hbar != packet_j.hbar:
        raise ValidationError("density_block requires packets sharing sigma and hbar")
    _check_grid_resolves(grid, (packet_i, packet_j))
    qs = grid.points
    phi_i = position_amplitude(packet_i, qs)
    phi_j = position_amplitude(packet_j, qs)  # both finite, at most (2 pi sigma)^(-1/4) < 1e81
    values = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    rows, cols = _nonzero_span(phi_i), _nonzero_span(phi_j)
    values[rows, cols] = np.outer(phi_i[rows], phi_j[cols].conj())
    return _built_block(grid, values)


def superposition_blocks(sup, grid):
    """All four blocks rho^{ij} = |phi_i><phi_j| of a two-branch superposition, keyed (i, j)."""
    require_instance(sup=(sup, Superposition))
    packets = {1: sup.packet1, 2: sup.packet2}
    return {
        (i, j): density_block(packets[i], packets[j], grid)
        for i in (1, 2)
        for j in (1, 2)
    }


@_float_range_checked
def coherence_norm(block_a, block_b):
    """Tr(a . b^dagger) by two-dimensional trapezoidal quadrature.

    For b = a this is the coherence norm N = Tr(rho^{ij} rho^{ij dagger});
    it equals 1 at t = 0 for blocks built from normalized packets.  A sum
    that leaves the float64 range, such as that of a finite block whose
    squared entries overflow, raises NumericalError.

    Only the live rectangle is summed: the rows nonzero in both blocks, and
    within them the columns nonzero in both.  Every entry outside it adds an
    exact 0.  The row scan reads each block once; the column scan reads only
    the live rows.
    """
    require_instance(block_a=(block_a, DensityBlock), block_b=(block_b, DensityBlock))
    if block_a.grid != block_b.grid:
        raise GridMismatchError("coherence_norm requires blocks on the same grid")
    w = block_a.grid.weights
    a, b = block_a.values, block_b.values
    live = a.any(axis=1)
    if b is not a:
        live &= b.any(axis=1)
    rows = _nonzero_span(live)
    live = a[rows].any(axis=0)
    if b is not a:
        live &= b[rows].any(axis=0)
    cols = _nonzero_span(live)
    a, b, w_rows, w_cols = a[rows, cols], b[rows, cols], w[rows], w[cols]
    # Tr(a b^dag) = sum_{q,q'} a(q,q') conj(b(q,q')) with quadrature weights,
    # over row chunks so that conj(b) is never a block-sized temporary.
    chunk = max(1, BLOCK_CHUNK // w.size)
    acc = sum(
        np.einsum("i,ij,ij,j->", w_rows[s : s + chunk], a[s : s + chunk],
                  b[s : s + chunk].conj(), w_cols)
        for s in range(0, w_rows.size, chunk)
    )
    return float(acc.real)
