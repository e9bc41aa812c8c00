"""Shared builders for oracle test scenarios, density-block supports and the memory probes."""

import math
import os
import subprocess
import sys

import numpy as np

import decolab as dl
from decolab._linalg import spectral_norm
from decolab.expansion import REL_SELF_ERROR


def peak_memory_mib(script):
    """Run script in a fresh interpreter that imports this decolab; its VmHWM in MiB.

    VmHWM is the child address space's own peak; ru_maxrss would also count
    the memory of the forking test process.
    """
    src = os.path.dirname(os.path.dirname(dl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script += (
        "\nwith open('/proc/self/status') as fh:\n"
        "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, check=True)
    return int(proc.stdout.split()[-1]) / 1024  # VmHWM is in KiB


SUPPORT_SHAPES = ("empty", "corner-low", "corner-high", "point", "thin-row", "thin-col", "rect",
                  "full")


def support_box(draw_int, n, shape):
    """(r0, r1, c0, c1) of a support rectangle of the named shape, or None if empty."""
    corners = {"corner-low": (n - 1, n - 1, 0, 0), "corner-high": (0, 0, n - 1, n - 1)}
    if shape == "empty":
        return None
    if shape == "full":
        return 0, n - 1, 0, n - 1
    if shape in corners:
        return corners[shape]
    r0, c0 = draw_int(0, n - 1), draw_int(0, n - 1)
    if shape == "point":
        return r0, r0, c0, c0
    if shape == "thin-row":
        return r0, r0, c0, draw_int(c0, n - 1)
    if shape == "thin-col":
        return r0, draw_int(r0, n - 1), c0, c0
    return r0, draw_int(r0, n - 1), c0, draw_int(c0, n - 1)


def support_values(rng, n, box):
    """An n x n complex array, standard normal inside box (r0, r1, c0, c1) and 0 elsewhere."""
    values = np.zeros((n, n), dtype=complex)
    if box is not None:
        r0, r1, c0, c1 = box
        size = (r1 - r0 + 1, c1 - c0 + 1)
        values[r0 : r1 + 1, c0 : c1 + 1] = rng.normal(size=size) + 1j * rng.normal(size=size)
    return values


def _joint_eigh_norms(h_sys, coupling, bath, branches, times, hbar):
    """N_12(t) from eigh of H = h_sys (x) 1 + coupling (x) B + 1 (x) H_res on
    system (x) bath, with B and H_res from build_bath_operators."""
    ops = dl.build_bath_operators(bath, hbar)
    dim_s = h_sys.shape[0]
    h = (
        np.kron(h_sys, np.eye(bath.dimension))
        + np.kron(np.eye(dim_s), np.diag(ops.H_res))
        + np.kron(coupling, ops.B)
    )
    w, v = np.linalg.eigh(h)
    starts = [v.conj().T @ np.kron(b / np.linalg.norm(b), ops.initial_state) for b in branches]
    expected = []
    for t in times:
        a1, a2 = ((v @ (np.exp(-1j * w * t / hbar) * c)).reshape(dim_s, -1) for c in starts)
        expected.append(np.sum(np.abs(a1 @ a2.conj().T) ** 2))
    return np.array(expected)


def joint_eigh_norms(sys_s, bath, branches, times):
    """N_12(t) of a spin in a bath from eigh of the full system x bath H."""
    jx, _, jz = dl.spin_matrices(sys_s.j, sys_s.hbar)
    return _joint_eigh_norms(sys_s.omega * jz, jx, bath, branches, times, sys_s.hbar)


def grid_joint_eigh_norms(sys_p, bath, branches, times):
    """N_12(t) of a finite-mass grid particle in a bath from eigh of the full joint H.

    The kinetic energy is the circulant matrix whose first column is
    ifft(hbar^2 k^2 / 2M), the FFT's periodic Laplacian written out densely.
    """
    n = sys_p.grid.n_points
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=sys_p.grid.spacing)
    column = np.fft.ifft((sys_p.hbar * k) ** 2 / (2.0 * sys_p.mass))
    kinetic = column[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    return _joint_eigh_norms(kinetic + np.diag(sys_p.potential()), np.diag(sys_p.grid.points),
                             bath, branches, times, sys_p.hbar)


def momentum_separation_curve(dp, m_bath=8, var=1.0, mass=1.0, hbar=1.0, n_times=40):
    """Oracle curve for a free particle with momentum-separated branches.

    The packet width is tuned to the decay window (sigma = t_window / 4M,
    which minimizes the width-channel contamination of the quartic law) and
    the box is sized to contain the moving, spreading branches.
    Returns (curve, tau_p_law).
    """
    tau_p = (4.0 * mass ** 2 * hbar ** 2 / (dp ** 2 * var)) ** 0.25
    t_max = 1.4 * tau_p
    sigma = 1.23 * tau_p / (4.0 * mass)
    width_final = np.sqrt(sigma * (1.0 + (hbar * t_max / (2 * mass * sigma)) ** 2))
    half_box = dp / (2 * mass) * t_max + 6.0 * width_final + 8.0 * np.sqrt(sigma)
    n = 512
    while 2 * half_box / n > np.sqrt(sigma) / 4.0:
        n *= 2
    grid = dl.PositionGrid(-half_box, half_box, n)
    sys_p = dl.GridParticle(grid, mass=mass, hbar=hbar)
    b1 = dl.grid_packet_state(dl.GaussianPacket(0.0, dp / 2, sigma, hbar), grid)
    b2 = dl.grid_packet_state(dl.GaussianPacket(0.0, -dp / 2, sigma, hbar), grid)
    bath = dl.spin_bath(m_bath, var)
    times = np.linspace(tau_p / 20, t_max, n_times)
    curve = dl.evolve_norm(sys_p, bath, b1, b2, times)
    return curve, tau_p


def frozen_position_curve(bath, d, times, hbar=1.0, box_half=4.0, n=64):
    """Frozen-particle (infinite mass) curve for position eigenstate branches.

    Returns (curve, exact separation) with the separation snapped to the
    grid.
    """
    grid = dl.PositionGrid(-box_half, box_half, n)
    sys_p = dl.GridParticle(grid, mass=np.inf, hbar=hbar)
    b1, q1 = dl.position_eigenstate(grid, d / 2)
    b2, q2 = dl.position_eigenstate(grid, -d / 2)
    curve = dl.evolve_norm(sys_p, bath, b1, b2, times)
    return curve, q1 - q2


def midpoint_expansion_error(h, h_of_t, t):
    """expansion_error with a second-order reference: the midpoint product,
    doubled from 32 steps and Richardson-extrapolated with 1/3, under the
    same self-error rule and roundoff floor.  An independent referee for the
    fourth-order reference that expansion_error uses.
    """
    if t == 0:
        return 0.0
    approx = dl.short_time_propagator(h, t)
    n = 32
    coarse = dl.time_ordered_propagator(h_of_t, t, n, h.hbar)
    while True:
        n *= 2
        fine = dl.time_ordered_propagator(h_of_t, t, n, h.hbar)
        estimate = spectral_norm(fine - coarse) / 3.0
        distance = spectral_norm(fine + (fine - coarse) / 3.0 - approx)
        if estimate <= REL_SELF_ERROR * distance or distance <= 1e-10:
            return distance
        if n >= (1 << 18):
            raise AssertionError(f"midpoint reference not converged at n_steps={n}")
        coarse = fine


def exact_mc_spin_norm(t, j, alpha, beta, omega, bath, hbar=1.0):
    """Exact |E exp(-i phi)|^2 for the phase spin_coherence_norm samples.

    With phi hbar = u B + v Bdot + w B^2 + c and independent Gaussian B, Bdot,
    |E z|^2 = (1 + 4 w~^2 s^2)^(-1/2) exp(-u~^2 s / (1 + 4 w~^2 s^2))
    exp(-v~^2 s_d), where u~, v~, w~ are u, v, w over hbar and s, s_d are
    var_B and var_Bdot; the global phase c (the kappa term) drops out.
    """
    d = dl.separations(j, alpha, beta, hbar)
    u = (d.d_x * (t - omega ** 2 * t ** 3 / 6.0) - omega * d.d_y * t ** 2 / 2.0) / hbar
    v = (d.d_x * t ** 2 / 2.0 - omega * d.d_y * t ** 3 / 3.0) / hbar
    w = omega * d.d_z * t ** 3 / 12.0 / hbar
    s, s_d = bath.var_B, bath.var_Bdot
    spread = 1.0 + 4.0 * w ** 2 * s ** 2
    return spread ** -0.5 * math.exp(-(u ** 2) * s / spread - v ** 2 * s_d)
