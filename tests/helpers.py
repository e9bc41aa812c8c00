"""Shared builders for oracle test scenarios and the memory probes."""

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


def momentum_separation_curve(dp, m_bath=8, var=1.0, mass=1.0, hbar=1.0,
                              n_times=40, dt=2e-4):
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
    curve = dl.evolve_norm(sys_p, bath, b1, b2, times, dt=dt)
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
