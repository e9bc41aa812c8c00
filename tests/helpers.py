"""Shared builders for oracle test scenarios and the memory probes."""

import os
import subprocess
import sys

import numpy as np

import decolab as dl


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
