"""Configuration-driven experiment runner.

Usage:

    decolab <experiment> --config cfg.ini [--out results.csv] [--json results.json]
                         [--seed N] [--emit-config]

Experiments: times, norm, sweep, oracle-compare, spin, expansion-check, clt.
Configs are INI files (key-value with nested sections); ``--emit-config``
prints a commented template for the chosen experiment.  Results are CSV
(one row per point, fixed header) with the config hash embedded in comment
lines, plus an optional JSON mirror.  Runs are deterministic: rerunning a
config (same seed) reproduces the output byte for byte.

Exit codes: 0 success, 1 validation error, 2 numerical error.
"""

import argparse
import configparser
import hashlib
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from ._linalg import spectral_norm
from .errors import NumericalError, ValidationError
from .laws import (
    BathMoments,
    SystemParams,
    coherence_norm_short_time,
    constant_correlation,
    decoherence_times,
    exponential_correlation,
    gaussian_correlation,
    golden_rule_times,
    memory_kernel_norm,
    two_reservoir_norm,
)
from .packets import GaussianPacket, PositionGrid, Superposition
from .expansion import ExpandedHamiltonian, expansion_error
from .spin import special_pair, spin_coherence_norm, spin_decoherence_times
from .oracle import (
    DEFAULT_DIMENSION_CAP,
    GridParticle,
    bath_characteristic,
    bath_statistics,
    evolve_norm,
    position_eigenstate,
    spin_bath,
    static_bath_norm,
)

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# Config access helpers


class ConfigError(ValidationError):
    pass


def _section(cfg, name):
    if not cfg.has_section(name):
        raise ConfigError(f"missing config section [{name}]")
    return cfg[name]


def _get(cfg, section, key, cast, default=None):
    sec = _section(cfg, section)
    if key not in sec:
        if default is not None:
            return default
        raise ConfigError(f"missing key {key!r} in section [{section}]")
    raw = sec[key].strip()
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc


def _get_float(cfg, section, key, default=None):
    return _get(cfg, section, key, float, default)


def _get_int(cfg, section, key, default=None):
    return _get(cfg, section, key, int, default)


def _get_str(cfg, section, key, default=None):
    return _get(cfg, section, key, str, default)


def _get_complex(cfg, section, key, default=None):
    return _get(cfg, section, key, complex, default)


def time_grid(cfg, section="times"):
    start = _get_float(cfg, section, "start")
    stop = _get_float(cfg, section, "stop")
    num = _get_int(cfg, section, "num")
    spacing = _get_str(cfg, section, "spacing", "linear")
    if num < 1 or stop <= start:
        raise ConfigError("time grid needs num >= 1 and stop > start")
    if spacing == "linear":
        return np.linspace(start, stop, num)
    if spacing == "log":
        if start <= 0:
            raise ConfigError("log-spaced time grid needs start > 0")
        return np.geomspace(start, stop, num)
    raise ConfigError(f"spacing must be linear or log, got {spacing!r}")


# ---------------------------------------------------------------------------
# Scaling fits


class ScalingFit(NamedTuple):
    exponent: float
    stderr: float


def fit_scaling(axis_values, taus, axis="hbar"):
    """Log-log least-squares exponent of tau against a swept axis.

    Sign convention: tau ~ hbar^mu / d^nu, so the returned exponent is the
    raw slope for axis="hbar" and its negation for the distance-like axes
    ("distance", "dp", "j"), making the reported mu and nu positive for the
    physical laws.
    """
    x = np.asarray(axis_values, dtype=float)
    y = np.asarray(taus, dtype=float)
    if x.size < 4:
        raise ValidationError("fit_scaling needs at least 4 sweep points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValidationError("fit_scaling needs positive values on a log axis")
    ratios = x[1:] / x[:-1]
    if np.abs(ratios / ratios[0] - 1.0).max() > 1e-6:
        raise ValidationError("fit_scaling expects log-spaced sweep points")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = max(x.size - 2, 1)
    s2 = float(resid @ resid) / dof
    stderr = math.sqrt(s2 / float(((lx - lx.mean()) ** 2).sum()))
    sign = 1.0 if axis == "hbar" else -1.0
    return ScalingFit(sign * float(slope), stderr)


# ---------------------------------------------------------------------------
# Experiment implementations; each returns (columns, rows, extras)


def _bath_moments_from(cfg, section="bath"):
    var_b = _get_float(cfg, section, "var_b")
    var_bdot = _get_float(cfg, section, "var_bdot", math.nan)
    kappa = _get_float(cfg, section, "kappa", 0.0)
    return BathMoments(var_b, None if math.isnan(var_bdot) else var_bdot, kappa)


def run_times(cfg, args):
    dq = _get_float(cfg, "separation", "dq")
    dp = _get_float(cfg, "separation", "dp", 0.0)
    sysp = SystemParams(
        mass=_get_float(cfg, "system", "mass"),
        omega=_get_float(cfg, "system", "omega", 0.0),
        hbar=_get_float(cfg, "system", "hbar", 1.0),
    )
    bath = _bath_moments_from(cfg)
    taus = decoherence_times(dq, dp, sysp, bath)
    columns = ["dq", "dp", "mass", "hbar", "var_b", "tau_q", "tau_qp", "tau_p"]
    rows = [[dq, dp, sysp.mass, sysp.hbar, bath.var_B, taus.tau_q, taus.tau_qp, taus.tau_p]]
    return columns, rows, {}


def _correlation_from(cfg, section):
    kind = _get_str(cfg, section, "correlation")
    var_b = _get_float(cfg, section, "var_b")
    if kind == "constant":
        return constant_correlation(var_b, tail_cutoff=_get_float(cfg, section, "tail_cutoff", math.inf))
    if kind == "exponential":
        return exponential_correlation(var_b, _get_float(cfg, section, "gamma"))
    if kind == "gaussian":
        return gaussian_correlation(var_b, _get_float(cfg, section, "tau_c"))
    raise ConfigError(f"correlation must be constant/exponential/gaussian, got {kind!r}")


def run_norm(cfg, args):
    law = _get_str(cfg, "law", "kind")
    times = time_grid(cfg)
    if law == "short-time":
        hbar = _get_float(cfg, "packets", "hbar", 1.0)
        sigma = _get_float(cfg, "packets", "sigma")
        sup = Superposition(
            GaussianPacket(_get_float(cfg, "packets", "q1"), _get_float(cfg, "packets", "p1"), sigma, hbar),
            GaussianPacket(_get_float(cfg, "packets", "q2"), _get_float(cfg, "packets", "p2"), sigma, hbar),
        )
        sysp = SystemParams(mass=_get_float(cfg, "system", "mass"), hbar=hbar)
        bath = _bath_moments_from(cfg)
        values = coherence_norm_short_time(times, sup, sysp, bath)
    elif law == "two-reservoir":
        values = two_reservoir_norm(
            times,
            _get_float(cfg, "two-reservoir", "dq"),
            _get_float(cfg, "two-reservoir", "dp"),
            _get_float(cfg, "two-reservoir", "var_bq"),
            _get_float(cfg, "two-reservoir", "var_bp"),
            _get_float(cfg, "two-reservoir", "hbar", 1.0),
        )
    elif law == "memory":
        corr = _correlation_from(cfg, "memory")
        dq = _get_float(cfg, "memory", "dq")
        hbar = _get_float(cfg, "memory", "hbar", 1.0)
        values = np.array([memory_kernel_norm(t, dq, hbar, corr) for t in times])
    else:
        raise ConfigError(f"law kind must be short-time/two-reservoir/memory, got {law!r}")
    return ["t", "norm"], [[t, v] for t, v in zip(times, np.atleast_1d(values))], {}


def _sweep_axis_values(cfg):
    start = _get_float(cfg, "sweep", "start")
    stop = _get_float(cfg, "sweep", "stop")
    num = _get_int(cfg, "sweep", "num")
    if num < 4:
        raise ConfigError("sweep needs at least 4 points")
    if start <= 0 or stop <= start:
        raise ConfigError("sweep needs 0 < start < stop")
    return np.geomspace(start, stop, num)


def run_sweep(cfg, args):
    axis = _get_str(cfg, "sweep", "axis")
    target = _get_str(cfg, "sweep", "target")
    values = _sweep_axis_values(cfg)
    base = {
        "dq": _get_float(cfg, "base", "dq", 1.0),
        "dp": _get_float(cfg, "base", "dp", 0.0),
        "mass": _get_float(cfg, "base", "mass", 1.0),
        "omega": _get_float(cfg, "base", "omega", 0.0),
        "hbar": _get_float(cfg, "base", "hbar", 1.0),
        "var_b": _get_float(cfg, "base", "var_b", 1.0),
    }

    def tau_at(value):
        params = dict(base)
        key = {"hbar": "hbar", "distance": "dq", "dp": "dp", "j": "j"}.get(axis)
        if key is None:
            raise ConfigError(f"sweep axis must be hbar/distance/dp/j, got {axis!r}")
        params[key] = value
        if target in ("tau_q", "tau_qp", "tau_p"):
            sysp = SystemParams(params["mass"], params["omega"], params["hbar"])
            taus = decoherence_times(params["dq"], params["dp"], sysp, BathMoments(params["var_b"]))
            return getattr(taus, target)
        if target == "tau_gr":
            corr = exponential_correlation(params["var_b"], _get_float(cfg, "base", "gamma", 1.0))
            sysp = SystemParams(params["mass"], params["omega"], params["hbar"])
            return golden_rule_times(corr, sysp, params["dq"]).tau_dec
        if target in ("tau_x", "tau_y", "tau_z"):
            j = params.get("j", _get_float(cfg, "base", "j", 10.0))
            alpha = _get_complex(cfg, "base", "alpha", 1.0 + 0j)
            beta = _get_complex(cfg, "base", "beta", -1.0 + 0j)
            taus = spin_decoherence_times(
                j, alpha, beta, params["omega"], BathMoments(params["var_b"]), params["hbar"]
            )
            return getattr(taus, target)
        raise ConfigError(f"unknown sweep target {target!r}")

    taus = [tau_at(v) for v in values]
    fit = fit_scaling(values, taus, axis)
    rows = [[v, tau] for v, tau in zip(values, taus)]
    extras = {"fit-axis": axis, "fit-exponent": fit.exponent, "fit-stderr": fit.stderr}
    return [axis, target], rows, extras


def _bath_model_from(cfg, section="bath-model"):
    m = _get_int(cfg, section, "m")
    var_total = _get_float(cfg, section, "var_total", 1.0)
    omega_spec = _get_str(cfg, section, "omega", "0")
    if omega_spec.startswith("linear:"):
        _, lo, hi = omega_spec.split(":")
        omegas = list(np.linspace(float(lo), float(hi), m))
    else:
        omegas = float(omega_spec)
    cap = _get_int(cfg, section, "cap", DEFAULT_DIMENSION_CAP)
    return spin_bath(m, var_total, omegas, dimension_cap=cap)


def run_oracle_compare(cfg, args):
    bath = _bath_model_from(cfg)
    d = _get_float(cfg, "compare", "d")
    hbar = _get_float(cfg, "compare", "hbar", 1.0)
    protocol = _get_str(cfg, "compare", "protocol", "static")
    law = _get_str(cfg, "compare", "law", "gaussian")
    times = time_grid(cfg)
    moments, corr = bath_statistics(bath, hbar)

    if protocol == "static":
        n_oracle = np.atleast_1d(static_bath_norm(d, bath, times, hbar))
    elif protocol == "frozen":
        width = 4.0 * abs(d) + 4.0
        n_points = 64
        grid = PositionGrid(-width / 2, width / 2, n_points)
        sysp = GridParticle(grid, mass=math.inf, hbar=hbar)
        b1, q1 = position_eigenstate(grid, d / 2)
        b2, q2 = position_eigenstate(grid, -d / 2)
        d = q1 - q2
        curve = evolve_norm(sysp, bath, b1, b2, times)
        n_oracle = curve.values
    else:
        raise ConfigError(f"protocol must be static or frozen, got {protocol!r}")

    if law == "gaussian":
        n_law = np.exp(-(d ** 2) * moments.var_B * times ** 2 / hbar ** 2)
    elif law == "memory":
        n_law = np.array([memory_kernel_norm(t, d, hbar, corr) for t in times])
    else:
        raise ConfigError(f"law must be gaussian or memory, got {law!r}")

    rows = [
        [t, o, l, abs(o - l)] for t, o, l in zip(times, n_oracle, n_law)
    ]
    return ["t", "n_oracle", "n_law", "abs_diff"], rows, {"protocol": protocol, "law": law}


def run_spin(cfg, args):
    j = _get_float(cfg, "spin", "j")
    alpha = _get_complex(cfg, "spin", "alpha")
    case = _get_str(cfg, "spin", "case", "")
    if case:
        beta = special_pair(alpha, case)
    else:
        beta = _get_complex(cfg, "spin", "beta")
    omega = _get_float(cfg, "spin", "omega")
    hbar = _get_float(cfg, "spin", "hbar", 1.0)
    bath = _bath_moments_from(cfg)
    mode = _get_str(cfg, "norm", "mode", "regime")
    samples = _get_int(cfg, "norm", "samples", 100_000)
    seed = args.seed if args.seed is not None else _get_int(cfg, "norm", "seed", 0)
    times = time_grid(cfg)
    taus = spin_decoherence_times(j, alpha, beta, omega, bath, hbar)
    rows = []
    for t in times:
        if mode == "montecarlo":
            est = spin_coherence_norm(
                t, j, alpha, beta, omega, bath, hbar, mode="montecarlo",
                samples=samples, seed=seed,
            )
            rows.append([t, est.value, est.stderr])
        else:
            val = spin_coherence_norm(t, j, alpha, beta, omega, bath, hbar)
            rows.append([t, float(val), 0.0])
    extras = {"tau-x": taus.tau_x, "tau-y": taus.tau_y, "tau-z": taus.tau_z, "seed": seed}
    return ["t", "norm", "stderr"], rows, extras


def run_expansion_check(cfg, args):
    dim = _get_int(cfg, "expansion", "dim", 4)
    trials = _get_int(cfg, "expansion", "trials", 10)
    hnorm_t = _get_float(cfg, "expansion", "hnorm_t", 0.05)
    seed = args.seed if args.seed is not None else _get_int(cfg, "expansion", "seed", 0)
    rng = np.random.Generator(np.random.Philox(key=seed))

    def random_hermitian():
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (a + a.conj().T)
        return h / spectral_norm(h)

    rows = []
    for trial in range(trials):
        h = ExpandedHamiltonian(random_hermitian(), random_hermitian(), random_hermitian())
        t = hnorm_t  # ||h0|| is normalized to 1
        err_t = expansion_error(h, h.at, t)
        err_half = expansion_error(h, h.at, t / 2)
        rows.append([trial, t, err_t, err_half, err_t / err_half])
    return ["trial", "t", "error_t", "error_half", "ratio"], rows, {"seed": seed}


def run_clt(cfg, args):
    m_values = [int(tok) for tok in _get_str(cfg, "clt", "m_values", "4 8 16 32").split()]
    var_b = _get_float(cfg, "clt", "var_b", 1.0)
    sigmas = _get_float(cfg, "clt", "lambda_sigmas", 3.0)
    points = _get_int(cfg, "clt", "lambda_points", 301)
    lam = np.linspace(-sigmas / math.sqrt(var_b), sigmas / math.sqrt(var_b), points)
    gauss = np.exp(-(lam ** 2) * var_b / 2.0)

    def sup_distance(m):
        bath = spin_bath(m, var_b, dimension_cap=max(DEFAULT_DIMENSION_CAP, 1 << m))
        return float(np.abs(bath_characteristic(bath, lam) - gauss).max())

    dists = [sup_distance(m) for m in m_values]
    rows = [[m, dist] for m, dist in zip(m_values, dists)]
    return ["m", "sup_distance"], rows, {}


EXPERIMENTS = {
    "times": run_times,
    "norm": run_norm,
    "sweep": run_sweep,
    "oracle-compare": run_oracle_compare,
    "spin": run_spin,
    "expansion-check": run_expansion_check,
    "clt": run_clt,
}

TEMPLATES = {
    "times": """\
; decoherence time table from the closed-form laws
[experiment]
kind = times
[separation]
dq = 2.0
dp = 0.0
[system]
mass = 1.0
omega = 0.0
hbar = 1.0
[bath]
var_b = 1.0
""",
    "norm": """\
; closed-form coherence-norm curve
[experiment]
kind = norm
[law]
kind = short-time        ; short-time | two-reservoir | memory
[packets]
q1 = 1.0
p1 = 0.0
q2 = -1.0
p2 = 0.0
sigma = 0.01
hbar = 1.0
[system]
mass = 1.0
[bath]
var_b = 1.0
[times]
start = 0.0
stop = 1.0
num = 101
spacing = linear
""",
    "sweep": """\
; log-spaced parameter sweep with a scaling-exponent fit
[experiment]
kind = sweep
[sweep]
axis = hbar              ; hbar | distance | dp | j
target = tau_q           ; tau_q | tau_qp | tau_p | tau_gr | tau_x | tau_y | tau_z
start = 0.25
stop = 4.0
num = 8
[base]
dq = 2.0
dp = 0.0
mass = 1.0
omega = 0.0
hbar = 1.0
var_b = 1.0
""",
    "oracle-compare": """\
; exact finite-bath oracle against a closed-form law
[experiment]
kind = oracle-compare
[bath-model]
m = 12
var_total = 1.0
omega = 0                ; scalar or linear:<lo>:<hi>
cap = 4096
[compare]
d = 1.0
hbar = 1.0
protocol = frozen        ; static | frozen
law = gaussian           ; gaussian | memory
[times]
start = 0.01
stop = 1.2
num = 40
spacing = linear
""",
    "spin": """\
; spin coherence-norm curve (regime closed form or Monte Carlo)
[experiment]
kind = spin
[spin]
j = 15
alpha = 1+0j
beta = -1+0j             ; or set case = i | ii | iii instead
omega = 1.0
hbar = 1.0
[bath]
var_b = 1.0
var_bdot = 0.0
kappa = 0.0
[norm]
mode = regime            ; regime | montecarlo
samples = 100000
seed = 0
[times]
start = 0.001
stop = 0.1
num = 40
spacing = linear
""",
    "expansion-check": """\
; O(t^4) order check of the short-time propagator on random Hermitian triples
[experiment]
kind = expansion-check
[expansion]
dim = 4
trials = 10
hnorm_t = 0.05
seed = 0
""",
    "clt": """\
; CLT convergence of the bath characteristic function
[experiment]
kind = clt
[clt]
m_values = 4 8 16 32
var_b = 1.0
lambda_sigmas = 3.0
lambda_points = 301
""",
}


# ---------------------------------------------------------------------------
# Output


def _format_cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return FLOAT_FMT % value


def render_csv(experiment, config_hash, columns, rows, extras):
    lines = [
        f"# decolab-version: {__version__}",
        f"# experiment: {experiment}",
        f"# config-sha256: {config_hash}",
    ]
    for key in sorted(extras):
        value = extras[key]
        lines.append(
            f"# {key}: {_format_cell(value) if isinstance(value, (int, float, np.integer)) else value}"
        )
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(experiment, config_hash, columns, rows, extras):
    payload = {
        "decolab_version": __version__,
        "experiment": experiment,
        "config_sha256": config_hash,
        "extras": {
            k: (float(v) if isinstance(v, (int, float, np.integer)) else v)
            for k, v in extras.items()
        },
        "columns": columns,
        "rows": [[float(v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="decolab",
        description="Decoherence-law experiments with machine-readable output.",
    )
    parser.add_argument("experiment", help="one of: " + ", ".join(EXPERIMENTS))
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    parser.add_argument("--json", dest="json_path", help="optional JSON mirror path")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--emit-config", action="store_true", help="print a config template and exit"
    )
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; map to the validation code
        return 0 if exc.code in (0, None) else 1

    if args.experiment not in EXPERIMENTS:
        print(
            f"decolab: error: validation: unknown experiment {args.experiment!r}",
            file=sys.stderr,
        )
        return 1

    if args.emit_config:
        sys.stdout.write(TEMPLATES[args.experiment])
        return 0

    if not args.config:
        print("decolab: error: validation: --config is required", file=sys.stderr)
        return 1

    try:
        with open(args.config, "rb") as fh:
            raw = fh.read()
        config_hash = hashlib.sha256(raw).hexdigest()
        cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cfg.read_string(raw.decode())
        kind = cfg.get("experiment", "kind", fallback=args.experiment)
        if kind != args.experiment:
            raise ConfigError(
                f"config is for experiment {kind!r}, not {args.experiment!r}"
            )
        columns, rows, extras = EXPERIMENTS[args.experiment](cfg, args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(f"decolab: error: numerical: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError, configparser.Error, ValueError) as exc:
        print(f"decolab: error: validation: {exc}", file=sys.stderr)
        return 1

    csv_text = render_csv(args.experiment, config_hash, columns, rows, extras)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(render_json(args.experiment, config_hash, columns, rows, extras))
    return 0


if __name__ == "__main__":
    sys.exit(main())
