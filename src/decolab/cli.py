"""Configuration-driven experiment runner.

Usage:

    decolab <experiment> --config cfg.ini [--out results.csv] [--json results.json]
                         [--seed N] [--emit-config]

Experiments: times, norm, sweep, oracle-compare, spin, expansion-check, clt.
Configs are INI files.  One schema table per experiment (``SCHEMA``) gives
each key's type, default, choices and template text; ``parse_config`` turns
a config into typed values and rejects an unknown section or key, a value
outside its choices or a non-finite number, and ``--emit-config`` prints
the commented template generated from the table.  Results are CSV
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
from .errors import NumericalError, ValidationError, require_finite
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
# Config schema: one table per experiment drives parsing, defaults,
# validation and the --emit-config templates


class ConfigError(ValidationError):
    pass


REQUIRED = object()


class Key(NamedTuple):
    """One config key.  ``type`` casts the INI text; ``default`` is used when
    the key is absent (REQUIRED: reading it raises); ``template`` is the value
    --emit-config shows (None: not shown); ``choices`` are the allowed values;
    ``note`` is the template comment (None: list the choices)."""

    type: type
    default: object = REQUIRED
    template: str = None
    choices: tuple = ()
    note: str = None


def _times(start, stop, num):
    return {"start": Key(float, REQUIRED, start), "stop": Key(float, REQUIRED, stop),
            "num": Key(int, REQUIRED, num),
            "spacing": Key(str, "linear", "linear", ("linear", "log"), "")}


def _ints(text):
    return tuple(int(tok) for tok in text.split())


def _frequencies(text):
    """A scalar frequency, or ``linear:<lo>:<hi>`` as a (lo, hi) pair."""
    if not text.startswith("linear:"):
        return float(text)
    lo, hi = text.split(":")[1:]
    return float(lo), float(hi)


def _bath(var_bdot=None, kappa=None):
    return {"var_b": Key(float, REQUIRED, "1.0"), "var_bdot": Key(float, None, var_bdot),
            "kappa": Key(float, 0.0, kappa)}


SCHEMA = {  # experiment -> (template title, {section: {key: Key}})
    "times": ("decoherence time table from the closed-form laws", {
        "separation": {"dq": Key(float, REQUIRED, "2.0"), "dp": Key(float, 0.0, "0.0")},
        "system": {"mass": Key(float, REQUIRED, "1.0"), "omega": Key(float, 0.0, "0.0"),
                   "hbar": Key(float, 1.0, "1.0")},
        "bath": _bath(),
    }),
    "norm": ("closed-form coherence-norm curve", {
        "law": {"kind": Key(str, REQUIRED, "short-time", ("short-time", "two-reservoir", "memory"))},
        "packets": {"q1": Key(float, REQUIRED, "1.0"), "p1": Key(float, REQUIRED, "0.0"),
                    "q2": Key(float, REQUIRED, "-1.0"), "p2": Key(float, REQUIRED, "0.0"),
                    "sigma": Key(float, REQUIRED, "0.01"), "hbar": Key(float, 1.0, "1.0")},
        "system": {"mass": Key(float, REQUIRED, "1.0")},
        "bath": _bath(),
        "times": _times("0.0", "1.0", "101"),
        "two-reservoir": {"dq": Key(float), "dp": Key(float), "var_bq": Key(float),
                          "var_bp": Key(float), "hbar": Key(float, 1.0)},
        "memory": {"correlation": Key(str, choices=("constant", "exponential", "gaussian")),
                   "var_b": Key(float), "gamma": Key(float), "tau_c": Key(float),
                   "dq": Key(float), "hbar": Key(float, 1.0)},
    }),
    "sweep": ("log-spaced parameter sweep with a scaling-exponent fit", {
        "sweep": {"axis": Key(str, REQUIRED, "hbar", ("hbar", "distance", "dp", "j")),
                  "target": Key(str, REQUIRED, "tau_q",
                                ("tau_q", "tau_qp", "tau_p", "tau_gr", "tau_x", "tau_y", "tau_z")),
                  "start": Key(float, REQUIRED, "0.25"), "stop": Key(float, REQUIRED, "4.0"),
                  "num": Key(int, REQUIRED, "8")},
        "base": {"dq": Key(float, 1.0, "2.0"), "dp": Key(float, 0.0, "0.0"),
                 "mass": Key(float, 1.0, "1.0"), "omega": Key(float, 0.0, "0.0"),
                 "hbar": Key(float, 1.0, "1.0"), "var_b": Key(float, 1.0, "1.0"),
                 "gamma": Key(float, 1.0), "j": Key(float, 10.0),
                 "alpha": Key(complex, 1.0 + 0j), "beta": Key(complex, -1.0 + 0j)},
    }),
    "oracle-compare": ("exact finite-bath oracle against a closed-form law", {
        "bath-model": {"m": Key(int, REQUIRED, "12"), "var_total": Key(float, 1.0, "1.0"),
                       "omega": Key(_frequencies, 0.0, "0", note="scalar or linear:<lo>:<hi>")},
        "compare": {"d": Key(float, REQUIRED, "1.0"), "hbar": Key(float, 1.0, "1.0"),
                    "protocol": Key(str, "static", "frozen", ("static", "frozen")),
                    "law": Key(str, "gaussian", "gaussian", ("gaussian", "memory"))},
        "times": _times("0.01", "1.2", "40"),
    }),
    "spin": ("spin coherence-norm curve (regime closed form or Monte Carlo)", {
        "spin": {"j": Key(float, REQUIRED, "15"), "alpha": Key(complex, REQUIRED, "1+0j"),
                 "beta": Key(complex, REQUIRED, "-1+0j", note="or set case = i | ii | iii instead"),
                 "case": Key(str, None, choices=("i", "ii", "iii")),
                 "omega": Key(float, REQUIRED, "1.0"), "hbar": Key(float, 1.0, "1.0")},
        "bath": _bath("0.0", "0.0"),
        "norm": {"mode": Key(str, "regime", "regime", ("regime", "montecarlo")),
                 "samples": Key(int, 100_000, "100000"), "seed": Key(int, 0, "0")},
        "times": _times("0.001", "0.1", "40"),
    }),
    "expansion-check": (
        "O(t^4) order check of the short-time propagator on random Hermitian triples", {
            "expansion": {"dim": Key(int, 4, "4"), "trials": Key(int, 10, "10"),
                          "hnorm_t": Key(float, 0.05, "0.05"), "seed": Key(int, 0, "0")},
        }),
    "clt": ("CLT convergence of the bath characteristic function", {
        "clt": {"m_values": Key(_ints, (4, 8, 16, 32), "4 8 16 32"), "var_b": Key(float, 1.0, "1.0"),
                "lambda_sigmas": Key(float, 3.0, "3.0"), "lambda_points": Key(int, 301, "301")},
    }),
}


def _sections(experiment):
    return {"experiment": {"kind": Key(str, experiment, experiment)}, **SCHEMA[experiment][1]}


def _template(experiment):
    lines = [f"; {SCHEMA[experiment][0]}"]
    for section, keys in _sections(experiment).items():
        shown = [(key, row) for key, row in keys.items() if row.template is not None]
        if shown:
            lines.append(f"[{section}]")
        for key, row in shown:
            line = f"{key} = {row.template}"
            note = " | ".join(row.choices) if row.note is None else row.note
            lines.append(f"{line:<24} ; {note}" if note else line)
    return "\n".join(lines) + "\n"


TEMPLATES = {experiment: _template(experiment) for experiment in SCHEMA}


class _Values(dict):
    """Typed config values; reading an absent section or required key raises."""

    def __init__(self, section=None):
        super().__init__()
        self.section = section

    def __missing__(self, key):
        if self.section is None:
            raise ConfigError(f"missing config section [{key}]")
        raise ConfigError(f"missing key {key!r} in section [{self.section}]")


def _cast(section, key, row, raw):
    try:
        value = row.type(raw.strip())
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc
    if row.choices and value not in row.choices:
        raise ConfigError(f"[{section}] {key} must be one of {' | '.join(row.choices)}, got {raw!r}")
    if row.type in (float, complex) and not np.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def parse_config(cfg, experiment):
    """Typed values of a ConfigParser checked strictly against SCHEMA[experiment].

    An unknown section or key (``[DEFAULT]`` keys count as keys of every
    section), a value outside ``choices`` or a non-finite number raises
    ConfigError naming it.  Defaults fill the sections present; an absent
    section or required key raises only when a runner reads it.
    """
    kind = cfg.get("experiment", "kind", fallback=experiment)
    if kind != experiment:
        raise ConfigError(f"config is for experiment {kind!r}, not {experiment!r}")
    schema, values = _sections(experiment), _Values()
    for section in cfg.sections():
        if section not in schema:
            raise ConfigError(f"unknown section [{section}]")
        for key in cfg[section]:
            if key not in schema[section]:
                origin = " (set in [DEFAULT])" if key in cfg.defaults() else ""
                raise ConfigError(f"unknown key {key!r} in section [{section}]{origin}")
        values[section] = typed = _Values(section)
        for key, row in schema[section].items():
            if key in cfg[section]:
                typed[key] = _cast(section, key, row, cfg[section][key])
            elif row.default is not REQUIRED:
                typed[key] = row.default
    return values


def time_grid(times):
    """Time points of a parsed ``[times]`` section."""
    start, stop, num = times["start"], times["stop"], times["num"]
    if num < 1 or stop <= start:
        raise ConfigError("time grid needs num >= 1 and stop > start")
    if times["spacing"] == "linear":
        return np.linspace(start, stop, num)
    if start <= 0:
        raise ConfigError("log-spaced time grid needs start > 0")
    return np.geomspace(start, stop, num)


# ---------------------------------------------------------------------------
# Scaling fits


class ScalingFit(NamedTuple):
    exponent: float
    stderr: float


def fit_scaling(axis_values, taus, axis="hbar", target="tau"):
    """Log-log least-squares exponent of tau against a swept axis.

    Sign convention: tau ~ hbar^mu / d^nu, so the returned exponent is the
    raw slope for axis="hbar" and its negation for the distance-like axes
    ("distance", "dp", "j"), making the reported mu and nu positive for the
    physical laws.  A non-finite value (an infinite time: the channel does
    not decay) raises ValidationError naming the axis or the target.
    """
    x = np.asarray(axis_values, dtype=float)
    y = np.asarray(taus, dtype=float)
    require_finite(**{axis: x, target: y})
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


def _bath_moments(bath):
    return BathMoments(bath["var_b"], bath["var_bdot"], bath["kappa"])


def run_times(c, args):
    dq, dp = c["separation"]["dq"], c["separation"]["dp"]
    system = c["system"]
    sysp = SystemParams(mass=system["mass"], omega=system["omega"], hbar=system["hbar"])
    bath = _bath_moments(c["bath"])
    taus = decoherence_times(dq, dp, sysp, bath)
    columns = ["dq", "dp", "mass", "hbar", "var_b", "tau_q", "tau_qp", "tau_p"]
    rows = [[dq, dp, sysp.mass, sysp.hbar, bath.var_B, taus.tau_q, taus.tau_qp, taus.tau_p]]
    return columns, rows, {}


def _correlation_from(memory):
    kind, var_b = memory["correlation"], memory["var_b"]
    if kind == "constant":
        return constant_correlation(var_b)
    if kind == "exponential":
        return exponential_correlation(var_b, memory["gamma"])
    return gaussian_correlation(var_b, memory["tau_c"])


def run_norm(c, args):
    law = c["law"]["kind"]
    times = time_grid(c["times"])
    if law == "short-time":
        packets = c["packets"]
        hbar, sigma = packets["hbar"], packets["sigma"]
        sup = Superposition(
            GaussianPacket(packets["q1"], packets["p1"], sigma, hbar),
            GaussianPacket(packets["q2"], packets["p2"], sigma, hbar),
        )
        sysp = SystemParams(mass=c["system"]["mass"], hbar=hbar)
        values = coherence_norm_short_time(times, sup, sysp, _bath_moments(c["bath"]))
    elif law == "two-reservoir":
        two = c["two-reservoir"]
        values = two_reservoir_norm(
            times, two["dq"], two["dp"], two["var_bq"], two["var_bp"], two["hbar"]
        )
    else:
        memory = c["memory"]
        corr = _correlation_from(memory)
        dq, hbar = memory["dq"], memory["hbar"]
        values = np.array([memory_kernel_norm(t, dq, hbar, corr) for t in times])
    return ["t", "norm"], [[t, v] for t, v in zip(times, np.atleast_1d(values))], {}


def run_sweep(c, args):
    sweep = c["sweep"]
    axis, target = sweep["axis"], sweep["target"]
    law_inputs = {  # the axes each target's closed-form law depends on
        ("tau_q", "tau_qp", "tau_p"): ("hbar", "distance", "dp"),
        ("tau_gr",): ("hbar", "distance"),
        ("tau_x", "tau_y", "tau_z"): ("hbar", "j"),
    }
    if not any(target in targets and axis in axes for targets, axes in law_inputs.items()):
        raise ConfigError(f"[sweep] axis = {axis} is not an input of target = {target}")
    start, stop, num = sweep["start"], sweep["stop"], sweep["num"]
    if num < 4:
        raise ConfigError("sweep needs at least 4 points")
    if start <= 0 or stop <= start:
        raise ConfigError("sweep needs 0 < start < stop")
    values = np.geomspace(start, stop, num)
    base = c["base"]
    key = "dq" if axis == "distance" else axis

    def tau_at(value):
        p = dict(base, **{key: value})
        if target in ("tau_x", "tau_y", "tau_z"):
            taus = spin_decoherence_times(
                p["j"], p["alpha"], p["beta"], p["omega"], BathMoments(p["var_b"]), p["hbar"]
            )
            return getattr(taus, target)
        sysp = SystemParams(p["mass"], p["omega"], p["hbar"])
        if target == "tau_gr":
            corr = exponential_correlation(p["var_b"], p["gamma"])
            return golden_rule_times(corr, sysp, p["dq"]).tau_dec
        taus = decoherence_times(p["dq"], p["dp"], sysp, BathMoments(p["var_b"]))
        return getattr(taus, target)

    taus = [tau_at(v) for v in values]
    fit = fit_scaling(values, taus, axis, target)
    rows = [[v, tau] for v, tau in zip(values, taus)]
    extras = {"fit-axis": axis, "fit-exponent": fit.exponent, "fit-stderr": fit.stderr}
    return [axis, target], rows, extras


def run_oracle_compare(c, args):
    model, compare = c["bath-model"], c["compare"]
    m, omega = model["m"], model["omega"]
    omegas = list(np.linspace(*omega, m)) if isinstance(omega, tuple) else omega
    bath = spin_bath(m, model["var_total"], omegas)
    d, hbar, protocol, law = compare["d"], compare["hbar"], compare["protocol"], compare["law"]
    times = time_grid(c["times"])
    moments, corr = bath_statistics(bath, hbar)

    if protocol == "static":
        n_oracle = np.atleast_1d(static_bath_norm(d, bath, times, hbar))
    else:
        # Spacing |d|/2 about 0 puts both pointers +-d/2 on grid points.
        spacing = abs(d) / 2 or 1.0
        grid = PositionGrid(-8 * spacing, 8 * spacing, 16)
        sysp = GridParticle(grid, mass=math.inf, hbar=hbar)
        b1, q1 = position_eigenstate(grid, d / 2)
        b2, q2 = position_eigenstate(grid, -d / 2)
        d = q1 - q2
        n_oracle = evolve_norm(sysp, bath, b1, b2, times).values

    if law == "gaussian":
        n_law = np.exp(-(d ** 2) * moments.var_B * times ** 2 / hbar ** 2)
    else:
        n_law = np.array([memory_kernel_norm(t, d, hbar, corr) for t in times])

    rows = [
        [t, o, l, abs(o - l)] for t, o, l in zip(times, n_oracle, n_law)
    ]
    return ["t", "n_oracle", "n_law", "abs_diff"], rows, {"protocol": protocol, "law": law}


def run_spin(c, args):
    spin, norm = c["spin"], c["norm"]
    j, alpha, case = spin["j"], spin["alpha"], spin["case"]
    if case is None:
        beta = spin["beta"]
    elif "beta" in spin:
        raise ConfigError("[spin] sets both beta and case; set only one")
    else:
        beta = special_pair(alpha, case)
    omega, hbar = spin["omega"], spin["hbar"]
    bath = _bath_moments(c["bath"])
    mode, samples = norm["mode"], norm["samples"]
    seed = args.seed if args.seed is not None else norm["seed"]
    times = time_grid(c["times"])
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


def run_expansion_check(c, args):
    expansion = c["expansion"]
    dim, trials, hnorm_t = expansion["dim"], expansion["trials"], expansion["hnorm_t"]
    seed = args.seed if args.seed is not None else expansion["seed"]
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


def run_clt(c, args):
    clt = c["clt"]
    m_values = clt["m_values"]
    var_b, sigmas, points = clt["var_b"], clt["lambda_sigmas"], clt["lambda_points"]
    lam = np.linspace(-sigmas / math.sqrt(var_b), sigmas / math.sqrt(var_b), points)
    gauss = np.exp(-(lam ** 2) * var_b / 2.0)

    def sup_distance(m):
        return float(np.abs(bath_characteristic(spin_bath(m, var_b), lam) - gauss).max())

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
        values = parse_config(cfg, args.experiment)
        columns, rows, extras = EXPERIMENTS[args.experiment](values, args)
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
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
