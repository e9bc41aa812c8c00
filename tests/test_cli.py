import configparser
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import decolab as dl
from decolab.cli import EXPERIMENTS as RUNNERS, SCHEMA, TEMPLATES, fit_scaling, main, parse_config
from decolab.errors import ValidationError
from decolab.spin import _gaussian_draws

TIMES_CFG = """\
[experiment]
kind = times
[separation]
dq = 2.0
dp = 0.0
[system]
mass = 1.0
hbar = 1.0
[bath]
var_b = 1.0
"""


def sweep_template(target):
    """The sweep template with another target; tau_p reads no [base] dq."""
    template = TEMPLATES["sweep"].replace("target = tau_q ", f"target = {target} ", 1)
    return template.replace("dq = 2.0\n", "", 1) if target == "tau_p" else template


# Misconfigured templates: (experiment, template text, replacement, name
# the error must give[, extra command-line arguments]).  Each used to run,
# or fail for another reason.
MISCONFIGS = {
    "misspelt-key": ("oracle-compare", "protocol = frozen", "protocl = frozen", "protocl"),
    "unknown-section": ("times", "[bath]\n", "[bogus]\n[bath]\n", "bogus"),
    "unknown-key": ("norm", "spacing = linear\n", "spacing = linear\nmas = 5\n", "mas"),
    "out-of-choice": ("spin", "mode = regime", "mode = montecarl", "mode"),
    "non-finite": ("sweep", "stop = 4.0", "stop = inf", "stop"),
    "axis-not-in-law": ("sweep", "axis = hbar", "axis = dp", "axis = dp is not an input"),
    # a log-spaced j is a half-integer only when each point doubles the last
    "sweep-axis-j": ("sweep", "axis = hbar", "axis = j", "[sweep] axis must be one of"),
    "beta-and-case": ("spin", "[spin]\n", "[spin]\ncase = ii\n", "[spin] beta"),
    "default-key": ("times", "[experiment]\n", "[DEFAULT]\nhbar = 2.0\n[experiment]\n", "hbar"),
    "dropped-key": ("norm", "spacing = linear\n", "spacing = linear\n[memory]\ntail_cutoff = inf\n",
                    "tail_cutoff"),
    # an exponential correlation takes no tau_c, which used to run and change only the hash
    "memory-foreign-parameter": ("norm", "kind = short-time",
                                 "kind = memory\n[memory]\ncorrelation = exponential\nvar_b = 1.0\n"
                                 "gamma = 2.0\ndq = 1.0\ntau_c = 5.0", "tau_c"),
    # a [base] key the target's law does not read used to run and change only the hash;
    # j, alpha and beta are read by no target, so they are unknown keys
    "sweep-foreign-gamma": ("sweep", "var_b = 1.0", "var_b = 1.0\ngamma = 7.0", "gamma"),
    "sweep-foreign-j": ("sweep", "var_b = 1.0", "var_b = 1.0\nj = 3",
                        "unknown key 'j' in section [base]"),
    "sweep-foreign-alpha": ("sweep", "var_b = 1.0", "var_b = 1.0\nalpha = 0.5+0.5j", "alpha"),
    "sweep-foreign-beta": ("sweep", "var_b = 1.0", "var_b = 1.0\nbeta = -1+0j", "beta"),
    # a key the run never reads used to run and change only the hash: the
    # axis overrides [base] hbar, tau_q reads no dp, the regime closed form
    # draws no samples, and the memory law reads no packets
    "sweep-axis-key": ("sweep", "var_b = 1.0", "var_b = 1.0\nhbar = 2.0",
                       "not read by this run: [base] hbar"),
    "sweep-tau-q-dp": ("sweep", "var_b = 1.0", "var_b = 1.0\ndp = 3.0", "[base] dp"),
    "spin-regime-samples": ("spin", "mode = regime", "mode = regime\nsamples = 20000",
                            "not read by this run: [norm] samples"),
    "memory-packets": ("norm", "kind = short-time", "kind = memory\n[memory]\n"
                       "correlation = constant\nvar_b = 1.0\ndq = 1.0", "[packets] q1"),
    # decoherence_times ignores omega, no experiment reads kappa, and hbar
    # cancels from every spin time and norm
    "times-omega": ("times", "hbar = 1.0\n", "hbar = 1.0\nomega = 0.0\n", "unknown key 'omega'"),
    "norm-kappa": ("norm", "var_b = 1.0\n", "var_b = 1.0\nkappa = 0.0\n", "unknown key 'kappa'"),
    "spin-kappa": ("spin", "var_b = 1.0\n", "var_b = 1.0\nkappa = 0.0\n", "unknown key 'kappa'"),
    "spin-hbar": ("spin", "omega = 1.0\n", "omega = 1.0\nhbar = 1.0\n",
                  "unknown key 'hbar' in section [spin]"),
    # the static protocol's norm and the Gaussian law's var_B do not move with the frequencies
    "oracle-static-omega": ("oracle-compare", TEMPLATES["oracle-compare"],
                            TEMPLATES["oracle-compare"].replace("omega = 0 ", "omega = 0.7 ", 1)
                            .replace("protocol = frozen", "protocol = static", 1),
                            "not read by this run: [bath-model] omega"),
    # out-of-domain values used to divide by zero (exit 2), fail with a
    # message not naming the key, give 0/0 ratios or an empty run, or run as
    # another value (lambda_sigmas = -3 as 3)
    "clt-var-b": ("clt", "var_b = 1.0", "var_b = 0.0", "[clt] var_b must be > 0"),
    "clt-lambda-sigmas": ("clt", "lambda_sigmas = 3.0", "lambda_sigmas = -3.0",
                          "[clt] lambda_sigmas must be > 0"),
    "clt-lambda-points": ("clt", "lambda_points = 301", "lambda_points = 0",
                          "[clt] lambda_points must be >= 2"),
    "expansion-hnorm-t": ("expansion-check", "hnorm_t = 0.05", "hnorm_t = 0.0",
                          "[expansion] hnorm_t must be > 0"),
    "expansion-dim": ("expansion-check", "dim = 4", "dim = 1", "[expansion] dim must be >= 2"),
    "expansion-trials": ("expansion-check", "trials = 10", "trials = 0",
                         "[expansion] trials must be >= 1"),
    "clt-m-values": ("clt", "m_values = 4 8 16 32", "m_values = 0 4",
                     "[clt] m_values must be integers >= 1"),
    "expansion-seed": ("expansion-check", "seed = 0", "seed = -1",
                       "[expansion] seed must be in [0, 2**128)"),
    # the config, whose hash each output records, is the whole input
    "seed-flag": ("spin", "", "", "--seed", ("--seed", "4")),
}

EXPERIMENTS = ("times", "norm", "sweep", "oracle-compare", "spin", "expansion-check", "clt")

# Runs the --emit-config template of each experiment in argv[2:] and lists
# the scipy modules the runs loaded; argv[1] is a scratch directory.
TEMPLATES_PROBE = textwrap.dedent("""
    import contextlib, io, os, sys
    from decolab.cli import main

    for experiment in sys.argv[2:]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([experiment, "--emit-config"]) == 0
        cfg = os.path.join(sys.argv[1], experiment + ".ini")
        with open(cfg, "w") as fh:
            fh.write(buf.getvalue())
        out = os.path.join(sys.argv[1], experiment + ".csv")
        print(experiment, main([experiment, "--config", cfg, "--out", out]))
    print("scipy-modules", *[m for m in sys.modules if m.split(".")[0] == "scipy"])
""")

# Calls every evolve_norm back end, build_bath_operators and the closed-form
# laws once each after a scipy-free import of decolab; after each call
# prints its name, whether its results are finite and whether any scipy
# module is loaded.
SCIPY_PATHS_PROBE = textwrap.dedent("""
    import math
    import sys
    import numpy as np
    import decolab as dl

    static, dynamic = dl.spin_bath(3, 1.0), dl.spin_bath(3, 1.0, omegas=0.7)
    a, b = (dl.coherent_vector(dl.SpinCoherent(1.0, alpha)) for alpha in (1.0, -1.0))
    grid = dl.PositionGrid(-4.0, 4.0, 16)
    g1, g2 = (dl.grid_packet_state(dl.GaussianPacket(q, 0.0, 0.5), grid) for q in (1.0, -1.0))
    times = np.linspace(0.0, 1.0, 5)
    corr = dl.exponential_correlation(1.0, 1.0)
    calls = {
        "import": lambda: [],
        "pointer-spin": lambda: dl.evolve_norm(dl.SpinSystem(1.0, 0.0), dynamic, a, b, times),
        "spin-static": lambda: dl.evolve_norm(dl.SpinSystem(1.0, 0.7), static, a, b, times),
        "spin-dynamic": lambda: dl.evolve_norm(dl.SpinSystem(1.0, 0.7), dynamic, a, b, times),
        "pointer-grid": lambda: dl.evolve_norm(dl.GridParticle(grid, math.inf), dynamic, g1, g2,
                                               times),
        "grid-static": lambda: dl.evolve_norm(dl.GridParticle(grid, 1.0), static, g1, g2, times),
        "grid-dynamic": lambda: dl.evolve_norm(dl.GridParticle(grid, 1.0), dynamic, g1, g2, times),
        "bath-operators": lambda: np.abs(dl.build_bath_operators(dynamic).Bddot).ravel(),
        # a bath_statistics correlation carries its lines: closed-form memory kernel
        "lines-kernel": lambda: [
            dl.memory_kernel_norm(1.0, 1.0, 1.0, dl.bath_statistics(dynamic)[1])],
        # the exponential family: closed-form memory kernel and golden-rule rate
        "exponential-laws": lambda: [
            dl.memory_kernel_norm(1.0, 1.0, 1.0, corr),
            dl.golden_rule_times(corr, dl.SystemParams(1.0, omega=0.5), 1.0).tau_dec],
    }
    for name, call in calls.items():
        result = call()
        values = getattr(result, "values", result)
        print(name, all(map(math.isfinite, values)),
              any(m.split(".")[0] == "scipy" for m in sys.modules))
""")

# Runs `python -m decolab` with the arguments argv[1:] the way -m does and
# prints the decolab modules the run loaded.
MODULES_PROBE = textwrap.dedent("""
    import runpy
    import sys

    sys.argv = ["decolab", *sys.argv[1:]]
    try:
        runpy.run_module("decolab", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    print(*sorted(m for m in sys.modules if m.split(".")[0] == "decolab"))
""")

# Resolves each exported name on a bare import of decolab and prints it with
# whether it is the same attribute of the library module that exports it and
# whether dir(decolab) lists it; then the same for each library module.
EXPORTS_PROBE = textwrap.dedent("""
    import importlib
    import sys
    import decolab

    for module, names in decolab._EXPORTS.items():
        for name in names:
            value = getattr(decolab, name)
            home = importlib.import_module(f"decolab.{module}")
            print(name, value is getattr(home, name), name in dir(decolab))
    for module in decolab._EXPORTS:
        print(module, getattr(decolab, module) is sys.modules[f"decolab.{module}"],
              module in dir(decolab))
""")

CLOSED_FORM_MODULES = {"decolab", "decolab.cli", "decolab.errors", "decolab.laws"}
ORACLE_MODULES = CLOSED_FORM_MODULES | {"decolab.packets", "decolab.spin", "decolab.oracle"}
LOADED_MODULES = {  # experiment -> the decolab modules its run loads
    "times": CLOSED_FORM_MODULES,
    "norm": CLOSED_FORM_MODULES | {"decolab.packets"},
    "sweep": CLOSED_FORM_MODULES,
    "spin": CLOSED_FORM_MODULES | {"decolab.spin"},
    "expansion-check": {"decolab", "decolab.cli", "decolab.errors", "decolab._linalg",
                        "decolab.expansion"},
    "oracle-compare": ORACLE_MODULES,
    "clt": ORACLE_MODULES,
}


def run_fresh(code, *args):
    """Run code in a new interpreter that imports decolab from this checkout."""
    src = os.path.dirname(os.path.dirname(dl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, check=True).stdout


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    header = None
    rows = []
    for line in open(path):
        if line.startswith("#"):
            continue
        if header is None:
            header = line.strip().split(",")
        else:
            rows.append(dict(zip(header, line.strip().split(","))))
    return header, rows


class TestFitScaling:
    def test_synthetic_power_law_exact(self):
        hbars = np.geomspace(0.25, 4.0, 8)
        fit = fit_scaling(hbars, hbars / 2.0, axis="hbar")
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        ds = np.geomspace(0.5, 8.0, 8)
        fit = fit_scaling(ds, 1.0 / ds, axis="distance")
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr < 1e-12

    def test_golden_rule_distance_exponent(self):
        corr = dl.exponential_correlation(1.0, 1.0)
        sysp = dl.SystemParams(1.0, omega=0.0)
        ds = np.geomspace(0.5, 5.0, 6)
        taus = [dl.golden_rule_times(corr, sysp, d).tau_dec for d in ds]
        fit = fit_scaling(ds, taus, axis="distance")
        assert fit.exponent == pytest.approx(2.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_scaling([1.0, 2.0, 4.0], [1.0, 1.0, 1.0])  # too few
        with pytest.raises(ValidationError):
            fit_scaling([1.0, 2.0, 4.0, -8.0], [1.0] * 4)  # nonpositive
        with pytest.raises(ValidationError):
            fit_scaling([1.0, 2.0, 3.0, 4.0], [1.0] * 4)  # not log-spaced
        with pytest.raises(ValidationError, match="tau_p"):
            fit_scaling([1.0, 2.0, 4.0, 8.0], [1.0, 1.0, math.inf, 1.0], target="tau_p")


class TestExperiments:
    def test_times_row(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.ini", TIMES_CFG)
        out = str(tmp_path / "out.csv")
        assert main(["times", "--config", cfg, "--out", out]) == 0
        header, rows = read_rows(out)
        assert float(rows[0]["tau_q"]) == 0.5
        assert rows[0]["tau_qp"] == "inf"

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "s.ini",
            "[experiment]\nkind = sweep\n[sweep]\naxis = hbar\ntarget = tau_q\n"
            "start = 1.0\nstop = 2.0\nnum = 2\n[base]\ndq = 1.0\n",
        )
        assert main(["sweep", "--config", cfg]) == 1
        assert "validation" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert main(["frobnicate", "--config", "/nonexistent"]) == 1

    def test_cap_key_is_unknown(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "o.ini",
            "[experiment]\nkind = oracle-compare\n[bath-model]\nm = 14\n"
            "var_total = 1.0\ncap = 4096\n[compare]\nd = 1.0\n"
            "[times]\nstart = 0.01\nstop = 1.0\nnum = 10\n",
        )
        assert main(["oracle-compare", "--config", cfg]) == 1
        assert "unknown key 'cap' in section [bath-model]" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["static", "frozen"])
    def test_large_bath_needs_no_cap(self, tmp_path, protocol):
        cfg = write(
            tmp_path,
            "o.ini",
            "[experiment]\nkind = oracle-compare\n[bath-model]\nm = 200\n"
            f"var_total = 1.0\n[compare]\nd = 1.0\nprotocol = {protocol}\n"
            "[times]\nstart = 0.01\nstop = 1.0\nnum = 10\n",
        )
        out = str(tmp_path / "o.csv")
        assert main(["oracle-compare", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out)
        t = np.array([float(r["t"]) for r in rows])
        np.testing.assert_allclose([float(r["n_oracle"]) for r in rows],
                                   dl.static_bath_norm(1.0, dl.spin_bath(200, 1.0), t),
                                   rtol=0, atol=1e-12)

    def test_sweep_of_a_channel_that_never_decays_is_rejected(self, tmp_path, capsys):
        # dp = 0 makes every tau_qp infinite, which used to fit to nan
        cfg = write(
            tmp_path,
            "s.ini",
            "[experiment]\nkind = sweep\n[sweep]\naxis = hbar\ntarget = tau_qp\n"
            "start = 0.25\nstop = 4.0\nnum = 8\n[base]\ndq = 2.0\ndp = 0.0\n",
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("decolab: error: validation:") and "tau_qp" in err

    def test_sweep_fit_header(self, tmp_path):
        cfg = write(
            tmp_path,
            "s.ini",
            "[experiment]\nkind = sweep\n[sweep]\naxis = distance\ntarget = tau_q\n"
            "start = 0.5\nstop = 8.0\nnum = 8\n",
        )
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        text = open(out).read()
        assert "# fit-exponent: 1" in text

    @pytest.mark.parametrize("experiment, section, text", [
        ("sweep", "base", "[sweep]\naxis = hbar\ntarget = tau_q\nstart = 0.25\nstop = 4.0\nnum = 8\n"),
        ("expansion-check", "expansion", ""),
        ("clt", "clt", ""),
    ])
    def test_defaulted_section_may_be_left_out(self, tmp_path, experiment, section, text):
        # a section none of whose keys is required used to be refused as missing
        runs = []
        for name, body in [("absent", text), ("empty", f"{text}[{section}]\n")]:
            cfg = write(tmp_path, f"{name}.ini", f"[experiment]\nkind = {experiment}\n{body}")
            out = str(tmp_path / f"{name}.csv")
            assert main([experiment, "--config", cfg, "--out", out]) == 0
            runs.append(read_rows(out))
        assert runs[0] == runs[1] and runs[0][1]

    def test_oracle_compare_static_memory_reads_omega(self, tmp_path):
        # under the static protocol the frequencies move the memory law only
        columns = []
        for name, omega in [("moving", "omega = linear:0.6:1.8\n"), ("default", "")]:
            cfg = write(
                tmp_path,
                f"{name}.ini",
                f"[experiment]\nkind = oracle-compare\n[bath-model]\nm = 6\n{omega}"
                "[compare]\nd = 1.0\nprotocol = static\nlaw = memory\n"
                "[times]\nstart = 0.02\nstop = 1.5\nnum = 12\n",
            )
            out = str(tmp_path / f"{name}.csv")
            assert main(["oracle-compare", "--config", cfg, "--out", out]) == 0
            _, rows = read_rows(out)
            columns.append([[r["n_oracle"] for r in rows], [r["n_law"] for r in rows]])
        (oracle, law), (oracle_0, law_0) = columns
        assert oracle == oracle_0 and law != law_0

    def test_oracle_compare_deterministic(self, tmp_path):
        cfg = write(
            tmp_path,
            "o.ini",
            "[experiment]\nkind = oracle-compare\n[bath-model]\nm = 6\n"
            "var_total = 1.0\nomega = linear:0.6:1.8\n[compare]\n"
            "d = 1.0\nprotocol = frozen\nlaw = memory\n[times]\n"
            "start = 0.02\nstop = 1.5\nnum = 12\n",
        )
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["oracle-compare", "--config", cfg, "--out", out1]) == 0
        assert main(["oracle-compare", "--config", cfg, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        header, rows = read_rows(out1)
        assert header == ["t", "n_oracle", "n_law", "abs_diff"]
        assert all(float(r["abs_diff"]) < 0.05 for r in rows)

    def test_oracle_compare_static_protocol(self, tmp_path):
        cfg = write(
            tmp_path,
            "o.ini",
            "[experiment]\nkind = oracle-compare\n[bath-model]\nm = 16\n"
            "var_total = 1.0\n[compare]\nd = 2.0\n"
            "protocol = static\nlaw = gaussian\n[times]\n"
            "start = 0.0\nstop = 0.8\nnum = 100\n",
        )
        out = str(tmp_path / "o.csv")
        assert main(["oracle-compare", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out)
        in_window = [r for r in rows if float(r["n_oracle"]) >= 0.1]
        assert max(float(r["abs_diff"]) for r in in_window) <= 0.02

    def test_norm_two_reservoir_and_memory(self, tmp_path):
        cfg_two = write(
            tmp_path,
            "n2.ini",
            "[experiment]\nkind = norm\n[law]\nkind = two-reservoir\n"
            "[two-reservoir]\ndq = 1.0\ndp = 0.0\nvar_bq = 1.0\nvar_bp = 5.0\n"
            "[times]\nstart = 0.0\nstop = 1.0\nnum = 5\n",
        )
        out = str(tmp_path / "n2.csv")
        assert main(["norm", "--config", cfg_two, "--out", out]) == 0
        _, rows = read_rows(out)
        assert float(rows[-1]["norm"]) == pytest.approx(np.exp(-1.0), rel=1e-12)

        cfg_mem = write(
            tmp_path,
            "nm.ini",
            "[experiment]\nkind = norm\n[law]\nkind = memory\n[memory]\n"
            "correlation = exponential\nvar_b = 1.0\ngamma = 2.0\ndq = 1.5\n"
            "[times]\nstart = 0.0\nstop = 2.0\nnum = 9\n",
        )
        out = str(tmp_path / "nm.csv")
        assert main(["norm", "--config", cfg_mem, "--out", out]) == 0
        _, rows = read_rows(out)
        vals = [float(r["norm"]) for r in rows]
        assert vals[0] == 1.0 and all(b <= a for a, b in zip(vals, vals[1:]))

    def test_spin_montecarlo_seeded(self, tmp_path):
        cfg = write(
            tmp_path,
            "sp.ini",
            "[experiment]\nkind = spin\n[spin]\nj = 10\nalpha = 1+0j\nbeta = -1+0j\n"
            "omega = 0.0\n[bath]\nvar_b = 1.0\nvar_bdot = 0.0\n[norm]\n"
            "mode = montecarlo\nsamples = 20000\nseed = 4\n[times]\n"
            "start = 0.01\nstop = 0.05\nnum = 3\n",
        )
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["spin", "--config", cfg, "--out", out1]) == 0
        assert main(["spin", "--config", cfg, "--out", out2]) == 0
        assert open(out1).read() == open(out2).read()
        header, rows = read_rows(out1)
        assert header == ["t", "norm", "stderr"]
        assert all(float(r["stderr"]) > 0 for r in rows)

    @pytest.mark.parametrize("case, vanishing", [("i", ("tau-x", "tau-y")),
                                                 ("ii", ("tau-x", "tau-z")),
                                                 ("iii", ("tau-x",))], ids=("i", "ii", "iii"))
    def test_special_pair_header_marks_vanishing_channels_infinite(self, tmp_path, case,
                                                                   vanishing):
        # a roundoff separation (cases i and iii leave |d_x| = 8.9e-16) used to print
        # a finite time, 1125899906842624, beside a norm that followed another channel
        text = TEMPLATES["spin"].replace("alpha = 1+0j", "alpha = 0.3+0.2j", 1)
        text = re.sub(r"^beta = .*$", f"case = {case}", text, count=1, flags=re.M)
        cfg, out = write(tmp_path, "s.ini", text), str(tmp_path / "s.csv")
        assert main(["spin", "--config", cfg, "--out", out]) == 0
        header = dict(line[2:].strip().split(": ", 1) for line in open(out)
                      if line.startswith("# tau-"))
        assert {key for key, value in header.items() if value == "inf"} == set(vanishing)
        assert all(0.0 < float(value) < 10.0 for key, value in header.items()
                   if key not in vanishing)

    def test_spin_montecarlo_equals_cold_calls(self, tmp_path):
        # one curve draws once; each row must equal a call with an empty draw cache
        template = TEMPLATES["spin"].replace("mode = regime",
                                             "mode = montecarlo\nsamples = 10000\nseed = 6", 1)
        template = template.replace("var_b = 1.0", "var_b = 1.0\nvar_bdot = 0.0", 1)
        cfg = write(tmp_path, "mc.ini", template.replace("num = 40", "num = 5", 1))
        out = str(tmp_path / "mc.csv")
        assert main(["spin", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 5
        bath = dl.BathMoments(1.0, var_Bdot=0.0)
        for row in rows:
            _gaussian_draws.cache_clear()
            est = dl.spin_coherence_norm(float(row["t"]), 15.0, 1.0, -1.0, 1.0, bath,
                                         mode="montecarlo", samples=10_000, seed=6)
            assert [float(row["norm"]).hex(), float(row["stderr"]).hex()] == [
                est.value.hex(), est.stderr.hex()]

    def test_templates_parse_and_run(self, tmp_path, capsys):
        # every emitted template must itself be a runnable config
        for experiment in (
            "times", "norm", "sweep", "oracle-compare", "spin", "expansion-check", "clt",
        ):
            assert main([experiment, "--emit-config"]) == 0
            template = capsys.readouterr().out
            cfg = write(tmp_path, f"{experiment}.ini", template)
            out = str(tmp_path / f"{experiment}.csv")
            assert main([experiment, "--config", cfg, "--out", out]) == 0, experiment

    @pytest.mark.parametrize("experiment, old, new, named, flags",
                             [(*row, ())[:5] for row in MISCONFIGS.values()], ids=MISCONFIGS)
    def test_misconfig_rejected(self, tmp_path, capsys, experiment, old, new, named, flags):
        template = TEMPLATES[experiment]
        assert old in template
        cfg = write(tmp_path, "c.ini", template.replace(old, new, 1))
        assert main([experiment, "--config", cfg, *flags]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("target, own, foreign", [("tau_gr", "gamma = 2.0", "mass = 2.0"),
                                                      ("tau_gr", "omega = 0.5", "dp = 1.0"),
                                                      ("tau_qp", "dp = 1.0", "gamma = 2.0"),
                                                      ("tau_p", "dp = 1.0", "omega = 0.5")],
                             ids=("tau_gr-mass", "tau_gr-dp", "tau_qp-gamma", "tau_p-omega"))
    def test_sweep_base_keys_follow_the_target(self, tmp_path, capsys, target, own, foreign):
        # a [base] key runs with the targets whose law reads it, and names
        # itself with any other
        template = sweep_template(target)
        ok = write(tmp_path, "ok.ini", template + own + "\n")
        assert main(["sweep", "--config", ok, "--out", str(tmp_path / "ok.csv")]) == 0
        bad = write(tmp_path, "bad.ini", template + own + "\n" + foreign + "\n")
        assert main(["sweep", "--config", bad, "--out", str(tmp_path / "bad.csv")]) == 1
        assert f"not read by this run: [base] {foreign.split()[0]}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_template_run_reads_every_key_it_sets(self, experiment):
        cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cfg.read_string(TEMPLATES[experiment])
        values = parse_config(cfg, experiment)
        RUNNERS[experiment](values)
        assert [(name, key) for name, section in values.items() if name != "experiment"
                for key in section.given if key not in section.read] == []

    def test_unread_keys_are_named_in_order_before_any_output(self, tmp_path, capsys):
        # the memory law reads none of the short-time sections the template sets
        text = TEMPLATES["norm"].replace("kind = short-time", "kind = memory\n[memory]\n"
                                         "correlation = constant\nvar_b = 1.0\ndq = 1.0", 1)
        cfg, out = write(tmp_path, "n.ini", text), tmp_path / "n.csv"
        assert main(["norm", "--config", cfg, "--out", str(out), "--json", str(out) + ".json"]) == 1
        assert capsys.readouterr().err == (
            "decolab: error: validation: not read by this run: [packets] q1, [packets] p1, "
            "[packets] q2, [packets] p2, [packets] sigma, [packets] hbar, [system] mass, "
            "[bath] var_b\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "n.ini"]

    def test_threads_flag_is_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "s.ini",
            "[experiment]\nkind = sweep\n[sweep]\naxis = hbar\ntarget = tau_p\n"
            "start = 0.5\nstop = 4.0\nnum = 6\n[base]\ndq = 0.0\ndp = 2.0\n",
        )
        assert main(["sweep", "--config", cfg, "--threads", "4"]) == 1
        assert "--threads" in capsys.readouterr().err

    def test_json_mirror(self, tmp_path):
        import json

        cfg = write(tmp_path, "t.ini", TIMES_CFG)
        out = str(tmp_path / "o.csv")
        jpath = str(tmp_path / "o.json")
        assert main(["times", "--config", cfg, "--out", out, "--json", jpath]) == 0
        payload = json.load(open(jpath))
        assert payload["experiment"] == "times"
        assert payload["columns"][0] == "dq"
        assert len(payload["config_sha256"]) == 64

    @pytest.mark.parametrize("experiment, infinite", [("times", ("tau_qp", "tau_p")),
                                                      ("spin", ("tau-y", "tau-z"))])
    def test_json_mirror_is_strict_json(self, tmp_path, experiment, infinite):
        # an infinite time is the CSV's token "inf", not the bare Infinity
        # that RFC 8259 JSON does not have
        import json

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        cfg = write(tmp_path, "c.ini", TEMPLATES[experiment])
        jpath = str(tmp_path / "o.json")
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o.csv"),
                     "--json", jpath]) == 0
        with open(jpath) as fh:
            payload = json.load(fh, parse_constant=refuse)
        cells = dict(payload["extras"], **dict(zip(payload["columns"], payload["rows"][0])))
        assert [cells[key] for key in infinite] == ["inf", "inf"]

    def test_wrong_kind_config_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.ini", TIMES_CFG)
        assert main(["clt", "--config", cfg]) == 1

    def test_numerical_error_maps_to_exit_two(self, tmp_path, capsys, monkeypatch):
        import decolab.cli as cli
        from decolab.errors import NumericalError

        def broken(cfg):
            raise NumericalError("synthetic failure")

        monkeypatch.setitem(cli.EXPERIMENTS, "times", broken)
        cfg = write(tmp_path, "t.ini", TIMES_CFG)
        assert main(["times", "--config", cfg]) == 2
        assert "numerical" in capsys.readouterr().err

    def test_underflowing_rate_gives_infinite_time(self, tmp_path):
        cfg = write(tmp_path, "t.ini", TIMES_CFG.replace("dp = 0.0", "dp = 1e-200"))
        out = str(tmp_path / "out.csv")
        assert main(["times", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out)
        assert rows[0]["tau_p"] == "inf"

    @pytest.mark.parametrize("experiment, text", [
        # a short-time exponent that overflows float64 (NumericalError)
        ("norm", TEMPLATES["norm"].replace("q1 = 1.0\np1 = 0.0\nq2 = -1.0\np2 = 0.0",
                                           "q1 = 1e160\np1 = 1e160\nq2 = -1e160\np2 = -1e160")),
        # hbar^2 overflows float64 in the closed-form times (NumericalError)
        ("times", TIMES_CFG.replace("dp = 0.0", "dp = 1.0").replace("hbar = 1.0", "hbar = 1e200")),
    ], ids=["norm", "times"])
    def test_overflow_maps_to_exit_two(self, tmp_path, capsys, experiment, text):
        cfg = write(tmp_path, "o.ini", text)
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("decolab: error: numerical:") and err.count("\n") == 1

    def test_linalg_error_maps_to_exit_two(self, tmp_path, capsys, monkeypatch):
        import decolab.cli as cli

        def broken(cfg):
            raise np.linalg.LinAlgError("synthetic eigensolver failure")

        monkeypatch.setitem(cli.EXPERIMENTS, "times", broken)
        cfg = write(tmp_path, "t.ini", TIMES_CFG)
        assert main(["times", "--config", cfg]) == 2
        assert "numerical" in capsys.readouterr().err


class TestOracleCompareFrozen:
    @pytest.mark.parametrize("d", [1.05, -0.7, 0.0])
    def test_pointers_sit_at_the_configured_separation(self, tmp_path, d):
        cfg = write(
            tmp_path,
            "o.ini",
            "[experiment]\nkind = oracle-compare\n[bath-model]\nm = 12\n"
            f"var_total = 1.0\n[compare]\nd = {d!r}\n"
            "protocol = frozen\nlaw = gaussian\n[times]\n"
            "start = 0.01\nstop = 1.2\nnum = 40\n",
        )
        out = str(tmp_path / "o.csv")
        assert main(["oracle-compare", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out)
        t = np.array([float(r["t"]) for r in rows])
        n_oracle = [float(r["n_oracle"]) for r in rows]
        n_law = [float(r["n_law"]) for r in rows]
        # a static bath on a frozen particle is the exact product of cosines
        np.testing.assert_allclose(n_oracle, dl.static_bath_norm(d, dl.spin_bath(12, 1.0), t),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(n_law, np.exp(-(d ** 2) * t ** 2), rtol=0, atol=1e-12)


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


class TestReadme:
    def test_library_quick_start_runs(self):
        section = open(README).read().split("## Library quick start\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md quick start", "exec"), {})

    def test_omitted_keys_table_matches_schema(self):
        text = open(README).read()
        table = text.split("Known keys the templates leave\nout:\n\n", 1)[1].split("\n\n", 1)[0]
        listed = set()
        for line in table.splitlines()[2:]:
            experiments, section, keys = line.strip("|").split("|")[:3]
            section = section.strip().strip("`[]")
            for exp in re.findall(r"`([^`]+)`", experiments):
                listed |= {(exp, section, key) for key in re.findall(r"`([^`]+)`", keys)}
        omitted = {
            (exp, section, key)
            for exp, (_, sections) in SCHEMA.items()
            for section, keys in sections.items()
            for key, spec in keys.items()
            if spec.template is None
        }
        assert listed == omitted


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "decolab", "times", "--emit-config"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "[experiment]" in proc.stdout


class TestImportPath:
    def test_templates_run_without_scipy(self, tmp_path):
        lines = run_fresh(TEMPLATES_PROBE, str(tmp_path), *EXPERIMENTS).splitlines()
        assert lines[:-1] == [f"{experiment} 0" for experiment in EXPERIMENTS]
        assert lines[-1] == "scipy-modules"

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_run_loads_only_its_modules(self, tmp_path, experiment):
        # each runner imports what it calls: the closed forms load no oracle
        cfg = write(tmp_path, "cfg.ini", TEMPLATES[experiment])
        loaded = run_fresh(MODULES_PROBE, experiment, "--config", cfg,
                           "--out", str(tmp_path / "out.csv"))
        assert set(loaded.split()) == LOADED_MODULES[experiment]

    def test_import_loads_only_the_errors(self):
        loaded = run_fresh("import sys, decolab\n"
                           "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'decolab'))")
        assert loaded.split() == ["decolab", "decolab.errors"]

    def test_exports_resolve_on_first_use(self):
        lines = [line.split() for line in run_fresh(EXPORTS_PROBE).splitlines()]
        assert [name for name, *_ in lines] == [*dl.__all__, *dl._EXPORTS]
        assert len(set(dl.__all__)) == len(dl.__all__)
        assert all(rest == ["True", "True"] for _, *rest in lines)

    def test_unknown_export_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            dl.no_such_name
        assert not hasattr(dl, "cli_main")
        with pytest.raises(ImportError):
            from decolab import no_such_name  # noqa: F401

    def test_deferred_scipy_imports_resolve(self):
        # no back end, bath operator or closed form loads any scipy module
        lines = [line.split() for line in run_fresh(SCIPY_PATHS_PROBE).splitlines()]
        assert [name for name, _, _ in lines] == [
            "import", "pointer-spin", "spin-static", "spin-dynamic", "pointer-grid",
            "grid-static", "grid-dynamic", "bath-operators", "lines-kernel", "exponential-laws"]
        assert all(rest == ["True", "False"] for _, *rest in lines)
