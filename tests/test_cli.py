import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import decolab as dl
from decolab.cli import SCHEMA, TEMPLATES, fit_scaling, main
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

# Misconfigured templates: (experiment, template text, replacement, name
# the error must give).  Each used to run, or fail for another reason.
MISCONFIGS = {
    "misspelt-key": ("oracle-compare", "protocol = frozen", "protocl = frozen", "protocl"),
    "unknown-section": ("times", "[bath]\n", "[bogus]\n[bath]\n", "bogus"),
    "unknown-key": ("norm", "spacing = linear\n", "spacing = linear\nmas = 5\n", "mas"),
    "out-of-choice": ("spin", "mode = regime", "mode = montecarl", "mode"),
    "non-finite": ("sweep", "stop = 4.0", "stop = inf", "stop"),
    "axis-not-in-law": ("sweep", "axis = hbar", "axis = j", "axis"),
    "beta-and-case": ("spin", "[spin]\n", "[spin]\ncase = ii\n", "case"),
    "default-key": ("times", "[experiment]\n", "[DEFAULT]\nhbar = 2.0\n[experiment]\n", "hbar"),
    "dropped-key": ("norm", "spacing = linear\n", "spacing = linear\n[memory]\ntail_cutoff = inf\n",
                    "tail_cutoff"),
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

# Calls each scipy-backed function once after a scipy-free import of
# decolab; prints whether the results are finite and which scipy
# subpackages were loaded before and after the calls.
SCIPY_PATHS_PROBE = textwrap.dedent("""
    import math
    import sys
    import numpy as np
    import decolab as dl

    def loaded():
        return [m in sys.modules for m in ("scipy.integrate", "scipy.sparse.linalg")]

    print(*loaded())
    corr = dl.exponential_correlation(1.0, 1.0)
    a = dl.coherent_vector(dl.SpinCoherent(1.0, 1.0))
    b = dl.coherent_vector(dl.SpinCoherent(1.0, -1.0))
    curve = dl.evolve_norm(dl.SpinSystem(1.0, 0.0), dl.spin_bath(3, 1.0, omegas=0.7),
                           a, b, np.linspace(0.0, 1.0, 5))
    values = [dl.memory_kernel_norm(1.0, 1.0, 1.0, corr),
              dl.golden_rule_times(corr, dl.SystemParams(1.0, omega=0.5), 1.0).tau_dec,
              *curve.values]
    print(all(map(math.isfinite, values)), *loaded())
""")


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
            "var_total = 1.0\nomega = 0\ncap = 4096\n[compare]\nd = 1.0\n"
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
            f"var_total = 1.0\nomega = 0\n[compare]\nd = 1.0\nprotocol = {protocol}\n"
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
            "start = 0.5\nstop = 8.0\nnum = 8\n[base]\ndq = 1.0\n",
        )
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        text = open(out).read()
        assert "# fit-exponent: 1" in text

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
            "var_total = 1.0\nomega = 0\n[compare]\nd = 2.0\n"
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
        assert main(["spin", "--config", cfg, "--out", out2, "--seed", "4"]) == 0
        assert open(out1).read() == open(out2).read()
        header, rows = read_rows(out1)
        assert header == ["t", "norm", "stderr"]
        assert all(float(r["stderr"]) > 0 for r in rows)

    def test_spin_montecarlo_equals_cold_calls(self, tmp_path):
        # one curve draws once; each row must equal a call with an empty draw cache
        template = TEMPLATES["spin"].replace("mode = regime", "mode = montecarlo", 1)
        template = template.replace("samples = 100000", "samples = 10000", 1)
        template = template.replace("num = 40", "num = 5", 1)
        cfg = write(tmp_path, "mc.ini", template.replace("seed = 0", "seed = 6", 1))
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

    @pytest.mark.parametrize("experiment, old, new, named", MISCONFIGS.values(), ids=MISCONFIGS)
    def test_misconfig_rejected(self, tmp_path, capsys, experiment, old, new, named):
        template = TEMPLATES[experiment]
        assert old in template
        cfg = write(tmp_path, "c.ini", template.replace(old, new, 1))
        assert main([experiment, "--config", cfg]) == 1
        assert named in capsys.readouterr().err

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

    def test_wrong_kind_config_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.ini", TIMES_CFG)
        assert main(["clt", "--config", cfg]) == 1

    def test_numerical_error_maps_to_exit_two(self, tmp_path, capsys, monkeypatch):
        import decolab.cli as cli
        from decolab.errors import IntegrationError

        def broken(cfg, args):
            raise IntegrationError("synthetic failure")

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

        def broken(cfg, args):
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
            f"var_total = 1.0\nomega = 0\n[compare]\nd = {d!r}\n"
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


class TestReadme:
    def test_omitted_keys_table_matches_schema(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        text = open(readme).read()
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

    def test_deferred_scipy_imports_resolve(self):
        before, after = run_fresh(SCIPY_PATHS_PROBE).splitlines()
        assert before.split() == ["False", "False"]
        assert after.split() == ["True", "True", "True"]
