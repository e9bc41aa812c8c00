"""decolab benchmark: one seeded workload, timed end to end or traced by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload {cli,oracle,kernels} --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client in one process: a pass runs
the workload's fixed task list once, checks every result, and the next
pass starts when it ends.  The first pass of a process is a warm-up and is
left out of the pass metrics.  Passes repeat until ``--seconds`` have
elapsed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; set-up is
timed in fresh processes.  Those times are scaled to a fixed machine speed,
sampled after every task and set-up probe of the run (see speed.py); the
raw times go beside them into the details.  ``--trace 1`` alternates traced and untraced
passes and reports the per-layer metrics: self times of the spans the
benchmark wraps around its calls into decolab, computed counts, and the
tracing overhead.  Details (pass quartiles, the tail percentile, failures,
the environment record and, when traced, every span) go to
``.bench_out/``.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()  # set-up probes time import and input building from here

import argparse
import json
import os
import resource
import subprocess
import sys
from statistics import median, quantiles

import env
import spans
import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, SRC)
WORKLOADS = ("cli", "oracle", "kernels")
SETUP_PROBES = 5
IMPORT_PROBES = 5
LAYER_PROBES = 3
# Reported per call instead of per pass.
PER_CALL = ("cli.process_s", "spin.coherence_norm_mc_s")
MAX_FAILURES_KEPT = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def python_env():
    """The environment for child interpreters: decolab from this checkout."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = SRC + os.pathsep + environ.get("PYTHONPATH", "")
    return environ


def child(cmd):
    """Run a helper interpreter to completion; its stdout, or an error."""
    proc = subprocess.run(cmd, cwd=ROOT, env=python_env(), capture_output=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace').strip()[-2000:]}")
    return proc.stdout


# ---------------------------------------------------------------------------
# Passes


class RunStats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.warmup_s = None
        self.passes = []        # (wall seconds, traced, tasks checked)

    def record(self, name, exc):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


def run_tasks(tasks, tracer, stats, pass_id, ref):
    """One pass over the task list.

    Returns (wall seconds, tasks checked); the speed reference runs after
    each task and is left out of the time.
    """
    tracer.pass_id = pass_id

    def attempt(name, fn):
        try:
            with tracer.span(name):
                fn(tracer)
            return True
        except Exception as exc:  # a failed task is counted and the run goes on
            stats.record(name, exc)
            return False

    wall = 0.0
    ok = 0
    with tracer.span("pass"):
        for name, fn in tasks:
            stats.attempted += 1
            raw, passed = ref.timed(attempt, name, fn)
            wall += raw
            ok += passed
    return wall, ok


def run_passes(tasks, tracer, seconds, trace, ref):
    """Warm-up pass, then timed passes until ``seconds`` have elapsed.

    With ``trace`` set, even-numbered timed passes are traced and odd ones
    are not, so both halves see the same machine state.
    """
    stats = RunStats()
    tracer.enabled = False
    stats.warmup_s, _ = run_tasks(tasks, tracer, stats, "warmup", ref)
    start = time.perf_counter()
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() - start < seconds:
        tracer.enabled = trace and i % 2 == 0
        wall, ok = run_tasks(tasks, tracer, stats, i, ref)
        stats.passes.append((wall, tracer.enabled, ok))
        i += 1
    tracer.enabled = False
    return stats


def tail(values):
    """(value, percentile, passes beyond) of the highest percentile with at
    least ten passes beyond it; below forty passes, a quarter of them."""
    s = sorted(values)
    n = len(s)
    beyond = min(10, n // 4)
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return quantiles(values, n=4)


# ---------------------------------------------------------------------------
# Probes in fresh interpreters


def setup_probe(args):
    """Child side: import decolab, build the seeded inputs, print the time."""
    os.makedirs(OUT_DIR, exist_ok=True)
    import workloads

    wl = workloads.build(args.workload, args.seed, OUT_DIR, python_env())
    elapsed = time.perf_counter() - _T0
    wl.close()
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(args, ref):
    """Raw set-up seconds of SETUP_PROBES fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    return [json.loads(ref.timed(child, cmd)[1].decode().splitlines()[-1])["setup_s"]
            for _ in range(SETUP_PROBES)]


def measure_import(tracer):
    """Spans around bare interpreter starts and fresh `import decolab` runs."""
    tracer.pass_id = "probe.import"
    for _ in range(IMPORT_PROBES):
        with tracer.span("probe.python_bare"):
            child([sys.executable, "-c", "pass"])
        with tracer.span("probe.python_import"):
            child([sys.executable, "-c", "import decolab"])


# ---------------------------------------------------------------------------
# Metrics


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(workload, stats, setup_samples, factor):
    raw = [p[0] for p in stats.passes]
    walls = [w * factor for w in raw]
    value, pct, beyond = tail(walls)
    checked = sum(p[2] for p in stats.passes)
    values = {
        "setup_s": median(setup_samples) * factor,
        "pass_s.p50": median(walls),
        "pass_s.tail": value,
        "tasks_per_s": checked / sum(walls),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    detail = {
        "pass_s.quartiles": quartiles(walls),
        "pass_s.tail_percentile": pct,
        "pass_s.tail_beyond": beyond,
        "passes": len(walls),
        "speed_factor": factor,
        "raw.pass_s.p50": median(raw),
        "raw.pass_s.quartiles": quartiles(raw),
        "raw.setup_s.samples": setup_samples,
    }
    return values, detail


def per_layer(units, wl, stats, tracer, backends):
    traced = [p[0] for p in stats.passes if p[1]]
    untraced = [p[0] for p in stats.passes if not p[1]]
    probes = ["probe.python_bare", "probe.python_import"]
    probe = spans.layer_times(tracer.spans, probes, per_call=probes)
    values = dict.fromkeys(units, 0)
    values.update(spans.layer_times(
        tracer.spans, [n for n, u in units.items() if u == "s"], per_call=PER_CALL))
    values.update(wl.counts)
    values.update({f"oracle.max_dev.{b}": wl.devs[b] for b in backends if b in wl.devs})
    values["cli.import_s"] = probe["probe.python_import"] - probe["probe.python_bare"]
    values["bench.warmup_pass_s"] = stats.warmup_s
    values["bench.trace_overhead_s"] = median(traced) - median(untraced)
    detail = {"traced_passes": len(traced), "untraced_passes": len(untraced),
              "computed": sorted(wl.counts)}
    return values, detail


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if not os.path.isdir(os.path.join(SRC, "decolab")):
        print(f"bench: no decolab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    os.makedirs(OUT_DIR, exist_ok=True)

    ref = speed.Reference()
    tracer = spans.Tracer()
    setup_samples = []
    if args.trace:
        tracer.enabled = True
        measure_import(tracer)
        tracer.enabled = False
    else:
        setup_samples = measure_setup(args, ref)

    import workloads

    wl = workloads.build(args.workload, args.seed, OUT_DIR, python_env())
    try:
        stats = run_passes(wl.tasks, tracer, args.seconds, bool(args.trace), ref)
        if args.trace:
            tracer.enabled = True
            for i in range(LAYER_PROBES):
                run_tasks(wl.probe_tasks, tracer, stats, f"probe.{i}", ref)
            tracer.enabled = False
    finally:
        wl.close()

    if args.trace:
        values, detail = per_layer(units, wl, stats, tracer, workloads.BACKENDS)
    else:
        values, detail = end_to_end(args.workload, stats, setup_samples, ref.factor())
    detail["failed_frac"] = stats.failed / stats.attempted
    detail["bench.warmup_pass_s"] = stats.warmup_s
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env.record(ROOT, args.seed),
        "metrics": metrics,
        "detail": detail,
        "failures": stats.failures,
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.spans, fh)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in detail.items():
        print(f"{name} = {value}")
    for line in stats.failures:
        print(f"FAILED {line}")
    print(f"environment = {json.dumps(record['environment'], sort_keys=True)}")
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
