"""Tests of the benchmark harness itself.

Run with:  python3 -m pytest bench/test_bench.py
"""

import io
import json
import os
import re
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_every_layer_metric_names_what_it_should_move():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    wls = {w["name"] for w in SPEC["workloads"]}
    for m in SPEC["per_layer"]:
        found = layers.moves(m["name"])
        assert found is not None, m["name"]
        pairs, note = found
        assert note, m["name"]
        for metric, workload in pairs:
            assert metric in e2e and workload in wls, (m["name"], metric, workload)


def test_computed_counts_match_the_spec():
    counts = {}
    for build in (workloads.build_oracle, workloads.build_kernels):
        counts.update(build(0).counts)
    spec_counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")}
    assert set(counts) == spec_counts
    assert counts == {**workloads.build_oracle(7).counts, **workloads.build_kernels(7).counts}


def test_same_seed_same_cli_configs():
    import numpy as np

    def configs(seed):
        return workloads.cli_configs(np.random.Generator(np.random.Philox(key=seed)))

    assert configs(3) == configs(3)
    assert configs(3) != configs(4)
    assert set(configs(3)) == set(workloads.CLI_EXPERIMENTS)


def test_self_time_subtracts_the_union_of_children():
    recs = [
        {"id": 0, "name": "pass", "pass": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "pass": 0, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "pass": 0, "parent": 0, "start": 3.0, "end": 5.0},
        {"id": 3, "name": "a", "pass": 1, "parent": None, "start": 0.0, "end": 2.0},
    ]
    own = spans.self_times(recs)
    assert own == {0: 6.0, 1: 3.0, 2: 2.0, 3: 2.0}
    times = spans.layer_times(recs, ["a", "b", "absent"])
    assert times == {"a": 2.5, "b": 2.0, "absent": 0.0}


def test_tail_keeps_ten_passes_beyond_or_a_quarter():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail([5.0, 1.0, 3.0, 2.0]) == (3.0, 75.0, 1)
    assert run.tail([2.0]) == (2.0, 100.0, 0)


def _fake_workload():
    def ok(tr):
        tr.call("laws.memory_kernel_norm_s", lambda: None)

    def bad_check(tr):
        workloads.check(False, "injected failing check")

    def raises(tr):
        raise ZeroDivisionError("injected error")

    tasks = [("ok.1", ok), ("bad", bad_check), ("boom", raises), ("ok.2", ok)]
    return workloads.Workload(tasks, {})


def test_failing_tasks_are_counted_and_the_run_goes_on():
    stats = run.run_passes(_fake_workload().tasks, spans.Tracer(), 0.0, False, speed.Reference())
    assert len(stats.passes) == 1
    assert stats.attempted == 8          # warm-up pass plus one timed pass
    assert stats.failed == 4
    assert [p[2] for p in stats.passes] == [2]
    assert any("injected failing check" in f for f in stats.failures)


def test_injected_failure_reaches_the_result_line(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "build", lambda *args: _fake_workload())
    monkeypatch.setattr(run, "measure_setup", lambda args, ref: [0.5])
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "kernels", "--seed", "1", "--seconds", "0"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] == 0.5
    assert "failed_frac = 0.5" in out.getvalue()
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
