"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

The traced-run test runs the real command and takes about two minutes.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sdhsp
from sdhsp import hsp_vector, reference, sdp_group

import calibrate
import cases
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent


def _modular_case(**kwargs):
    spec = sdhsp.modular_group_spec(3, 2)
    desc = sdhsp.enumerate_subgroups(spec)[1]
    truth = frozenset(sdp_group.subgroup_elements(spec, desc))
    return cases.Case("modular", sdhsp.sdp_table(spec), truth, "(3,2)", **kwargs)


def _vector_case():
    table = hsp_vector.vec_table(sdhsp.ZmGroupSpec(3, 2, 1))
    truth = reference.enumerate_all_subgroups(table)[3]
    return cases.Case("vector", table, truth, "(3,2,1)", generators="scrambled")


def _case(family):
    if family == "vector":
        return _vector_case()
    return _modular_case(mode="salted", salts=4, salt_policy="fresh", generators="scrambled")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(cases.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("family", ["modular", "vector"])
def test_a_changed_seed_changes_the_instance(family):
    case = _case(family)

    def draw(seed):
        instance_seed, rng = cases.case_seeds(seed, 0)
        inst, _ = cases.build(case, instance_seed)
        elements = case.table.elements
        return (
            [inst.blackbox.encode(g).data for g in elements],
            [inst.label_of_element(g) for g in elements],
            int(rng.integers(0, 2**63)),
        )

    same, other = draw(1), draw(2)
    assert draw(1) == same
    for part_same, part_other in zip(same, other):
        assert part_same != part_other


@pytest.mark.parametrize("family", ["modular", "vector"])
def test_a_tampered_answer_is_a_failure(family, monkeypatch):
    case = _case(family)
    assert cases.run_case(case, 1, 0).ok
    name = "solve_vector" if family == "vector" else "solve_modular"
    real = getattr(sdhsp, name)

    def tampered(*args, **kwargs):
        out = real(*args, **kwargs)
        return dataclasses.replace(out, subgroup=out.subgroup[:-1], confident=True)

    monkeypatch.setattr(sdhsp, name, tampered)
    res = cases.run_case(case, 1, 0)
    assert not res.ok and res.confident

    def crashing(*args, **kwargs):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(sdhsp, name, crashing)
    res = cases.run_case(case, 1, 0)
    assert not res.ok and "solver crashed" in res.error


def _fake_worker(rows, first_cases, counters):
    """Stands in for the worker processes: the timed one first, then set-ups."""
    first_cases = iter(first_cases)

    def worker(workload, seed, mode, deadline, *extra):
        passes = [{"rows": rows, "counters": c} for c in counters]
        if mode == "setup":
            passes = [{"rows": rows[:1], "counters": counters[0]}]
        return {
            "setup_s": 0.5,
            "setup_slowdown": 1.0,
            "loop_s": 2.0,
            "passes": passes,
            "first_case": next(first_cases),
            "peak_rss_mb": 30.0,
        }

    return worker


OK = [0.1, 0.05, True, True, 1.0]
WRONG = [0.1, 0.05, False, True, 1.0]


@pytest.mark.parametrize(
    "rows, first_cases, counters",
    [
        ([OK, WRONG], [{"mul": 3}] * 3, [{"mul": 7}] * 2),
        ([OK, OK], [{"mul": 3}, {"mul": 4}, {"mul": 3}], [{"mul": 7}] * 2),
        ([OK, OK], [{"mul": 3}] * 3, [{"mul": 7}, {"mul": 8}]),
    ],
    ids=["failed case", "counters differ between processes", "counters differ between passes"],
)
def test_the_command_fails_on_a_failed_check(rows, first_cases, counters, monkeypatch, capsys):
    monkeypatch.setattr(run, "_worker", _fake_worker(rows, first_cases, counters))
    argv = ["--workload", "sweep_modular", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == 2 * len(rows) + 2
    assert result["failed"] == 2 * rows.count(WRONG)


def test_times_are_divided_by_the_host_slowdown(monkeypatch, capsys):
    rows = [[0.1, 0.05, True, True, 2.0]] * 2
    monkeypatch.setattr(run, "_worker", _fake_worker(rows, [{"mul": 3}] * 3, [{"mul": 7}] * 2))
    argv = ["--workload", "sweep_modular", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert metrics["case_ms_p50"]["value"] == pytest.approx(50.0)
    assert metrics["solve_ms_p90"]["value"] == pytest.approx(25.0)
    assert metrics["cases_per_s"]["value"] == pytest.approx(20.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)


def test_the_host_slowdown_comes_from_the_points_around_an_interval():
    clock = calibrate.HostClock()
    clock.times, clock.slowdowns = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    assert clock.slowdown(2.5, 2.8) == pytest.approx(3.0)
    assert clock.slowdown(1.5, 2.5) == pytest.approx(2.5)
    assert clock.slowdown(3.5, 3.6) == pytest.approx(4.0)
    assert 0.2 < calibrate.measure() < 20.0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer(points=())
    tracer.spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
    ]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_a_missing_trace_point_is_reported_not_raised():
    tracer = tracing.Tracer(
        points=(
            ("sdhsp.qsim", "no_such_function", "x", {}),
            ("sdhsp.no_such_module", "f", "y", {}),
            ("sdhsp.qsim", "AbelianOracle.no_such_method", "z", "count"),
        )
    )
    tracer.install()
    assert tracer.missing == [
        "sdhsp.qsim.no_such_function",
        "sdhsp.no_such_module.f",
        "sdhsp.qsim.AbelianOracle.no_such_method",
    ]


def test_the_runner_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_modular", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_the_traced_run_reports_every_layer_as_non_zero():
    # A wrapper patched at the wrong import site leaves its metric at 0.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_large", "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "trace point missing" not in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER
    assert [k for k, m in result["metrics"].items() if m["value"] == 0] == []
