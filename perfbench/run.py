#!/usr/bin/env python3
"""Benchmark of the sdhsp solvers: verified hidden-subgroup cases, end to end.

    python3 perfbench/run.py --workload sweep_modular --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see cases.py and
BENCHMARK.json): solve_large, sweep_modular, sweep_vector.  Each runs in
worker processes of its own, one thread each, as a closed loop: a case
starts after the previous one ends, and every case is checked against
brute force.

--trace 0 runs whole passes over the workload's case list, at least two and
for at least --seconds, in one process; every pass repeats the same
instances and must book the same oracle counters.  A case's time is its
median over the passes.  Then it sets up twice more in fresh processes, which also run
the first case and must book the same counters for it.  It prints the
end-to-end metrics.  Times are wall-clock times divided by the host
slowdown that calibrate.py measures around each case and each set-up, so
they read as times at the reference host speed; the raw figures are
printed next to them.  --trace 1 traces every workload, whichever --workload
names, so that each per-layer metric is reported on the workloads that
reach its layer (as <workload>.<metric>): per workload it runs one pass
untraced and one traced, requires identical oracle counters from both, and
writes the spans to .perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A wrong answer, a crashed case or differing counters make the
exit code 1; a run that cannot finish exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("solve_large", "sweep_modular", "sweep_vector")
SETUPS = 3
DEADLINE_S = 170.0
END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


# Layers a workload never reaches.  Every other per-layer metric is reported
# for it and is non-zero there.
UNREACHED = {
    "solve_large": ("hsp_vector.", "reference.enumerate_all_subgroups."),
    "sweep_modular": (
        "hsp_vector.",
        "reference.enumerate_all_subgroups.",
        "hsp_modular.branch.involution.",  # p = 2 only, and this grid has odd p
    ),
    "sweep_vector": ("hsp_modular.", "sdp_group."),
}
PER_LAYER = {
    f"{workload}.{name}": unit
    for workload in WORKLOADS
    for name, unit in tracing.PER_LAYER.items()
    if not name.startswith(UNREACHED[workload])
}


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str, deadline: float, *extra: str) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(WORKER),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--spawned-at", repr(spawned_at),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} {mode} process ran past the deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{workload} {mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def _line(name: str, value, unit: str, note: str) -> None:
    print(f"{name:56s} {value:>14.6g} {unit:6s} {note}")


def _timed(args, deadline: float) -> tuple[dict, list[list], bool]:
    timed = _worker(args.workload, args.seed, "timed", deadline, "--seconds", str(args.seconds))
    others = [_worker(args.workload, args.seed, "setup", deadline) for _ in range(SETUPS - 1)]
    runs = (timed, *others)
    setups = [run["setup_s"] / run["setup_slowdown"] for run in runs]
    passes = timed["passes"]
    # Each pass repeats the same instances; a case's time is its median over
    # the passes, at the reference host speed.
    per_case = list(zip(*(p["rows"] for p in passes)))

    def per_case_ms(column: int, normalized: bool = True) -> list[float]:
        return [
            1000.0 * statistics.median(r[column] / (r[4] if normalized else 1.0) for r in tries)
            for tries in per_case
        ]

    def timings(case_ms: list[float], solve_ms: list[float]) -> dict:
        return {
            "cases_per_s": 1000.0 * len(case_ms) / sum(case_ms),
            "case_ms_p50": statistics.median(case_ms),
            "case_ms_p90": _p90(case_ms),
            "solve_ms_p50": statistics.median(solve_ms),
            "solve_ms_p90": _p90(solve_ms),
        }

    n = len(per_case)
    metrics = {
        "setup_s": statistics.median(setups),
        **timings(per_case_ms(0), per_case_ms(1)),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    raw = {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        **timings(per_case_ms(0, False), per_case_ms(1, False)),
    }
    slowdowns = [r[4] for p in passes for r in p["rows"]]
    notes = {
        "setup_s": f"median of {SETUPS} processes",
        "cases_per_s": f"{n} cases at their median of {len(passes)} passes "
        f"({len(passes) * n / timed['loop_s']:.4g}/s raw over all passes, calibration included)",
        "peak_rss_mb": "case-running process",
    }
    print(
        f"host slowdown against the reference speed: median {statistics.median(slowdowns):.3f}, "
        f"range {min(slowdowns):.3f}-{max(slowdowns):.3f} over the cases; "
        f"set-ups {', '.join(format(run['setup_slowdown'], '.3f') for run in runs)}"
    )
    for name, unit in END_TO_END.items():
        note = notes.get(name, f"n={n}, median of {len(passes)} passes")
        if name in raw:
            note += f"; raw {raw[name]:.6g}"
        _line(name, metrics[name], unit, note)
    same_passes = all(p["counters"] == passes[0]["counters"] for p in passes)
    print(f"oracle counters identical in all {len(passes)} passes: {same_passes} {passes[0]['counters']}")
    probes = [run["first_case"] for run in runs]
    same_probes = all(c == probes[0] for c in probes)
    print(f"first case's oracle counters identical in {SETUPS} processes: {same_probes} {probes[0]}")
    if not (same_passes and same_probes):
        print("exact-count check failed", file=sys.stderr)
    rows = [r for run in runs for p in run["passes"] for r in p["rows"]]
    return metrics, rows, same_passes and same_probes


def _traced(args, deadline: float) -> tuple[dict, list[list], bool]:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    metrics, rows, all_same = {}, [], True
    for workload in WORKLOADS:
        trace_path = out_dir / f"trace-{workload}-seed{args.seed}.json"
        plain = _worker(workload, args.seed, "pass", deadline)
        traced = _worker(workload, args.seed, "pass", deadline, "--trace-out", str(trace_path))
        same = plain["passes"][0]["counters"] == traced["passes"][0]["counters"]
        all_same = all_same and same
        rows += plain["passes"][0]["rows"] + traced["passes"][0]["rows"]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (traced["setup_s"] + traced["loop_s"]) - (
            plain["setup_s"] + plain["loop_s"]
        )
        metrics.update({f"{workload}.{name}": value for name, value in layers.items()})
        print(f"{workload}: oracle counters identical untraced and traced: {same}")
        print(f"  untraced {plain['passes'][0]['counters']}")
        print(f"  traced   {traced['passes'][0]['counters']}")
        for target in traced["missing"]:
            print(f"  trace point missing: {target}")
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    if not all_same:
        print("exact-count check failed", file=sys.stderr)
    for name, unit in PER_LAYER.items():
        _line(name, metrics[name], unit, "")
    return metrics, rows, all_same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, rows, same = (_traced if args.trace else _timed)(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted = len(rows)
    failed = sum(1 for r in rows if not r[2])
    unconfident = sum(1 for r in rows if not r[3])
    print(f"seed {args.seed}: {attempted} cases, {failed} failed")
    _line("mismatch_rate", failed / attempted, "ratio", f"{failed}/{attempted}")
    _line("unconfident_rate", unconfident / attempted, "ratio", f"{unconfident}/{attempted}")
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
