"""One workload process: set up, run cases, print one JSON line.

Started by run.py, which pins BLAS/OpenMP threads to 1 and puts the
checkout's src/ on PYTHONPATH.  Modes:

  setup   report the set-up time, then run the first case only, so that its
          oracle counters can be compared with another process's
  timed   run whole passes over the case list, at least MIN_PASSES, until
          --seconds have passed; every pass repeats the same instances
  pass    run exactly one pass (with --trace-out: traced, spans written there)

Set-up time runs from --spawned-at, the runner's CLOCK_MONOTONIC reading
just before it started this process, to the start of the first case,
less the time spent calibrating.  The host's speed is calibrated
(calibrate.py) before set-up, after it, and between cases; each row ends
with the host slowdown around its case, and setup_slowdown is the one
around set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import cases
import sdhsp
import tracing

COUNTERS = ("mul", "inv", "eq", "f", "superposed_calls")
MIN_PASSES = 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "pass"))
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(sdhsp.__file__).resolve().is_relative_to(src):
        print(f"sdhsp was imported from {sdhsp.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracer.install()

    def span(name, case=None):
        return tracer.span(name, case) if tracer else contextlib.nullcontext()

    clock = calibrate.HostClock()
    clock.sample()
    setup_start = time.perf_counter()
    with span("setup"):
        case_list = cases.WORKLOADS[args.workload]()
    setup_s = time.monotonic() - args.spawned_at - clock.spent_s
    setup_end = time.perf_counter()
    clock.sample()
    if args.mode == "setup":
        case_list = case_list[:1]

    # per pass: [case_s, solve_s, ok, confident, slowdown] per case, summed counters
    passes = []
    intervals = []  # per pass: (start, end) of each case
    t0 = time.perf_counter()
    for rep in itertools.count():
        rows, spans = [], []
        totals = Counter({k: 0 for k in COUNTERS})
        for index, case in enumerate(case_list):
            if clock.due():
                clock.sample()
            start = time.perf_counter()
            with span("case", case=rep * len(case_list) + index):
                res = cases.run_case(case, args.seed, index)
            spans.append((start, time.perf_counter()))
            rows.append([res.case_s, res.solve_s, res.ok, res.confident])
            totals.update({k: res.queries.get(k, 0) for k in COUNTERS})
            if not res.ok:
                why = res.error or "answer differs from brute force or planted subgroup"
                print(f"case {index} {case.label}: {why}", file=sys.stderr)
            if rep == 0 and index == 0:
                first_case = dict(totals)
        passes.append({"rows": rows, "counters": dict(totals)})
        intervals.append(spans)
        if args.mode != "timed" or (rep + 1 >= MIN_PASSES and time.perf_counter() - t0 >= args.seconds):
            break
    loop_s = time.perf_counter() - t0
    clock.sample()
    for p, spans in zip(passes, intervals):
        for row, (start, end) in zip(p["rows"], spans):
            row.append(clock.slowdown(start, end))

    out = {
        "setup_s": setup_s,
        "setup_slowdown": clock.slowdown(setup_start, setup_end),
        "loop_s": loop_s,
        "passes": passes,
        "first_case": first_case,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(Counter(passes[0]["counters"]))
        out["missing"] = tracer.missing
        tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
