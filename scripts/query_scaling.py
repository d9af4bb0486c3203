#!/usr/bin/env python3
"""Measure classical query counts of the rank-one solver against its budget.

For each (p, r) cell the script solves every subgroup at several seeds, takes
the worst classical count (mul + inv + eq + f), and reports the ratio to the
budget curve C * p^2 * r^3 * max(1, log2 p)^2.  It also fits a power law in
log2 |G| to the mean superposed call counts.  The printed max ratio is what
pins the budget constant in the acceptance gate: the gate constant must sit
above the measured worst case with headroom for seed variance.

    python3 scripts/query_scaling.py
    python3 scripts/query_scaling.py --grid "3,2;3,3;3,4;5,2;7,2;2,3;2,4;2,5" --seeds 5
"""

import argparse
import math
import sys

import numpy as np

from sdhsp.acceptance import BUDGET_CONSTANT, RunConfig, grid_cell, query_budget, run_case
from sdhsp.cli import _parse_grid
from sdhsp.qsim import BACKENDS, backend_for


def sweep_cell(p: int, r: int, seeds: list[int], backend: str) -> tuple[int, float, int]:
    table, subs = grid_cell((p, r))
    worst = 0
    superposed = []
    runs = 0
    for label, truth in subs:
        for seed in seeds:
            rng = np.random.default_rng([seed, p, r])
            res = run_case(table, truth, RunConfig(seed=seed, backend=backend), rng)
            if not res.match:
                raise SystemExit(f"solver mismatch at ({p},{r}) {label} seed {seed}")
            q = res.outcome.report["queries"]
            worst = max(worst, q["mul"] + q["inv"] + q["eq"] + q["f"])
            superposed.append(q["superposed_calls"])
            runs += 1
    return worst, float(np.mean(superposed)), runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", default="3,2;3,3;5,2;7,2;2,3;2,4")
    ap.add_argument("--seeds", type=int, default=3, help="number of seeds per subgroup")
    ap.add_argument("--backend", default="statevector", choices=BACKENDS)
    args = ap.parse_args()

    seeds = [7 + 2 * i for i in range(args.seeds)]
    print(f"budget curve: {BUDGET_CONSTANT} * p^2 * r^3 * max(1, log2 p)^2")
    print(f"{'p':>3} {'r':>3} {'|G|':>6} {'runs':>5} {'worst':>7} {'budget':>7} {'ratio':>6}  {'mean supd':>9}")
    xs, ys = [], []
    worst_ratio = 0.0
    for cell in _parse_grid(args.grid):
        if len(cell) != 2:
            raise SystemExit("query_scaling sweeps rank-one cells only (p,r)")
        p, r = cell
        # the largest internal oracle domain is (p^{r-1})^2
        backend = "annihilator" if args.backend == "annihilator" else backend_for((p ** (r - 1)) ** 2)
        worst, mean_sup, runs = sweep_cell(p, r, seeds, backend)
        budget = query_budget(p, r)
        ratio = worst / budget
        worst_ratio = max(worst_ratio, ratio)
        order = p**r * p
        xs.append(math.log2(order))
        ys.append(mean_sup)
        print(f"{p:>3} {r:>3} {order:>6} {runs:>5} {worst:>7} {budget:>7} {ratio:>6.3f}  {mean_sup:>9.1f}")

    fit = np.polyfit(np.log(xs), np.log(ys), 1)
    print(f"\nworst observed / budget ratio: {worst_ratio:.3f}")
    print(f"superposed-call power law:     calls ~ (log2 |G|)^{fit[0]:.2f}")
    print("the acceptance gate requires every ratio <= 1 and fit exponent <= 3.5")
    return 0 if worst_ratio <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
