"""Command-line interface.

Subcommands:
  classify   valid twist parameters, class labels and isomorphism families
  solve-p    hidden subgroup run on a rank-one modular group
  solve-zm   hidden subgroup run on a vector group
  bench      CSV sweep over a grid of groups, every subgroup of each
  selftest   run the acceptance gates natively

All commands are deterministic under a fixed --seed: reports are emitted
with sorted keys and contain no timing fields unless --timings is given.
Exit codes: 0 success, 1 when an answer differs from the brute-force level
set of f(e) or from the planted subgroup, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

import numpy as np

from . import acceptance
from .acceptance import GENERATOR_POLICIES, RunConfig, run_case, run_grid
from .blackbox import SALT_POLICIES
from .reference import BRUTE_FORCE_BOUND
from .sdp_group import (
    CLASS_NAMES,
    Element,
    GroupSpec,
    VecElement,
    ZmGroupSpec,
    classify,
    closure,
    enumerate_alphas,
    enumerate_subgroups,
    is_prime,
    modular_group_spec,
    sdp_table,
    subgroup_elements,
    vec_table,
)

REPORT_VERSION = 3
SEED_ENV_VAR = "SDHSP_SEED"


def _parse_encoding(text: str) -> int:
    """The salt count of ``unique`` (one) or ``salted:S``."""
    if text == "unique":
        return 1
    m = re.fullmatch(r"salted:(\d+)", text)
    if m:
        s = int(m.group(1))
        if not 1 <= s <= 16:
            raise ValueError(f"salt count {s} out of range (1..16)")
        return s
    raise ValueError(f"unknown encoding {text!r} (use 'unique' or 'salted:S')")


def _config_from_args(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(SEED_ENV_VAR, "0"))
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    salts = _parse_encoding(args.encoding)
    if not 0.0 < args.delta <= 0.5:
        raise ValueError("delta must be in (0, 0.5]")
    return RunConfig(
        seed=seed,
        salts=salts,
        salt_policy=args.salt_policy,
        generator_policy=args.generators,
        delta=args.delta,
    )


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


_TUPLE = r"\(\s*[+-]?[0-9]+\s*(?:,\s*[+-]?[0-9]+\s*)*\)"  # (int, ..., int)


def _parse_tuples(text: str) -> list[tuple[int, ...]]:
    """Comma-separated tuples of integers, whitespace allowed; else ValueError."""
    if not re.fullmatch(rf"\s*{_TUPLE}\s*(?:,\s*{_TUPLE}\s*)*", text):
        raise ValueError(f"expected comma-separated tuples of integers, got {text!r}")
    return [tuple(int(s) for s in body[1:-1].split(",")) for body in re.findall(_TUPLE, text)]


def parse_hidden(text: str, table, rng: np.random.Generator) -> list:
    """Hidden-subgroup mini-language over a group table; the sorted subgroup.

    full | trivial | random | gens:(a,b),... on a rank-one group, whose
    ``random`` draws one label of ``enumerate_subgroups`` and which takes
    those labels (xpower:i | xpowery:i | cyclicxy:t,j) with their integer
    fields read by int(): "xpower:+1" names xpower:1.  full | trivial |
    random | gens:(a_1,..,a_m,b),... on a vector group, whose ``random``
    closes up to m+1 random elements.
    """
    spec = table.spec
    vector = isinstance(spec, ZmGroupSpec)
    if text == "full":
        return sorted(table.elements)
    if text == "trivial":
        return [table.identity]
    if text.startswith("gens:"):
        gens = []
        for tup in _parse_tuples(text[len("gens:"):]):
            if vector and len(tup) != spec.m + 1:
                raise ValueError(f"vector group elements need {spec.m + 1} coordinates, got {tup}")
            if not vector and len(tup) != 2:
                raise ValueError(f"modular group elements are (a,b) pairs, got {tup}")
            *a, b = tup
            if vector:
                gens.append(VecElement(tuple(c % spec.modulus for c in a), b % spec.p))
            else:
                gens.append(Element(a[0] % spec.modulus, b % spec.q))
    elif vector and text == "random":
        k = int(rng.integers(0, spec.m + 2))
        gens = [table.elements[int(rng.integers(0, table.order))] for _ in range(k)]
    elif vector:
        raise ValueError(f"cannot parse hidden-subgroup spec {text!r}")
    else:
        descs = enumerate_subgroups(spec)
        if text == "random":
            return subgroup_elements(spec, descs[int(rng.integers(0, len(descs)))])
        name, _, fields = text.partition(":")
        try:
            label = name + ":" + ",".join(str(int(s)) for s in fields.split(","))
            desc = next(d for d in descs if d.label() == label)
        except (ValueError, StopIteration):
            raise ValueError(f"cannot parse hidden-subgroup spec {text!r}") from None
        return subgroup_elements(spec, desc)
    return sorted(closure(table.mul, table.identity, gens))


# -- classify ---------------------------------------------------------------------


def cmd_classify(args) -> int:
    p, q, r = args.p, args.q, args.r
    if not (is_prime(p) and is_prime(q)):
        raise ValueError("p and q must be prime")
    if r < 1:
        raise ValueError("r must be at least 1")
    alphas = sorted(enumerate_alphas(p, q, r))
    rows = []
    families: dict[int, list[int]] = {}
    for a in alphas:
        cls = classify(GroupSpec(p, q, r, a))
        rows.append({"alpha": a, "class": cls, "class_name": CLASS_NAMES[cls]})
        families.setdefault(cls, []).append(a)
    note = ""
    if not alphas:
        if q == p and r == 1:
            note = "no unit of order p exists modulo p"
        elif q != p and (p - 1) % q != 0:
            note = "q does not divide p - 1"
    report = {
        "report_version": REPORT_VERSION,
        "command": "classify",
        "p": p,
        "q": q,
        "r": r,
        "alphas": rows,
        "families": [
            {"class": cls, "class_name": CLASS_NAMES[cls], "alphas": members}
            for cls, members in sorted(families.items())
        ],
        "note": note,
    }
    _emit(report)
    return 0


# -- solve-p / solve-zm --------------------------------------------------------------


def _solve(command: str, args, cfg: RunConfig, table, keys: tuple[int, int]) -> int:
    """Parse --hidden with rng ``[seed, keys[0]]``, solve with ``[seed, keys[1]]``, report."""
    truth = parse_hidden(args.hidden, table, np.random.default_rng([cfg.seed, keys[0]]))
    res = run_case(table, truth, cfg, np.random.default_rng([cfg.seed, keys[1]]))
    out = res.outcome
    report = {
        "report_version": REPORT_VERSION,
        "command": command,
        "hidden_spec": args.hidden,
        "encoding": {"salts": cfg.salts, "salt_policy": cfg.salt_policy},
        "generator_policy": cfg.generator_policy,
        "seed": cfg.seed,
        # (a, b) pairs; a vector group's a is a tuple, which dumps as a list
        "truth": [[g.a, g.b] for g in truth],
        "found_generators": [[g.a, g.b] for g in out.generators],
        "found_subgroup": [[g.a, g.b] for g in out.subgroup],
        "match": res.match,
        "solver": out.report,
    }
    if args.timings:
        report["wall_ms"] = round(res.wall_ms, 3)
    _emit(report)
    return 0 if res.match else 1


def _check_order(spec) -> None:
    """Refuse a group the brute force would refuse, before building its table."""
    if spec.order > BRUTE_FORCE_BOUND:
        raise ValueError(f"group order {spec.order} exceeds the brute-force bound {BRUTE_FORCE_BOUND}")


def cmd_solve_p(args) -> int:
    cfg = _config_from_args(args)
    spec = modular_group_spec(args.p, args.r)
    if spec.p == 2 and spec.r == 2:
        raise ValueError(
            "p = r = 2 is excluded: that group is dihedral, outside this solver's class"
        )
    _check_order(spec)
    return _solve("solve-p", args, cfg, sdp_table(spec), (101, 202))


def cmd_solve_zm(args) -> int:
    cfg = _config_from_args(args)
    spec = ZmGroupSpec(args.p, args.r, args.m)
    _check_order(spec)
    return _solve("solve-zm", args, cfg, vec_table(spec), (303, 404))


# -- bench ------------------------------------------------------------------------

BENCH_COLUMNS = (
    "p",
    "r",
    "m",
    "group_order",
    "subgroup",
    "seed",
    "encoding",
    "salt_policy",
    "generator_policy",
    "match",
    "confident",
    "mul",
    "inv",
    "eq",
    "f",
    "superposed_calls",
    "walk_mul",
    "domain_points",
    "wall_ms",
)


def _parse_grid(text: str) -> list[tuple[int, ...]]:
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = tuple(int(s) for s in chunk.split(","))
        if len(parts) not in (2, 3):
            raise ValueError(f"grid cell {chunk!r} must be p,r or p,r,m")
        cells.append(parts)
    # empty grid is legal: bench then emits a header-only CSV
    return cells


def _bench_row(cell: tuple, table, label: str, cfg: RunConfig, res, timings: bool) -> dict:
    return {
        "p": cell[0],
        "r": cell[1],
        "m": cell[2] if len(cell) == 3 else "",
        "group_order": table.order,
        "subgroup": label,
        "seed": cfg.seed,
        "encoding": "unique" if cfg.salts == 1 else f"salted:{cfg.salts}",
        "salt_policy": cfg.salt_policy,
        "generator_policy": cfg.generator_policy,
        "match": res.match,
        "confident": res.outcome.confident,
        **res.outcome.report["queries"],
        "wall_ms": round(res.wall_ms, 3) if timings else "",
    }


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    grid = _parse_grid(args.grid)
    for cell in grid:
        _check_order(modular_group_spec(*cell) if len(cell) == 2 else ZmGroupSpec(*cell))
    runs = run_grid(grid, [(cfg, ())])
    rows = [
        _bench_row(cell, table, label, cfg, res, args.timings)
        for cell, table, label, _, _, res in runs
    ]
    if args.output == "json":
        _emit({"report_version": REPORT_VERSION, "command": "bench", "rows": rows})
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=BENCH_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return 0 if all(row["match"] for row in rows) else 1


# -- selftest ---------------------------------------------------------------------


def cmd_selftest(args) -> int:
    results = acceptance.run_all(quick=args.quick)
    for res in results:
        print(res.summary())
    ok = all(res.passed for res in results)
    print("all gates passed" if ok else "some gates FAILED")
    return 0 if ok else 1


# -- argument plumbing --------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None, help=f"default: ${SEED_ENV_VAR} or 0")
    sp.add_argument("--encoding", default="unique", help="unique | salted:S (S <= 16)")
    sp.add_argument("--salt-policy", default="zero", choices=SALT_POLICIES)
    sp.add_argument("--generators", default="canonical", choices=GENERATOR_POLICIES)
    sp.add_argument("--delta", type=float, default=0.01, help="failure budget, in (0, 0.5]")
    sp.add_argument("--timings", action="store_true", help="include wall_ms (breaks byte-identical reruns)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sdhsp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="twist parameters and classes for (p, q, r)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("solve-p", help="hidden subgroup run on a rank-one modular group")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--hidden", default="random")
    _add_common(sp)
    sp.set_defaults(fn=cmd_solve_p)

    sp = sub.add_parser("solve-zm", help="hidden subgroup run on a vector group")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--hidden", default="random")
    _add_common(sp)
    sp.set_defaults(fn=cmd_solve_zm)

    sp = sub.add_parser("bench", help="CSV sweep: every subgroup of every grid cell")
    sp.add_argument("--grid", required=True, help='e.g. "3,2;3,3" or "3,2,1" for vector groups')
    _add_common(sp)
    sp.add_argument("--output", default="csv", choices=("json", "csv"))
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("selftest", help="run the acceptance gates")
    sp.add_argument("--quick", action="store_true", help="reduced sweep, under a minute")
    sp.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
