"""Command-line interface.

Subcommands:
  classify   valid twist parameters, class labels and isomorphism families
  solve-p    hidden subgroup run on a rank-one modular group
  solve-zm   hidden subgroup run on a vector group
  bench      CSV sweep over a grid of groups, every subgroup of each
  selftest   run the acceptance gates natively

All commands are deterministic under a fixed --seed: reports are emitted
with sorted keys and contain no timing fields unless --timings is given.
Exit codes: 0 success (and solver matched truth), 1 solver mismatch,
2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys

import numpy as np

from . import acceptance
from .acceptance import RunConfig, grid_cell, run_case
from .qsim import BACKENDS
from .sdp_group import (
    CLASS_NAMES,
    Element,
    GroupSpec,
    SubgroupDesc,
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

REPORT_VERSION = 1
SEED_ENV_VAR = "SDHSP_SEED"


def _parse_encoding(text: str) -> tuple[str, int]:
    if text == "unique":
        return "unique", 1
    m = re.fullmatch(r"salted:(\d+)", text)
    if m:
        s = int(m.group(1))
        if not 1 <= s <= 16:
            raise ValueError(f"salt count {s} out of range (1..16)")
        return "salted", s
    raise ValueError(f"unknown encoding {text!r} (use 'unique' or 'salted:S')")


def _config_from_args(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(SEED_ENV_VAR, "0"))
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    mode, salts = _parse_encoding(args.encoding)
    if not 0.0 < args.delta <= 0.5:
        raise ValueError("delta must be in (0, 0.5]")
    return RunConfig(
        seed=seed,
        backend=args.backend,
        mode=mode,
        salts=salts,
        salt_policy=args.salt_policy,
        generator_policy=args.generators,
        delta=args.delta,
    )


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


_TUPLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_tuples(text: str) -> list[tuple[int, ...]]:
    out = []
    for body in _TUPLE_RE.findall(text):
        parts = [s.strip() for s in body.split(",") if s.strip()]
        if not parts:
            raise ValueError(f"empty tuple in {text!r}")
        out.append(tuple(int(s) for s in parts))
    if not out:
        raise ValueError(f"no tuples found in {text!r}")
    return out


def parse_hidden_modular(text: str, spec: GroupSpec, rng: np.random.Generator) -> SubgroupDesc:
    """Hidden-subgroup mini-language for the rank-one groups.

    full | trivial | random | gens:(a,b),(a,b),... | any label of
    ``enumerate_subgroups`` (xpower:i | xpowery:i | cyclicxy:t,j), whose
    integer fields go through int(): "xpower:+1" names xpower:1.
    """
    if text.startswith("gens:"):
        pairs = _parse_tuples(text[len("gens:"):])
        gens = []
        for tup in pairs:
            if len(tup) != 2:
                raise ValueError(f"modular group elements are (a,b) pairs, got {tup}")
            gens.append(Element(tup[0] % spec.modulus, tup[1] % spec.q))
        return SubgroupDesc.from_generators(gens)
    descs = enumerate_subgroups(spec)
    if text == "random":
        return descs[int(rng.integers(0, len(descs)))]
    aliases = {"full": "xpowery:0", "trivial": f"xpower:{spec.r}"}
    name, _, fields = aliases.get(text, text).partition(":")
    try:
        label = name + ":" + ",".join(str(int(s)) for s in fields.split(","))
        return next(d for d in descs if d.label() == label)
    except (ValueError, StopIteration):
        raise ValueError(f"cannot parse hidden-subgroup spec {text!r}") from None


def parse_hidden_vector(text: str, table, rng: np.random.Generator) -> tuple[VecElement, ...]:
    """Hidden-subgroup mini-language for the vector groups (over their table).

    full | trivial | random | gens:(a_1,..,a_m,b),(...)  Returns elements.
    """
    spec = table.spec
    if text == "full":
        return tuple(sorted(table.elements))
    if text == "trivial":
        return (table.identity,)
    if text == "random":
        k = int(rng.integers(0, spec.m + 2))
        gens = [
            table.elements[int(rng.integers(0, len(table.elements)))] for _ in range(k)
        ]
    elif text.startswith("gens:"):
        gens = []
        for tup in _parse_tuples(text[len("gens:"):]):
            if len(tup) != spec.m + 1:
                raise ValueError(
                    f"vector group elements need {spec.m + 1} coordinates, got {tup}"
                )
            gens.append(
                VecElement(tuple(c % spec.modulus for c in tup[:-1]), tup[-1] % spec.p)
            )
    else:
        raise ValueError(f"cannot parse hidden-subgroup spec {text!r}")
    return tuple(sorted(closure(table.mul, table.identity, gens)))


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


def _solve_report(command: str, args, cfg: RunConfig, truth, res) -> int:
    out = res.outcome
    report = {
        "report_version": REPORT_VERSION,
        "command": command,
        "group": out.report["group"],
        "hidden_spec": args.hidden,
        "encoding": {"mode": cfg.mode, "salts": cfg.salts, "salt_policy": cfg.salt_policy},
        "generator_policy": cfg.generator_policy,
        "backend": cfg.backend,
        "delta": cfg.delta,
        "seed": cfg.seed,
        # (a, b) pairs; a vector group's a is a tuple, which dumps as a list
        "truth": [[g.a, g.b] for g in truth],
        "found_generators": [[g.a, g.b] for g in out.generators],
        "found_subgroup": [[g.a, g.b] for g in out.subgroup],
        "match": res.match,
        "confident": out.confident,
        "queries": out.report["queries"],
        "solver": out.report,
    }
    if args.timings:
        report["wall_ms"] = round(res.wall_ms, 3)
    _emit(report)
    return 0 if res.match else 1


def cmd_solve_p(args) -> int:
    cfg = _config_from_args(args)
    spec = modular_group_spec(args.p, args.r)
    if spec.p == 2 and spec.r == 2:
        raise ValueError(
            "p = r = 2 is excluded: that group is dihedral, outside this solver's class"
        )
    desc = parse_hidden_modular(args.hidden, spec, np.random.default_rng([cfg.seed, 101]))
    truth = subgroup_elements(spec, desc)
    res = run_case(sdp_table(spec), truth, cfg, np.random.default_rng([cfg.seed, 202]))
    return _solve_report("solve-p", args, cfg, truth, res)


def cmd_solve_zm(args) -> int:
    cfg = _config_from_args(args)
    if cfg.mode != "unique":
        raise ValueError("the vector-group solver requires unique encoding")
    spec = ZmGroupSpec(args.p, args.r, args.m)
    if spec.order > 3**12:
        raise ValueError(f"group order {spec.order} too large for the desk-scale table")
    table = vec_table(spec)
    truth = parse_hidden_vector(args.hidden, table, np.random.default_rng([cfg.seed, 303]))
    res = run_case(table, truth, cfg, np.random.default_rng([cfg.seed, 404]))
    return _solve_report("solve-zm", args, cfg, truth, res)


# -- bench ------------------------------------------------------------------------

BENCH_COLUMNS = (
    "p",
    "r",
    "m",
    "group_order",
    "subgroup",
    "seed",
    "backend",
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


def _bench_row(cell: tuple[int, ...], label: str, cfg: RunConfig, res, timings: bool) -> dict:
    q = res.outcome.report["queries"]
    return {
        "p": cell[0],
        "r": cell[1],
        "m": cell[2] if len(cell) == 3 else "",
        "group_order": res.instance.blackbox.table.order,
        "subgroup": label,
        "seed": cfg.seed,
        "backend": cfg.backend,
        "encoding": cfg.mode if cfg.mode == "unique" else f"salted:{cfg.salts}",
        "salt_policy": cfg.salt_policy,
        "generator_policy": cfg.generator_policy,
        "match": res.match,
        "confident": res.outcome.confident,
        "mul": q["mul"],
        "inv": q["inv"],
        "eq": q["eq"],
        "f": q["f"],
        "superposed_calls": q["superposed_calls"],
        "wall_ms": round(res.wall_ms, 3) if timings else "",
    }


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    rows: list[dict] = []
    for cell in _parse_grid(args.grid):
        if len(cell) == 3 and cfg.mode != "unique":
            raise ValueError("the vector-group solver requires unique encoding")
        table, subs = grid_cell(cell)
        for i, (label, truth) in enumerate(subs):
            res = run_case(table, truth, cfg, np.random.default_rng([cfg.seed, *cell, i]))
            rows.append(_bench_row(cell, label, cfg, res, args.timings))
    if args.output == "json":
        _emit({"report_version": REPORT_VERSION, "command": "bench", "rows": rows})
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
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
    sp.add_argument("--backend", default="statevector", choices=BACKENDS)
    sp.add_argument("--encoding", default="unique", help="unique | salted:S (S <= 16)")
    sp.add_argument("--salt-policy", default="zero", choices=("zero", "operands", "fresh"))
    sp.add_argument("--generators", default="canonical", choices=("canonical", "scrambled"))
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
