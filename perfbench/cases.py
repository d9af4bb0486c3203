"""The benchmark workloads and the verified case they are made of.

A case builds a hidden-subgroup instance, runs a solver on it and compares
the answer element by element with the brute-force reference and with the
planted subgroup.  Only public names of ``sdhsp`` are used: the package
exports, ``reference``, ``sdp_group.subgroup_elements``, ``sdp_table`` and
``hsp_vector.vec_table``.

The workload seed feeds the instance (encoding table, labels, scrambled
generators) and the solver RNG of every case; the list of groups and
subgroups is fixed, so every seed runs the same mix of work.  The list
interleaves the groups in a fixed order, so that cases of one kind are
spread over the whole run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

import sdhsp
from sdhsp import hsp_vector, reference, sdp_group

# Rank-one groups of order 3125, 2187 and 2048.  Per group: (subgroup label,
# generators).  |H| runs from 2 to 243, and the three solver branches all
# run: quotient for (3,6) xpower:1, involution for the "skewed" case, inner
# for the rest.  "skewed" hands the solver the generating pair (x, x*y);
# canonical generators never reach the involution branch.  A cheap group
# comes first, since the runner repeats the first case in other processes.
LARGE_CASES = {
    (5, 4): (("xpower:3", "canonical"), ("cyclicxy:1,2", "canonical")),
    (3, 6): (("cyclicxy:2,3", "canonical"), ("xpower:1", "canonical")),
    (2, 10): (("cyclicxy:1,5", "canonical"), ("xpowery:10", "skewed")),
}
SWEEP_GRID = ((3, 3), (5, 2), (7, 2), (3, 4))
SWEEP_ENCODINGS = (("unique", 1, "zero"), ("salted", 4, "fresh"))
VECTOR_GRID = ((2, 3, 2), (3, 2, 2))


@dataclass(frozen=True)
class Case:
    """One hidden subgroup of one group, with how it is handed to the solver."""

    family: str  # "modular" or "vector"
    table: Any  # sdhsp.GroupTable
    truth: frozenset
    label: str
    mode: str = "unique"
    salts: int = 1
    salt_policy: str = "zero"
    generators: str = "canonical"  # "canonical", "scrambled" or "skewed"


@dataclass(frozen=True)
class CaseResult:
    ok: bool
    confident: bool
    case_s: float
    solve_s: float
    queries: dict
    error: str | None = None


def _interleave(groups: list[list[Case]]) -> list[Case]:
    """Round-robin over the groups, each in a fixed shuffled order."""
    shuffle = random.Random(0).shuffle
    for group in groups:
        shuffle(group)
    longest = max(len(g) for g in groups)
    return [g[i] for i in range(longest) for g in groups if i < len(g)]


def _modular_cases(p, r, picks):
    spec = sdhsp.modular_group_spec(p, r)
    table = sdhsp.sdp_table(spec)
    out = []
    for desc in sdhsp.enumerate_subgroups(spec):
        picked = picks(desc.label())
        if not picked:
            continue
        truth = frozenset(sdp_group.subgroup_elements(spec, desc))
        for kwargs in picked:
            out.append(Case("modular", table, truth, f"({p},{r}) {desc.label()}", **kwargs))
    return out


def setup_solve_large() -> list[Case]:
    groups = []
    for (p, r), chosen in LARGE_CASES.items():
        gens_of = dict(chosen)
        groups.append(
            _modular_cases(p, r, lambda lab: [{"generators": gens_of[lab]}] if lab in gens_of else [])
        )
    return _interleave(groups)


def setup_sweep_modular() -> list[Case]:
    encodings = [
        {"mode": m, "salts": s, "salt_policy": pol, "generators": "scrambled"}
        for m, s, pol in SWEEP_ENCODINGS
    ]
    return _interleave([_modular_cases(p, r, lambda lab: encodings) for p, r in SWEEP_GRID])


def setup_sweep_vector() -> list[Case]:
    groups = []
    for p, r, m in VECTOR_GRID:
        table = hsp_vector.vec_table(sdhsp.ZmGroupSpec(p, r, m))
        groups.append(
            [
                Case("vector", table, sub, f"({p},{r},{m}) |H|={len(sub)}", generators="scrambled")
                for sub in reference.enumerate_all_subgroups(table)
            ]
        )
    return _interleave(groups)


WORKLOADS = {
    "solve_large": setup_solve_large,
    "sweep_modular": setup_sweep_modular,
    "sweep_vector": setup_sweep_vector,
}


def case_seeds(seed: int, index: int) -> tuple[int, np.random.Generator]:
    """Instance seed and solver RNG of case `index` under workload seed `seed`."""
    ss = np.random.SeedSequence([seed, index])
    instance_seed = int(ss.generate_state(1, np.uint64)[0])
    return instance_seed, np.random.default_rng(ss.spawn(1)[0])


def build(case: Case, instance_seed: int):
    """The hiding instance and what the solver is handed with it: generator
    handles for the rank-one solver, the typed instance for the vector one."""
    if case.family == "vector":
        vin = sdhsp.make_vec_instance(
            case.table.spec, case.truth, generator_policy=case.generators, seed=instance_seed
        )
        return vin.instance, vin
    policy = "canonical" if case.generators == "skewed" else case.generators
    inst, handles = sdhsp.make_hidden_instance(
        case.table,
        case.truth,
        mode=case.mode,
        salts=case.salts,
        salt_policy=case.salt_policy,
        generator_policy=policy,
        seed=instance_seed,
    )
    if case.generators == "skewed":
        x, y = case.table.standard_generators
        handles = [inst.blackbox.encode(x), inst.blackbox.encode(case.table.mul(x, y))]
    return inst, handles


def run_case(case: Case, seed: int, index: int) -> CaseResult:
    """Build, solve and verify one case; any exception counts as a failure."""
    t0 = time.perf_counter()
    solve_s = 0.0
    try:
        instance_seed, rng = case_seeds(seed, index)
        inst, handed = build(case, instance_seed)
        t1 = time.perf_counter()
        if case.family == "vector":
            out = sdhsp.solve_vector(handed, rng)
        else:
            out = sdhsp.solve_modular(inst, handed, rng=rng)
        solve_s = time.perf_counter() - t1
        brute = reference.brute_force_hidden_subgroup(case.table, inst.label_of_element)
        ok = (
            len(out.subgroup) == len(frozenset(out.subgroup))
            and reference.subgroup_equal(out.subgroup, brute)
            and reference.subgroup_equal(brute, case.truth)
            and reference.subgroup_equal(inst.truth_elements(), case.truth)
        )
        return CaseResult(
            ok, bool(out.confident), time.perf_counter() - t0, solve_s, dict(out.report["queries"])
        )
    except Exception as exc:  # a crashing case is a failed case, not a crashed run
        return CaseResult(
            False, False, time.perf_counter() - t0, solve_s, {}, f"{type(exc).__name__}: {exc}"
        )
