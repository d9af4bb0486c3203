"""Acceptance harness: the gates this package must pass.

Each criterion_* function runs one gate end to end and returns a
CriterionResult built by _mk, which also times the gate; run_all runs the
eight gates in turn.  The same runners back both the pytest acceptance
suite and the CLI selftest, so there is exactly one definition of "passing".

run_case is the one "build instance, solve, compare" path: a case matches
when the answer, the brute-force level set of f(e) (never the solver's own
bookkeeping) and the planted subgroup coincide.  The solver commands call
it; run_grid runs it over every labelled subgroup of every grid cell, for
bench and for the two solver gates.  Their _sweep checks every solve: it
must match, be confident, make at most QUERY_CONSTANT * (log2 |G|)^2
classical queries, and book per stage one superposed call per sample, in a
pool no larger than abelian_hsp_solve's last.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field as _field
from itertools import chain

import numpy as np

from . import hsp_modular, hsp_vector, reference
from .algebra import (
    Lattice,
    dual_lattice,
    lattice_canonicalize,
    lattice_coset_rep,
    lattice_elements,
    lattice_member,
    lattice_size,
    lattices_equal,
)
from .blackbox import SolveOutcome, make_hidden_instance
from .hsp_vector import make_vec_instance
from .qsim import MAX_ROUNDS, AbelianOracle, draw_samples
from .sdp_group import (
    Element,
    GroupSpec,
    GroupTable,
    ZmGroupSpec,
    classify,
    elements,
    enumerate_alphas,
    enumerate_subgroups,
    is_prime,
    iso_map,
    modular_group_spec,
    power_closed_form,
    sdp_table,
    subgroup_elements,
    subgroup_properties,
    vec_table,
)

PRIMES_13 = (2, 3, 5, 7, 11, 13)

MODULAR_GRID = ((3, 2), (3, 3), (5, 2), (7, 2), (2, 3), (2, 4))
MODULAR_GRID_QUICK = ((3, 2), (2, 3))
# every subgroup up to |G| = 28,561, scrambled, seed 7, unique and salted:4/fresh
MODULAR_GRID_WIDE = ((2, 10), (3, 6), (5, 4), (11, 2), (13, 2), (3, 7), (11, 3), (7, 4), (5, 5),
                     (13, 3))
VECTOR_GRID = ((3, 2, 1), (3, 2, 2), (5, 2, 1), (2, 3, 1), (3, 3, 1), (5, 2, 2), (2, 5, 2),
               (2, 3, 2), (2, 4, 2), (3, 3, 2), (7, 2, 1))
VECTOR_GRID_QUICK = ((3, 2, 1), (2, 3, 1))
SEEDS = (7, 11, 13)
ENCODINGS = ((1, "zero"), (4, "zero"), (4, "operands"), (4, "fresh"))  # (salts, salt policy)
GENERATOR_POLICIES = ("canonical", "scrambled")

# classical (pointwise mul, inv, eq, f) queries per solve stay within
# QUERY_CONSTANT * (log2 |G|)^2; both full sweeps read at most 3.75, at (2,3)
QUERY_CONSTANT = 8

MAX_REPORTED_FAILURES = 12


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    failures: list[str] = _field(default_factory=list)
    metrics: dict = _field(default_factory=dict)

    def summary(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        line = f"[{mark}] {self.name}: {self.details}"
        for f in self.failures[:MAX_REPORTED_FAILURES]:
            line += f"\n       - {f}"
        if len(self.failures) > MAX_REPORTED_FAILURES:
            line += f"\n       ... {len(self.failures) - MAX_REPORTED_FAILURES} more"
        return line


def _mk(name: str, failures: list[str], details: str, metrics: dict, t0: float) -> CriterionResult:
    """The gate's result, with the wall time since ``t0`` in details and metrics."""
    elapsed = time.monotonic() - t0
    metrics["elapsed_s"] = round(elapsed, 2)
    return CriterionResult(
        name=name,
        passed=not failures,
        details=f"{details}, {elapsed:.1f}s",
        failures=failures,
        metrics=metrics,
    )


@dataclass(frozen=True)
class RunConfig:
    """How a case reaches a solver: instance seed, encoding (one salt is unique), generators."""

    seed: int = 0
    salts: int = 1
    salt_policy: str = "zero"
    generator_policy: str = "canonical"
    delta: float = 0.01


@dataclass(frozen=True)
class CaseResult:
    outcome: SolveOutcome
    wall_ms: float  # the solve alone, without the instance build or the check
    match: bool  # answer, brute-force level set and planted subgroup coincide


def run_case(table: GroupTable, truth, cfg: RunConfig, rng: np.random.Generator) -> CaseResult:
    """Build the hiding instance for `truth`, solve it and check the answer.

    The solver follows the type of ``table.spec``: vector groups go to
    hsp_vector, rank-one groups to hsp_modular.  The answer must equal both
    the brute-force level set of f(e) and `truth`.
    """
    if isinstance(table.spec, ZmGroupSpec):
        vin = make_vec_instance(
            table.spec, truth, salts=cfg.salts, generator_policy=cfg.generator_policy, seed=cfg.seed
        )
        inst = vin.instance
        start = time.monotonic()
        out = hsp_vector.solve(vin, rng, delta=cfg.delta)
    else:
        inst, handles = make_hidden_instance(
            table,
            truth,
            mode="salted",  # cfg.salts decides: one salt is the unique encoding
            salts=cfg.salts,
            salt_policy=cfg.salt_policy,
            generator_policy=cfg.generator_policy,
            seed=cfg.seed,
        )
        start = time.monotonic()
        out = hsp_modular.solve(inst, handles, rng=rng, delta=cfg.delta)
    wall_ms = 1000.0 * (time.monotonic() - start)
    brute = reference.brute_force_hidden_subgroup(table, inst.label_of_element)
    return CaseResult(out, wall_ms, frozenset(out.subgroup) == brute == frozenset(truth))


def run_grid(grid, configs):
    """Run every labelled subgroup of every grid cell, in grid order.

    A cell is rank-one (p, r) or vector (p, r, m).  ``configs`` lists the
    ``(RunConfig, key)`` runs of each subgroup; the solver's rng is
    ``[seed, *cell, subgroup index, *key]``.  Yields
    ``(cell, table, label, truth, cfg, result)`` per run.
    """
    for cell in grid:
        if len(cell) == 2:
            spec = modular_group_spec(*cell)
            table = sdp_table(spec)
            descs = enumerate_subgroups(spec)
            subs = [(d.label(), frozenset(subgroup_elements(spec, d))) for d in descs]
        else:
            table = vec_table(ZmGroupSpec(*cell))
            subs = reference.enumerate_all_subgroups(table)
            subs = [(f"sub{si}:order{len(sub)}", sub) for si, sub in enumerate(subs)]
        for si, (label, truth) in enumerate(subs):
            for cfg, key in configs:
                rng = np.random.default_rng([cfg.seed, *cell, si, *key])
                yield cell, table, label, truth, cfg, run_case(table, truth, cfg, rng)


def _sweep(name: str, runs) -> CriterionResult:
    """A gate checking each of run_grid's runs as the module says; counts the
    solves per (cell, config) and per total of superposed calls."""
    t0 = time.monotonic()
    failures: list[str] = []
    counts, superposed = Counter(), Counter()
    unconfident, worst = 0, (0.0, ())  # worst: classical queries per (log2 |G|)^2, cell
    for cell, table, label, truth, cfg, res in runs:
        config = f"salts={cfg.salts}/{cfg.salt_policy} gen={cfg.generator_policy} seed={cfg.seed}"
        counts[cell, config] += 1
        out, q = res.outcome, res.outcome.report["queries"]
        superposed[q["superposed_calls"]] += 1
        unconfident += not out.confident
        classical, log_order = q["mul"] + q["inv"] + q["eq"] + q["f"], math.log2(table.order)
        worst = max(worst, (classical / log_order**2, cell))
        # abelian_hsp_solve's last pool on a grid of rank k: 2 rank-one, at most m + 1 vector
        k = cell[2] + 1 if len(cell) == 3 else 2
        pool = 2 ** (MAX_ROUNDS - 1) * (k + math.ceil(math.log2(1 / cfg.delta)) + 4)
        faults = [f"got order {len(out.subgroup)}, want {len(truth)}"] * (not res.match)
        faults += ["unconfident"] * (not out.confident)
        if classical > QUERY_CONSTANT * log_order**2:
            faults.append(f"{classical} classical queries over {QUERY_CONSTANT}*log2(|G|)^2")
        for stage in out.report["stages"]:
            calls, samples = stage["queries"]["superposed_calls"], stage["samples_used"]
            if calls != samples:
                faults.append(f"{stage['name']}: {calls} superposed calls for {samples} samples")
            if samples > pool:
                faults.append(f"{stage['name']}: a pool of {samples} samples over {pool}")
        if faults:
            failures.append(f"{cell} {label} {config}: " + "; ".join(faults))
    return _mk(
        name,
        failures,
        f"{counts.total()} solves across {len({cell for cell, _ in counts})} groups, "
        f"{len(failures)} failing, {unconfident} unconfident, worst classical queries "
        f"{worst[0]:.2f}*log2(|G|)^2 at {worst[1]}",
        {"runs": dict(counts), "unconfident": unconfident, "superposed_calls": dict(superposed),
         "worst_ratio": worst},
        t0,
    )


def criterion_solver_modular(quick: bool = False) -> CriterionResult:
    """Full solver sweep over the rank-one grid against brute force."""
    encodings = (ENCODINGS[0], ENCODINGS[3]) if quick else ENCODINGS
    seeds = (7,) if quick else SEEDS

    configs = [
        (RunConfig(seed, salts, salt_policy, gpol), (ei, gi))
        for ei, (salts, salt_policy) in enumerate(encodings)
        for gi, gpol in enumerate(GENERATOR_POLICIES)
        for seed in seeds
    ]
    runs = run_grid(MODULAR_GRID_QUICK if quick else MODULAR_GRID, configs)
    if not quick:  # the wide cells: unique and salted:4/fresh, scrambled, seed 7
        wide = [(cfg, key) for cfg, key in configs if cfg.seed == 7 and key in ((0, 1), (3, 1))]
        runs = chain(runs, run_grid(MODULAR_GRID_WIDE, wide))
    return _sweep("solver sweep, rank-one groups", runs)


def criterion_solver_vector(quick: bool = False) -> CriterionResult:
    """Full solver sweep over the vector grid against brute force; scrambled
    generators at seed 3 hand the solver m + 1 A-handles in every cell."""
    grid = VECTOR_GRID_QUICK if quick else VECTOR_GRID
    configs = [(RunConfig(seed=7), ()), (RunConfig(seed=3, generator_policy="scrambled"), ())]
    return _sweep("solver sweep, vector groups", run_grid(grid, configs))


def criterion_alpha_enumeration() -> CriterionResult:
    """Cardinalities and exact sets of the valid twist parameters."""
    t0 = time.monotonic()
    failures: list[str] = []
    checked = 0
    for p in PRIMES_13:
        for q in PRIMES_13:
            for r in range(1, 5):
                got = enumerate_alphas(p, q, r)
                if q == p:
                    if r == 1:
                        want = 0
                    elif p == 2:
                        want = 1 if r == 2 else 3
                    else:
                        want = p - 1
                else:
                    want = q - 1 if (p - 1) % q == 0 else 0
                checked += 1
                if len(got) != want:
                    failures.append(f"(p={p},q={q},r={r}): {len(got)} values, want {want}")
                    continue
                if q == p and p % 2 == 1 and r >= 2:
                    exact = {t * p ** (r - 1) + 1 for t in range(1, p)}
                    if got != exact:
                        failures.append(f"(p={p},q={p},r={r}): set {sorted(got)} != {sorted(exact)}")
    for cell, want in (((2, 2, 3), {3, 5, 7}), ((2, 2, 2), {3})):
        got = enumerate_alphas(*cell)
        if got != want:
            failures.append(f"{cell}: {sorted(got)} != {sorted(want)}")
    return _mk(
        "twist parameter enumeration",
        failures,
        f"{checked} (p,q,r) cells, zero tolerance",
        {"cells": checked},
        t0,
    )


def _expected_class(p: int, q: int, r: int, alpha: int) -> int:
    modulus = p**r
    if alpha % modulus == 1:
        return 5
    if q != p:
        return 1
    if alpha % modulus == modulus - 1:
        return 2
    if p == 2 and alpha % modulus == 2 ** (r - 1) - 1:
        return 3
    return 4


def criterion_classification_iso(quick: bool = False) -> CriterionResult:
    """Class table and isomorphism maps, exhaustively per family."""
    t0 = time.monotonic()
    bound = 60 if quick else 500
    failures: list[str] = []
    pairs_checked = 0
    classes_checked = 0

    for q in filter(is_prime, range(2, bound // 2 + 1)):
        for p in filter(is_prime, range(2, bound // q + 1)):
            r = 1
            while p**r * q <= bound:
                alphas = sorted(enumerate_alphas(p, q, r))
                by_class: dict[int, list[int]] = {}
                for a in alphas:
                    spec = GroupSpec(p, q, r, a)
                    cls, want = classify(spec), _expected_class(p, q, r, a)
                    classes_checked += 1
                    if cls != want:
                        failures.append(f"classify({p},{q},{r},alpha={a}) = {cls}, want {want}")
                    by_class.setdefault(cls, []).append(a)
                for cls, members in by_class.items():
                    tables = {a: sdp_table(GroupSpec(p, q, r, a)) for a in members}
                    els = tables[members[0]].elements
                    every = np.arange(len(els))
                    # products[a][i, j] is the index of e_i e_j under twist a
                    products = {a: t.index_mul(every[:, None], every) for a, t in tables.items()}
                    for a1 in members:
                        for a2 in members:
                            src, dst = tables[a1].spec, tables[a2].spec
                            images = [iso_map(src, dst, e) for e in els]
                            pairs_checked += 1
                            if len(set(images)) != len(els):
                                failures.append(
                                    f"iso_map({p},{q},{r}) alpha {a1}->{a2}: not a bijection"
                                )
                                continue
                            # phi(e_i e_j) == phi(e_i) phi(e_j) for all |G|^2 pairs
                            phi = np.array([tables[a2].index(g) for g in images])
                            image_products = products[a2][np.ix_(phi, phi)]
                            if not np.array_equal(phi[products[a1]], image_products):
                                failures.append(
                                    f"iso_map({p},{q},{r}) alpha {a1}->{a2}: not a homomorphism"
                                )
                r += 1
    return _mk(
        "classification and isomorphism maps",
        failures,
        f"{classes_checked} class labels, {pairs_checked} exhaustive map checks",
        {"classes_checked": classes_checked, "pairs_checked": pairs_checked},
        t0,
    )


def criterion_subgroup_structure() -> CriterionResult:
    """Structured subgroup enumeration vs cyclic extension, and subgroup properties."""
    t0 = time.monotonic()
    failures: list[str] = []
    cells = ((3, 2), (2, 3), (3, 3), (5, 2), (2, 10), (3, 6), (5, 4), (11, 2), (13, 2))
    for p, r in cells:
        spec = modular_group_spec(p, r)
        descs = enumerate_subgroups(spec)
        want_count = 2 * (r + 1) + r * (p - 1)
        if len(descs) != want_count:
            failures.append(f"(p={p},r={r}): {len(descs)} descriptors, want {want_count}")
        structured = {frozenset(subgroup_elements(spec, d)) for d in descs}
        if len(structured) != len(descs):
            failures.append(f"(p={p},r={r}): descriptor element sets collide")
        generic = set(reference.enumerate_all_subgroups(sdp_table(spec)))
        if structured != generic:
            failures.append(
                f"(p={p},r={r}): structured enumeration has {len(structured)} sets, "
                f"cyclic extension has {len(generic)}, symmetric difference "
                f"{len(structured ^ generic)}"
            )
        props = [(d.label(), subgroup_properties(spec, d)) for d in descs]
        non_normal = {label for label, pr in props if not pr.normal}
        want_nn = {f"cyclicxy:{t},{r - 1}" for t in range(1, p)} | {f"xpowery:{r}"}
        if non_normal != want_nn:
            failures.append(
                f"(p={p},r={r}): non-normal set {sorted(non_normal)} != {sorted(want_nn)}"
            )
        for label, pr in props:
            if pr.order < spec.order and not pr.abelian:
                failures.append(f"(p={p},r={r}) {label}: proper subgroup not abelian")
    return _mk(
        "subgroup structure",
        failures,
        f"count formula, cross-check and properties on {len(cells)} groups",
        {"cells": list(cells), "property_cells": list(cells)},
        t0,
    )


def criterion_power_closed_form(quick: bool = False) -> CriterionResult:
    """Closed-form exponentiation vs literal iterated composition."""
    t0 = time.monotonic()
    failures: list[str] = []
    exhaustive = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)) + (
        () if quick else ((2, 5), (2, 6), (3, 4))
    )
    # (spec, {element: sorted exponents}): every exponent 0..|G| on the
    # exhaustive groups, 10,000 random (element, exponent) draws on the others
    fixtures = []
    for p, r in exhaustive:
        spec = modular_group_spec(p, r)
        fixtures.append((spec, {e: range(spec.order + 1) for e in elements(spec)}))
    rng = np.random.default_rng(20260822)
    for p, r in () if quick else ((7, 2), (5, 3), (13, 2), (3, 5)):
        spec = modular_group_spec(p, r)
        els = elements(spec)
        draws: dict[Element, list[int]] = {}
        for _ in range(10_000):
            e = els[int(rng.integers(0, len(els)))]
            draws.setdefault(e, []).append(int(rng.integers(0, spec.order + 1)))
        fixtures.append((spec, {e: sorted(set(cs)) for e, cs in draws.items()}))
    total = 0
    for spec, exponents in fixtures:
        table = sdp_table(spec)
        for e, cs in exponents.items():
            i, acc, at = table.index(e), 0, 0  # acc is the index of e^at
            for c in cs:
                for _ in range(c - at):
                    acc = table.imul(acc, i)
                at = c
                total += 1
                if power_closed_form(spec, e, c) != table.elements[acc]:
                    failures.append(f"(p={spec.p},r={spec.r}) {e}^{c}")
                    break
    return _mk(
        "closed-form power law",
        failures,
        f"{total} (element, exponent) cases, zero tolerance",
        {"cases": total},
        t0,
    )


BACKEND_FIXTURES = (
    ((3, 3), ((1, 1),)),
    ((9, 9), ((2, 8),)),
    ((9, 3), ((3, 1),)),
    ((4, 2), ((2, 1),)),
)


def criterion_backend_equivalence(quick: bool = False) -> CriterionResult:
    """Statevector sampling vs exact annihilator sampling."""
    t0 = time.monotonic()
    failures: list[str] = []
    n_samples = 10_000
    fixtures = BACKEND_FIXTURES[:2] if quick else BACKEND_FIXTURES
    tvs = {}
    for moduli, gens in fixtures:
        L = lattice_canonicalize(Lattice(moduli, gens))
        reps: dict = {}  # coset ids, numbered by first appearance
        grid = [reps.setdefault(lattice_coset_rep(L, pt), len(reps)) for pt in np.ndindex(*moduli)]
        oracle = AbelianOracle(moduli, np.reshape(grid, moduli))
        rng1 = np.random.default_rng([1, *moduli])
        rng2 = np.random.default_rng([2, *moduli])
        sv = draw_samples(oracle, rng1, n_samples)
        an = reference.sample_annihilator(L, rng2, n_samples)
        dual = dual_lattice(L)
        bad = [s for s in sv if not lattice_member(dual, s)]
        if bad:
            failures.append(f"{moduli} {gens}: {len(bad)} statevector samples outside the dual")
        c1, c2 = Counter(sv), Counter(an)
        tv = 0.5 * sum(abs(c1[pt] - c2[pt]) for pt in lattice_elements(dual)) / n_samples
        tvs[str(moduli)] = round(tv, 4)
        if tv > 0.05:
            failures.append(f"{moduli} {gens}: TV distance {tv:.4f} > 0.05")
    return _mk(
        "sampler backend equivalence",
        failures,
        f"{len(fixtures)} fixtures at {n_samples} samples",
        {"tv": tvs},
        t0,
    )


def criterion_lattice_laws(quick: bool = False) -> CriterionResult:
    """Double dual, size product and enumeration cross-checks."""
    t0 = time.monotonic()
    failures: list[str] = []
    rng = np.random.default_rng(420)
    pool = (3, 9, 27, 2, 4, 8, 5, 25)
    n_lattices = 200 if quick else 1000
    for i in range(n_lattices):
        k = int(rng.integers(1, 4))
        moduli = tuple(int(pool[j]) for j in rng.integers(0, len(pool), size=k))
        n_gens = int(rng.integers(0, k + 2))
        gens = tuple(
            tuple(int(rng.integers(0, n)) for n in moduli) for _ in range(n_gens)
        )
        L = lattice_canonicalize(Lattice(moduli, gens))
        D = dual_lattice(L)
        if not lattices_equal(dual_lattice(D), L):
            failures.append(f"#{i} {moduli} {gens}: (L*)* != L")
        total = math.prod(moduli)
        if lattice_size(L) * lattice_size(D) != total:
            failures.append(f"#{i} {moduli} {gens}: |L|*|L*| != {total}")
        small = L if lattice_size(L) <= lattice_size(D) else D
        if len(lattice_elements(small)) != lattice_size(small):
            failures.append(f"#{i} {moduli} {gens}: enumeration disagrees with size")
    return _mk(
        "lattice duality laws",
        failures,
        f"{n_lattices} random lattices, zero tolerance",
        {"lattices": n_lattices},
        t0,
    )


def run_all(quick: bool = False) -> list[CriterionResult]:
    return [
        criterion_solver_modular(quick=quick),
        criterion_solver_vector(quick=quick),
        criterion_alpha_enumeration(),
        criterion_classification_iso(quick=quick),
        criterion_subgroup_structure(),
        criterion_power_closed_form(quick=quick),
        criterion_backend_equivalence(quick=quick),
        criterion_lattice_laws(quick=quick),
    ]
