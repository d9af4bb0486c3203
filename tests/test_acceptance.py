"""The acceptance gates, run in full.

Each test drives one gate from sdhsp.acceptance at its stated scale and
tolerance.  The two solver sweeps also enforce their wall-clock budgets and
name the solves they ran per cell and config.  Mutation tests on the quick
grids show that each per-solve check of a sweep can fail.  Failure output
carries the per-case details collected by the runner.
"""

import math
import time

import pytest

from sdhsp import acceptance, qsim
from sdhsp.blackbox import HiddenInstance


def _check(result, max_seconds=None, elapsed=None):
    msg = result.summary()
    if result.failures:
        shown = "\n".join(str(f) for f in result.failures)
        msg += f"\nfirst failures:\n{shown}"
    assert result.passed, msg
    if max_seconds is not None:
        assert elapsed <= max_seconds, f"{result.name}: {elapsed:.1f}s over the {max_seconds}s budget"


def _rank_one_subgroups(p, r):
    return 2 * (r + 1) + r * (p - 1)


ENCODINGS = ("salts=1/zero", "salts=4/zero", "salts=4/operands", "salts=4/fresh")


def test_criterion_1_modular_solver_sweep():
    t0 = time.monotonic()
    res = acceptance.criterion_solver_modular()
    _check(res, max_seconds=600, elapsed=time.monotonic() - t0)
    want = {
        (cell, f"{enc} gen={gen} seed={seed}"): _rank_one_subgroups(*cell)
        for cell in [(3, 2), (3, 3), (5, 2), (7, 2), (2, 3), (2, 4)]
        for enc in ENCODINGS
        for gen in ("canonical", "scrambled")
        for seed in (7, 11, 13)
    }
    wide = [(2, 10), (3, 6), (5, 4), (11, 2), (13, 2), (3, 7), (11, 3), (7, 4), (5, 5), (13, 3)]
    want |= {
        (cell, f"{enc} gen=scrambled seed=7"): _rank_one_subgroups(*cell)
        for cell in wide
        for enc in ("salts=1/zero", "salts=4/fresh")
    }
    assert res.metrics["runs"] == want
    assert sum(want.values()) == 2580
    assert res.metrics["unconfident"] == 0
    # every rank-one solve makes exactly 26 superposed calls
    assert res.metrics["superposed_calls"] == {26: 2580}
    assert res.metrics["worst_ratio"] == (3.75, (2, 3))


def test_criterion_2_vector_solver_sweep():
    t0 = time.monotonic()
    res = acceptance.criterion_solver_vector()
    _check(res, max_seconds=600, elapsed=time.monotonic() - t0)
    subgroups = {
        (3, 2, 1): 10, (3, 2, 2): 126, (5, 2, 1): 14, (2, 3, 1): 11, (3, 3, 1): 14,
        (5, 2, 2): 426, (2, 5, 2): 696, (2, 3, 2): 140, (2, 4, 2): 322, (3, 3, 2): 440,
        (7, 2, 1): 18,
    }
    configs = ("salts=1/zero gen=canonical seed=7", "salts=1/zero gen=scrambled seed=3")
    want = {(cell, config): n for cell, n in subgroups.items() for config in configs}
    assert res.metrics["runs"] == want
    assert sum(want.values()) == 4434
    assert res.metrics["unconfident"] == 0
    # scrambled seed 3 hands the solver m + 1 A-handles: one superposed call more
    assert res.metrics["superposed_calls"] == {25: 67, 26: 67, 27: 2149, 28: 2150, 41: 1}
    assert res.metrics["worst_ratio"] == (2.375, (2, 3, 1))


QUICK_SWEEPS = pytest.mark.parametrize(
    "sweep",
    [acceptance.criterion_solver_modular, acceptance.criterion_solver_vector],
    ids=["rank-one", "vector"],
)


def _first_call_only(monkeypatch, owner, name, mutate):
    """Patch owner.name so that its first call in the sweep goes through ``mutate``."""
    real, seen = getattr(owner, name), []

    def patched(*args, **kwargs):
        if seen:
            return real(*args, **kwargs)
        seen.append(True)
        return mutate(real, *args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


@QUICK_SWEEPS
@pytest.mark.parametrize("extra", [0, 1])
def test_a_solve_over_its_classical_query_bound_fails_its_sweep(monkeypatch, sweep, extra):
    # the first solve is booked floor(8 (log2 |G|)^2) + extra classical queries
    def over(run_case, table, truth, cfg, rng):
        res = run_case(table, truth, cfg, rng)
        q = res.outcome.report["queries"]
        bound = math.floor(8 * math.log2(table.order) ** 2)
        q["mul"] += bound + extra - (q["mul"] + q["inv"] + q["eq"] + q["f"])
        return res

    _first_call_only(monkeypatch, acceptance, "run_case", over)
    res = sweep(quick=True)
    assert res.passed == (not extra)
    if extra:
        assert len(res.failures) == 1
        assert res.failures[0].endswith(" classical queries over 8*log2(|G|)^2")


@QUICK_SWEEPS
def test_one_unbooked_superposed_call_fails_its_sweep(monkeypatch, sweep):
    # the sweep's first superposed charge books two calls for one sample
    def twice(charge, inst, **counts):
        counts["superposed_calls"] = counts.get("superposed_calls", 0) + 1
        return charge(inst, **counts)

    _first_call_only(monkeypatch, HiddenInstance, "charge", twice)
    res = sweep(quick=True)
    assert len(res.failures) == 1
    assert "superposed calls for" in res.failures[0] and "classical" not in res.failures[0]


@QUICK_SWEEPS
@pytest.mark.parametrize("extra", [0, 1])
def test_a_pool_over_its_limit_fails_its_sweep(monkeypatch, sweep, extra):
    # the sweep's first draw fills its pool to abelian_hsp_solve's largest,
    # 2^(MAX_ROUNDS-1) (k + ceil(log2 1/delta) + 4) with k = 2 on both quick
    # grids and delta = 0.01, plus extra
    limit = 2 ** (qsim.MAX_ROUNDS - 1) * (2 + 7 + 4)

    def fill(draw_samples, oracle, rng, count):
        return draw_samples(oracle, rng, limit + extra)

    _first_call_only(monkeypatch, qsim, "draw_samples", fill)
    res = sweep(quick=True)
    assert res.passed == (not extra)
    if extra:
        assert len(res.failures) == 1
        assert res.failures[0].endswith(f": a pool of {limit + 1} samples over {limit}")


def test_criterion_3_alpha_enumeration():
    res = acceptance.criterion_alpha_enumeration()
    _check(res)
    assert res.metrics["cells"] == 144


def test_criterion_4_classification_and_iso():
    res = acceptance.criterion_classification_iso()
    _check(res)
    assert res.metrics["classes_checked"] == 179
    assert res.metrics["pairs_checked"] == 505


def test_criterion_5_subgroup_structure():
    res = acceptance.criterion_subgroup_structure()
    _check(res)
    cells = [(3, 2), (2, 3), (3, 3), (5, 2), (2, 10), (3, 6), (5, 4), (11, 2), (13, 2)]
    assert res.metrics["cells"] == cells
    assert res.metrics["property_cells"] == cells
    assert res.metrics["elapsed_s"] < 5.0  # the all-pairs route took about 31 s


def test_criterion_6_power_closed_form():
    res = acceptance.criterion_power_closed_form()
    _check(res)
    assert res.metrics["cases"] == 143_866


def test_criterion_7_backend_equivalence():
    res = acceptance.criterion_backend_equivalence()
    _check(res)
    assert len(res.metrics["tv"]) == 4


def test_criterion_8_lattice_duality_laws():
    res = acceptance.criterion_lattice_laws()
    _check(res)
    assert res.metrics["lattices"] == 1000


def test_gates_detect_a_corrupted_dual(monkeypatch):
    # mutation probe: a broken dual computation must turn the lattice gate red
    from sdhsp.algebra import Lattice

    real = acceptance.dual_lattice
    # a nonzero lattice gets the dual of the zero lattice: everything
    monkeypatch.setattr(
        acceptance, "dual_lattice", lambda L: real(Lattice(L.moduli, ()) if L.gens else L)
    )
    res = acceptance.criterion_lattice_laws(quick=True)
    assert not res.passed


def test_gates_detect_an_isomorphism_map_that_is_not_a_homomorphism(monkeypatch):
    # mutation probe: swapping the images of the identity and one other
    # element keeps the map a bijection but breaks phi(e e) = phi(e) phi(e)
    from sdhsp.sdp_group import Element

    real = acceptance.iso_map
    swap = {Element(0, 0): Element(1, 0), Element(1, 0): Element(0, 0)}
    monkeypatch.setattr(
        acceptance, "iso_map", lambda src, dst, e: real(src, dst, swap.get(e, e))
    )
    res = acceptance.criterion_classification_iso(quick=True)
    assert not res.passed
    assert all("not a homomorphism" in f for f in res.failures)
