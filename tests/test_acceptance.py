"""The acceptance gates, run in full.

Each test drives one gate from sdhsp.acceptance at its stated scale and
tolerance.  The two solver sweeps also enforce their wall-clock budgets.
The rank-one sweep runs once per test run; the query-budget gate reads its
measurements.  Failure output carries the per-case details collected by the
runner.
"""

import time

import pytest

from sdhsp import acceptance


def _check(result, max_seconds=None, elapsed=None):
    msg = result.summary()
    if result.failures:
        shown = "\n".join(str(f) for f in result.failures)
        msg += f"\nfirst failures:\n{shown}"
    assert result.passed, msg
    if max_seconds is not None:
        assert elapsed <= max_seconds, f"{result.name}: {elapsed:.1f}s over the {max_seconds}s budget"


@pytest.fixture(scope="module")
def modular_sweep():
    t0 = time.monotonic()
    res = acceptance.criterion_solver_modular()
    return res, time.monotonic() - t0


def test_criterion_1_modular_solver_sweep(modular_sweep):
    res, elapsed = modular_sweep
    _check(res, max_seconds=600, elapsed=elapsed)
    assert res.metrics["runs"] == 1944


def test_criterion_2_vector_solver_sweep():
    t0 = time.monotonic()
    res = acceptance.criterion_solver_vector()
    _check(res, max_seconds=600, elapsed=time.monotonic() - t0)
    assert res.metrics["runs"] == 175


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
    _check(acceptance.criterion_subgroup_structure())


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


def test_criterion_9_query_budget(modular_sweep):
    res, _ = modular_sweep
    assert res.metrics["runs"] == 1944
    budget = acceptance.criterion_query_budget(res)
    _check(budget)
    worst = max(c["max_classical"] / c["budget"] for c in budget.metrics["per_grid"].values())
    assert budget.metrics["worst_ratio"] == worst
    assert f"worst ratio {worst:.3f} at (p,r)=(" in budget.details


def test_gates_detect_a_corrupted_dual(monkeypatch):
    # mutation probe: a broken dual computation must turn the lattice gate red
    from sdhsp.algebra import full_lattice

    real = acceptance.dual_lattice
    monkeypatch.setattr(
        acceptance, "dual_lattice", lambda L: full_lattice(L.moduli) if L.gens else real(L)
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
