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
    assert res.metrics["unconfident"] == 0


def test_criterion_2_vector_solver_sweep():
    t0 = time.monotonic()
    res = acceptance.criterion_solver_vector()
    _check(res, max_seconds=600, elapsed=time.monotonic() - t0)
    assert res.metrics["runs"] == 2217
    assert res.metrics["unconfident"] == 0


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


def test_criterion_9_query_budget(modular_sweep):
    res, _ = modular_sweep
    assert res.metrics["runs"] == 1944
    budget = acceptance.criterion_query_budget(res)
    _check(budget)
    worst = max(c["max_classical"] / c["budget"] for c in budget.metrics["per_grid"].values())
    assert budget.metrics["worst_ratio"] == worst
    assert f"worst ratio {worst:.3f} at (p,r)=(" in budget.details
    # every rank-one solve makes 26 superposed calls, so no power law is fitted
    superposed = {c["mean_superposed"] for c in budget.metrics["per_grid"].values()}
    assert superposed == {26.0}
    cells = len(budget.metrics["per_grid"])
    assert f"superposed calls constant at 26 per solve over {cells} cells" in budget.details
    assert budget.metrics["superposed_fit_exponent"] is None


def test_budget_gate_fits_only_superposed_counts_that_differ():
    def sweep(superposed):
        per_grid = {
            "3,2": {"max_classical": 10, "mean_superposed": superposed[0], "group_order": 27},
            "3,3": {"max_classical": 10, "mean_superposed": superposed[1], "group_order": 81},
        }
        return acceptance.CriterionResult("sweep", True, "", metrics={"per_grid": per_grid})

    flat = acceptance.criterion_query_budget(sweep((26.0, 26.0)))
    assert "superposed calls constant at 26 per solve over 2 cells" in flat.details
    assert flat.metrics["superposed_fit_exponent"] is None
    rising = acceptance.criterion_query_budget(sweep((26.0, 39.0)))
    assert "superposed fit exponent " in rising.details
    assert rising.metrics["superposed_fit_exponent"] > 0


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
