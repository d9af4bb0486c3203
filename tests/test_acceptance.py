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


def test_criterion_3_alpha_enumeration():
    _check(acceptance.criterion_alpha_enumeration())


def test_criterion_4_classification_and_iso():
    _check(acceptance.criterion_classification_iso())


def test_criterion_5_subgroup_structure():
    _check(acceptance.criterion_subgroup_structure())


def test_criterion_6_power_closed_form():
    _check(acceptance.criterion_power_closed_form())


def test_criterion_7_backend_equivalence():
    _check(acceptance.criterion_backend_equivalence())


def test_criterion_8_lattice_duality_laws():
    _check(acceptance.criterion_lattice_laws())


def test_criterion_9_query_budget(modular_sweep):
    res, _ = modular_sweep
    assert res.metrics["runs"] == 1944
    _check(acceptance.criterion_query_budget(res))


def test_gates_detect_a_corrupted_dual(monkeypatch):
    # mutation probe: a broken dual computation must turn the lattice gate red
    from sdhsp.algebra import full_lattice

    real = acceptance.dual_lattice
    monkeypatch.setattr(
        acceptance, "dual_lattice", lambda L: full_lattice(L.moduli) if L.gens else real(L)
    )
    res = acceptance.criterion_lattice_laws(quick=True)
    assert not res.passed
