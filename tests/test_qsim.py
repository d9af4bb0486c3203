"""Simulated quantum layer: QFT sampling, dual-lattice draws, abelian solver."""

import numpy as np
import pytest

from sdhsp.algebra import (
    Lattice,
    dual_lattice,
    full_lattice,
    lattice_coset_rep,
    lattice_elements,
    lattice_member,
    lattice_size,
    lattices_equal,
    trivial_lattice,
)
from sdhsp.qsim import (
    AbelianOracle,
    abelian_hsp_solve,
    draw_samples,
    qft_matrix,
    sample_annihilator,
    sample_statevector,
)

# (moduli, lattice generators) pairs used throughout
FIXTURES = [
    ((3, 3), ((1, 1),)),
    ((9, 9), ((2, 8),)),
    ((9, 3), ((3, 1),)),
    ((4, 2), ((2, 1),)),
    ((8,), ((2,),)),
    ((3, 3, 3), ((1, 0, 2), (0, 1, 1))),
]


def coset_oracle(moduli, gens) -> AbelianOracle:
    L = Lattice(tuple(moduli), tuple(gens))
    return AbelianOracle.from_function(moduli, lambda pt: lattice_coset_rep(L, pt)), L


def test_qft_unitarity():
    for n in range(1, 65):
        F = qft_matrix(n)
        err = np.abs(F @ F.conj().T - np.eye(n)).max()
        assert err < 1e-10


def test_qft_first_row_uniform():
    F = qft_matrix(5)
    assert np.allclose(F[0], np.full(5, 1 / np.sqrt(5)))


def test_fft_equals_the_per_axis_qft_product():
    # the sampler transforms with np.fft.ifftn; qft_matrix is its oracle
    rng = np.random.default_rng(7)
    moduli = (4, 3, 5)
    psi = rng.normal(size=moduli) + 1j * rng.normal(size=moduli)
    want = psi
    for axis, n in enumerate(moduli):
        want = np.moveaxis(np.tensordot(qft_matrix(n), want, axes=([1], [axis])), 0, axis)
    assert np.allclose(np.fft.ifftn(psi, norm="ortho"), want, atol=1e-12)


def test_statevector_samples_live_in_the_dual():
    rng = np.random.default_rng(101)
    for moduli, gens in FIXTURES:
        oracle, L = coset_oracle(moduli, gens)
        D = dual_lattice(L)
        for v in sample_statevector(oracle, rng, count=200):
            assert lattice_member(D, v)


def test_statevector_distribution_uniform_over_dual():
    # hidden line <(1,0)> in (3,3): dual has 3 elements, 10^4 draws
    rng = np.random.default_rng(202)
    oracle, L = coset_oracle((3, 3), ((1, 0),))
    D = dual_lattice(L)
    support = set(lattice_elements(D))
    counts = dict.fromkeys(support, 0)
    for v in sample_statevector(oracle, rng, count=10_000):
        counts[v] += 1
    assert set(counts) == support
    for c in counts.values():
        assert abs(c - 3333) <= 300


def test_annihilator_sampler_agrees_with_statevector():
    rng = np.random.default_rng(303)
    for moduli, gens in FIXTURES[:4]:
        oracle, L = coset_oracle(moduli, gens)
        D = dual_lattice(L)
        n = 4000
        sv = sample_statevector(oracle, rng, count=n)
        an = sample_annihilator(L, rng, count=n)
        assert all(lattice_member(D, v) for v in an)
        # total variation over the dual support
        support = lattice_elements(D)
        tv = 0.5 * sum(
            abs(sv.count(v) / n - an.count(v) / n) for v in support
        )
        assert tv < 0.08


def test_periodicity_lattice_roundtrip():
    for moduli, gens in FIXTURES:
        oracle, L = coset_oracle(moduli, gens)
        assert lattices_equal(oracle.periodicity_lattice(), L)


def test_periodicity_lattice_rejects_non_periodic():
    # F(0)'s level set {0, 2, 5} is not closed under addition mod 6
    labels = {0: 0, 1: 1, 2: 0, 3: 1, 4: 1, 5: 0}
    oracle = AbelianOracle.from_function((6,), lambda pt: labels[pt[0]])
    with pytest.raises(ValueError):
        oracle.periodicity_lattice()


def test_abelian_solver_on_fixtures():
    rng = np.random.default_rng(404)
    for moduli, gens in FIXTURES:
        oracle, L = coset_oracle(moduli, gens)
        res = abelian_hsp_solve(oracle, rng)
        assert res.confident
        assert lattices_equal(res.lattice, L)


def test_abelian_solver_both_backends():
    rng = np.random.default_rng(505)
    oracle, L = coset_oracle((9, 3), ((3, 1),))
    for backend in ("statevector", "annihilator"):
        res = abelian_hsp_solve(oracle, rng, backend=backend)
        assert res.confident and lattices_equal(res.lattice, L)


def test_abelian_solver_success_rate():
    # the delta=0.01 contract: at least 99% of seeded runs exact
    oracle, L = coset_oracle((9, 3), ((3, 1),))
    wins = 0
    runs = 1000
    for seed in range(runs):
        res = abelian_hsp_solve(oracle, np.random.default_rng(seed), delta=0.01)
        if res.confident and lattices_equal(res.lattice, L):
            wins += 1
    assert wins >= 990


def test_abelian_solver_trivial_and_full():
    rng = np.random.default_rng(606)
    oracle, L = coset_oracle((9, 3), ())
    res = abelian_hsp_solve(oracle, rng)
    assert res.confident and lattices_equal(res.lattice, trivial_lattice((9, 3)))
    oracle2 = AbelianOracle.from_function((9, 3), lambda pt: 0)
    res2 = abelian_hsp_solve(oracle2, rng)
    assert res2.confident and lattices_equal(res2.lattice, full_lattice((9, 3)))


def test_statevector_domain_bound():
    oracle = AbelianOracle.from_function((2048, 1024), lambda pt: 0)
    with pytest.raises(ValueError):
        sample_statevector(oracle, np.random.default_rng(0), count=1)


def test_draw_samples_backend_dispatch():
    rng = np.random.default_rng(808)
    oracle, L = coset_oracle((9, 3), ((3, 1),))
    D = dual_lattice(L)
    for backend in ("statevector", "annihilator"):
        for v in draw_samples(oracle, rng, 50, backend):
            assert lattice_member(D, v)
    with pytest.raises(ValueError):
        draw_samples(oracle, rng, 1, "tensor-network")


class CountingStub:
    """Stands in for a HiddenInstance: counts f evaluations and batches."""

    def __init__(self, table_order=27):
        self.counters = {"f": 0, "superposed_calls": 0}

    def charge(self, evals, calls):
        self.counters["f"] += evals
        self.counters["superposed_calls"] += calls


def test_sampling_cost_model():
    stub = CountingStub()
    oracle = AbelianOracle.from_function((9, 3), lambda pt: lattice_coset_rep(Lattice((9, 3), ((3, 1),)), pt))
    counted = AbelianOracle(
        oracle.moduli,
        oracle.grid,
        sample_cost=lambda: stub.charge(27, 1),
        single_cost=lambda: stub.charge(1, 0),
        first_sample_paid=True,
    )
    rng = np.random.default_rng(909)
    sample_statevector(counted, rng, count=3)
    # first sample rides on the build; the next two pay 27 evals each
    assert stub.counters == {"f": 54, "superposed_calls": 2}
    counted.evaluate((1, 1))
    assert stub.counters == {"f": 55, "superposed_calls": 2}
