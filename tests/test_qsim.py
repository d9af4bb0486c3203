"""Simulated quantum layer: QFT sampling, dual-lattice draws, abelian solver, batched oracle walk."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdhsp.algebra import (
    Lattice,
    closure,
    dual_lattice,
    lattice_canonicalize,
    lattice_coset_rep,
    lattice_elements,
    lattice_is_full,
    lattice_member,
    lattice_size,
    lattices_equal,
    reduce_rows,
)
from sdhsp.blackbox import BlackBox, HiddenInstance, OpaqueHandle, make_hidden_instance
from test_blackbox import drawn_salts, open_block
from sdhsp import qsim
from sdhsp.qsim import AbelianOracle, abelian_hsp_solve, draw_samples
from sdhsp.reference import sample_annihilator
from sdhsp.sdp_group import (
    Element,
    GroupSpec,
    VecElement,
    ZmGroupSpec,
    modular_group_spec,
    sdp_table,
    vec_table,
)

# the certificate's two refusals, and the final check's
NOT_PERIODIC = "function is not periodic over this domain"
MERGES_COSETS = "function gives two cosets of its period lattice one value"
OFF_DUAL = "a sample lies off the dual of the function's period lattice"

# (moduli, lattice generators) pairs used throughout
FIXTURES = [
    ((3, 3), ((1, 1),)),
    ((9, 9), ((2, 8),)),
    ((9, 3), ((3, 1),)),
    ((4, 2), ((2, 1),)),
    ((8,), ((2,),)),
    ((3, 3, 3), ((1, 0, 2), (0, 1, 1))),
]


def qft_matrix(n: int) -> np.ndarray:
    """Unitary DFT on Z_n with the e^{+2 pi i jk/n} convention."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)


def oracle_from_function(moduli, fn) -> AbelianOracle:
    """Uncounted oracle of a plain callable on index tuples; its values are
    renumbered by first appearance, as only their equality counts."""
    ids: dict = {}
    grid = [ids.setdefault(fn(pt), len(ids)) for pt in np.ndindex(*moduli)]
    return AbelianOracle(moduli, np.reshape(grid, moduli))


def coset_oracle(moduli, gens) -> AbelianOracle:
    L = Lattice(tuple(moduli), tuple(gens))
    return oracle_from_function(moduli, lambda pt: lattice_coset_rep(L, pt)), L


def test_qft_unitarity():
    for n in range(1, 65):
        F = qft_matrix(n)
        err = np.abs(F @ F.conj().T - np.eye(n)).max()
        assert err < 1e-10


def test_qft_first_row_uniform():
    F = qft_matrix(5)
    assert np.allclose(F[0], np.full(5, 1 / np.sqrt(5)))


def per_axis_qft(psi):
    """The unitary DFT of every axis of `psi` as dense ``qft_matrix`` products."""
    for axis, n in enumerate(psi.shape):
        psi = np.moveaxis(np.tensordot(qft_matrix(n), psi, axes=([1], [axis])), 0, axis)
    return psi


AMPLITUDE_FLOOR = 1e-9  # the literal sampler cuts rounding-level amplitudes to 0


def literal_coset_probs(support) -> np.ndarray:
    """Row-major outcome probabilities of the uniform coset state on `support`
    by the literal per-coset simulation: one full-grid complex ``ifftn``, its
    magnitudes cut at ``AMPLITUDE_FLOOR``, squared and normalised."""
    psi = support.astype(np.complex128)
    psi /= math.sqrt(int(support.sum()))
    amp = np.abs(np.fft.ifftn(psi, norm="ortho").reshape(-1))
    amp[amp < AMPLITUDE_FLOOR] = 0.0
    probs = amp * amp
    probs /= probs.sum()
    return probs


def test_fft_equals_the_per_axis_qft_product():
    # the literal reference sampler transforms with np.fft.ifftn; qft_matrix is its oracle
    rng = np.random.default_rng(7)
    moduli = (4, 3, 5)
    psi = rng.normal(size=moduli) + 1j * rng.normal(size=moduli)
    assert np.allclose(np.fft.ifftn(psi, norm="ortho"), per_axis_qft(psi), atol=1e-12)


@pytest.mark.parametrize(
    "shape",
    [(1,), (2,), (7,), (8,), (5, 1), (4, 2), (3, 1, 2), (3, 4, 5), (2, 3, 2, 3)],
    ids=str,
)
@pytest.mark.parametrize("density", [0.0, 0.3, 0.7, 1.0])
def test_coset_probs_equal_the_dense_qft_on_arbitrary_masks(shape, density):
    # arbitrary supports, not only lattice cosets: the literal transform
    # must be |(x) QFT psi|^2 everywhere
    rng = np.random.default_rng(int(density * 10) + len(shape))
    for _ in range(5):
        mask = rng.random(shape) < density
        mask.flat[rng.integers(mask.size)] = True
        psi = mask / math.sqrt(np.count_nonzero(mask))
        amp = np.abs(per_axis_qft(psi.astype(np.complex128))).reshape(-1)
        amp[amp < AMPLITUDE_FLOOR] = 0.0
        want = amp * amp / (amp * amp).sum()
        got = literal_coset_probs(mask)
        assert got.shape == (mask.size,)
        assert np.abs(got - want).max() < 1e-12


def test_statevector_samples_live_in_the_dual():
    rng = np.random.default_rng(101)
    for moduli, gens in FIXTURES:
        oracle, L = coset_oracle(moduli, gens)
        D = dual_lattice(L)
        for v in draw_samples(oracle, rng, count=200):
            assert lattice_member(D, v)


def test_statevector_distribution_uniform_over_dual():
    # hidden line <(1,0)> in (3,3): dual has 3 elements, 10^4 draws
    rng = np.random.default_rng(202)
    oracle, L = coset_oracle((3, 3), ((1, 0),))
    D = dual_lattice(L)
    support = set(lattice_elements(D))
    counts = dict.fromkeys(support, 0)
    for v in draw_samples(oracle, rng, count=10_000):
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
        sv = draw_samples(oracle, rng, count=n)
        an = sample_annihilator(L, rng, count=n)
        assert all(lattice_member(D, v) for v in an)
        # total variation over the dual support
        support = lattice_elements(D)
        tv = 0.5 * sum(
            abs(sv.count(v) / n - an.count(v) / n) for v in support
        )
        assert tv < 0.08


def subgroup_lattice(oracle) -> Lattice:
    """F(0)'s level set as the sampler's subgroup reader sees it, canonicalised."""
    basis = qsim._level_basis(oracle.grid == oracle.f0(), oracle.kernel)
    if basis is None:
        raise ValueError(NOT_PERIODIC)
    return lattice_canonicalize(Lattice(oracle.moduli, tuple(basis)))


def diagonal(moduli) -> list:
    """The kernel rows of a box that is the whole domain."""
    return AbelianOracle(moduli, np.zeros(moduli)).kernel


def dual_mask(moduli: tuple[int, ...], gens) -> np.ndarray:
    """Row-major L^perp indicator, L = <gens>: per g, the phases sum_i k_i g_i N / n_i
    mod N of the leading axes against minus the last's, in the narrowest type.
    The domain-sized reference for the certificate's unranked L^perp."""
    k, N = len(moduli), math.lcm(*moduli)
    w = np.array(gens, np.int64).reshape(-1, k) * (N // np.array(moduli))
    lead = w[:, :-1] @ np.indices(moduli[:-1]).reshape(k - 1, math.prod(moduli[:-1])) % N
    last = w[:, -1:] * -np.arange(moduli[-1]) % N
    dt = np.min_scalar_type(N)
    return (lead.astype(dt)[:, :, None] == last.astype(dt)[:, None, :]).all(axis=0).reshape(-1)


def test_periodicity_lattice_roundtrip():
    for moduli, gens in FIXTURES:
        oracle, L = coset_oracle(moduli, gens)
        assert lattices_equal(subgroup_lattice(oracle), L)


def reference_periodicity_lattice(oracle) -> Lattice:
    """The per-point span route: canonicalise every point of F(0)'s level set."""
    points = [tuple(int(x) for x in idx) for idx in np.argwhere(oracle.grid == oracle.f0())]
    lat = lattice_canonicalize(Lattice(oracle.moduli, tuple(points)))
    if lattice_size(lat) != len(points):
        raise ValueError(NOT_PERIODIC)
    return lat


def closed_under_addition(support) -> bool:
    pts = np.argwhere(support)
    sums = (pts[:, None, :] + pts[None, :, :]) % support.shape
    return bool(support[tuple(sums.reshape(-1, support.ndim).T)].all())


def random_supports(seed, count=60):
    """Supports holding 0 on 1-3 axes: random subgroups, some with up to two
    other points toggled (which may or may not leave a subgroup)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        moduli = tuple(int(n) for n in rng.choice([2, 3, 4, 5, 6, 8, 9], size=rng.integers(1, 4)))
        gens = tuple(tuple(int(rng.integers(n)) for n in moduli) for _ in range(rng.integers(3)))
        support = np.zeros(moduli, dtype=bool)
        for pt in lattice_elements(Lattice(moduli, gens)):
            support[pt] = True
        for _ in range(rng.integers(3)):
            support.flat[rng.integers(1, support.size)] ^= True
        yield support


@pytest.mark.parametrize("seed", range(4))
def test_subgroup_reader_on_random_supports(seed):
    kinds = set()
    for support in random_supports(seed):
        basis = qsim._level_basis(support, diagonal(support.shape))
        kinds.add(basis is not None)
        assert (basis is not None) == closed_under_addition(support)
        if basis is not None:
            want = np.flatnonzero(literal_coset_probs(support))
            assert np.array_equal(np.flatnonzero(dual_mask(support.shape, basis)), want)
            assert np.array_equal(qsim._dual(support.shape, basis), want)
    assert kinds == {True, False}


@pytest.mark.parametrize(
    "moduli, points, checks",
    [
        # u = 3 does not divide 7, though 2 points = 7 // 3 would pass the count
        ((7,), [(0,), (3,)], 0),
        # u = 2 divides 4, but 3 points are not 4 / 2
        ((4,), [(0,), (2,), (3,)], 0),
        # g_0 = (1, 1), 4 points = 4 / 1 * 2 / 2, but (3, 0) + (1, 1) is missing
        ((4, 2), [(0, 0), (1, 1), (2, 0), (3, 0)], 1),
    ],
    ids=["u does not divide n", "wrong count", "not invariant"],
)
def test_subgroup_reader_rules_out_each_failure(monkeypatch, moduli, points, checks):
    support = np.zeros(moduli, dtype=bool)
    for pt in points:
        support[pt] = True
    assert not closed_under_addition(support)
    shifts = []
    invariant = qsim._invariant
    monkeypatch.setattr(qsim, "_invariant", lambda *args: shifts.append(args) or invariant(*args))
    assert qsim._level_basis(support, diagonal(moduli)) is None
    # divisibility and size rule a support out before any periodicity check
    assert len(shifts) == checks


@given(
    moduli=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    shift=st.lists(st.integers(-13, 13), min_size=4, max_size=4),
    periodic=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example([4, 1, 6, 3], [-1, 0, 8, 3], True, 0)  # negative, zero and >= n shifts
@example([4, 1, 6, 3], [-1, 0, 8, 3], False, 0)
@example([5, 3], [0, 0, 0, 0], False, 1)  # the zero shift leaves every grid as it is
@example([3, 3], [-1, 1, 0, 0], True, 0)  # periodic by (2, 1), not by (1, 1)
@settings(max_examples=200, deadline=None)
def test_the_reduced_periodicity_check_agrees_with_np_roll(moduli, shift, periodic, seed):
    g, axes = tuple(shift[: len(moduli)]), tuple(range(len(moduli)))
    rng = np.random.default_rng(seed)
    # each point's least flat index over its orbit u + <g>; a grid constant
    # on orbits is g-periodic, and one point changed usually breaks that
    orbit = np.arange(math.prod(moduli)).reshape(moduli)
    for _ in range(math.lcm(*moduli)):
        orbit = np.minimum(orbit, np.roll(orbit, g, axis=axes))
    grid = rng.integers(0, 3, size=orbit.size)[orbit]
    if not periodic:
        grid.flat[rng.integers(grid.size)] = 3
    want = np.array_equal(np.roll(grid, g, axis=axes), grid)
    assert want or not periodic
    assert qsim._invariant(grid, diagonal(moduli), np.indices(moduli), g) == want


@pytest.mark.parametrize("seed", range(4))
def test_periodicity_lattice_matches_the_per_point_span(seed):
    for support in random_supports(seed):
        oracle = AbelianOracle(support.shape, (~support).astype(np.int64))
        try:
            want = reference_periodicity_lattice(oracle)
        except ValueError:
            with pytest.raises(ValueError, match=NOT_PERIODIC):
                subgroup_lattice(oracle)
        else:
            assert subgroup_lattice(oracle).gens == want.gens


def test_periodicity_lattice_rejects_non_periodic():
    # F(0)'s level set {0, 2, 5} is not closed under addition mod 6
    labels = {0: 0, 1: 1, 2: 0, 3: 1, 4: 1, 5: 0}
    oracle = oracle_from_function((6,), lambda pt: labels[pt[0]])
    with pytest.raises(ValueError):
        subgroup_lattice(oracle)


def test_oracle_grid_is_read_only():
    oracle, _ = coset_oracle((9, 3), ((3, 1),))
    with pytest.raises(ValueError, match="read-only"):
        oracle.grid[1, 1] = 0


def test_abelian_solver_on_fixtures():
    rng = np.random.default_rng(404)
    for moduli, gens in FIXTURES:
        oracle, L = coset_oracle(moduli, gens)
        res = abelian_hsp_solve(oracle, rng)
        assert res.confident
        assert lattices_equal(res.lattice, L)


def test_abelian_solver_both_backends(monkeypatch):
    rng = np.random.default_rng(505)
    oracle, L = coset_oracle((9, 3), ((3, 1),))
    res = abelian_hsp_solve(oracle, rng)
    assert res.confident and lattices_equal(res.lattice, L)
    # exact draws from L^perp, the reference distribution, recover L as well
    monkeypatch.setattr(qsim, "draw_samples", lambda o, rng, count: sample_annihilator(L, rng, count))
    res = abelian_hsp_solve(oracle, rng)
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
    assert res.confident and lattices_equal(res.lattice, Lattice((9, 3), ()))
    oracle2 = oracle_from_function((9, 3), lambda pt: 0)
    res2 = abelian_hsp_solve(oracle2, rng)
    assert res2.confident and lattice_is_full(res2.lattice)


def test_unconfident_tail_evaluates_each_final_generator_once(monkeypatch):
    # zero samples leave the whole group as the candidate in every round;
    # its generators (0,0,1), (0,1,0), (1,0,0) hold, fail, hold against L
    monkeypatch.setattr(qsim, "draw_samples", lambda oracle, rng, count: [(0, 0, 0)] * count)
    plain, L = coset_oracle((3, 3, 3), ((0, 0, 1), (1, 0, 0)))
    calls = []
    oracle = AbelianOracle(plain.moduli, plain.grid, single_cost=calls.append)
    res = abelian_hsp_solve(oracle, np.random.default_rng(0))
    assert not res.confident and res.rounds == qsim.MAX_ROUNDS
    assert lattices_equal(res.lattice, L)
    # rounds 1 and 2 stop at the failing generator (2 each), round 3 evaluates all 3
    assert len(calls) == 2 + 2 + 3


# -- the cached coset transform against the literal per-coset sampler ----------


def reference_draw_samples(oracle, rng, count=1):
    """The literal sampler: F(0)'s level set transformed by one full-grid
    ifftn, and one rng.choice(size=count, p=) for all the rounds."""
    probs = literal_coset_probs(oracle.grid == oracle.f0())
    flat = rng.choice(oracle.domain_size, size=count, p=probs)
    return [tuple(int(x) for x in np.unravel_index(i, oracle.moduli)) for i in flat]


def character_oracle(moduli, rows) -> AbelianOracle:
    """F(u) = (chi_a(u) for a in rows), chi_a(u) = sum_i a_i u_i N/n_i mod N.

    Periodic, hiding the annihilator of `rows`; built on the whole grid at
    once, so it scales to 512 x 512.
    """
    N = math.lcm(*moduli)
    u = np.indices(moduli)
    grid = np.zeros(moduli, dtype=np.int64)
    for a in rows:
        grid = grid * N + sum(ai * (N // n) * ui for ai, n, ui in zip(a, moduli, u)) % N
    return AbelianOracle(moduli, grid)


# (moduli, character rows): several hidden lattices per domain, trivial and full among them
CHARACTER_FIXTURES = [
    ((3, 3), ((1, 2),)),
    ((3, 3), ((1, 0), (0, 1))),
    ((3, 3), ()),
    ((9, 9), ((1, 3),)),
    ((9, 9), ((3, 0), (0, 3))),
    ((9, 9), ((2, 7), (0, 3))),
    ((9, 3), ((1, 1),)),
    ((9, 3), ((3, 0),)),
    ((9, 3), ((0, 1), (3, 0))),
    ((4, 2), ((1, 1),)),
    ((4, 2), ((2, 0),)),
    ((4, 2), ((1, 0), (0, 1))),
    ((8,), ((4,),)),
    ((8,), ((1,),)),
    ((3, 3, 3), ((1, 1, 1),)),
    ((3, 3, 3), ((1, 0, 2), (0, 1, 1))),
    ((27, 27), ((1, 5),)),
    ((27, 27), ((9, 0), (0, 3))),
    ((27, 27), ((3, 6),)),
    ((512, 512), ((1, 3),)),
    ((512, 512), ((2, 0), (0, 4))),
    ((512, 512), ((0, 0),)),
    ((512, 512), ((1, 0), (0, 1))),
    # the shapes the benchmark's oracles reach
    ((243, 243), ((1, 3),)),
    ((243, 243), ((9, 0), (0, 27))),
    ((125, 125), ((1, 7),)),
    ((125, 125), ((5, 0), (0, 25))),
    ((256, 2), ((1, 1),)),
    ((256, 2), ((2, 0), (0, 1))),
    ((81, 3), ((1, 1),)),
    ((81, 3), ((27, 0),)),
    ((8, 8, 2), ((1, 2, 1),)),
    ((8, 8, 2), ((2, 0, 0), (0, 4, 1))),
    ((9, 9, 3), ((1, 3, 1),)),
    ((9, 9, 3), ((3, 0, 0), (0, 0, 1))),
]


@lru_cache(maxsize=None)
def annihilator_indices(moduli, rows) -> np.ndarray:
    """Row-major indices of L^perp, for the L that ``character_oracle`` hides."""
    hidden = dual_lattice(Lattice(moduli, rows))
    dual = np.array(lattice_elements(dual_lattice(hidden))).reshape(-1, len(moduli))
    return np.ravel_multi_index(tuple(dual.T), moduli)


@pytest.mark.parametrize("moduli, rows", CHARACTER_FIXTURES, ids=str)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cached_transform_draws_what_the_literal_sampler_draws(moduli, rows, seed):
    oracle = character_oracle(moduli, rows)
    count = 10 if oracle.domain_size > 10_000 else 300
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw_samples(oracle, got_rng, count=count // 2)
    got += draw_samples(oracle, got_rng, count=count - count // 2)
    assert got == reference_draw_samples(oracle, want_rng, count=count)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # the certificate's outcomes are exactly L^perp in row-major order
    order, outcomes, _ = oracle._certificate
    assert np.array_equal(outcomes, annihilator_indices(moduli, rows))
    assert order * outcomes.size == oracle.domain_size


@pytest.mark.parametrize(
    "moduli, rows",
    [(m, rows) for m, rows in CHARACTER_FIXTURES if math.prod(m) <= 10_000],
    ids=str,
)
def test_every_coset_state_measures_like_f0s(moduli, rows):
    # a coset u0 + L transforms to F(0)'s coset's amplitudes times phases, so
    # the measured value of F changes nothing and a round need not draw u0
    oracle = character_oracle(moduli, rows)
    want = literal_coset_probs(oracle.grid == oracle.f0())
    for value in np.unique(oracle.grid):
        assert np.allclose(literal_coset_probs(oracle.grid == value), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("count", [0, 1, 7, 300])
def test_a_round_draws_one_random_per_sample(count):
    oracle = character_oracle((9, 9, 3), ((1, 3, 1),))
    rng, twin = np.random.default_rng(count), np.random.default_rng(count)
    assert len(draw_samples(oracle, rng, count)) == count
    twin.random(count)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("point", [(1, 1), (3, 1)], ids=["off L", "in L"])
def test_non_periodic_grid_is_refused_before_any_round(point):
    # one point relabelled: its coset and the coset it left are no
    # translates of F(0)'s level set (in L: F(0)'s own level set shrinks)
    oracle, _ = coset_oracle((9, 3), ((3, 1),))
    grid = oracle.grid.copy()
    grid[point] = grid.max() + 1
    stub = CountingStub()
    broken = AbelianOracle((9, 3), grid, stub)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    for count in (0, 300):
        with pytest.raises(ValueError, match=NOT_PERIODIC):
            draw_samples(broken, rng, count=count)
    assert not any(stub.counters.values())
    assert rng.bit_generator.state == state


# -- the oracle certificate against its definition ------------------------------


def random_grids(seed, count=60):
    """Grids over ``random_supports``.  A subgroup L gives its coset labels
    (periodic, injective on G/L), them with two other cosets sharing a label
    (periodic, not injective) and them with one point relabelled (not
    periodic unless L is trivial); any other support is F(0)'s level set of
    a grid that is injective elsewhere."""
    rng = np.random.default_rng(seed)
    for support in random_supports(seed, count):
        if not closed_under_addition(support):
            yield np.where(support, -1, np.arange(support.size).reshape(support.shape))
            continue
        # a point's label: the least row-major index of its coset
        cosets = (np.argwhere(np.ones_like(support))[:, None] + np.argwhere(support)) % support.shape
        flat = np.ravel_multi_index(tuple(np.moveaxis(cosets, -1, 0)), support.shape)
        labels = flat.min(axis=1).reshape(support.shape)
        yield labels
        others = np.unique(labels[labels != 0])
        if others.size >= 2:
            a, b = rng.choice(others, size=2, replace=False)
            yield np.where(labels == a, b, labels)
        broken = labels.copy()
        broken.flat[rng.integers(support.size)] = support.size
        yield broken


def periodic_on_subgroup(grid) -> bool:
    """F(0)'s level set is a subgroup L and `grid` equals its roll by each point of L."""
    zero = grid == grid.flat[0]
    axes = tuple(range(grid.ndim))
    return closed_under_addition(zero) and all(
        np.array_equal(np.roll(grid, tuple(g), axis=axes), grid) for g in np.argwhere(zero)
    )


def translates_everywhere(grid) -> bool:
    """The definition: every level set of `grid` is u0 + L, L = F(0)'s level set."""
    zero = np.argwhere(grid == grid.flat[0])
    for value in np.unique(grid):
        u0 = np.argwhere(grid == value)[0]
        coset = np.zeros(grid.shape, dtype=bool)
        coset[tuple(((zero + u0) % grid.shape).T)] = True
        if not np.array_equal(coset, grid == value):
            return False
    return True


@pytest.mark.parametrize("seed", range(4))
def test_certificate_is_every_level_set_translating_f0s(seed):
    kinds = set()
    for grid in random_grids(seed):
        oracle = AbelianOracle(grid.shape, grid)
        certified = translates_everywhere(grid)
        zero = grid == grid.flat[0]
        kinds.add((closed_under_addition(zero), periodic_on_subgroup(grid), certified))
        if not certified:
            message = MERGES_COSETS if periodic_on_subgroup(grid) else NOT_PERIODIC
            with pytest.raises(ValueError, match=message):
                oracle._certificate
        else:
            order, outcomes, cdf = oracle._certificate
            L = Lattice(grid.shape, tuple(tuple(int(x) for x in g) for g in np.argwhere(zero)))
            dual = np.array(lattice_elements(dual_lattice(L))).reshape(-1, grid.ndim)
            assert order == np.count_nonzero(zero)
            assert np.array_equal(outcomes, np.sort(np.ravel_multi_index(tuple(dual.T), grid.shape)))
            assert cdf[-1] == 1.0
    # certified; periodic but not injective; subgroup but not periodic; no subgroup
    assert kinds == {(True, True, True), (True, True, False), (True, False, False), (False, False, False)}


class UnreadableGrid:
    """Stands in for a grid that must not be read: any use of it fails."""

    def _fail(self, *args, **kwargs):
        raise AssertionError("the grid was read")

    __getattr__ = __getitem__ = __eq__ = __array__ = _fail


@pytest.mark.parametrize(
    "moduli, rows",
    [
        ((9, 9), ((1, 3),)),
        ((9, 9), ((2, 7), (0, 3))),
        ((3, 3, 3), ((1, 0, 2), (0, 1, 1))),
        ((8, 8, 2), ((1, 2, 1),)),
        ((512, 512), ((1, 3),)),
    ],
    ids=str,
)
def test_certified_oracle_samples_without_reading_its_grid(moduli, rows):
    oracle, twin = character_oracle(moduli, rows), character_oracle(moduli, rows)
    assert oracle._certificate is not None
    oracle.grid = UnreadableGrid()
    count = 10 if oracle.domain_size > 10_000 else 300
    got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
    assert draw_samples(oracle, got_rng, count) == reference_draw_samples(twin, want_rng, count)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(4))
def test_periodic_grid_not_injective_on_cosets_raises(seed):
    # F is L-periodic, but two cosets of L share a value: no subgroup is hidden
    grids = [
        g for g in random_grids(seed) if periodic_on_subgroup(g) and not translates_everywhere(g)
    ]
    assert grids
    for grid in grids:
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=MERGES_COSETS):
            abelian_hsp_solve(AbelianOracle(grid.shape, grid), rng)
        assert rng.bit_generator.state == state


def test_final_check_catches_a_draw_off_the_dual(monkeypatch):
    # L = <(3, 1)> in Z_9 x Z_3 has prime order, so one draw off L^perp, here
    # (1, 0), cuts the pool's kernel down to 0: the candidate has no generator
    # to fail F(g) = F(0), and only the size check |lat| = |L| sees the fault
    oracle, L = coset_oracle((9, 3), ((3, 1),))
    assert not lattice_member(dual_lattice(L), (1, 0))
    sampler = qsim.draw_samples

    def faulty(o, rng, count):
        return [(1, 0)] + sampler(o, rng, count - 1)

    monkeypatch.setattr(qsim, "draw_samples", faulty)
    with pytest.raises(ValueError, match=OFF_DUAL):
        abelian_hsp_solve(oracle, np.random.default_rng(0))


class CountingStub:
    """Stands in for a HiddenInstance: counts f evaluations and batches."""

    def __init__(self):
        self.counters = {"f": 0, "superposed_calls": 0, "domain_points": 0}

    def charge(self, **counts):
        for key, n in counts.items():
            self.counters[key] += n


def test_sampling_cost_model():
    stub = CountingStub()
    oracle = oracle_from_function((9, 3), lambda pt: lattice_coset_rep(Lattice((9, 3), ((3, 1),)), pt))
    counted = AbelianOracle(oracle.moduli, oracle.grid, stub, lambda _: stub.charge(f=1))
    rng = np.random.default_rng(909)
    draw_samples(counted, rng, count=3)
    # every sample is one superposed call over the 27 grid points
    assert stub.counters == {"f": 0, "superposed_calls": 3, "domain_points": 81}
    counted.evaluate((1, 1))
    assert stub.counters == {"f": 1, "superposed_calls": 3, "domain_points": 81}
    # a plain oracle books nothing
    draw_samples(oracle, rng, count=3)
    assert stub.counters == {"f": 1, "superposed_calls": 3, "domain_points": 81}


# -- the batched oracle walk against the per-point walk it replaced -----------


def reference_walk(bb, moduli, identity, gen_handles) -> list:
    """Handles of g_1^{u_1}...g_k^{u_k} in row-major order, one mul per step.

    prefix[i] is the product of the first i factors at the current index;
    bumping digit d multiplies prefix[d+1] by g_{d+1} on the right and
    resets all lower prefixes.
    """
    k = len(moduli)
    if len(gen_handles) != k:
        raise ValueError("one generator handle per modulus is required")
    idx = [0] * k
    prefix = [identity] * (k + 1)
    out = [prefix[k]]
    total = math.prod(moduli)
    for _ in range(total - 1):
        d = k - 1
        while idx[d] == moduli[d] - 1:
            idx[d] = 0
            d -= 1
        idx[d] += 1
        prefix[d + 1] = bb.oracle_mul(prefix[d + 1], gen_handles[d])
        for j in range(d + 1, k):
            prefix[j + 1] = prefix[j]
        out.append(prefix[k])
    return out


def spread(box, kernel, moduli) -> np.ndarray:
    """A walk's box over the whole grid: each point's value at its reduction."""
    if kernel is None:
        return box
    return box[tuple(reduce_rows(list(np.indices(moduli)), kernel))]


WALK_TABLES = [
    sdp_table(modular_group_spec(3, 2)),
    sdp_table(modular_group_spec(2, 3)),
    vec_table(ZmGroupSpec(3, 2, 1)),
    vec_table(ZmGroupSpec(2, 3, 1)),
    vec_table(ZmGroupSpec(2, 3, 2)),
]
WALK_ENCODINGS = [
    ("unique", 1, "zero"),
    ("salted", 4, "zero"),
    ("salted", 4, "operands"),
    ("salted", 4, "fresh"),
]


@given(
    table=st.sampled_from(WALK_TABLES),
    encoding=st.sampled_from(WALK_ENCODINGS),
    moduli=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3)), min_size=5, max_size=5),
    seed=st.integers(0, 2**16),
)
@example(WALK_TABLES[2], WALK_ENCODINGS[3], [3, 1, 4], [(5, 1), (7, 2), (1, 3), (2, 0), (0, 0)], 0)
# start (0, 2; 1) is not central: it conjugates g_1 = (0, 3; 1) and g_3 = (0, 1; 0)
# to other elements, so the walk must left-multiply by h g_d h^-1, not by g_d
@example(WALK_TABLES[4], WALK_ENCODINGS[0], [9, 2, 7, 3], [(5, 1), (7, 2), (1, 3), (2, 0), (4, 1)], 3)
@settings(max_examples=150, deadline=None)
def test_batched_walk_matches_the_per_point_walk(table, encoding, moduli, picks, seed):
    mode, salts, policy = encoding

    def blackbox():
        return BlackBox(table, salts, policy, rng=np.random.default_rng(seed))

    ref_bb, walk_bb = blackbox(), open_block(blackbox())
    start, *gens = (
        ref_bb.encode(table.elements[i % table.order], s % ref_bb.salts) for i, s in picks
    )
    gens = gens[: len(moduli)]
    want = reference_walk(ref_bb, moduli, start, gens)
    got = spread(*walk_bb._walk(moduli, start, gens), moduli)
    total = math.prod(moduli)
    assert got.shape == tuple(moduli)
    assert got.ravel().tolist() == [ref_bb._decode_index(h) for h in want]
    # the walk books the per-point walk's products as walk_mul, not mul
    assert ref_bb.counters == {"mul": total - 1, "inv": 0, "eq": 0, "walk_mul": 0}
    assert walk_bb.counters == {"mul": 0, "inv": 0, "eq": 0, "walk_mul": total - 1}
    # no intermediate product reaches a caller, so the walk draws no salt, from the
    # generator or from the block a 'fresh' box has started
    assert drawn_salts(walk_bb) == drawn_salts(open_block(blackbox()))
    if mode == "unique":
        codes_bb = blackbox()
        holder = HiddenInstance(codes_bb, frozenset(), np.zeros(table.order))
        oracle = AbelianOracle.from_products(moduli, holder, start, gens)
        codes = spread(oracle.grid, oracle.kernel, moduli)
        assert [OpaqueHandle(int(c).to_bytes(8, "big")) for c in codes.ravel()] == want
        assert codes_bb.counters == walk_bb.counters


def test_walk_needs_one_generator_per_modulus():
    bb = BlackBox(WALK_TABLES[0], rng=np.random.default_rng(0))
    e = bb.encode(WALK_TABLES[0].identity)
    with pytest.raises(ValueError, match="one generator handle per modulus"):
        bb._walk((3, 3), e, [e])
    for moduli in ((0,), (0, 3), (-3,), (3, 0)):  # refused before a grid size is booked
        with pytest.raises(ValueError, match="moduli must be positive"):
            bb._walk(moduli, e, [e] * len(moduli))
    assert bb.counters["walk_mul"] == 0


@pytest.mark.parametrize("policy", ["zero", "operands", "fresh"])
def test_walk_codes_refuses_a_salted_box(policy):
    # the product-code oracle (from_products) needs unique encodings
    table = WALK_TABLES[0]
    inst, _ = make_hidden_instance(
        table, [table.identity], mode="salted", salts=4, salt_policy=policy
    )
    bb = open_block(inst.blackbox)
    e = bb.encode(table.identity)
    before, salts = inst.query_stats(), drawn_salts(bb)
    with pytest.raises(ValueError, match="product-valued oracles require unique encoding"):
        AbelianOracle.from_products((3, 3), inst, e, [e, e])
    assert inst.query_stats() == before
    assert drawn_salts(bb) == salts


@pytest.mark.parametrize("encoding", WALK_ENCODINGS, ids=lambda e: f"{e[0]}:{e[1]}:{e[2]}")
def test_oracle_from_handles_books_one_superposed_evaluation(encoding):
    mode, salts, policy = encoding
    table = WALK_TABLES[0]
    H = frozenset({table.identity, *(g for g in table.elements if g.b == 0 and g.a % 3 == 0)})
    inst, handles = make_hidden_instance(
        table, H, mode=mode, salts=salts, salt_policy=policy, seed=4
    )
    bb = open_block(inst.blackbox)
    e = bb.encode(table.identity)
    moduli = (9, 3)
    before, salts = inst.query_stats(), drawn_salts(bb)
    oracle = AbelianOracle.from_handles(moduli, inst, e, handles)
    built = inst.query_stats()
    # the walk draws no salt, under any policy and from a started block either, and the
    # build books its products only
    assert drawn_salts(bb) == salts
    assert {k: n - before[k] for k, n in built.items() if n != before[k]} == {"walk_mul": 26}
    # one sample is one superposed evaluation over the 27 points
    draw_samples(oracle, np.random.default_rng(0), 1)
    drawn = inst.query_stats()
    assert {k: n - built[k] for k, n in drawn.items() if n != built[k]} == {
        "superposed_calls": 1, "domain_points": 27
    }
    # equal ids exactly where the labels of the revealed products are equal
    x, y = (bb.reveal(h) for h in handles)
    labels = np.empty(moduli, dtype=np.int64)
    for u, v in np.ndindex(*moduli):
        g = table.identity
        for _ in range(u):
            g = table.mul(g, x)
        for _ in range(v):
            g = table.mul(g, y)
        labels[u, v] = inst.label_of_element(g)
    flat_ids, flat_labels = oracle.grid.ravel(), labels.ravel()
    assert np.array_equal(
        flat_ids[:, None] == flat_ids[None, :], flat_labels[:, None] == flat_labels[None, :]
    )


@pytest.mark.parametrize("build", ["from_handles", "from_products"])
def test_draws_alone_book_superposed_work(build):
    # a build books its walk's products; a draw of N rounds books N calls over
    # the grid's points; an evaluate books one f, or the products of the lift
    inst, _ = make_hidden_instance(WALK_TABLES[0], [Element(a, 0) for a in (0, 3, 6)], seed=2)
    e, g1, g2 = (inst.blackbox.encode(Element(a, 0)) for a in (0, 1, 3))  # e, x, x^3
    moduli, rng = (9, 3), np.random.default_rng(3)  # walked on <x>, 9 points, booked as 27

    def moved(call):  # call()'s result and the counters it moved
        out, diff = booked(inst, call)
        return out, {k: n for k, n in diff.items() if n}

    oracle, built = moved(lambda: getattr(AbelianOracle, build)(moduli, inst, e, [g1, g2]))
    assert built == {"walk_mul": 26}
    for count in (0, 1, 5):
        _, drawn = moved(lambda: draw_samples(oracle, rng, count))
        assert drawn == ({"superposed_calls": count, "domain_points": 27 * count} if count else {})
    for u in ((0, 0), (4, 2), (-1, 7)):
        lift = sum(c.bit_length() + c.bit_count() + 1 for c in (u[0] % 9, u[1] % 3))
        want = {"mul": lift} if build == "from_products" else {"f": 1}
        assert moved(lambda: oracle.evaluate(u))[1] == want


# -- the image route against a plain full-grid oracle ---------------------------

# the groups of the three benchmark workloads, (2,13), and three abelian direct
# products (alpha = 1), on which a commuting grid can reach all of G
IMAGE_TABLES = [
    *(sdp_table(modular_group_spec(p, r)) for p, r in ((5, 4), (3, 6), (2, 10), (3, 3), (5, 2))),
    *(sdp_table(modular_group_spec(p, r)) for p, r in ((7, 2), (3, 4), (2, 13))),
    vec_table(ZmGroupSpec(2, 3, 2)),
    vec_table(ZmGroupSpec(3, 2, 2)),
    *(sdp_table(GroupSpec(p, q, r, 1)) for p, q, r in ((2, 2, 5), (3, 3, 3), (7, 3, 2))),
]
TABLE_INDEX = {table.spec: t for t, table in enumerate(IMAGE_TABLES)}
IMAGE_ENCODINGS = [("unique", 1, "zero"), ("salted", 4, "fresh")]


def element_order(table, i: int) -> int:
    order, acc = 1, i
    while acc != 0:
        acc, order = table.imul(acc, i), order + 1
    return order


def element_power(table, i: int, n: int) -> int:
    acc = 0
    for _ in range(n):
        acc = table.imul(acc, i)
    return acc


@lru_cache(maxsize=None)
def image_instance(t: int, encoding, seed: int):
    """A hiding instance on ``IMAGE_TABLES[t]`` for the span of two random elements."""
    table, (mode, salts, policy) = IMAGE_TABLES[t], encoding
    rng = np.random.default_rng([seed, t])
    span = closure(table.imul, 0, rng.integers(0, table.order, size=2).tolist())
    subgroup = [table.elements[i] for i in span]
    inst, _ = make_hidden_instance(
        table, subgroup, mode=mode, salts=salts, salt_policy=policy, seed=seed
    )
    return inst


def random_cyclic_grid(table, rng, max_points=6_000):
    """(moduli, generators) as element indices: g_1 of order t, n_1 a multiple
    of t, and g_d = g_1^{w_d} with n_d a multiple of its order."""
    a = int(rng.integers(1, table.order))
    o = element_order(table, a)
    t = int(rng.choice([d for d in range(1, o + 1) if o % d == 0 and d <= 81]))
    g1 = element_power(table, a, o // t)
    p = table.spec.p
    moduli, gens = [t * int(rng.choice([1, p]))], [g1]
    for _ in range(int(rng.integers(0, 3))):
        w = int(rng.integers(0, t))
        n = t // math.gcd(t, w) * int(rng.choice([1, p]))
        if math.prod(moduli) * n <= max_points:
            moduli.append(n)
            gens.append(element_power(table, g1, w))
    return tuple(moduli), gens


def random_a_grid(table, rng):
    """(moduli, generators): s = m or m + 1 random elements of A = Z_{p^r}^m, the
    relation grid of the vector solver, (p^r)^s points."""
    spec = table.spec
    s = spec.m + int(rng.integers(0, 2))
    rows = rng.integers(0, spec.modulus, size=(s, spec.m)).tolist()
    return (spec.modulus,) * s, [table.index(VecElement(tuple(row), 0)) for row in rows]


def handles_of(bb, rng, indices):
    return [bb._handle(i, int(rng.integers(0, bb.salts))) for i in indices]


def booked(inst, call):
    """``call()``'s result, or its ValueError's message, and the counters it moved."""
    before = inst.query_stats()
    try:
        out = call()
    except ValueError as err:
        out = str(err)
    after = inst.query_stats()
    return out, {k: after[k] - before[k] for k in after}


def full_grid_oracle(inst, moduli, start, gens) -> AbelianOracle:
    """The plain oracle over every grid point, no kernel rows, built unbooked and
    apart from the walk: h g_1^{u_1} ... g_d^{u_d} is the product of the grid up
    to axis d - 1 with the d-th power list, one outer product an axis."""
    bb = inst.blackbox
    table, walk = bb.table, np.array(bb._decode_index(start))
    for g, n in zip(map(bb._decode_index, gens), moduli):
        powers = [0]
        for _ in range(n - 1):
            powers.append(table.imul(powers[-1], g))
        walk = table.index_mul(walk[..., None], np.array(powers))
    return AbelianOracle(moduli, inst.labels[walk], inst, lambda _: inst.charge(f=1))


def assert_same_certificate(inst, image, full):
    """Both refuse with one message, or give one |L|, L^perp and CDF, bit for bit;
    neither books anything.  A certified L^perp is ``dual_mask``'s support."""
    (got, got_booked), (want, want_booked) = (
        booked(inst, lambda o=o: o._certificate) for o in (image, full)
    )
    assert not any(got_booked.values()) and not any(want_booked.values())
    if isinstance(want, str):
        assert got == want
    else:
        assert got[0] == want[0]
        assert got[1].tolist() == want[1].tolist()
        assert got[2].tobytes() == want[2].tobytes()
        L = reference_periodicity_lattice(full)
        assert want[1].tolist() == np.flatnonzero(dual_mask(full.moduli, L.gens)).tolist()
    return want


@given(
    t=st.integers(0, len(IMAGE_TABLES) - 1),
    encoding=st.sampled_from(IMAGE_ENCODINGS),
    hidden=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_the_image_route_is_the_full_grid_on_commuting_grids(t, encoding, hidden, seed):
    inst = image_instance(t, encoding, hidden)
    bb, rng = inst.blackbox, np.random.default_rng(seed)
    table = bb.table
    vector = isinstance(table.spec, ZmGroupSpec)
    moduli, gens = (random_a_grid if vector and rng.random() < 0.7 else random_cyclic_grid)(
        table, rng
    )
    reach = len(closure(table.imul, 0, gens))
    start = 0 if rng.random() < 0.5 else int(rng.integers(0, table.order))
    start, *gens = handles_of(bb, rng, [start, *gens])
    image, image_booked = booked(inst, lambda: AbelianOracle.from_handles(moduli, inst, start, gens))
    full = full_grid_oracle(inst, moduli, start, gens)
    # the build walks |I| points and books the whole grid's products, nothing superposed
    assert image.grid.size == reach
    assert image_booked == {**dict.fromkeys(image_booked, 0), "walk_mul": math.prod(moduli) - 1}
    assert image.f0() == full.f0()
    if not isinstance(assert_same_certificate(inst, image, full), str):

        def draws(oracle):  # the same draws, booking and RNG end state
            r = np.random.default_rng(seed)
            return *booked(inst, lambda: draw_samples(oracle, r, 40)), r.bit_generator.state

        got, want = draws(image), draws(full)
        assert got == want
        # 40 draws book 40 superposed calls over the whole grid, and nothing else
        assert {k: n for k, n in want[1].items() if n} == {
            "superposed_calls": 40, "domain_points": 40 * math.prod(moduli)
        }
    for point in rng.integers(-100, 100, size=(20, len(moduli))).tolist():
        got, want = (booked(inst, lambda o=o: o.evaluate(point)) for o in (image, full))
        assert got == want

    # relabel 1-3 elements the grid reaches: both routes refuse alike or certify alike
    labels = inst.labels.copy()
    reached = np.unique(bb._walk(moduli, start, gens)[0])
    for i in rng.choice(reached, size=min(reached.size, int(rng.integers(1, 4))), replace=False):
        labels[i] = labels.max() + 1 if rng.random() < 0.5 else labels[rng.choice(reached)]
    twin = HiddenInstance(bb, inst.truth_elements(), labels)
    image = AbelianOracle.from_handles(moduli, twin, start, gens)
    assert_same_certificate(twin, image, full_grid_oracle(twin, moduli, start, gens))


@pytest.mark.parametrize("encoding", IMAGE_ENCODINGS, ids=lambda e: e[0])
@pytest.mark.parametrize(
    "spec, moduli, gens, box",
    [
        (GroupSpec(2, 2, 5, 1), (64, 2), [(1, 0), (0, 1)], (32, 2)),
        (GroupSpec(2, 2, 5, 1), (32, 4), [(1, 0), (0, 1)], (32, 2)),
        (GroupSpec(3, 3, 3, 1), (27, 27), [(1, 0), (1, 1)], (3, 27)),
        (GroupSpec(7, 3, 2, 1), (49, 3), [(1, 0), (0, 1)], (49, 3)),
    ],
    ids=["2,2,5:64,2", "2,2,5:32,4", "3,3,3:27,27", "7,3,2:49,3"],
)
def test_the_image_route_walks_onto_a_whole_direct_product(spec, moduli, gens, box, encoding):
    # I = G: the box holds every element once, and the oracle is the full grid's
    inst = image_instance(TABLE_INDEX[spec], encoding, 1)
    bb, table, rng = inst.blackbox, inst.blackbox.table, np.random.default_rng(1)
    gen_h = [bb.encode(g) for g in gens]
    for start in handles_of(bb, rng, [0, int(rng.integers(1, table.order))]):
        walk = bb._walk(moduli, start, gen_h)[0]
        assert walk.shape == box and sorted(walk.ravel().tolist()) == list(range(table.order))
        image = AbelianOracle.from_handles(moduli, inst, start, gen_h)
        full = full_grid_oracle(inst, moduli, start, gen_h)
        assert np.array_equal(spread(image.grid, image.kernel, moduli), full.grid)
        assert_same_certificate(inst, image, full)


@pytest.mark.parametrize("t", range(len(IMAGE_TABLES)))
def test_the_image_route_refuses_strangers_and_walks_other_grids_in_full(t):
    inst = image_instance(t, IMAGE_ENCODINGS[0], 0)
    bb, table, rng = inst.blackbox, inst.blackbox.table, np.random.default_rng(t)
    g1 = next(i for i in rng.permutation(table.order).tolist() if element_order(table, i) > 2)
    n1 = element_order(table, g1)
    mover = next(  # an element that does not commute with g_1, if there is one
        (i for i in range(table.order) if table.imul(g1, i) != table.imul(i, g1)), None
    )
    foreign = BlackBox(table, rng=np.random.default_rng(99))._handle(g1, 0)
    e, g1h = handles_of(bb, rng, [0, g1])
    # refused under either encoding, with nothing booked and no salt drawn, from a started block either
    for box_inst in (inst, image_instance.__wrapped__(t, IMAGE_ENCODINGS[1], 0)):
        box = open_block(box_inst.blackbox)
        ue, ug1 = handles_of(box, rng, [0, g1])
        for match, mod, start_h, gen_h in [
            ("unknown encoding", (n1,), foreign, [ug1]),
            ("unknown encoding", (n1, n1), ue, [ug1, foreign]),
            ("one generator handle per modulus", (n1, 2), ue, [ug1]),
        ]:
            before, salts = box_inst.query_stats(), drawn_salts(box)
            with pytest.raises(ValueError, match=match):
                AbelianOracle.from_handles(mod, box_inst, start_h, gen_h)
            assert box_inst.query_stats() == before
            assert drawn_salts(box) == salts
    # a grid with g_d^{n_d} != e, or with generators that do not commute, is its own box
    others = [((n1 - 1,), [g1h]), ((n1, 1), [g1h, g1h])]
    if mover is not None:
        others.append(((n1, element_order(table, mover)), [g1h, *handles_of(bb, rng, [mover])]))
    for mod, gen_h in others:
        walk, kernel = bb._walk(mod, e, gen_h)
        assert kernel is None and walk.shape == mod
        oracle = AbelianOracle.from_handles(mod, inst, e, gen_h)
        assert np.array_equal(oracle.grid, full_grid_oracle(inst, mod, e, gen_h).grid)
    # and the cyclic grid of g_1 itself is walked on <g_1>, one point per element
    walk, kernel = bb._walk((n1 * 2,), e, [g1h])
    assert kernel == [[n1]] and sorted(walk.tolist()) == sorted(closure(table.imul, 0, [g1]))
