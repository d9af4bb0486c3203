"""Solver for Z_{p^r}^m twisted by the near-identity unit."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdhsp.algebra import Lattice, lattice_is_full, lattice_size
from sdhsp.blackbox import oracle_identity, oracle_lift, oracle_pow
from sdhsp.hsp_vector import (
    VecInstance,
    make_vec_instance,
    minimal_generating_set,
    pullback_generators,
    reduce_and_solve,
    solve,
)
from sdhsp.qsim import AbelianOracle
from sdhsp.reference import brute_force_hidden_subgroup, enumerate_all_subgroups
from sdhsp.sdp_group import (
    VecElement,
    ZmGroupSpec,
    closure,
    vec_elements,
    vec_table,
)

S321 = ZmGroupSpec(3, 2, 1)
S322 = ZmGroupSpec(3, 2, 2)


def subgroup_of(spec, gens):
    table = vec_table(spec)
    return frozenset(closure(table.mul, table.identity, gens))


def test_spec_validation():
    with pytest.raises(ValueError):
        ZmGroupSpec(2, 2, 1)  # collapses to a dihedral action
    with pytest.raises(ValueError):
        ZmGroupSpec(3, 1, 1)
    with pytest.raises(ValueError):
        ZmGroupSpec(4, 2, 1)
    with pytest.raises(ValueError):
        ZmGroupSpec(3, 2, 0)
    assert S322.alpha == 4 and S322.order == 3**5


def test_vec_arithmetic_basics():
    table = vec_table(S321)
    e = table.identity
    g = VecElement((1,), 1)
    assert table.mul(g, table.inv(g)) == e
    assert table.mul(table.inv(g), g) == e
    # y acts on the vector part by multiplication with alpha = 4
    y = VecElement((0,), 1)
    x = VecElement((1,), 0)
    yxy_inv = table.mul(table.mul(y, x), table.inv(y))
    assert yxy_inv == VecElement((4,), 0)


def test_vec_associativity_random():
    rng = np.random.default_rng(55)
    els = vec_elements(S322)
    mul = vec_table(S322).mul
    for _ in range(4000):
        a, b, c = (els[int(rng.integers(0, len(els)))] for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_mixed_power_identity_via_oracles():
    # (g y)^c = g^(c + C(c,2) p^{r-1}) y^c for g in the vector part
    spec = S321
    table = vec_table(spec)
    vin = make_vec_instance(spec, [table.identity], seed=8)
    bb = vin.blackbox
    e = bb.encode(table.identity)
    p, n = spec.p, spec.modulus
    for a in range(n):
        g = VecElement((a,), 0)
        gy = table.mul(g, VecElement((0,), 1))
        h = bb.encode(gy)
        for c in range(p + 1):
            got = bb.reveal(oracle_pow(bb, h, c, e))
            exp = (a * (c + (c * (c - 1) // 2) * p ** (spec.r - 1))) % n
            assert got == VecElement((exp,), c % p)


def test_vec_subgroup_closure():
    got = subgroup_of(S321, [VecElement((3,), 1)])
    assert set(got) == {
        VecElement((0,), 0),
        VecElement((3,), 1),
        VecElement((6,), 2),
    }


def test_make_vec_instance_reuses_the_table():
    table = vec_table(S322)
    vin = make_vec_instance(table.spec, [table.identity], seed=0)
    assert vin.blackbox.table is table


def test_make_vec_instance_guards():
    with pytest.raises(ValueError):
        make_vec_instance(S321, [vec_table(S321).identity], salts=4, seed=0)


def test_scrambled_handles_still_form_a_basis_probe():
    for seed in range(8):
        vin = make_vec_instance(
            S322, [vec_table(S322).identity], generator_policy="scrambled", seed=seed
        )
        bb = vin.blackbox
        vecs = [bb.reveal(h) for h in vin.a_handles]
        assert all(g.b == 0 for g in vecs)
        rows = tuple(g.a for g in vecs)
        assert lattice_is_full(Lattice((9, 9), rows))
        y = bb.reveal(vin.y_handle)
        assert y.a == (0, 0) and y.b != 0


def test_minimal_generating_set_reduces_redundant_sets():
    rng = np.random.default_rng(61)
    for seed in range(6):
        vin = make_vec_instance(
            S322, [vec_table(S322).identity], generator_policy="scrambled", seed=seed
        )
        rmap, res = minimal_generating_set(vin, rng)
        assert res.confident
        assert len(rmap.gen_handles) == S322.m
        # the reduced generators hit every vector-part element exactly once
        bb = vin.blackbox
        seen = set()
        for u1, u2 in itertools.product(range(9), repeat=2):
            g = bb.reveal(rmap.lift(bb, (u1, u2, 0)))
            assert g.b == 0
            seen.add(g.a)
        assert len(seen) == 81


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_selected_handles_are_a_basis_out_of_the_given_ones(data):
    cells = [S322, ZmGroupSpec(2, 3, 2), ZmGroupSpec(2, 4, 2), ZmGroupSpec(2, 3, 3)]
    spec = data.draw(st.sampled_from(cells))
    n, m = spec.modulus, spec.m
    vin = make_vec_instance(spec, [vec_table(spec).identity], seed=0)
    bb = vin.blackbox
    # s random A-vectors, about one in four of them scaled by p
    s = data.draw(st.sampled_from(range(m + 3)))
    draws = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = np.where(draws.random((s, 1)) < 0.25, spec.p, 1)
    rows = [tuple(int(x) % n for x in row) for row in draws.integers(0, n, (s, m)) * scale]
    given_handles = tuple(bb.encode(VecElement(row, 0)) for row in rows)
    revealed = [bb.reveal(h).a for h in given_handles]
    free = lattice_size(Lattice((n,) * m, revealed)) == n**m
    try:
        rmap, _ = minimal_generating_set(
            VecInstance(vin.instance, given_handles, vin.y_handle), np.random.default_rng(5)
        )
    except ValueError as err:
        assert not free and "do not present a free module" in str(err)
        return
    assert free
    # m of the given handles, in their given order
    rest = iter(given_handles)
    assert len(rmap.gen_handles) == m
    assert all(any(h == g for g in rest) for h in rmap.gen_handles)
    coords = itertools.product(*(range(k) for k in rmap.moduli))
    assert len({bb.reveal(rmap.lift(bb, c)) for c in coords}) == spec.order


def test_reduction_map_is_bijective():
    # pi(u, s) = A(u) y^s must hit every group element exactly once
    rng = np.random.default_rng(62)
    vin = make_vec_instance(S322, [vec_table(S322).identity], generator_policy="scrambled", seed=3)
    rmap, _ = minimal_generating_set(vin, rng)
    bb = vin.blackbox
    seen = set()
    for coords in itertools.product(range(9), range(9), range(3)):
        seen.add(bb.reveal(rmap.lift(bb, coords)))
    assert len(seen) == S322.order == 243


def test_lift_checks_width():
    rng = np.random.default_rng(63)
    vin = make_vec_instance(S321, [vec_table(S321).identity], seed=0)
    rmap, _ = minimal_generating_set(vin, rng)
    with pytest.raises(ValueError):
        rmap.lift(vin.blackbox, (1, 2, 3, 4))


def test_solve_all_subgroups_small():
    for spec in (S321, ZmGroupSpec(2, 3, 1)):
        table = vec_table(spec)
        for sub in enumerate_all_subgroups(table):
            vin = make_vec_instance(spec, sub, seed=19)
            out = solve(vin, rng=np.random.default_rng(20))
            assert frozenset(out.subgroup) == frozenset(sub)
            assert frozenset(out.subgroup) == brute_force_hidden_subgroup(
                table, vin.instance.label_of_element
            )
            assert out.confident
            got = subgroup_of(spec, out.generators)
            assert frozenset(got) == frozenset(sub)


def test_solve_sampled_subgroups_m2():
    table = vec_table(S322)
    subs = enumerate_all_subgroups(table)
    assert len(subs) == 126
    for sub in subs[::9]:
        vin = make_vec_instance(S322, sub, generator_policy="scrambled", seed=23)
        out = solve(vin, rng=np.random.default_rng(24))
        assert frozenset(out.subgroup) == frozenset(sub)


def test_pullback_generators_close_to_the_subgroup():
    from sdhsp.algebra import lattices_equal

    cases = [
        # <x^3 y> meets A trivially; it reads off as <(3, 1)> over (9, 3)
        (S321, [VecElement((3,), 1)], Lattice((9, 3), ((3, 1),))),
        # <x_1 y, x_2^2> meets A in more than <(x_1 y)^2>
        (ZmGroupSpec(2, 3, 2), [VecElement((1, 0), 1), VecElement((0, 2), 0)], None),
    ]
    for spec, gens, want in cases:
        rng = np.random.default_rng(71)
        sub = subgroup_of(spec, gens)
        vin = make_vec_instance(spec, sub, seed=4)
        rmap, _ = minimal_generating_set(vin, rng)
        res = reduce_and_solve(vin, rmap, rng)
        assert res.confident
        assert want is None or lattices_equal(res.lattice, want)
        # H lies outside A: some lattice point has v != 0, so the v-pivot b is 1
        assert any(g[-1] for g in res.lattice.gens)
        handles, ok = pullback_generators(vin, rmap, res.lattice)
        assert ok
        assert len(handles) <= spec.m + 1
        bb = vin.blackbox
        found = [bb.reveal(h) for h in handles]
        assert frozenset(subgroup_of(spec, found)) == frozenset(sub)


def test_pullback_filter_drops_rows_outside_the_subgroup():
    rng = np.random.default_rng(71)
    sub = subgroup_of(S321, [VecElement((3,), 0)])
    vin = make_vec_instance(S321, sub, seed=4)
    rmap, _ = minimal_generating_set(vin, rng)
    # a wrong lattice: the echelon rows of <(3, 0), (0, 1)> lift to y, outside
    # H = <x^3>, and to x^3, inside it
    handles, ok = pullback_generators(vin, rmap, Lattice((9, 3), ((3, 0), (0, 1))))
    assert not ok
    bb = vin.blackbox
    assert [bb.reveal(h) for h in handles] == [VecElement((3,), 0)]


def test_solver_requires_commuting_vector_handles():
    vin = make_vec_instance(S321, [vec_table(S321).identity], seed=0)
    bb = vin.blackbox
    bad = VecInstance(
        instance=vin.instance,
        a_handles=(bb.encode(VecElement((1,), 0)), bb.encode(VecElement((0,), 1))),
        y_handle=vin.y_handle,
    )
    with pytest.raises(ValueError):
        solve(bad, rng=np.random.default_rng(1))


def test_solve_rejects_bad_delta():
    vin = make_vec_instance(S321, [vec_table(S321).identity], seed=0)
    with pytest.raises(ValueError):
        solve(vin, rng=np.random.default_rng(1), delta=2.0)


def classical(inst) -> int:
    q = inst.query_stats()
    return q["mul"] + q["inv"] + q["eq"] + q["f"]


def test_every_pointwise_evaluate_of_a_solve_is_booked(monkeypatch):
    # the relation oracle of minimal_generating_set (handle codes, uint64) and
    # the reduced oracle (labels) both evaluate points; each call is classical work
    real, current = AbelianOracle.evaluate, {}
    unbooked, relation_calls, calls = [], 0, 0

    def watched(oracle, point):
        nonlocal relation_calls, calls
        before = classical(current["inst"])
        value = real(oracle, point)
        calls += 1
        relation_calls += oracle.grid.dtype == np.uint64
        if classical(current["inst"]) == before:
            unbooked.append((oracle.moduli, tuple(point)))
        return value

    monkeypatch.setattr(AbelianOracle, "evaluate", watched)
    for spec in (S321, ZmGroupSpec(2, 3, 1)):
        for seed, sub in enumerate(enumerate_all_subgroups(vec_table(spec))):
            vin = make_vec_instance(spec, sub, generator_policy="scrambled", seed=seed)
            current["inst"] = vin.instance
            out = solve(vin, np.random.default_rng(seed))
            assert frozenset(out.subgroup) == sub
    assert relation_calls > 0 and calls > relation_calls
    assert unbooked == []


def test_the_relation_oracle_books_the_products_of_oracle_lift():
    vin = make_vec_instance(S322, [vec_table(S322).identity], generator_policy="scrambled", seed=3)
    bb, gens = vin.blackbox, vin.a_handles
    e = oracle_identity(bb, vin.y_handle)
    oracle = AbelianOracle.from_products((9,) * len(gens), vin.instance, e, gens)
    for u in itertools.product(range(9), repeat=len(gens)):
        before = bb.counters["mul"]
        value = oracle.evaluate(u)
        booked = bb.counters["mul"] - before
        h = oracle_lift(bb, e, gens, u)
        assert bb.counters["mul"] - before == 2 * booked
        assert h.code == value


def test_the_relation_oracle_is_built_on_a_not_on_its_grid():
    # two A-handles of (2,10,1) span a relation grid of (2^10)^2 points, but
    # the walk covers A = Z_1024 alone: the build's peak memory is O(|A|)
    spec = ZmGroupSpec(2, 10, 1)
    vin = make_vec_instance(spec, [vec_table(spec).identity], seed=0)
    bb = vin.blackbox
    e = oracle_identity(bb, vin.y_handle)
    gens = [bb.encode(VecElement((a,), 0)) for a in (6, 1)]
    AbelianOracle.from_products((8, 8), vin.instance, e, gens)  # numpy's first-use allocations
    tracemalloc.start()
    try:
        oracle = AbelianOracle.from_products((1024, 1024), vin.instance, e, gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle.grid.size == 1024 and oracle.domain_size == 2**20
    # 8 bytes per grid point would be 8 MB; this is under 256 bytes per element of A
    assert peak <= 256 * 1024
    assert bb.counters["walk_mul"] == 2**20 - 1 + 63
