"""Solver for Z_{p^r}^m twisted by the near-identity unit."""

import itertools

import numpy as np
import pytest

from sdhsp.algebra import lattice_is_full, Lattice
from sdhsp.blackbox import oracle_pow
from sdhsp.hsp_vector import (
    ReductionMap,
    VecInstance,
    make_vec_instance,
    minimal_generating_set,
    pullback_generators,
    reduce_and_solve,
    solve,
)
from sdhsp.reference import brute_force_hidden_subgroup, enumerate_all_subgroups
from sdhsp.sdp_group import (
    VecElement,
    ZmGroupSpec,
    closure,
    vec_compose,
    vec_elements,
    vec_identity,
    vec_invert,
    vec_table,
)

S321 = ZmGroupSpec(3, 2, 1)
S322 = ZmGroupSpec(3, 2, 2)


def subgroup_of(spec, gens):
    return frozenset(closure(lambda g, h: vec_compose(spec, g, h), vec_identity(spec), gens))


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
    e = vec_identity(S321)
    g = VecElement((1,), 1)
    assert vec_compose(S321, g, vec_invert(S321, g)) == e
    assert vec_compose(S321, vec_invert(S321, g), g) == e
    # y acts on the vector part by multiplication with alpha = 4
    y = VecElement((0,), 1)
    x = VecElement((1,), 0)
    yxy_inv = vec_compose(S321, vec_compose(S321, y, x), vec_invert(S321, y))
    assert yxy_inv == VecElement((4,), 0)


def test_vec_associativity_random():
    rng = np.random.default_rng(55)
    els = vec_elements(S322)
    for _ in range(4000):
        a, b, c = (els[int(rng.integers(0, len(els)))] for _ in range(3))
        assert vec_compose(S322, vec_compose(S322, a, b), c) == vec_compose(
            S322, a, vec_compose(S322, b, c)
        )


def test_mixed_power_identity_via_oracles():
    # (g y)^c = g^(c + C(c,2) p^{r-1}) y^c for g in the vector part
    spec = S321
    table = vec_table(spec)
    vin = make_vec_instance(spec, [vec_identity(spec)], seed=8)
    bb = vin.blackbox
    e = bb.encode(vec_identity(spec))
    p, n = spec.p, spec.modulus
    for a in range(n):
        g = VecElement((a,), 0)
        gy = vec_compose(spec, g, VecElement((0,), 1))
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
    vin = make_vec_instance(table.spec, [vec_identity(S322)], seed=0)
    assert vin.blackbox.table is table


def test_make_vec_instance_guards():
    with pytest.raises(ValueError):
        make_vec_instance(S321, [vec_identity(S321)], mode="salted", seed=0)


def test_scrambled_handles_still_form_a_basis_probe():
    for seed in range(8):
        vin = make_vec_instance(
            S322, [vec_identity(S322)], generator_policy="scrambled", seed=seed
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
            S322, [vec_identity(S322)], generator_policy="scrambled", seed=seed
        )
        rmap, info = minimal_generating_set(vin, rng)
        assert info["confident"]
        assert len(rmap.gen_handles) == S322.m
        # the reduced generators hit every vector-part element exactly once
        bb = vin.blackbox
        seen = set()
        for u1, u2 in itertools.product(range(9), repeat=2):
            g = bb.reveal(rmap.lift(bb, (u1, u2, 0)))
            assert g.b == 0
            seen.add(g.a)
        assert len(seen) == 81


def test_reduction_map_is_bijective():
    # pi(u, s) = A(u) y^s must hit every group element exactly once
    rng = np.random.default_rng(62)
    vin = make_vec_instance(S322, [vec_identity(S322)], generator_policy="scrambled", seed=3)
    rmap, _ = minimal_generating_set(vin, rng)
    bb = vin.blackbox
    seen = set()
    for coords in itertools.product(range(9), range(9), range(3)):
        seen.add(bb.reveal(rmap.lift(bb, coords)))
    assert len(seen) == S322.order == 243


def test_lift_checks_width():
    rng = np.random.default_rng(63)
    vin = make_vec_instance(S321, [vec_identity(S321)], seed=0)
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

    rng = np.random.default_rng(71)
    sub = subgroup_of(S321, [VecElement((3,), 1)])
    vin = make_vec_instance(S321, sub, seed=4)
    rmap, _ = minimal_generating_set(vin, rng)
    res = reduce_and_solve(vin, rmap, rng)
    assert res.confident
    # hidden <x^3 y> reads off as the coordinate line <(3, 1)> over (9, 3)
    assert lattices_equal(res.lattice, Lattice((9, 3), ((3, 1),)))
    handles, ok = pullback_generators(vin, rmap, res.lattice, rng)
    assert ok
    bb = vin.blackbox
    gens = [bb.reveal(h) for h in handles]
    assert frozenset(subgroup_of(S321, gens)) == frozenset(sub)


def test_solver_requires_commuting_vector_handles():
    vin = make_vec_instance(S321, [vec_identity(S321)], seed=0)
    bb = vin.blackbox
    bad = VecInstance(
        instance=vin.instance,
        a_handles=(bb.encode(VecElement((1,), 0)), bb.encode(VecElement((0,), 1))),
        y_handle=vin.y_handle,
    )
    with pytest.raises(ValueError):
        solve(bad, rng=np.random.default_rng(1))


def test_solve_rejects_bad_delta():
    vin = make_vec_instance(S321, [vec_identity(S321)], seed=0)
    with pytest.raises(ValueError):
        solve(vin, rng=np.random.default_rng(1), delta=2.0)
