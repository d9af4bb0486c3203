"""Brute-force reference routes.  These must stay independent of the solvers."""

import pytest

from sdhsp.blackbox import make_hidden_instance
from sdhsp.reference import (
    brute_force_hidden_subgroup,
    enumerate_all_subgroups,
    subgroup_equal,
)
from sdhsp.sdp_group import (
    Element,
    ZmGroupSpec,
    enumerate_subgroups,
    modular_group_spec,
    sdp_table,
    subgroup_elements,
    vec_table,
)


def test_brute_force_recovers_planted_subgroup():
    spec = modular_group_spec(3, 2)
    table = sdp_table(spec)
    for desc in enumerate_subgroups(spec):
        H = frozenset(subgroup_elements(spec, desc))
        inst, _ = make_hidden_instance(table, H, seed=3)
        assert brute_force_hidden_subgroup(table, inst.label_of_element) == H


def test_brute_force_rejects_non_periodic_labelings():
    spec = modular_group_spec(3, 2)
    table = sdp_table(spec)
    # constant on right cosets of a non-normal subgroup: not a left-coset hiding
    H = frozenset(subgroup_elements(spec, next(
        d for d in enumerate_subgroups(spec) if d.label() == "xpowery:2"
    )))
    right_rep = {}
    for g in table.elements:
        coset = frozenset(table.mul(h, g) for h in H)
        right_rep[g] = min(coset)
    with pytest.raises(ValueError):
        brute_force_hidden_subgroup(table, lambda g: hash(right_rep[g]))
    # injective-on-elements except a stray duplicate: level sets not cosets
    with pytest.raises(ValueError):
        brute_force_hidden_subgroup(
            table, lambda g: 0 if g in (Element(0, 0), Element(1, 0)) else hash(g)
        )


def test_generic_enumeration_matches_the_taxonomy():
    for (p, r) in [(3, 2), (2, 3), (3, 3)]:
        spec = modular_group_spec(p, r)
        table = sdp_table(spec)
        generic = enumerate_all_subgroups(table)
        taxonomy = {
            frozenset(subgroup_elements(spec, d)) for d in enumerate_subgroups(spec)
        }
        assert len(generic) == len(taxonomy) == 2 * (r + 1) + r * (p - 1)
        assert set(generic) == taxonomy


def test_vector_group_subgroup_counts():
    # regression pins: derived by the generic enumerator itself once,
    # then frozen (orders 1+4+4+1 over |H| in {1,3,9,27} for the first)
    assert len(enumerate_all_subgroups(vec_table(ZmGroupSpec(3, 2, 1)))) == 10
    assert len(enumerate_all_subgroups(vec_table(ZmGroupSpec(2, 3, 1)))) == 11
    assert len(enumerate_all_subgroups(vec_table(ZmGroupSpec(3, 2, 2)))) == 126


def test_enumerated_sets_are_subgroups_and_complete():
    table = vec_table(ZmGroupSpec(3, 2, 1))
    subs = enumerate_all_subgroups(table)
    for H in subs:
        assert table.identity in H
        for g in H:
            assert table.inv(g) in H
            for h in H:
                assert table.mul(g, h) in H
        assert table.order % len(H) == 0  # Lagrange
    # completeness cross-check: every cyclic subgroup appears
    for g in table.elements:
        cyc = set()
        acc = g
        while acc not in cyc:
            cyc.add(acc)
            acc = table.mul(acc, g)
        assert any(H == frozenset(cyc) for H in subs)


def test_subgroup_equal():
    a = frozenset({1, 2, 3})
    assert subgroup_equal(a, set(a))
    assert not subgroup_equal(a, {1, 2})
