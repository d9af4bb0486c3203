"""Brute-force reference routes.  These must stay independent of the solvers."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from test_blackbox import symmetric_group_table

from sdhsp import reference
from sdhsp.acceptance import MODULAR_GRID, MODULAR_GRID_WIDE, VECTOR_GRID
from sdhsp.blackbox import make_hidden_instance
from sdhsp.reference import (
    brute_force_hidden_subgroup,
    enumerate_all_subgroups,
    subgroup_equal,
)
from sdhsp.sdp_group import (
    Element,
    GroupSpec,
    ZmGroupSpec,
    _law,
    _twist,
    closure,
    enumerate_subgroups,
    greedy_generators,
    modular_group_spec,
    sdp_table,
    subgroup_elements,
    vec_table,
)


def table_of(spec):
    return vec_table(spec) if isinstance(spec, ZmGroupSpec) else sdp_table(spec)


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


def reference_brute_force(table, label_of):
    """The |G| * |H| loop the brute force replaced: every product g*h, h in H."""
    labels = [label_of(g) for g in table.elements]
    H = [h for h, lab in enumerate(labels) if lab == labels[0]]
    for g, base in enumerate(labels):
        for h in H:
            if labels[table.imul(g, h)] != base:
                raise ValueError("f is not H-periodic")
    if len(set(labels)) * len(H) != table.order:
        raise ValueError("f is not H-periodic")
    return frozenset(table.elements[h] for h in H)


def per_generator_brute_force(table, label_of):
    """The route the derived permutations replaced: |G| scalar products per generator."""
    labels = [label_of(g) for g in table.elements]
    H = frozenset(h for h, lab in enumerate(labels) if lab == labels[0])
    gens = greedy_generators(table, H)
    if gens is None:
        raise ValueError("f is not H-periodic: the level set of f(e) is no subgroup")
    for h in gens:
        perm = [table.imul(g, h) for g in range(table.order)]
        if any(labels[gh] != lab for gh, lab in zip(perm, labels)):
            raise ValueError("f is not H-periodic: it changes within a left coset of H")
    if len(set(labels)) * len(H) != table.order:
        raise ValueError("f is not H-periodic: two cosets of H share a label")
    return frozenset(table.elements[h] for h in H)


def every_subgroup(spec, table):
    if isinstance(spec, ZmGroupSpec) or not spec.is_modular:
        return enumerate_all_subgroups(table)
    return [frozenset(subgroup_elements(spec, d)) for d in enumerate_subgroups(spec)]


def mutations(table, H, labels):
    """(name, labels) for each broken labelling derived from a planted one."""
    members = sorted(map(table.index, H))
    cosets: dict = {}  # label -> the indices of its left coset, by least member
    for g, lab in enumerate(labels):
        cosets.setdefault(lab, []).append(g)
    order = table.order
    yield "right cosets", [min(table.imul(h, g) for h in members) for g in range(order)]
    for x in range(1, order):
        yield "stray {e, x}", [0 if g in (0, x) else g + 1 for g in range(order)]
    if len(cosets) < 3:
        return
    _, first, second = list(cosets)[:3]
    yield "merged cosets", [first if lab == second else lab for lab in labels]
    if len(members) >= 2:
        outside = cosets[first][0]
        for name, lab in (("fresh label", max(labels) + 1), ("borrowed label", second)):
            yield name, [lab if g == outside else old for g, old in enumerate(labels)]
    # constant on H and on the left cosets of K = <least member of H but e>;
    # the other K-cosets go in blocks of [H:K] by least member, so the label
    # count is that of a hiding by H, yet only a generator outside K sees it
    K = closure(table.imul, 0, members[1:2])
    if len(K) < len(members):
        least = [min(table.imul(g, k) for k in K) for g in range(order)]
        outer = sorted(set(least) - set(members))
        block = {c: 1 + j * len(K) // len(members) for j, c in enumerate(outer)}
        yield "periodic under a smaller subgroup", [block.get(c, 0) for c in least]


def outcome(route, table, labels):
    """The subgroup a route returns, or that it raised (the loop gives no detail)."""
    try:
        return route(table, lambda g: labels[table.index(g)])
    except ValueError as exc:
        return f"raises: {str(exc).split(':')[0]}"


@pytest.mark.parametrize(
    "spec",
    [
        modular_group_spec(3, 2),
        modular_group_spec(2, 3),
        modular_group_spec(3, 3),
        ZmGroupSpec(2, 3, 1),
        GroupSpec(2, 2, 3, 7),
        ZmGroupSpec(3, 2, 2),
    ],
    ids=["3,2", "2,3", "3,3", "2,3,1", "D16", "3,2,2"],
)
def test_brute_force_matches_the_all_products_loop(spec):
    table = table_of(spec)
    raised = set()
    seen = set()  # the stray mutations are the same for every H: each runs once
    for H in every_subgroup(spec, table):
        inst, _ = make_hidden_instance(table, H, seed=5)
        labels = [inst.label_of_element(g) for g in table.elements]
        assert brute_force_hidden_subgroup(table, inst.label_of_element) == H
        assert reference_brute_force(table, inst.label_of_element) == H
        for name, broken in mutations(table, H, labels):
            if tuple(broken) in seen:
                continue
            seen.add(tuple(broken))
            new = outcome(brute_force_hidden_subgroup, table, broken)
            assert new == outcome(reference_brute_force, table, broken), (H, name)
            assert new == outcome(per_generator_brute_force, table, broken), (H, name)
            if isinstance(new, str):
                raised.add(name)
    assert raised == {
        "right cosets",
        "stray {e, x}",
        "merged cosets",
        "fresh label",
        "borrowed label",
        "periodic under a smaller subgroup",
    }


def test_each_check_of_the_brute_force_catches_its_own_fault():
    spec = modular_group_spec(3, 2)
    table = sdp_table(spec)
    H = frozenset(subgroup_elements(spec, next(
        d for d in enumerate_subgroups(spec) if d.label() == "xpowery:2"
    )))  # order 3, index 9
    inst, _ = make_hidden_instance(table, H, seed=5)
    labels = [inst.label_of_element(g) for g in table.elements]
    broken = dict(mutations(table, H, labels))

    def run(name):
        return brute_force_hidden_subgroup(table, lambda g: broken[name][table.index(g)])

    # constant on cosets, one label short: only the count sees it
    with pytest.raises(ValueError, match="two cosets of H share a label"):
        run("merged cosets")
    # one element moved into another coset's label: the count still holds
    assert len(set(broken["borrowed label"])) * len(H) == table.order
    with pytest.raises(ValueError, match="changes within a left coset"):
        run("borrowed label")
    with pytest.raises(ValueError, match="changes within a left coset"):
        run("fresh label")
    with pytest.raises(ValueError, match="no subgroup"):
        run("stray {e, x}")


# every element h of groups with q != p (S3 and Z_7 x| Z_3), alpha = -1 (S3
# and D16) and m = 2; then random h of the largest cells of both families,
# m = 3 among them
EVERY_H = [
    modular_group_spec(3, 2),
    GroupSpec(3, 2, 1, 2),
    GroupSpec(2, 2, 3, 7),
    GroupSpec(7, 3, 1, 2),
    ZmGroupSpec(3, 2, 2),
]
RANDOM_H = [modular_group_spec(2, 10), modular_group_spec(5, 4), ZmGroupSpec(3, 2, 3), ZmGroupSpec(2, 5, 2)]


@pytest.mark.parametrize(
    "spec, draws",
    [(spec, None) for spec in EVERY_H] + [(spec, 100) for spec in RANDOM_H],
    ids=["3,2", "S3", "D16", "7:3", "3,2,2", "2,10", "5,4", "3,2,3", "2,5,2"],
)
def test_derived_right_multiplication_is_the_scalar_law(spec, draws):
    table = table_of(spec)
    G = range(table.order)
    hs = G if draws is None else np.random.default_rng(16).integers(0, table.order, draws).tolist()
    for h in hs:
        want = [table.imul(g, h) for g in G]
        assert reference._right_multiplication(table, h).tolist() == want, table.elements[h]


SWEEP_CELLS = [modular_group_spec(p, r) for p, r in MODULAR_GRID + MODULAR_GRID_WIDE] + [
    ZmGroupSpec(*cell) for cell in VECTOR_GRID
]


def cell_id(spec):
    return ",".join(map(str, (spec.p, spec.r, spec.m) if isinstance(spec, ZmGroupSpec) else (spec.p, spec.r)))


def check_generator_permutations(perms, imul, std, points):
    """R_s[g] == imul(g, s) at every point g for each standard generator s, and a
    single wrong entry of any R_s, at any point checked, is one mismatch."""
    points = np.asarray(points)
    wants = [np.array([imul(g, s) for g in points.tolist()]) for s in std]
    assert [np.count_nonzero(R[points] != want) for R, want in zip(perms, wants)] == [0] * len(std)
    for k, (R, want) in enumerate(zip(perms, wants)):
        g = points[(k * 7919) % points.size]
        wrong = R.copy()
        wrong[g] = (wrong[g] + 1) % R.size
        assert np.count_nonzero(wrong[points] != want) == 1


@pytest.mark.parametrize("spec", SWEEP_CELLS, ids=cell_id)
def test_generator_permutations_are_right_multiplication_on_every_element(spec, monkeypatch):
    table = table_of(spec)
    monkeypatch.setattr(reference, "_GENERATOR_PERMUTATIONS", {})
    perms = reference._generator_permutations(table)
    std = [table.index(s) for s in table.standard_generators]
    check_generator_permutations(perms, table.imul, std, range(table.order))


@pytest.mark.parametrize("spec", [modular_group_spec(7, 6), ZmGroupSpec(7, 2, 3)], ids=cell_id)
def test_generator_permutations_on_a_fixed_sample_of_a_large_cell(spec, monkeypatch):
    # |G| = 823,543: the law alone, without the table's element tuples
    n, m = spec.modulus, getattr(spec, "m", 1)
    q = spec.order // n**m
    pw = tuple(pow(spec.alpha, b, n) for b in range(q))
    imul = _law(n, m, q, pw, _twist(n, m, q, pw))[0]
    monkeypatch.setattr(reference, "_GENERATOR_PERMUTATIONS", {})
    perms = reference._generator_permutations(SimpleNamespace(spec=spec, order=spec.order))
    std = [q * n ** (m - 1 - i) for i in range(m)] + [1]  # the indices of x_1..x_m and y
    check_generator_permutations(perms, imul, std, np.random.default_rng(6).integers(0, spec.order, 3000))


def test_generator_permutations_read_neither_law(monkeypatch):
    def refuse(*args):
        raise AssertionError("the table's law was called")

    for spec in (modular_group_spec(3, 3), ZmGroupSpec(3, 2, 2)):
        table = table_of(spec)
        monkeypatch.setattr(reference, "_GENERATOR_PERMUTATIONS", {})
        blind = dataclasses.replace(table, imul=refuse, index_mul=refuse, iinv=refuse)
        std = [table.index(s) for s in table.standard_generators]
        check_generator_permutations(reference._generator_permutations(blind), table.imul, std, range(table.order))


@pytest.mark.parametrize("spec", [modular_group_spec(3, 3), ZmGroupSpec(3, 2, 2)], ids=["3,3", "3,2,2"])
def test_brute_force_never_calls_the_array_law(spec, monkeypatch):
    table = table_of(spec)

    def generator_count(S):
        return len(greedy_generators(table, frozenset(map(table.index, S))))

    proper = [S for S in every_subgroup(spec, table) if len(S) < table.order]
    H = max(proper, key=generator_count)
    inst, _ = make_hidden_instance(table, H, seed=2)

    def refuse(i, j):
        raise AssertionError("index_mul was called")

    monkeypatch.setattr(reference, "_GENERATOR_PERMUTATIONS", {})  # built on the blind table
    blind = dataclasses.replace(table, index_mul=refuse)
    assert brute_force_hidden_subgroup(blind, inst.label_of_element) == H


def test_a_table_outside_both_families_is_refused():
    table = symmetric_group_table(3)
    for label_of in (lambda g: 0, table.index):  # hidden by G, and by the trivial subgroup
        with pytest.raises(ValueError, match="neither group family"):
            brute_force_hidden_subgroup(table, label_of)


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


def closure_enumeration(table):
    """Every subgroup by augmentation closure, the route cyclic extension replaced.

    Seed with all cyclic subgroups, then repeatedly extend each known
    subgroup's generating set by one cyclic generator and close, on the
    scalar law.  Any subgroup K with a maximal proper subgroup already found
    is reached by augmenting that subgroup with any element of K outside it,
    so induction on order gives completeness in any finite group.
    """
    cyc: dict[frozenset, int] = {}
    for g in range(table.order):
        cyc.setdefault(frozenset(closure(table.imul, 0, (g,))), g)
    reps = [g for g in cyc.values() if g != 0]
    gens_of: dict[frozenset, tuple] = {frozenset([0]): ()}
    for S, g in cyc.items():
        gens_of.setdefault(S, (g,))
    queue = list(gens_of)
    while queue:
        H = queue.pop()
        base = gens_of[H]
        for g in reps:
            if g in H:
                continue
            K = frozenset(closure(table.imul, 0, base + (g,)))
            if K not in gens_of:
                gens_of[K] = base + (g,)
                queue.append(K)
    subgroups = sorted(gens_of, key=lambda s: (len(s), sorted(s)))
    return [frozenset(table.elements[i] for i in s) for s in subgroups]


@pytest.mark.parametrize(
    "spec",
    [
        ZmGroupSpec(3, 2, 1),
        ZmGroupSpec(2, 3, 1),
        ZmGroupSpec(5, 2, 1),
        ZmGroupSpec(3, 3, 1),
        ZmGroupSpec(2, 3, 2),
        modular_group_spec(3, 2),
        modular_group_spec(2, 3),
        modular_group_spec(3, 3),
        modular_group_spec(5, 2),
        modular_group_spec(2, 4),
        # dihedral and semidihedral: unlike the groups above, they hold a g
        # outside U with g^p in U that does not normalise U
        modular_group_spec(2, 2),
        GroupSpec(2, 2, 3, 7),
        GroupSpec(2, 2, 3, 3),
    ],
    ids=["3,2,1", "2,3,1", "5,2,1", "3,3,1", "2,3,2"]
    + ["3,2", "2,3", "3,3", "5,2", "2,4", "D8", "D16", "SD16"],
)
def test_cyclic_extension_matches_the_closure_route(spec):
    assert enumerate_all_subgroups(table_of(spec)) == closure_enumeration(table_of(spec))


def test_vector_group_subgroup_counts():
    # regression pins: derived by the closure route once, then frozen
    # (orders 1+4+4+1 over |H| in {1,3,9,27} for the first); the closure
    # route also gave 322 for (2,4,2), in about 20 s, and the last two
    # come from cyclic extension alone
    for cell, count in [
        ((3, 2, 1), 10),
        ((2, 3, 1), 11),
        ((3, 2, 2), 126),
        ((2, 4, 2), 322),
        ((5, 2, 2), 426),
        ((2, 5, 2), 696),
    ]:
        assert len(enumerate_all_subgroups(vec_table(ZmGroupSpec(*cell)))) == count, cell


def test_enumeration_refuses_a_group_that_is_not_a_p_group():
    # Z_7 x| Z_3, order 21: cyclic extension would find only its 7-subgroups
    table = sdp_table(GroupSpec(7, 3, 1, 2))
    with pytest.raises(ValueError, match="not a 7-group"):
        enumerate_all_subgroups(table)


def test_enumeration_refuses_a_group_with_too_many_subgroups(monkeypatch):
    # (2,3,2) has order 128 and 140 subgroups: a bound of 139 admits the
    # order and stops the enumeration at its 140th subgroup
    table = vec_table(ZmGroupSpec(2, 3, 2))
    monkeypatch.setattr(reference, "ENUMERATION_BOUND", 139)
    with pytest.raises(ValueError, match="group of order 128 has over 139 subgroups"):
        enumerate_all_subgroups(table)
    monkeypatch.setattr(reference, "ENUMERATION_BOUND", 140)
    assert len(enumerate_all_subgroups(table)) == 140


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
