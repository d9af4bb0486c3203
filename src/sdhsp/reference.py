"""Brute-force reference implementations.

Everything here works on explicit group tables with full truth access and
serves as the independent route the solvers are checked against.  Nothing
in this module touches handles, oracles or counters.  Both routes run on
element indices with the table's scalar law (``imul``), not the array law
the oracle walk uses, and decode to elements only on return.
"""

from __future__ import annotations

from typing import Any, Callable

from .sdp_group import GroupTable, closure, greedy_generators

BRUTE_FORCE_BOUND = 10**6
ENUMERATION_BOUND = 10**4


def brute_force_hidden_subgroup(table: GroupTable, label_of: Callable[[Any], int]) -> frozenset:
    """The hidden subgroup as the identity's level set, fully validated.

    Requires that label_of is constant on every left coset of some subgroup
    and distinct across cosets; raises if the level-set structure does not
    hold, which flags a broken hiding function rather than guessing.  H, the
    level set of f(e), must close as a subgroup under at most log2 |H|
    greedily picked generators.  Labels constant under right multiplication
    by each generator are constant on every left coset gH, and then a label
    count of |G|/|H| makes them distinct across cosets.  That costs
    O(|G| log |H|) products of the scalar law, one permutation of the
    element indices per generator.
    """
    if table.order > BRUTE_FORCE_BOUND:
        raise ValueError(f"group of order {table.order} exceeds the brute-force bound")
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


def enumerate_all_subgroups(table: GroupTable) -> list[frozenset]:
    """Every subgroup, found by augmentation closure.

    Seed with all cyclic subgroups, then repeatedly extend each known
    subgroup's generating set by one cyclic generator and close.  Any
    subgroup K with a maximal proper subgroup already found is reached by
    augmenting that subgroup with any element of K outside it, so induction
    on order gives completeness at every rank.
    """
    if table.order > ENUMERATION_BOUND:
        raise ValueError(f"group of order {table.order} exceeds the enumeration bound")
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
    # index order is element order, so this is the order of the element sets
    subgroups = sorted(gens_of, key=lambda s: (len(s), sorted(s)))
    return [frozenset(table.elements[i] for i in s) for s in subgroups]


def subgroup_equal(a, b) -> bool:
    return frozenset(a) == frozenset(b)
