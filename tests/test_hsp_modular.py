"""Solver for the rank-one modular groups, against the brute-force route."""

from itertools import product

import numpy as np
import pytest

from sdhsp.algebra import Lattice, closure, lattices_equal
from sdhsp.blackbox import make_hidden_instance, oracle_pow
from sdhsp.hsp_modular import (
    SpecialPair,
    find_shift,
    find_special_pair,
    shifted_generator,
    solve,
)
from sdhsp.reference import brute_force_hidden_subgroup
from sdhsp.sdp_group import (
    Element,
    GroupSpec,
    SubgroupDesc,
    enumerate_subgroups,
    modular_group_spec,
    sdp_table,
    subgroup_elements,
)

P32 = modular_group_spec(3, 2)
GENERATORS = ("canonical", "scrambled")


def element_order(spec, e):
    return len(closure(sdp_table(spec).mul, Element(0, 0), (e,)))


def instance_for(spec, desc, **kw):
    table = sdp_table(spec)
    truth = frozenset(subgroup_elements(spec, desc))
    inst, handles = make_hidden_instance(table, truth, **kw)
    return table, truth, inst, handles


def test_find_special_pair_canonical():
    _, _, inst, handles = instance_for(P32, enumerate_subgroups(P32)[0], seed=1)
    bb = inst.blackbox
    pair = find_special_pair(bb, handles)
    x = bb.reveal(pair.x)
    y = bb.reveal(pair.y)
    assert element_order(P32, x) == 9
    assert bb.reveal(pair.identity) == Element(0, 0)
    # the partner must not commute with x
    gy, yg = (
        bb.table.mul(x, y),
        bb.table.mul(y, x),
    )
    assert gy != yg


def test_find_special_pair_scrambled_seeds():
    for spec in (P32, modular_group_spec(2, 4), modular_group_spec(5, 2)):
        for seed in range(5):
            _, _, inst, handles = instance_for(
                spec, enumerate_subgroups(spec)[0], generator_policy="scrambled", seed=seed
            )
            bb = inst.blackbox
            pair = find_special_pair(bb, handles)
            assert element_order(spec, bb.reveal(pair.x)) == spec.modulus
            x, y = bb.reveal(pair.x), bb.reveal(pair.y)
            assert bb.table.mul(x, y) != bb.table.mul(y, x)


def test_find_special_pair_error_paths():
    _, _, inst, handles = instance_for(P32, enumerate_subgroups(P32)[0], seed=1)
    bb = inst.blackbox
    with pytest.raises(ValueError):
        find_special_pair(bb, [])
    # toy boxes whose handles cannot supply a maximal-order element
    only_low = [bb.encode(Element(3, 0)), bb.encode(Element(0, 1))]
    with pytest.raises(ValueError):
        find_special_pair(bb, only_low)
    commuting = [bb.encode(Element(1, 0)), bb.encode(Element(3, 0))]
    with pytest.raises(ValueError):
        find_special_pair(bb, commuting)


def test_find_shift_worked_fixture():
    # hidden <x^3 y>; pair X = (1,1), Y = (2,0)
    desc = next(d for d in enumerate_subgroups(P32) if d.label() == "cyclicxy:1,1")
    _, _, inst, _ = instance_for(P32, desc, seed=7)
    bb = inst.blackbox
    pair = SpecialPair(
        x=bb.encode(Element(1, 1)), y=bb.encode(Element(2, 0)), identity=bb.encode(Element(0, 0))
    )
    xp = oracle_pow(bb, pair.x, 3, pair.identity)
    shift, ares = find_shift(inst, pair, xp, np.random.default_rng(3))
    assert ares.confident
    assert lattices_equal(ares.lattice, Lattice((3, 3), ((2, -1 % 3),)))
    assert shift == 2
    # Y' = X^{-2} Y has the bare y generator underneath
    yprime = shifted_generator(bb, pair, shift)
    g = bb.reveal(yprime)
    assert g.b != 0 and element_order(P32, g) == 3


def test_find_shift_full_lattice_means_no_shift():
    # hidden subgroup containing x: F is constant, the lattice is everything
    desc = next(d for d in enumerate_subgroups(P32) if d.label() == "xpower:0")
    _, _, inst, handles = instance_for(P32, desc, seed=7)
    bb = inst.blackbox
    pair = find_special_pair(bb, handles)
    xp = oracle_pow(bb, pair.x, 3, pair.identity)
    shift, _ = find_shift(inst, pair, xp, np.random.default_rng(5))
    assert shift is None
    with pytest.raises(ValueError):
        shifted_generator(bb, pair, None)


def test_solve_small_groups_exhaustive():
    for spec in (P32, modular_group_spec(2, 3)):
        table = sdp_table(spec)
        for desc in enumerate_subgroups(spec):
            truth = frozenset(subgroup_elements(spec, desc))
            inst, handles = make_hidden_instance(table, truth, seed=21)
            out = solve(inst, handles, rng=np.random.default_rng(22))
            assert frozenset(out.subgroup) == truth, desc.label()
            assert frozenset(out.subgroup) == brute_force_hidden_subgroup(
                table, inst.label_of_element
            )
            assert out.confident
            # reported generators really generate what was found
            got = frozenset(subgroup_elements(spec, SubgroupDesc("found", tuple(out.generators))))
            assert got == truth


def test_solve_query_count_stays_modest():
    table = sdp_table(P32)
    total = 0
    for desc in enumerate_subgroups(P32):
        truth = frozenset(subgroup_elements(P32, desc))
        inst, handles = make_hidden_instance(table, truth, seed=2)
        out = solve(inst, handles, rng=np.random.default_rng(3))
        assert frozenset(out.subgroup) == truth
        q = out.report["queries"]
        total = max(total, q["mul"] + q["inv"] + q["eq"] + q["f"])
    assert total <= 10_000


def test_branch_gates_in_report():
    # subgroup without x^p: the quotient branch must not run
    desc = next(d for d in enumerate_subgroups(P32) if d.label() == "xpowery:2")
    _, truth, inst, handles = instance_for(P32, desc, seed=5)
    out = solve(inst, handles, rng=np.random.default_rng(6))
    assert frozenset(out.subgroup) == truth
    stages = {b["name"]: b for b in out.report["stages"]}
    assert not stages["quotient"]["ran"]
    assert stages["inner"]["ran"]
    # subgroup containing x^p: quotient runs
    desc2 = next(d for d in enumerate_subgroups(P32) if d.label() == "xpower:1")
    _, truth2, inst2, handles2 = instance_for(P32, desc2, seed=5)
    out2 = solve(inst2, handles2, rng=np.random.default_rng(6))
    assert frozenset(out2.subgroup) == truth2
    assert {b["name"] for b in out2.report["stages"] if b["ran"]} >= {"quotient"}


def test_involution_branch_covers_the_deep_axis():
    # p=2, <y> at full depth, scrambled generators: the corrected generator
    # can pick up an x-part whose square escapes H.  The inner gate then
    # closes and the small involution subgroup takes over.  Seed chosen so
    # that this actually happens (with canonical generators the shift is
    # exact and the inner branch always suffices).
    spec = modular_group_spec(2, 4)
    table = sdp_table(spec)
    desc = next(d for d in enumerate_subgroups(spec) if d.label() == "xpowery:4")
    truth = frozenset(subgroup_elements(spec, desc))
    inst, handles = make_hidden_instance(
        table, truth, generator_policy="scrambled", seed=0
    )
    out = solve(inst, handles, rng=np.random.default_rng(100))
    assert frozenset(out.subgroup) == truth
    stages = {b["name"]: b for b in out.report["stages"]}
    assert not stages["inner"]["ran"]
    assert stages["involution"]["ran"]
    # and for odd p the involution branch never appears at all
    desc_odd = enumerate_subgroups(P32)[0]
    _, truth_odd, inst_odd, handles_odd = instance_for(P32, desc_odd, seed=1)
    rep = solve(inst_odd, handles_odd, rng=np.random.default_rng(2)).report
    assert "involution" not in {b["name"] for b in rep["stages"]}


def test_group_family_guards():
    spec_dihedral = GroupSpec(2, 2, 2, 3)
    table = sdp_table(spec_dihedral)
    inst, handles = make_hidden_instance(table, frozenset({Element(0, 0)}), seed=0)
    with pytest.raises(ValueError):
        solve(inst, handles, rng=np.random.default_rng(1))
    qhedral = GroupSpec(7, 3, 1, 2)
    table2 = sdp_table(qhedral)
    inst2, handles2 = make_hidden_instance(table2, frozenset({Element(0, 0)}), seed=0)
    with pytest.raises(ValueError):
        solve(inst2, handles2, rng=np.random.default_rng(1))


def test_delta_validation():
    _, _, inst, handles = instance_for(P32, enumerate_subgroups(P32)[0], seed=1)
    with pytest.raises(ValueError):
        solve(inst, handles, rng=np.random.default_rng(1), delta=0.0)
    with pytest.raises(ValueError):
        solve(inst, handles, rng=np.random.default_rng(1), delta=0.7)


def test_salted_fresh_encoding_end_to_end():
    spec = modular_group_spec(2, 4)
    table = sdp_table(spec)
    for desc in enumerate_subgroups(spec)[::3]:
        truth = frozenset(subgroup_elements(spec, desc))
        inst, handles = make_hidden_instance(
            table, truth, mode="salted", salts=4, salt_policy="fresh",
            generator_policy="scrambled", seed=77,
        )
        out = solve(inst, handles, rng=np.random.default_rng(78))
        assert frozenset(out.subgroup) == truth



RECORD_KEYS = [
    "name", "ran", "note", "confident", "rounds", "samples_used", "lattice_gens", "queries"
]
BRANCHES = ("quotient", "inner", "involution")
SKIP_NOTES = {
    "quotient": {"x^p lies outside the hidden subgroup"},
    "inner": {
        "corrected generator's p-th power is outside H",
        "shift unavailable (full relation lattice)",
    },
    "involution": {"no involution found"},
}


def test_every_stage_record_has_the_eight_report_keys():
    kinds = set()  # (branch, "ran") or (branch, the note it was skipped with)
    for p, r in ((2, 3), (2, 4), (3, 2), (3, 3)):
        spec = modular_group_spec(p, r)
        for desc, policy, seed in product(enumerate_subgroups(spec), GENERATORS, range(3)):
            _, truth, inst, handles = instance_for(spec, desc, generator_policy=policy, seed=seed)
            out = solve(inst, handles, rng=np.random.default_rng(seed))
            assert frozenset(out.subgroup) == truth
            for b in out.report["stages"]:
                assert list(b) == RECORD_KEYS
                if b["name"] not in BRANCHES:
                    assert b["ran"] and b["note"] == ""
                elif b["ran"]:
                    assert isinstance(b["confident"], bool)
                    assert b["samples_used"] > 0 and b["rounds"] > 0
                    assert b["note"] == ""
                    kinds.add((b["name"], "ran"))
                else:
                    assert b["confident"] is None
                    assert b["samples_used"] == b["rounds"] == 0
                    assert b["lattice_gens"] == []
                    assert b["note"] in SKIP_NOTES[b["name"]]
                    kinds.add((b["name"], b["note"]))
    # "no involution found" does not occur on these grids, so it is not required
    assert kinds >= {
        ("quotient", "ran"),
        ("quotient", "x^p lies outside the hidden subgroup"),
        ("inner", "ran"),
        ("inner", "corrected generator's p-th power is outside H"),
        ("inner", "shift unavailable (full relation lattice)"),
        ("involution", "ran"),
    }
