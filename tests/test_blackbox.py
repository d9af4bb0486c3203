"""Opaque encodings, oracle bookkeeping, and instance construction."""

import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdhsp import blackbox
from sdhsp.blackbox import (
    SALT_BLOCK,
    BlackBox,
    HiddenInstance,
    OpaqueHandle,
    draw_distinct,
    make_hidden_instance,
    oracle_identity,
    oracle_pow,
)
from sdhsp.qsim import AbelianOracle
from sdhsp.reference import enumerate_all_subgroups
from sdhsp.sdp_group import (
    Element,
    GroupSpec,
    GroupTable,
    ZmGroupSpec,
    closure,
    compose,
    enumerate_subgroups,
    generates,
    modular_group_spec,
    sdp_table,
    subgroup_elements,
    vec_table,
)


def invert(spec, g):
    return sdp_table(spec).inv(g)


def fresh_box(salts=1, salt_policy="zero", seed=0):
    table = sdp_table(modular_group_spec(3, 2))
    return table, BlackBox(table, salts=salts, salt_policy=salt_policy, rng=np.random.default_rng(seed))


def per_handle_draws(rng, order, salts):
    """The per-handle loop the one-draw table replaced: handle bytes -> element index."""
    decode = {}
    for i in range(order):
        for _ in range(salts):
            h = rng.bytes(8)
            while h in decode:
                h = rng.bytes(8)
            decode[h] = i
    return decode


def assert_decodes_to_rows(bb, decode):
    """Every handle of ``per_handle_draws``, in draw order, decodes to its row:
    every other one after ``_handle`` issued it, the rest through the scan."""
    for k, (data, i) in enumerate(decode.items()):
        if k % 2:
            assert bb._handle(i, k % bb.salts).data == data
        assert bb._decode_index(OpaqueHandle(data)) == i == k // bb.salts


@pytest.mark.parametrize("salts", [1, 4, 16])
@pytest.mark.parametrize(
    "table",
    [
        sdp_table(modular_group_spec(3, 2)),
        sdp_table(modular_group_spec(2, 10)),
        vec_table(ZmGroupSpec(2, 3, 2)),
    ],
    ids=["3,2", "2,10", "2,3,2"],
)
def test_one_draw_table_matches_the_per_handle_loop(table, salts):
    ref_rng, rng = np.random.default_rng(salts), np.random.default_rng(salts)
    decode = per_handle_draws(ref_rng, table.order, salts)
    bb = BlackBox(table, salts=salts, rng=rng)
    assert_decodes_to_rows(bb, decode)
    expected = np.frombuffer(b"".join(decode), dtype=">u8").reshape(table.order, salts)
    assert np.array_equal(bb.codes, expected)
    assert rng.bytes(64) == ref_rng.bytes(64)


class ScriptedBytes:
    """A generator stub that hands out a fixed byte stream and logs each draw."""

    def __init__(self, values):
        self.stream = b"".join(v.to_bytes(8, "big") for v in values)
        self.pos = 0
        self.draws = []

    def bytes(self, n):
        self.draws.append(n)
        self.pos += n
        if self.pos > len(self.stream):
            raise RuntimeError("scripted byte stream exhausted")
        return self.stream[self.pos - n : self.pos]


def test_repeated_handles_are_topped_up_like_the_per_handle_loop():
    # 27 handles wanted: the first draw repeats 1 and 2, the first top-up
    # repeats 26 within itself, the second repeats 3; the third completes
    values = [1, 2, 1, 3, 2, *range(4, 26), 26, 26, 3, 27]
    table = sdp_table(modular_group_spec(3, 2))
    ref, stub = ScriptedBytes(values), ScriptedBytes(values)
    decode = per_handle_draws(ref, table.order, 1)
    bb = BlackBox(table, rng=stub)
    assert stub.draws == [27 * 8, 16, 8, 8]
    assert_decodes_to_rows(bb, decode)
    assert bb.codes[:, 0].tolist() == list(range(1, 28))
    assert stub.pos == ref.pos == len(stub.stream)


class ScriptedIntegers:
    """A generator stub whose ``integers`` hands out a fixed value stream and logs each draw."""

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0
        self.draws = []

    def integers(self, low, high, size=None):
        n = 1 if size is None else size
        self.draws.append(n)
        self.pos += n
        if self.pos > len(self.values):
            raise RuntimeError("scripted value stream exhausted")
        out = self.values[self.pos - n : self.pos]
        return out[0] if size is None else np.array(out)


def per_value_draws(rng, k):
    """The per-value loop ``draw_distinct`` stands for: one draw per value,
    redrawn while it repeats an earlier one."""
    want: list = []
    for _ in range(k):
        value = rng.integers(0, 2**63)
        while value in want:
            value = rng.integers(0, 2**63)
        want.append(value)
    return want


def test_distinct_draws_redraw_only_the_shortfall_like_the_per_value_loop():
    # 5 values wanted: the first draw repeats 5 and 7, the top-up repeats 7
    values = [5, 7, 5, 9, 7, 7, 11, 12]
    stub, ref = ScriptedIntegers(values), ScriptedIntegers(values)
    got = draw_distinct(lambda n: stub.integers(0, 2**63, size=n), 5)
    assert got.tolist() == per_value_draws(ref, 5) == [5, 7, 9, 11, 12]
    assert stub.draws == [5, 2, 1]
    assert stub.pos == ref.pos == len(values)


@given(st.integers(1, 12), st.lists(st.integers(0, 7), max_size=40))
@settings(max_examples=300, deadline=None)
def test_distinct_draws_match_the_per_value_loop(k, head):
    # values from 0..7 repeat often, also between a top-up and earlier
    # draws; the fresh tail makes k distinct values reachable
    values = head + list(range(8, 8 + k))
    stub, ref = ScriptedIntegers(values), ScriptedIntegers(values)
    got = draw_distinct(lambda n: stub.integers(0, 2**63, size=n), k)
    assert got.tolist() == per_value_draws(ref, k)
    # each draw asks for exactly the shortfall left by the ones before it
    sizes, pos = [], 0
    while (distinct := len(set(values[:pos]))) < k:
        sizes.append(k - distinct)
        pos += sizes[-1]
    assert stub.draws == sizes
    assert stub.pos == ref.pos == pos


@pytest.mark.parametrize("salts", [1, 2])
def test_handles_ending_in_zero_bytes_round_trip(salts):
    # every scripted code ends in a zero byte; 0x01 << 56 and 0 end in seven and eight
    table = sdp_table(modular_group_spec(3, 2))
    rest = [v << 8 for v in range(3, table.order * salts)]
    half = len(rest) // 2
    values = [0x0100000000000000, *rest[:half], 0x0000000000000100, *rest[half:], 0]
    bb = BlackBox(table, salts=salts, rng=ScriptedBytes(values))
    assert bb.codes.ravel().tolist() == values
    for i, g in enumerate(table.elements):
        for salt in range(salts):
            h = bb.encode(g, salt)
            assert h.data == values[i * salts + salt].to_bytes(8, "big")
            assert bb._decode_index(h) == i
            assert bb.reveal(h) == g


def test_the_decode_map_holds_only_the_handles_issued():
    table, bb = fresh_box(salts=4, salt_policy="fresh", seed=3)
    assert bb._decode_map == {}
    x, y = bb.encode(table.elements[5], 2), bb.encode(table.elements[7])
    xy, x_inv = bb.oracle_mul(x, y), bb.oracle_inv(x)
    assert not bb.oracle_eq(x, y)  # eq issues nothing
    rows = [5, 7, table.imul(5, 7), table.iinv(5)]
    assert bb._decode_map == {h.data: i for h, i in zip((x, y, xy, x_inv), rows)}
    inst, handles = make_hidden_instance(table, [Element(0, 0)], "salted", 4, "fresh", "scrambled")
    assert set(inst.blackbox._decode_map) == {h.data for h in handles}


@pytest.mark.parametrize("row, salt", [(0, 0), (13, 1), (26, 3)])
def test_a_code_never_issued_decodes_through_the_scan(row, salt):
    table, bb = fresh_box(salts=4, seed=5)
    h = OpaqueHandle(int(bb.codes[row, salt]).to_bytes(8, "big"))
    assert bb.reveal(h) == table.elements[row]
    assert bb._decode_map == {h.data: row}  # recorded: the next decode is a hit
    assert bb.oracle_eq(h, bb.encode(table.elements[row]))


@pytest.mark.parametrize(
    "kind",
    ["foreign", "7 bytes", "9 bytes", "bytes", "None", "int", "str data", "bytearray data", "int data"],
)
def test_a_stranger_is_refused_without_touching_the_decode_map(kind):
    table, bb = fresh_box(salts=4, seed=5)
    valid = bb.encode(table.elements[4], 1)
    bad = {
        "foreign": fresh_box(salts=4, seed=6)[1].encode(table.elements[4], 1),
        "7 bytes": OpaqueHandle(valid.data[1:]),
        "9 bytes": OpaqueHandle(b"\x00" + valid.data),
        "bytes": valid.data,
        "None": None,
        "int": valid.code,
        # handles whose data is not bytes: 8 characters, a valid code's bytes, a number
        "str data": OpaqueHandle("12345678"),
        "bytearray data": OpaqueHandle(bytearray(valid.data)),
        "int data": OpaqueHandle(12345678),
    }[kind]
    with pytest.raises(ValueError, match="^unknown encoding$"):
        bb._decode_index(bad)
    assert bb._decode_map == {valid.data: 4}


def test_building_a_box_allocates_little_beyond_its_codes():
    table = sdp_table(modular_group_spec(13, 3))
    BlackBox(table, salts=4, rng=np.random.default_rng(1))  # numpy's first-use allocations
    tracemalloc.start()
    try:
        bb = BlackBox(table, salts=4, salt_policy="fresh", rng=np.random.default_rng(0))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bb.codes.size == 114_244
    # the draw, its sorted copy and the native-order copy; a dict of every handle is 16x
    assert kept <= bb.codes.nbytes + 2**16
    assert peak <= 4 * bb.codes.nbytes


def reference_labels(table, H, seed):
    """The per-coset loop the orbit-minimum labelling replaced.

    Returns the label of every element index and the label generator after
    the loop: one draw per coset in order of least members, redrawn on a
    repeat, and each coset g*H labelled by multiplying g by every member.
    """
    label_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1])
    members = sorted(map(table.index, H))
    labels = [None] * table.order
    used = set()
    for g in range(table.order):
        if labels[g] is not None:
            continue
        lab = int(label_rng.integers(0, 2**63))
        while lab in used:
            lab = int(label_rng.integers(0, 2**63))
        used.add(lab)
        for h in members:
            labels[table.imul(g, h)] = lab
    return labels, label_rng


def symmetric_group_table(n):
    """S_n on a product table of its permutations, a group outside both families.

    On S_3 itself one pass of doubling hops over the greedy generators
    reaches only part of each coset, so the labelling must pass again.
    """
    perms = sorted(permutations(range(n)))
    index = {g: i for i, g in enumerate(perms)}
    products = np.array([[index[tuple(g[k] for k in h)] for h in perms] for g in perms])
    inverses = [index[tuple(np.argsort(g).tolist())] for g in perms]
    return GroupTable(
        name=f"S{n}",
        spec=None,
        elements=tuple(perms),
        standard_generators=(perms[1], perms[-1]),
        imul=lambda i, j: int(products[i, j]),
        iinv=inverses.__getitem__,
        index_mul=lambda i, j: products[i, j],
        positions=index,
    )


def subgroups_by_closure(table):
    pairs = combinations(table.elements, 2)
    subgroups = {frozenset(closure(table.mul, table.identity, pair)) for pair in pairs}
    return sorted(subgroups, key=lambda H: sorted(map(table.index, H)))


LABEL_CASES = [
    (sdp_table(modular_group_spec(3, 2)), enumerate_all_subgroups),
    (sdp_table(modular_group_spec(2, 4)), enumerate_all_subgroups),
    (vec_table(ZmGroupSpec(3, 2, 2)), enumerate_all_subgroups),
    (sdp_table(GroupSpec(2, 2, 3, 7)), enumerate_all_subgroups),  # D16
    (symmetric_group_table(3), subgroups_by_closure),
]


@pytest.mark.parametrize("table, subgroups_of", LABEL_CASES, ids=["3,2", "2,4", "3,2,2", "D16", "S3"])
def test_orbit_minimum_labels_match_the_per_coset_loop(table, subgroups_of, monkeypatch):
    made = []

    def spy(seed=None):
        made.append(np.random.Generator(np.random.PCG64(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    subgroups = subgroups_of(table)
    assert frozenset(table.elements) in subgroups  # H = G, not abelian
    for seed, H in enumerate(subgroups):
        want, want_rng = reference_labels(table, H, seed)
        made.clear()
        inst, _ = make_hidden_instance(table, H, seed=seed)
        assert [inst.label_of_element(g) for g in table.elements] == want
        assert made[1].bit_generator.state == want_rng.bit_generator.state


COSET_LABEL_CASES = {
    "S3": (sdp_table(GroupSpec(3, 2, 1, 2)), subgroups_by_closure),
    "S3 permutations": (symmetric_group_table(3), subgroups_by_closure),  # two passes
    "D16": (sdp_table(GroupSpec(2, 2, 3, 7)), enumerate_all_subgroups),
    "3,2": (sdp_table(modular_group_spec(3, 2)), enumerate_all_subgroups),
    "3,2,2": (vec_table(ZmGroupSpec(3, 2, 2)), enumerate_all_subgroups),
}


@pytest.mark.parametrize("name", COSET_LABEL_CASES)
def test_labels_agree_exactly_on_left_cosets_and_are_drawn_by_least_member(name):
    # f(g) = f(k) iff g^-1 k in H: constant along each row g*H and one
    # label per coset; the labels, read by least member, are the draws
    table, subgroups_of = COSET_LABEL_CASES[name]
    everything = np.arange(table.order)
    for seed, H in enumerate(subgroups_of(table)):
        members = np.array(sorted(map(table.index, H)))
        inst, _ = make_hidden_instance(table, H, seed=seed)
        labels = np.array([inst.label_of_element(g) for g in table.elements])
        cosets = table.index_mul(everything[:, None], members[None, :])  # row g: g*H
        assert (labels[cosets] == labels[:, None]).all()
        least = cosets.min(axis=1)
        reps = np.unique(least)
        assert reps.size * members.size == table.order
        assert np.unique(labels).size == reps.size
        label_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1])
        drawn = draw_distinct(lambda n: label_rng.integers(0, 2**63, size=n), reps.size)
        assert labels[reps].tolist() == drawn.tolist()


def test_unique_encoding_is_injective_and_stable():
    table, bb = fresh_box()
    h1 = {g: bb.encode(g) for g in table.elements}
    assert len({h.data for h in h1.values()}) == table.order
    for g in table.elements:
        assert bb.encode(g).data == h1[g].data
        assert bb.reveal(h1[g]) == g


def test_salted_handles_distinct_across_salts():
    table, bb = fresh_box(salts=4)
    seen = set()
    for g in table.elements:
        for s in range(4):
            h = bb.encode(g, s)
            assert h.data not in seen
            seen.add(h.data)
            assert bb.reveal(h) == g


def test_oracles_match_the_table():
    spec = modular_group_spec(3, 2)
    table, bb = fresh_box(salts=4, salt_policy="operands", seed=3)
    rng = np.random.default_rng(11)
    for _ in range(300):
        g = Element(int(rng.integers(0, 9)), int(rng.integers(0, 3)))
        h = Element(int(rng.integers(0, 9)), int(rng.integers(0, 3)))
        assert bb.reveal(bb.oracle_mul(bb.encode(g), bb.encode(h))) == compose(spec, g, h)
        assert bb.reveal(bb.oracle_inv(bb.encode(g))) == invert(spec, g)
        assert bb.oracle_eq(bb.encode(g, 1), bb.encode(g, 2))  # eq sees through salts


def test_handle_associativity():
    table, bb = fresh_box(salts=3, salt_policy="fresh", seed=5)
    rng = np.random.default_rng(23)
    els = table.elements
    for _ in range(1000):
        a, b, c = (els[int(rng.integers(0, len(els)))] for _ in range(3))
        ha, hb, hc = bb.encode(a), bb.encode(b), bb.encode(c)
        left = bb.oracle_mul(bb.oracle_mul(ha, hb), hc)
        right = bb.oracle_mul(ha, bb.oracle_mul(hb, hc))
        assert bb.oracle_eq(left, right)


def test_fresh_salt_policy_actually_varies():
    table, bb = fresh_box(salts=4, salt_policy="fresh", seed=9)
    g = bb.encode(Element(1, 0))
    h = bb.encode(Element(0, 1))
    outs = {bb.oracle_mul(g, h).data for _ in range(100)}
    assert len(outs) >= 2  # same product, re-salted on the way out
    # while the zero policy is deterministic
    table2, bb2 = fresh_box(salts=4, salt_policy="zero", seed=9)
    g2, h2 = bb2.encode(Element(1, 0)), bb2.encode(Element(0, 1))
    assert len({bb2.oracle_mul(g2, h2).data for _ in range(100)}) == 1


def drawn_salts(bb):
    """Where a box's salt stream stands: its generator's state and the unused salts of its block."""
    return bb._rng.bit_generator.state, list(bb._fresh)


def open_block(bb):
    """Take one salt as an oracle result does, so a 'fresh' box holds a started block."""
    bb._out_salt()
    return bb


@pytest.mark.parametrize("salts", [2, 3, 4, 16])
def test_fresh_salts_come_in_blocks_with_the_values_of_one_draw_per_result(salts):
    table, bb = fresh_box(salts=salts, salt_policy="fresh", seed=salts)
    twin = fresh_box(salts=salts, seed=salts)[1]._rng  # past the same codes draw
    salt_of = {int(c): k % salts for k, c in enumerate(bb.codes.ravel())}
    picks = np.random.default_rng(41).integers(0, table.order, 8).tolist()
    handles = [bb.encode(table.elements[i], k % salts) for k, i in enumerate(picks)]
    k = 150
    assert k > 2 * SALT_BLOCK  # the results cross two block boundaries
    got = []
    for t in range(k):
        g, h = handles[t % 8], handles[(3 * t + 1) % 8]
        got.append(salt_of[(bb.oracle_inv(g) if t % 5 == 0 else bb.oracle_mul(g, h)).code])
    assert got == [int(twin.integers(0, salts)) for _ in range(k)]
    # what is left of the block are the next draws, and the generator stands after them
    assert bb._fresh[::-1] == [int(twin.integers(0, salts)) for _ in range(-k % SALT_BLOCK)]
    assert bb._rng.bit_generator.state == twin.bit_generator.state


def test_a_handle_is_made_once_per_box():
    table, bb = fresh_box(salts=4, salt_policy="fresh", seed=8)
    x, y = bb.encode(table.elements[5], 1), bb.encode(table.elements[7])
    assert bb.encode(table.elements[5], 1) is x
    outs = [bb.oracle_mul(x, y) for _ in range(40)]
    assert len({id(h) for h in outs}) == len({h.data for h in outs}) <= 4
    assert len(bb._issued) == len(bb._decode_map)


def test_counters_track_every_call():
    table, bb = fresh_box()
    g = bb.encode(Element(1, 1))
    h = bb.encode(Element(2, 0))
    bb.oracle_mul(g, h)
    bb.oracle_mul(g, g)
    bb.oracle_inv(g)
    bb.oracle_eq(g, h)
    assert bb.counters == {"mul": 2, "inv": 1, "eq": 1, "walk_mul": 0}


def test_oracle_pow_uses_logarithmic_multiplies():
    table, bb = fresh_box()
    spec = modular_group_spec(3, 2)
    e = bb.encode(Element(0, 0))
    g = bb.encode(Element(1, 1))
    before = bb.counters["mul"]
    got = oracle_pow(bb, g, 26, e)
    # (1,1)^26: exponent law gives x^(26 + 325*3) y^26 = x^2 y^2
    assert bb.reveal(got) == Element(2, 2)
    assert bb.counters["mul"] - before <= 12
    assert bb.reveal(oracle_pow(bb, g, -1, e)) == invert(spec, Element(1, 1))
    assert bb.reveal(oracle_pow(bb, g, 0, e)) == Element(0, 0)


def test_oracle_identity():
    table, bb = fresh_box(salts=2, seed=4)
    h = bb.encode(Element(2, 1), 1)
    assert bb.reveal(oracle_identity(bb, h)) == Element(0, 0)


def test_closure_and_generates():
    spec = modular_group_spec(3, 2)
    table = sdp_table(spec)
    # generates takes element indices
    assert generates(table, [table.index(Element(1, 0)), table.index(Element(0, 1))])
    assert generates(table, [table.index(Element(1, 1))]) is False  # order 9 element only
    got = closure(table.mul, table.identity, [Element(3, 1)])
    assert got == [Element(0, 0), Element(3, 1), Element(6, 2)]


def test_hidden_f_constant_exactly_on_left_cosets():
    # exhaustive over every subgroup, groups up to order 3^5
    for (p, r) in [(3, 2), (2, 3), (3, 3)]:
        spec = modular_group_spec(p, r)
        table = sdp_table(spec)
        for desc in enumerate_subgroups(spec):
            H = frozenset(subgroup_elements(spec, desc))
            inst, _ = make_hidden_instance(table, H, seed=42)
            lab = {g: inst.label_of_element(g) for g in table.elements}
            for g in table.elements:
                for h in table.elements:
                    same_coset = table.mul(invert(spec, g), h) in H
                    assert (lab[g] == lab[h]) == same_coset


def test_hidden_f_on_a_vector_group_of_order_243():
    from sdhsp.sdp_group import ZmGroupSpec, vec_table
    from sdhsp.reference import enumerate_all_subgroups

    spec = ZmGroupSpec(3, 2, 2)
    table = vec_table(spec)
    subs = enumerate_all_subgroups(table)
    for H in subs[:: len(subs) // 8]:
        inst, _ = make_hidden_instance(table, H, seed=6)
        lab = {g: inst.label_of_element(g) for g in table.elements}
        for g in table.elements[::5]:
            gi = table.inv(g)
            for h in table.elements:
                assert (lab[g] == lab[h]) == (table.mul(gi, h) in H)


def test_f_goes_through_the_query_counter():
    spec = modular_group_spec(3, 2)
    table = sdp_table(spec)
    H = frozenset(subgroup_elements(spec, enumerate_subgroups(spec)[0]))
    inst, handles = make_hidden_instance(table, H, seed=0)
    h = inst.blackbox.encode(Element(1, 1))
    inst.f(h)
    # building an oracle over three points books its two walk products only
    AbelianOracle.from_handles((3,), inst, inst.blackbox.encode(Element(0, 0)), [h])
    inst.charge(domain_points=10, superposed_calls=2)
    stats = inst.query_stats()
    assert stats["f"] == 1
    assert stats["domain_points"] == 10
    assert stats["superposed_calls"] == 2
    assert stats["walk_mul"] == 2


def test_labels_are_a_read_only_copy():
    table = sdp_table(modular_group_spec(3, 2))
    given_labels = np.arange(table.order)
    inst = HiddenInstance(BlackBox(table), frozenset({Element(0, 0)}), given_labels)
    with pytest.raises(ValueError, match="read-only"):
        inst.labels[0] = 1
    given_labels[0] = 5  # the caller's array stays its own
    assert inst.labels[0] == 0 and given_labels.flags.writeable


def test_f_walk_gathers_labels_into_the_walk_grid():
    # from_handles's labels overwrite the walk's element indices in place, so
    # the oracle holds one grid, not an index grid and a label grid.
    table = sdp_table(modular_group_spec(2, 12))
    inst, _ = make_hidden_instance(table, frozenset({Element(0, 0)}), seed=0)
    bb = inst.blackbox
    # x and x^6 y do not commute: the walk covers the whole grid
    gens = [bb.encode(Element(1, 0)), bb.encode(Element(6, 1))]
    moduli, e = (2048, 2048), bb.encode(Element(0, 0))
    tracemalloc.start()
    try:
        labels = AbelianOracle.from_handles(moduli, inst, e, gens).grid
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * labels.nbytes
    np.testing.assert_array_equal(labels, inst.labels[bb._walk(moduli, e, gens)[0]])


def test_a_walk_over_the_bound_is_refused_before_anything_is_booked(monkeypatch):
    table = sdp_table(modular_group_spec(3, 2))
    inst, _ = make_hidden_instance(table, frozenset({Element(0, 0)}), seed=0)
    bb = inst.blackbox
    # x has order 9: (x, x) on a (3, n) grid is no homomorphism and is walked in full
    e, g = bb.encode(Element(0, 0)), bb.encode(Element(1, 0))
    monkeypatch.setattr(blackbox, "WALK_BOUND", 12)
    before, salts = inst.query_stats(), drawn_salts(bb)
    for build in (AbelianOracle.from_handles, AbelianOracle.from_products):
        with pytest.raises(ValueError, match="a grid of 15 points exceeds the walk bound 12"):
            build((3, 5), inst, e, [g, g])
    assert inst.query_stats() == before
    assert drawn_salts(bb) == salts
    # a grid of exactly WALK_BOUND points is walked and booked
    walk, kernel = bb._walk((3, 4), e, [g, g])
    assert kernel is None and walk.shape == (3, 4)
    assert bb.counters["walk_mul"] == before["walk_mul"] + 12 - 1
    # a homomorphism's box is at most |G| points, so its grid is never refused
    walk, kernel = bb._walk((9, 9), e, [g, g])
    assert kernel == [[1, -1], [0, 9]] and walk.shape == (1, 9)


def test_generator_policies():
    spec = modular_group_spec(3, 3)
    table = sdp_table(spec)
    H = frozenset({Element(0, 0)})
    inst_c, hc = make_hidden_instance(table, H, generator_policy="canonical", seed=1)
    assert [inst_c.blackbox.reveal(h) for h in hc] == list(table.standard_generators)
    inst_s, hs = make_hidden_instance(table, H, generator_policy="scrambled", seed=1)
    revealed = [inst_s.blackbox.reveal(h) for h in hs]
    assert generates(table, [table.index(g) for g in revealed])
    # over several seeds the scrambled sets cannot all equal the standard pair
    variants = set()
    for seed in range(6):
        inst_i, hs = make_hidden_instance(table, H, generator_policy="scrambled", seed=seed)
        variants.add(tuple(inst_i.blackbox.reveal(h) for h in hs))
    assert len(variants) > 1
    # a table outside both families draws them through the closure route
    s3 = symmetric_group_table(3)
    inst_p, hs = make_hidden_instance(s3, {s3.identity}, generator_policy="scrambled", seed=1)
    assert len(closure(s3.mul, s3.identity, [inst_p.blackbox.reveal(h) for h in hs])) == 6


def test_non_subgroup_is_rejected():
    spec = modular_group_spec(3, 2)
    table = sdp_table(spec)
    with pytest.raises(ValueError):
        make_hidden_instance(table, {Element(1, 1)}, seed=0)  # no identity
    with pytest.raises(ValueError):
        make_hidden_instance(table, {Element(0, 0), Element(1, 0)}, seed=0)  # not closed


def test_distinct_cosets_get_distinct_labels():
    spec = modular_group_spec(3, 2)
    table = sdp_table(spec)
    for desc in enumerate_subgroups(spec):
        H = frozenset(subgroup_elements(spec, desc))
        inst, _ = make_hidden_instance(table, H, seed=13)
        labels = {inst.label_of_element(g) for g in table.elements}
        assert len(labels) == table.order // len(H)


def test_salt_count_bounds():
    table = sdp_table(modular_group_spec(3, 2))
    with pytest.raises(ValueError):
        BlackBox(table, salts=0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        BlackBox(table, salts=17, rng=np.random.default_rng(0))
    # the unique encoding mode ignores the salt argument rather than erroring
    inst, _ = make_hidden_instance(table, [table.identity], mode="unique", salts=3)
    assert inst.blackbox.salts == 1
