"""Group arithmetic, twist enumeration, classification, subgroup taxonomy.

Reference group throughout: p=3, r=2, alpha=4, i.e. Z_9 twisted by the unit 4.
"""

import math
import time
import tracemalloc
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdhsp.algebra import square_and_multiply

from sdhsp.sdp_group import (
    CLASS_NAMES,
    Element,
    GroupSpec,
    IDENTITY,
    SubgroupDesc,
    VecElement,
    ZmGroupSpec,
    _law,
    _twist,
    classify,
    closure,
    compose,
    elements,
    enumerate_alphas,
    enumerate_subgroups,
    generates,
    greedy_generators,
    is_prime,
    iso_map,
    modular_group_spec,
    power_closed_form,
    sdp_table,
    subgroup_elements,
    subgroup_properties,
    vec_table,
)

P32 = GroupSpec(3, 3, 2, 4)


def element_order(G, e):
    return len(closure(partial(compose, G), IDENTITY, (e,)))


def invert(G, e):
    return sdp_table(G).inv(e)


def power(G, e, c):
    """e^c by square-and-multiply; negative c goes through the inverse."""
    return square_and_multiply(partial(compose, G), partial(invert, G), IDENTITY, e, c)


def conjugate(G, g, h):
    """g h g^-1."""
    return compose(G, compose(G, g, h), invert(G, g))


def test_worked_products():
    assert compose(P32, Element(0, 1), Element(1, 0)) == Element(4, 1)
    assert compose(P32, Element(1, 0), Element(0, 1)) == Element(1, 1)
    assert power(P32, Element(1, 1), 3) == Element(3, 0)


def test_identity_and_inverses():
    for g in elements(P32):
        assert compose(P32, g, IDENTITY) == g
        assert compose(P32, IDENTITY, g) == g
        assert compose(P32, g, invert(P32, g)) == IDENTITY
        assert compose(P32, invert(P32, g), g) == IDENTITY


def test_associativity_random():
    specs = [P32, modular_group_spec(2, 4), GroupSpec(7, 3, 1, 2), modular_group_spec(5, 2)]
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        spec = specs[int(rng.integers(0, len(specs)))]
        g, h, k = (
            Element(int(rng.integers(0, spec.modulus)), int(rng.integers(0, spec.q)))
            for _ in range(3)
        )
        assert compose(spec, compose(spec, g, h), k) == compose(spec, g, compose(spec, h, k))


def test_generator_orders():
    assert element_order(P32, Element(1, 0)) == 9
    assert element_order(P32, Element(0, 1)) == 3
    for g in elements(P32):
        assert P32.order % element_order(P32, g) == 0


def test_power_closed_form_matches_iteration_exhaustively():
    for spec in (P32, modular_group_spec(2, 3), modular_group_spec(3, 3)):
        for g in elements(spec):
            acc = IDENTITY
            for c in range(spec.order + 1):
                assert power_closed_form(spec, g, c) == acc
                assert power(spec, g, c) == acc
                acc = compose(spec, acc, g)


def test_negative_powers():
    g = Element(1, 1)
    assert power(P32, g, -1) == invert(P32, g)
    assert power(P32, g, -5) == power(P32, invert(P32, g), 5)
    with pytest.raises(ValueError):
        power_closed_form(P32, g, -5)  # the closed form is stated for c >= 0


def test_conjugation_preserves_order():
    rng = np.random.default_rng(17)
    for _ in range(200):
        g = Element(int(rng.integers(0, 9)), int(rng.integers(0, 3)))
        h = Element(int(rng.integers(0, 9)), int(rng.integers(0, 3)))
        assert element_order(P32, conjugate(P32, g, h)) == element_order(P32, h)


# -- twist enumeration ----------------------------------------------------------


def test_alpha_sets_small():
    assert enumerate_alphas(3, 3, 2) == frozenset({4, 7})
    assert enumerate_alphas(2, 2, 2) == frozenset({3})
    assert enumerate_alphas(2, 2, 3) == frozenset({3, 5, 7})
    assert enumerate_alphas(2, 2, 1) == frozenset()
    assert enumerate_alphas(5, 3, 1) == frozenset()  # 3 does not divide 4
    assert enumerate_alphas(7, 3, 1) == frozenset({2, 4})


def test_alpha_search_refuses_moduli_over_the_enumeration_bound():
    assert enumerate_alphas(2, 2, 19) == {2**19 - 1, 2**18 - 1, 2**18 + 1}
    for p, q, r in ((2, 2, 20), (2, 2, 30), (1009, 2, 2)):
        with pytest.raises(ValueError, match="twist-search bound"):
            enumerate_alphas(p, q, r)


def test_alpha_defining_property():
    for (p, q, r) in [(3, 3, 2), (3, 3, 3), (5, 5, 2), (2, 2, 4), (13, 3, 2), (7, 2, 3)]:
        n = p**r
        for a in enumerate_alphas(p, q, r):
            assert 1 < a < n
            assert pow(a, q, n) == 1
            spec = GroupSpec(p, q, r, a)
            # y x y^-1 = x^alpha is exactly what the twist means
            y, x = Element(0, 1), Element(1, 0)
            assert conjugate(spec, y, x) == Element(a, 0)


def literal_order(a: int, m: int) -> int | None:
    """Least d >= 1 with a^d = 1 mod m by repeated multiplication; None for a non-unit."""
    x, d = a % m, 1
    while x != 1:
        if d > m:
            return None
        x, d = x * a % m, d + 1
    return d


def test_alpha_sets_match_the_literal_order_over_the_classification_range():
    # every (p, q, r) with p^r * q <= 500, the classification gate's range
    orders: dict[int, dict[int, int | None]] = {}
    cells = 0
    for q in filter(is_prime, range(2, 251)):
        for p in filter(is_prime, range(2, 500 // q + 1)):
            r = 1
            while p**r * q <= 500:
                m = p**r
                if m not in orders:
                    orders[m] = {a: literal_order(a, m) for a in range(2, m)}
                assert enumerate_alphas(p, q, r) == {a for a, d in orders[m].items() if d == q}
                cells += 1
                r += 1
    assert cells == 413


def test_alpha_case_two_is_the_near_identity_coset():
    for (p, r) in [(3, 2), (3, 3), (5, 2), (7, 3)]:
        want = frozenset((t * p ** (r - 1) + 1) % p**r for t in range(1, p))
        assert enumerate_alphas(p, p, r) == want


# -- classification and isomorphism ------------------------------------------------


def test_classify_all_five_classes():
    assert classify(GroupSpec(7, 3, 1, 2)) == 1  # q-hedral
    assert classify(GroupSpec(2, 2, 3, 7)) == 2  # dihedral: alpha = 2^r - 1
    assert classify(GroupSpec(2, 2, 3, 3)) == 3  # quasi-dihedral: 2^{r-1} - 1
    assert classify(GroupSpec(2, 2, 3, 5)) == 4  # 2^{r-1} + 1
    assert classify(GroupSpec(3, 3, 2, 4)) == 4
    assert classify(GroupSpec(3, 3, 2, 1)) == 5  # untwisted
    assert classify(GroupSpec(2, 2, 2, 3)) == 2  # 3 = 2^2 - 1 at r=2
    assert set(CLASS_NAMES) == {1, 2, 3, 4, 5}


def test_iso_map_worked_example():
    src = GroupSpec(3, 3, 2, 4)
    dst = GroupSpec(3, 3, 2, 7)
    assert iso_map(src, dst, Element(1, 1)) == Element(1, 2)
    assert iso_map(src, dst, Element(3, 1)) == Element(3, 2)
    assert iso_map(src, dst, Element(1, 0)) == Element(1, 0)


def test_iso_map_is_an_isomorphism():
    src = GroupSpec(3, 3, 2, 4)
    dst = GroupSpec(3, 3, 2, 7)
    image = {iso_map(src, dst, g) for g in elements(src)}
    assert len(image) == src.order
    for g in elements(src):
        for h in elements(src):
            assert iso_map(src, dst, compose(src, g, h)) == compose(
                dst, iso_map(src, dst, g), iso_map(src, dst, h)
            )


def test_iso_map_rejects_cross_family():
    with pytest.raises(ValueError):
        iso_map(GroupSpec(2, 2, 3, 3), GroupSpec(2, 2, 3, 7), Element(0, 0))
    with pytest.raises(ValueError):
        iso_map(GroupSpec(3, 3, 2, 4), GroupSpec(5, 5, 2, 6), Element(0, 0))


# -- subgroups ----------------------------------------------------------------------


def test_subgroup_worked_example():
    desc = next(d for d in enumerate_subgroups(P32) if d.label() == "cyclicxy:1,1")
    assert desc.gens == (Element(3, 1),)
    got = subgroup_elements(P32, desc)
    assert set(got) == {Element(0, 0), Element(3, 1), Element(6, 2)}


def test_subgroup_count_formula():
    for (p, r) in [(3, 2), (3, 3), (2, 3), (2, 4), (5, 2), (7, 2)]:
        spec = modular_group_spec(p, r)
        subs = enumerate_subgroups(spec)
        assert len(subs) == 2 * (r + 1) + r * (p - 1)
        sets = {frozenset(subgroup_elements(spec, d)) for d in subs}
        assert len(sets) == len(subs)  # descriptions name distinct subgroups


def test_subgroups_really_are_subgroups():
    spec = modular_group_spec(3, 3)
    for desc in enumerate_subgroups(spec):
        H = set(subgroup_elements(spec, desc))
        assert IDENTITY in H
        for g in H:
            assert invert(spec, g) in H
            for h in H:
                assert compose(spec, g, h) in H


def test_exactly_p_non_normal_subgroups():
    for (p, r) in [(3, 2), (2, 3), (5, 2), (3, 3)]:
        spec = modular_group_spec(p, r)
        non_normal = []
        for desc in enumerate_subgroups(spec):
            props = subgroup_properties(spec, desc)
            H = frozenset(subgroup_elements(spec, desc))
            assert props.order == len(H)
            if not props.normal:
                non_normal.append(desc)
            if len(H) < spec.order:
                assert props.abelian  # every proper subgroup is abelian here
        assert len(non_normal) == p
        labels = {d.label() for d in non_normal}
        assert f"xpowery:{r}" in labels  # the y-axis itself is not normal
        for t in range(1, p):
            assert f"cyclicxy:{t},{r - 1}" in labels


def test_normality_flag_against_definition():
    spec = modular_group_spec(3, 2)
    for desc in enumerate_subgroups(spec):
        H = frozenset(subgroup_elements(spec, desc))
        brute_normal = all(
            conjugate(spec, g, h) in H for h in H for g in elements(spec)
        )
        assert subgroup_properties(spec, desc).normal == brute_normal


def test_abelian_flag_against_definition():
    for (p, r) in [(3, 2), (2, 3), (3, 3), (5, 2)]:
        spec = modular_group_spec(p, r)
        for desc in enumerate_subgroups(spec):
            H = subgroup_elements(spec, desc)
            brute_abelian = all(compose(spec, g, h) == compose(spec, h, g) for g in H for h in H)
            assert subgroup_properties(spec, desc).abelian == brute_abelian


def test_from_generators_canonicalizes():
    d1 = SubgroupDesc("gens", (Element(3, 1),))
    d2 = SubgroupDesc("gens", (Element(6, 2), Element(3, 1)))
    assert subgroup_elements(P32, d1) == subgroup_elements(P32, d2)
    with pytest.raises(ValueError, match="not in"):
        subgroup_elements(P32, SubgroupDesc("gens", (Element(9, 0),)))


@given(st.integers(0, 8), st.integers(0, 2), st.integers(0, 200))
@settings(max_examples=50, deadline=None)
def test_power_agrees_with_closed_form(a, b, c):
    g = Element(a, b)
    assert power(P32, g, c) == power_closed_form(P32, g, c)


def test_closure_discovery_order_and_mul_count():
    calls = []

    def mul(g, h):
        calls.append((g, h))
        return compose(P32, g, h)

    x = Element(1, 0)
    # identity first; from the trivial group x adds its powers, one product
    # each (x*x .. x^8*x, the last giving the identity back); the repeat and
    # the identity are already spanned and make no product
    got = closure(mul, IDENTITY, [x, x, IDENTITY])
    assert got == [IDENTITY] + [Element(a, 0) for a in range(1, 9)]
    assert len(calls) == 8


def test_closure_stops_expanding_past_the_bound():
    calls = []

    def mul(g, h):
        calls.append((g, h))
        return compose(P32, g, h)

    got = closure(mul, IDENTITY, [Element(1, 0)], bound=3)
    assert got == [IDENTITY, Element(1, 0), Element(2, 0), Element(3, 0)]
    assert len(calls) == 2
    assert len(closure(mul, IDENTITY, [Element(1, 0)], bound=9)) == 9


def trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10**5) if is_prime(n)] == list(filter(trial_division, range(10**5)))


@pytest.mark.parametrize(
    "n, prime",
    [
        # strong pseudoprimes to base 2; to bases 2, 3, 5, 7; to every prime base to 23
        (2047, False),
        (3215031751, False),
        (3825123056546413051, False),
        (2**31 - 1, True),
        (2**61 - 1, True),
        (2**63 - 25, True),  # the largest prime below 2^63
        (2**63, False),
    ],
)
def test_is_prime_on_pseudoprimes_and_mersenne_primes(n, prime):
    t0 = time.monotonic()
    assert is_prime(n) is prime
    assert time.monotonic() - t0 < 0.1


def test_is_prime_refuses_integers_above_2_63():
    for n in (2**63 + 1, 10**4000):
        with pytest.raises(ValueError, match="bound 2\\^63$") as err:
            is_prime(n)
        assert len(str(err.value)) < 60


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(4, 3, 2, 1)  # p not prime
    with pytest.raises(ValueError):
        GroupSpec(3, 3, 2, 5)  # 5^3 != 1 mod 9
    with pytest.raises(ValueError):
        modular_group_spec(3, 1)  # r >= 2 needed for the near-identity unit


# the CLI's exit-2 tests cover the huge exponents of each command; these are
# the constructors on their own, and just past 2^63
@pytest.mark.parametrize(
    "build",
    [
        lambda: GroupSpec(2, 2, 10**7, 3),
        lambda: modular_group_spec(3, 10**6),
        lambda: modular_group_spec(2, 64),
        lambda: ZmGroupSpec(2, 32, 2),
    ],
    ids=["GroupSpec", "modular_3", "modular_2^64", "Zm_2^65"],
)
def test_a_power_over_2_63_is_refused_before_it_is_formed(build):
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="exceeds the bound 2\\^63$"):
        build()
    assert time.monotonic() - t0 < 2


def test_powers_up_to_2_63_are_accepted():
    assert modular_group_spec(2, 63).modulus == 2**63
    assert ZmGroupSpec(2, 31, 2).order == 2**63
    assert modular_group_spec(3, 39).modulus == 3**39


def all_pairs_subgroup(table, elems):
    """The definition: contains the identity and is closed under products."""
    return table.identity in elems and all(
        table.mul(g, h) in elems for g in elems for h in elems
    )


P32_TABLE = sdp_table(P32)


def is_subgroup(table, elems: frozenset) -> bool:
    """Exact subgroup test on a set of element indices (see ``greedy_generators``)."""
    return greedy_generators(table, elems) is not None


@given(st.sets(st.sampled_from(P32_TABLE.elements)), st.booleans())
@settings(max_examples=300, deadline=None)
def test_is_subgroup_matches_the_definition_on_random_subsets(subset, with_identity):
    if with_identity:
        subset = subset | {IDENTITY}
    H = frozenset(subset)
    indices = frozenset(map(P32_TABLE.index, H))
    assert is_subgroup(P32_TABLE, indices) == all_pairs_subgroup(P32_TABLE, H)


def test_is_subgroup_matches_the_definition_next_to_every_subgroup():
    from sdhsp.reference import enumerate_all_subgroups

    table = P32_TABLE

    def indices(elems):
        return frozenset(map(table.index, elems))

    for H in enumerate_all_subgroups(table):
        assert is_subgroup(table, indices(H))
        neighbours = [H | {g} for g in table.elements if g not in H]
        neighbours += [H - {h} for h in H]
        for K in neighbours:
            assert is_subgroup(table, indices(K)) == all_pairs_subgroup(table, K)


GENERATES_TABLES = [
    P32_TABLE,
    sdp_table(modular_group_spec(2, 3)),
    sdp_table(GroupSpec(7, 3, 1, 2)),
    vec_table(ZmGroupSpec(3, 2, 1)),
    vec_table(ZmGroupSpec(2, 3, 1)),
    vec_table(ZmGroupSpec(2, 3, 2)),
]


@given(st.sampled_from(GENERATES_TABLES), st.lists(st.integers(0, 10**6), max_size=4))
@settings(max_examples=300, deadline=None)
def test_generates_matches_the_full_closure(table, picks):
    gens = [i % table.order for i in picks]
    assert generates(table, gens) == (len(closure(table.imul, 0, gens)) == table.order)


CLOSURE_TABLES = [
    sdp_table(GroupSpec(7, 3, 1, 2)),  # q != p
    sdp_table(GroupSpec(2, 2, 3, 7)),  # D16
    vec_table(ZmGroupSpec(3, 2, 1)),
    vec_table(ZmGroupSpec(2, 3, 2)),
]


def span_by_search(table, gens):
    """The plain definition: everything reachable from the identity by
    right products with the generators."""
    seen, todo = {0}, [0]
    while todo:
        h = todo.pop()
        for g in gens:
            if (w := table.imul(h, g)) not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@given(
    st.sampled_from(CLOSURE_TABLES),
    st.lists(st.integers(0, 10**6), max_size=4),
    st.integers(0, 3),
    st.booleans(),
    st.lists(st.integers(0, 10**6), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_closure_is_the_span_and_its_bound_is_decisive(table, picks, repeats, with_identity, bounds):
    gens = [i % table.order for i in picks]
    gens += gens[:repeats] + [0] * with_identity
    full = closure(table.imul, 0, gens)
    assert full[0] == 0 and len(full) == len(set(full))
    assert set(full) == span_by_search(table, gens)
    n = len(full)
    tried = {0, 1, n // 2, n - 1, n, table.order // 2} | {b % (table.order + 1) for b in bounds}
    for b in tried:
        assert (len(closure(table.imul, 0, gens, bound=b)) > b) == (n > b)


# p-groups, where generates reads the Frattini quotient instead of closing
BURNSIDE_TABLES = {
    "D16": sdp_table(GroupSpec(2, 2, 3, 7)),
    "quasi-dihedral": sdp_table(GroupSpec(2, 2, 4, 7)),
    "direct": sdp_table(GroupSpec(3, 3, 2, 1)),
    "3,2": sdp_table(modular_group_spec(3, 2)),
    "2,3": sdp_table(modular_group_spec(2, 3)),
    "3,2,1": vec_table(ZmGroupSpec(3, 2, 1)),
    "2,3,2": vec_table(ZmGroupSpec(2, 3, 2)),
}


@pytest.mark.parametrize("name", BURNSIDE_TABLES)
def test_generates_matches_the_full_closure_on_every_single_and_pair(name):
    table = BURNSIDE_TABLES[name]
    everything = range(table.order)
    for gens in [(g,) for g in everything] + list(combinations(everything, 2)):
        assert generates(table, gens) == (len(closure(table.imul, 0, gens)) == table.order), gens


def test_one_table_per_spec():
    assert sdp_table(P32) is sdp_table(P32)
    assert sdp_table(GroupSpec(3, 3, 2, 4)) is sdp_table(P32)
    spec = ZmGroupSpec(3, 2, 2)
    assert vec_table(spec) is vec_table(spec)
    assert vec_table(ZmGroupSpec(3, 2, 2)) is vec_table(spec)


def _documented_index(table, g) -> int:
    """The index the docs give: mixed radix over the coordinates, then b."""
    spec = table.spec
    coords = g.a if isinstance(g, VecElement) else (g.a,)
    acc = 0
    for c in coords:
        acc = acc * spec.modulus + c
    return acc * (spec.q if isinstance(spec, GroupSpec) else spec.p) + g.b


INDEX_TABLES_ALL_PAIRS = [
    sdp_table(modular_group_spec(3, 2)),
    sdp_table(modular_group_spec(2, 3)),
    vec_table(ZmGroupSpec(2, 3, 1)),
    vec_table(ZmGroupSpec(3, 2, 1)),
]
INDEX_TABLES_RANDOM_PAIRS = [
    sdp_table(modular_group_spec(2, 10)),
    sdp_table(modular_group_spec(5, 4)),
    vec_table(ZmGroupSpec(3, 2, 2)),
]


@pytest.mark.parametrize(
    "table", INDEX_TABLES_ALL_PAIRS + INDEX_TABLES_RANDOM_PAIRS, ids=lambda t: t.name
)
def test_element_order_is_the_documented_index(table):
    assert [_documented_index(table, g) for g in table.elements] == list(range(table.order))


# The law of each family written directly on its elements, from the
# semidirect-product formula: the literal reference both index laws
# (GroupTable.imul/iinv and GroupTable.index_mul) are checked against.
def reference_compose(G, e1, e2):
    s = pow(G.alpha, e1.b, G.modulus)
    return Element((e1.a + e2.a * s) % G.modulus, (e1.b + e2.b) % G.q)


def reference_invert(G, e):
    b_inv = (-e.b) % G.q
    return Element((-e.a * pow(G.alpha, b_inv, G.modulus)) % G.modulus, b_inv)


def reference_vec_compose(G, e1, e2):
    # (a1, b1)(a2, b2) = (a1 + alpha^{b1} a2, b1 + b2)
    n = G.modulus
    s = pow(G.alpha, e1.b, n)
    return VecElement(
        tuple((a1 + s * a2) % n for a1, a2 in zip(e1.a, e2.a)),
        (e1.b + e2.b) % G.p,
    )


def reference_vec_invert(G, e):
    n = G.modulus
    s = pow(G.alpha, (-e.b) % G.p, n)
    return VecElement(tuple((-s * ai) % n for ai in e.a), (-e.b) % G.p)


def _reference_law(table):
    if isinstance(table.spec, ZmGroupSpec):
        return reference_vec_compose, reference_vec_invert
    return reference_compose, reference_invert


def _law_by_element(table, left, right) -> list[int]:
    law = _reference_law(table)[0]
    elems = table.elements
    return [
        _documented_index(table, law(table.spec, elems[i], elems[j]))
        for i, j in zip(left.tolist(), right.tolist())
    ]


def _check_both_laws(table, left, right):
    want = _law_by_element(table, left, right)
    assert table.index_mul(left, right).tolist() == want
    assert [table.imul(i, j) for i, j in zip(left.tolist(), right.tolist())] == want


@pytest.mark.parametrize("table", INDEX_TABLES_ALL_PAIRS, ids=lambda t: t.name)
def test_index_law_matches_compose_on_all_pairs(table):
    left, right = (a.ravel() for a in np.indices((table.order, table.order)))
    _check_both_laws(table, left, right)


@pytest.mark.parametrize("table", INDEX_TABLES_RANDOM_PAIRS, ids=lambda t: t.name)
def test_index_law_matches_compose_on_random_pairs(table):
    rng = np.random.default_rng(table.order)
    left, right = rng.integers(0, table.order, size=(2, 10**4))
    _check_both_laws(table, left, right)


@pytest.mark.parametrize(
    "table", INDEX_TABLES_ALL_PAIRS + INDEX_TABLES_RANDOM_PAIRS, ids=lambda t: t.name
)
def test_scalar_inverse_on_every_index(table):
    invert_ref = _reference_law(table)[1]
    inverses = [table.iinv(i) for i in range(table.order)]
    assert inverses == [_documented_index(table, invert_ref(table.spec, g)) for g in table.elements]
    for i, j in enumerate(inverses):
        assert table.imul(i, j) == table.imul(j, i) == 0


# Both families with m = 1, 2, 3, and twists outside the modular family: D16
# (alpha = -1), quasi-dihedral, q-hedral (q = 3 dividing p - 1) and alpha = 1.
LAW_SPECS = {
    "3,2": modular_group_spec(3, 2),
    "3,2,1": ZmGroupSpec(3, 2, 1),
    "3,2,2": ZmGroupSpec(3, 2, 2),
    "2,3,3": ZmGroupSpec(2, 3, 3),
    "D16": GroupSpec(2, 2, 3, 7),
    "QD32": GroupSpec(2, 2, 4, 7),
    "7:3": GroupSpec(7, 3, 1, 2),
    "Z9xZ3": GroupSpec(3, 3, 2, 1),
    "Z4xZ3": GroupSpec(2, 3, 2, 1),
}


def law_parts(spec):
    """(n, m, q, twist powers) of a spec, and its element tuples (a_1..a_m, b) in index order."""
    m = getattr(spec, "m", 1)
    q = spec.q if isinstance(spec, GroupSpec) else spec.p
    table = sdp_table(spec) if isinstance(spec, GroupSpec) else vec_table(spec)
    elems = [(tuple(np.atleast_1d(g.a).tolist()), g.b) for g in table.elements]
    return (spec.modulus, m, q, tuple(pow(spec.alpha, b, spec.modulus) for b in range(q))), elems


def law_mismatches(spec, law, sample) -> dict:
    """Failed checks of ``law`` = (imul, iinv, index_mul) by form, against the defining
    formula (a1, b1)(a2, b2) = (a1 + alpha^b1 a2, b1 + b2), (a, b)^-1 = (-alpha^-b a, -b)
    computed on element tuples.  Every element of ``sample`` is a left factor of every
    element, through ``imul`` and through ``index_mul`` flat, scalar x array, array x
    scalar and as a 2-D outer product; ``iinv`` is checked on every element."""
    (n, m, q, pw), elems = law_parts(spec)
    imul, iinv, index_mul = law
    index = {g: k for k, g in enumerate(elems)}

    def product(i, j):
        (a1, b1), (a2, b2) = elems[i], elems[j]
        return index[tuple((x + pw[b1] * y) % n for x, y in zip(a1, a2)), (b1 + b2) % q]

    def inverse(i):
        a, b = elems[i]
        return index[tuple(-pw[-b % q] * x % n for x in a), -b % q]

    every, left = np.arange(len(elems)), np.asarray(sample)
    want = np.array([[product(i, j) for j in every.tolist()] for i in left.tolist()])
    return {
        "imul": sum(imul(i, j) != w for i, row in zip(left.tolist(), want.tolist())
                    for j, w in enumerate(row)),
        "flat": np.count_nonzero(
            index_mul(np.repeat(left, every.size), np.tile(every, left.size)) != want.ravel()
        ),
        "scalar x array": sum(np.count_nonzero(index_mul(int(i), every) != w) for i, w in zip(left, want)),
        "array x scalar": sum(np.count_nonzero(index_mul(left, int(j)) != want[:, j]) for j in every),
        "2-D": np.count_nonzero(index_mul(left[:, None], every[None, :]) != want),
        "iinv": sum(iinv(i) != inverse(i) for i in every.tolist()),
    }


def law_sample(spec):
    """Every element as a left factor, or 48 fixed ones above order 256."""
    order = spec.order
    return np.arange(order) if order <= 256 else np.random.default_rng(order).choice(order, 48, replace=False)


@pytest.mark.parametrize("spec", LAW_SPECS.values(), ids=LAW_SPECS)
def test_the_table_law_is_the_defining_formula(spec):
    table = sdp_table(spec) if isinstance(spec, GroupSpec) else vec_table(spec)
    law = (table.imul, table.iinv, table.index_mul)
    assert law_mismatches(spec, law, law_sample(spec)) == dict.fromkeys(
        ("imul", "flat", "scalar x array", "array x scalar", "2-D", "iinv"), 0
    )


@pytest.mark.parametrize("spec", LAW_SPECS.values(), ids=LAW_SPECS)
def test_one_wrong_twist_entry_breaks_every_product_form(spec):
    (n, m, q, pw), _ = law_parts(spec)
    base, order = _twist(n, m, q, pw), spec.order
    sample = law_sample(spec)
    entries = sorted({0, order - 1, *np.random.default_rng(5).integers(0, order, 3).tolist()})
    for k in entries:
        # the entry at a2*q + b1 is read by every product of an i with b = b1 and j with a = a2
        if not np.isin(sample % q, k % q).any():
            continue
        twist = base.copy()
        twist[k] = (twist[k] + q) % order  # still a valid index, off by one step of a
        bad = law_mismatches(spec, _law(n, m, q, pw, twist), sample)
        assert bad.pop("iinv") == 0  # the inverse keeps its arithmetic
        assert all(bad.values()), (k, bad)


@pytest.mark.parametrize("spec", [ZmGroupSpec(2, 3, 3), modular_group_spec(13, 3), ZmGroupSpec(2, 5, 2)],
                         ids=["2,3,3", "13,3", "2,5,2"])
def test_the_law_holds_one_twist_entry_per_element_and_o_of_q_else(spec):
    (n, m, q, pw), _ = law_parts(spec)
    twist = _twist(n, m, q, pw)
    assert twist.shape == (spec.order,) and twist.dtype == np.int64
    _law(n, m, q, pw, twist)  # numpy's first-use allocations
    tracemalloc.start()
    try:
        law = _law(n, m, q, pw, twist)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # closures, pw, the 2q-entry wrap table: one more int64 per element would be 8 |G| bytes
    assert kept <= 2048 + 64 * q < 8 * spec.order
    assert law[2](np.arange(spec.order), 0).tolist() == list(range(spec.order))


@pytest.mark.parametrize(
    "table", INDEX_TABLES_ALL_PAIRS + INDEX_TABLES_RANDOM_PAIRS, ids=lambda t: t.name
)
def test_index_order_is_element_order(table):
    # coset labelling and the subgroup order rely on this
    assert list(table.elements) == sorted(table.elements)


ELEMENT_CONTRACT_TABLES = [
    sdp_table(modular_group_spec(3, 2)),
    sdp_table(modular_group_spec(2, 4)),
    vec_table(ZmGroupSpec(3, 2, 2)),
    vec_table(ZmGroupSpec(2, 3, 2)),
]


@pytest.mark.parametrize("table", ELEMENT_CONTRACT_TABLES, ids=lambda t: t.name)
def test_elements_hash_print_and_order_as_field_tuples(table):
    # hash((a, b)) is also what a frozen dataclass of (a, b) hashes to, so
    # set and frozenset orders, and the reports built from them, stay fixed
    kind = type(table.identity)
    for i, e in enumerate(table.elements):
        assert type(e) is kind
        assert hash(e) == hash((e.a, e.b))
        assert repr(e) == f"{kind.__name__}(a={e.a!r}, b={e.b!r})"
        # a plain tuple of the fields names the element
        assert table.index((e.a, e.b)) == i
        with pytest.raises(AttributeError):
            e.a = e.b
    assert sorted(table.elements) == list(table.elements)


def test_a_plain_tuple_names_the_element_of_its_fields():
    table = sdp_table(modular_group_spec(3, 2))
    assert table.index((1, 0)) == table.index(Element(1, 0)) == 3
    assert repr(Element(1, 0)) == "Element(a=1, b=0)"
    vec = vec_table(ZmGroupSpec(3, 2, 2))
    assert vec.index(((1, 0), 1)) == vec.index(VecElement((1, 0), 1))
    assert repr(VecElement((1, 0), 1)) == "VecElement(a=(1, 0), b=1)"
