"""Brute-force reference implementations.

Everything here works on explicit group tables or known lattices with full
truth access and serves as the independent route the solvers are checked
against.  Nothing in this module touches handles, oracles or counters.  The
brute force builds right multiplication by each standard generator from its
closed form on index arrays and composes all others from those; the enumeration,
which only picks the subgroups to plant, uses the oracle walk's array law
``index_mul``.  ``sample_annihilator`` draws uniformly from a known
lattice's annihilator, the distribution the simulated quantum sampler is
checked against.
"""

from __future__ import annotations

from typing import Any, Callable
import numpy as np

from .algebra import Lattice, dual_lattice, lattice_sample, square_and_multiply
from .sdp_group import GroupSpec, GroupTable, ZmGroupSpec, greedy_generators

BRUTE_FORCE_BOUND = 10**6
ENUMERATION_BOUND = 10**4
_GENERATOR_PERMUTATIONS: dict = {}  # table.spec -> [R_s for each standard generator s]


def brute_force_hidden_subgroup(table: GroupTable, label_of: Callable[[Any], int]) -> frozenset:
    """The hidden subgroup as the identity's level set, fully validated.

    Requires that label_of is constant on every left coset of some subgroup
    and distinct across cosets; raises if the level-set structure does not
    hold, which flags a broken hiding function rather than guessing.  H, the
    level set of f(e), must close as a subgroup under at most log2 |H|
    greedily picked generators.  Labels constant under right multiplication
    by each generator are constant on every left coset gH, and then a label
    count of |G|/|H| makes them distinct across cosets.  Each right
    multiplication is an index permutation, composed in O(log |G|) array
    passes from the standard generators' m + 1, built once per group from
    their closed form; the table's law (``imul``, ``index_mul``), which the
    instance builder and the walk use, is only used to close H.
    """
    if table.order > BRUTE_FORCE_BOUND:
        raise ValueError(f"group of order {table.order} exceeds the brute-force bound")
    if not isinstance(table.spec, (GroupSpec, ZmGroupSpec)):
        raise ValueError(f"{table.name} is in neither group family")
    labels = np.fromiter(map(label_of, table.elements), np.int64, table.order)
    H = np.flatnonzero(labels == labels[0]).tolist()
    gens = greedy_generators(table, frozenset(H))
    if gens is None:
        raise ValueError("f is not H-periodic: the level set of f(e) is no subgroup")
    for h in gens:
        if not np.array_equal(labels[_right_multiplication(table, h)], labels):
            raise ValueError("f is not H-periodic: it changes within a left coset of H")
    if (1 + np.count_nonzero(np.diff(np.sort(labels)))) * len(H) != table.order:
        raise ValueError("f is not H-periodic: two cosets of H share a label")
    return frozenset(table.elements[h] for h in H)


def _right_multiplication(table: GroupTable, h: int) -> np.ndarray:
    """R_h[g] = g h for h = x_1^a_1 ... x_m^a_m y^b: R_x1^a_1, ..., then R_y^b."""
    e = table.elements[h]
    R = identity = np.arange(table.order)
    for R_s, k in zip(_generator_permutations(table), (*np.atleast_1d(e.a), e.b)):
        R = square_and_multiply(lambda u, v: u[v], None, identity, R_s, k)[R]
    return R


def _generator_permutations(table: GroupTable) -> list[np.ndarray]:
    """R_s for the standard generators x_1..x_m, y, from right multiplication on (a, b):
    g x_i adds alpha^b to digit i of a, and g y adds 1 to b.  Computed on index arrays
    from the spec alone, without the table's law, once per group, kept by ``table.spec``:
    it hashes in O(1), unlike the table."""
    spec = table.spec
    if spec not in _GENERATOR_PERMUTATIONS:
        n, m = spec.modulus, getattr(spec, "m", 1)
        q = table.order // n**m
        g = np.arange(table.order)
        b = g % q
        step = np.array([pow(spec.alpha, k, n) for k in range(q)])[b]  # alpha^b
        perms = []
        for place in (q * n ** (m - 1 - i) for i in range(m)):  # of the digits a_1 .. a_m
            digit = g // place % n
            perms.append(g + ((digit + step) % n - digit) * place)
        _GENERATOR_PERMUTATIONS[spec] = perms + [g - b + (b + 1) % q]
    return _GENERATOR_PERMUTATIONS[spec]


def enumerate_all_subgroups(table: GroupTable) -> list[frozenset]:
    """Every subgroup of a p-group by cyclic extension, smallest first.

    A subgroup K > 1 of a p-group has a normal subgroup U of index p, and
    K = U<g> for each g in K outside U, with g^p in U and g normalising U.
    Each subgroup grows from a smaller one on the array law ``index_mul``,
    which only picks the subgroups to plant: the brute force checks every
    answer on ``imul``, and tests cross-check these sets with a closure
    route and the taxonomy.  Raises ValueError unless |G| is a power of p,
    or once |G| or the subgroup count passes ``ENUMERATION_BOUND``.
    """
    n, p = table.order, table.spec.p
    if n > ENUMERATION_BOUND:
        raise ValueError(f"group of order {n} exceeds the enumeration bound")
    if p**n.bit_length() % n:  # n divides a power of p only if it is one
        raise ValueError(f"group of order {n} is not a {p}-group")
    mul, G = table.index_mul, np.arange(n)
    inv = np.array([table.iinv(g) for g in range(n)])
    powers = [np.zeros(n, np.int64)]  # powers[i][g] is the index of g^i, i <= p
    for _ in range(p):
        powers.append(mul(powers[-1], G))
    powers = np.array(powers)
    queue = [(np.zeros(1, np.int64), ())]  # (sorted indices of U, generators of U)
    seen = {queue[0][0].tobytes()}
    for U, gens in queue:  # grows while it is read, one entry per subgroup
        inU = np.bincount(U, minlength=n) > 0
        cand = np.flatnonzero(inU[powers[p]] & ~inU)
        # g normalises U if it conjugates U's generators into U
        conj = mul(mul(cand[:, None], np.array(gens, np.int64)), inv[cand, None])
        ok = np.zeros(n, bool)
        ok[cand[inU[conj].all(axis=1)]] = True
        for g in np.flatnonzero(ok):
            if ok[g]:  # no K built from U holds g yet
                cosets = mul(powers[:p, g, None], U)  # U, gU, ..., g^(p-1) U
                K = np.flatnonzero(np.bincount(cosets.ravel(), minlength=n))
                ok[K] = False
                if K.tobytes() not in seen:
                    seen.add(K.tobytes())
                    queue.append((K, gens + (int(g),)))
                    if len(queue) > ENUMERATION_BOUND:
                        raise ValueError(f"group of order {n} has over {ENUMERATION_BOUND} subgroups")
    # index order is element order, so this is the order of the element sets
    queue.sort(key=lambda entry: (len(entry[0]), entry[0].tolist()))
    return [frozenset(table.elements[i] for i in K) for K, _ in queue]


def subgroup_equal(a, b) -> bool:
    return frozenset(a) == frozenset(b)


def sample_annihilator(
    truth: Lattice, rng: np.random.Generator, count: int = 1
) -> list[tuple[int, ...]]:
    """Exact sampler given a known lattice: uniform draws from its annihilator,
    the output distribution of the coset-state experiment that hides it."""
    dual = dual_lattice(truth)
    return [lattice_sample(dual, rng) for _ in range(count)]
