"""Semidirect products Z_{p^r}^m x| Z_q and their concrete arithmetic.

Both solver families are this one shape: the generator y of Z_q acts on
every coordinate of Z_{p^r}^m as multiplication by a unit alpha with
alpha^q = 1 (mod p^r).  The rank-one family is m = 1, fixed by
(p, q, r, alpha): written multiplicatively with x generating Z_{p^r}, the
defining relation is  y x = x^alpha y,  and elements are pairs (a, b)
standing for x^a y^b, with

    (a1, b1) * (a2, b2) = (a1 + a2 * alpha^b1 mod p^r, b1 + b2 mod q).

For q = p and alpha = p^(r-1) + 1 the group is the modular maximal-cyclic
group of order p^(r+1); those are the groups the hidden-subgroup solver in
``hsp_modular`` targets, and their full subgroup taxonomy lives here.  The
vector family (``ZmGroupSpec``, solved by ``hsp_vector``) fixes q = p and
that twist, with elements (a_1..a_m, b) and the same law coordinate-wise.

Elements are named tuples (a, b), hashed, compared and ordered in C.
Below them a group element is its index in ``table.elements``: mixed
radix over the coordinates, then b (``a*q + b`` in the rank-one family),
so index order is the elements' order.  A ``GroupTable`` carries the one
law of both families on indices twice: as a scalar law (``imul``,
``iinv``) and vectorized over numpy arrays (``index_mul``), both products
read off one twist table of |G| entries.  Everything that takes or returns
elements (``GroupTable.mul``/``inv``, ``compose``) only decodes, calls the
scalar law and encodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product
from typing import Any, Callable, NamedTuple

import numpy as np

from .algebra import ENUM_BOUND, MAX_MODULUS, Lattice, adjoin, closure, lattice_is_full


PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the prime bases up to 37 decide every n < 3.3 * 10^24.
    ValueError above MAX_MODULUS = 2^63."""
    if n > MAX_MODULUS:
        raise ValueError("cannot test primality above the bound 2^63")
    if n < 2 or any(n % a == 0 for a in PRIME_BASES):
        return n in PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    for a in PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


class Element(NamedTuple):
    """x^a y^b as the pair (a, b): hashes as the tuple (a, b), and orders by a, then b."""

    a: int
    b: int


IDENTITY = Element(0, 0)


def _bounded_power(p: int, e: int, what: str) -> int:
    """p^e for p >= 2; ValueError above MAX_MODULUS = 2^63 (any e > 63) before it is formed."""
    if e > 63 or p**e > MAX_MODULUS:
        raise ValueError(f"{what} exceeds the bound 2^63")
    return p**e


@dataclass(frozen=True)
class GroupSpec:
    """Parameters (p, q, r, alpha) of Z_{p^r} x| Z_q.

    Validated on construction: p, q prime, r >= 1, 0 <= alpha < p^r,
    gcd(alpha, p) = 1 and alpha^q = 1 (mod p^r).  Since q is prime this
    forces alpha to have multiplicative order exactly q, or alpha = 1
    (the direct product).
    """

    p: int
    q: int
    r: int
    alpha: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if not is_prime(self.q):
            raise ValueError(f"q = {self.q} is not prime")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        m = _bounded_power(self.p, self.r, "the modulus p^r")
        if not 0 <= self.alpha < m:
            raise ValueError(f"alpha = {self.alpha} out of range for modulus {m}")
        if self.alpha % self.p == 0:
            raise ValueError(f"alpha = {self.alpha} is not a unit mod {m}")
        if pow(self.alpha, self.q, m) != 1:
            raise ValueError(
                f"alpha = {self.alpha} does not satisfy alpha^q = 1 mod {m}"
            )

    @property
    def modulus(self) -> int:
        return self.p**self.r

    @property
    def order(self) -> int:
        return self.p**self.r * self.q

    @property
    def is_modular(self) -> bool:
        """True for the modular maximal-cyclic parameterization."""
        return (
            self.q == self.p
            and self.r >= 2
            and self.alpha == self.p ** (self.r - 1) + 1
        )


def modular_group_spec(p: int, r: int) -> GroupSpec:
    """The modular maximal-cyclic group: q = p, alpha = p^(r-1) + 1."""
    if r < 2:
        raise ValueError("the modular maximal-cyclic family needs r >= 2")
    return GroupSpec(p=p, q=p, r=r, alpha=_bounded_power(p, r - 1, "the modulus p^r") + 1)


def compose(G: GroupSpec, e1: Element, e2: Element) -> Element:
    return sdp_table(G).mul(e1, e2)


def power_closed_form(G: GroupSpec, e: Element, c: int) -> Element:
    """(x^a y^b)^c = x^(a(c + C(c,2) b p^(r-1))) y^(bc), modular groups only.

    C(c,2) = c(c-1)/2.  Valid for c >= 0.
    """
    if not G.is_modular:
        raise ValueError("closed-form powering requires the modular parameterization")
    if c < 0:
        raise ValueError("closed form is stated for c >= 0")
    sdp_table(G).index(e)  # validates e
    half = c * (c - 1) // 2
    exp = e.a * (c + half * e.b * G.p ** (G.r - 1))
    return Element(exp % G.modulus, (e.b * c) % G.q)


def elements(G: GroupSpec) -> list[Element]:
    return [Element(a, b) for a in range(G.modulus) for b in range(G.q)]


# ---------------------------------------------------------------------------
# The vector family Z_{p^r}^m x| Z_p with the near-identity twist


class VecElement(NamedTuple):
    """(a, b) with a an m-vector of exponents mod p^r and b mod p; a tuple, as Element."""

    a: tuple[int, ...]
    b: int


@dataclass(frozen=True)
class ZmGroupSpec:
    """Parameters of Z_{p^r}^m x| Z_p with the fixed near-identity twist."""

    p: int
    r: int
    m: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.r < 2:
            raise ValueError("r must be at least 2")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.p == 2 and self.r == 2:
            raise ValueError(
                "p = r = 2 is excluded: the twist collapses to a dihedral action"
            )
        _bounded_power(self.p, self.r * self.m + 1, "the group order p^(rm+1)")

    @property
    def modulus(self) -> int:
        return self.p**self.r

    @property
    def alpha(self) -> int:
        return self.p ** (self.r - 1) + 1

    @property
    def order(self) -> int:
        return self.p ** (self.r * self.m + 1)


def vec_elements(G: ZmGroupSpec) -> list[VecElement]:
    coords = product(range(G.modulus), repeat=G.m)
    return [VecElement(a, b) for a in coords for b in range(G.p)]


# ---------------------------------------------------------------------------
# Group tables: either family as its elements plus one law on their indices


def _twist(n: int, m: int, q: int, pw: tuple[int, ...]) -> np.ndarray:
    """The twist table of Z_n^m x| Z_q: entry a*q + b is q times the index of pw[b] a.
    One entry per element, in index order, built digit by digit of a."""
    digits, twist = np.arange(n**m)[:, None], np.zeros((n**m, q), np.int64)
    for place in (n**k for k in range(m)):
        twist += digits // place % n * np.array(pw) % n * place
    return twist.ravel() * q


def _law(n: int, m: int, q: int, pw: tuple, twist: np.ndarray) -> tuple[Callable, Callable, Callable]:
    """``imul``, ``iinv`` and ``index_mul``: the product and inverse of Z_n^m x| Z_q on
    element indices, and the product broadcast over integer arrays of them.

    (a1, b1)(a2, b2) = (a1 + pw[b1] a2, b1 + b2) and (a, b)^-1 = (-pw[-b] a, -b), digit by
    digit over the mixed radix of a: the law of both families, m = 1 being the rank-one
    group and q = p the vector group.  A product reads t = (pw[b1] a2, b2) off ``twist`` at
    a2*q + b1 and adds i, less a carry at each lower digit boundary that the two lower
    parts overflow, mod |G|.  No array but ``twist`` grows with the group.
    """
    order, bounds = n**m * q, [q * n**k for k in range(1, m)]
    tw, wrap = memoryview(twist), q * (np.arange(2 * q) >= q)  # tw reads Python ints off twist

    def imul(i: int, j: int) -> int:
        b1, b2 = i % q, j % q
        t = tw[j - b2 + b1] + b2
        carried = q if b1 + b2 >= q else 0
        for place in bounds:
            if i % place + t % place - carried >= place:
                carried += place
        k = i + t - carried
        return k - order if k >= order else k

    def index_mul(i, j):
        b1, b2 = i % q, j % q
        t = twist[j - b2 + b1] + b2
        carried = wrap[b1 + b2]
        for place in bounds:
            carried = carried + place * (i % place + t % place - carried >= place)
        k = i + t - carried
        np.subtract(k, order, out=k, where=k >= order)
        return k

    def iinv(i: int) -> int:
        rest, b = divmod(i, q)
        b = -b % q
        s = pw[b]
        a, place = 0, 1
        for _ in range(m - 1):
            rest, c = divmod(rest, n)
            a += -s * c % n * place
            place *= n
        return (a + -s * rest % n * place) * q + b

    return imul, iinv, index_mul


@dataclass(frozen=True)
class GroupTable:
    """A concrete group: its elements, and its law on their indices.

    ``elements[i]`` is the element of index i; the identity has index 0.
    ``imul``/``iinv`` is the scalar law and ``index_mul`` the same product
    over numpy arrays, both read off one twist table (``_law``).  ``index``,
    ``mul``, ``inv`` and ``identity`` are the element-typed edge: ``index``
    raises ValueError for an element outside the group.  A plain tuple of an element's fields names that element,
    as elements are tuples: ``index((1, 0)) == index(Element(1, 0))``.
    """

    name: str
    spec: Any
    elements: tuple
    standard_generators: tuple
    imul: Callable[[int, int], int]
    iinv: Callable[[int], int]
    index_mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    positions: dict = field(repr=False, compare=False)  # element -> index

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Any:
        return self.elements[0]

    def index(self, g: Any) -> int:
        try:
            return self.positions[g]
        except KeyError:
            raise ValueError(f"element {g} is not in {self.name}") from None

    def mul(self, g: Any, h: Any) -> Any:
        return self.elements[self.imul(self.index(g), self.index(h))]

    def inv(self, g: Any) -> Any:
        return self.elements[self.iinv(self.index(g))]


def _table(name: str, spec, m: int, q: int, elems: list, standard_generators: tuple) -> GroupTable:
    """The table of Z_n^m x| Z_q, n = p^r: elements, positions, the twist table and its law."""
    n, pw = spec.modulus, tuple(pow(spec.alpha, b, spec.modulus) for b in range(q))
    imul, iinv, index_mul = _law(n, m, q, pw, _twist(n, m, q, pw))
    return GroupTable(
        name=name,
        spec=spec,
        elements=tuple(elems),
        standard_generators=standard_generators,
        imul=imul,
        iinv=iinv,
        index_mul=index_mul,
        positions={g: i for i, g in enumerate(elems)},
    )


@lru_cache(maxsize=None)
def sdp_table(spec: GroupSpec) -> GroupTable:
    """The one table of a rank-one group."""
    name = f"sdp({spec.p}^{spec.r}:{spec.q},alpha={spec.alpha})"
    return _table(name, spec, 1, spec.q, elements(spec), (Element(1, 0), Element(0, 1)))


@lru_cache(maxsize=None)
def vec_table(G: ZmGroupSpec) -> GroupTable:
    """The one table of a vector group."""
    std = tuple(
        VecElement(tuple(1 if j == i else 0 for j in range(G.m)), 0) for i in range(G.m)
    ) + (VecElement((0,) * G.m, 1),)
    return _table(f"vec({G.p}^{G.r})^{G.m}:{G.p}", G, G.m, G.p, vec_elements(G), std)


def generates(table: GroupTable, gens) -> bool:
    """Whether the element indices `gens` generate the whole group.

    On a p-group (q = p, so alpha = 1 mod p) (a, b) -> (a mod p, b) maps G
    onto F_p^(m+1) with kernel the Frattini subgroup, so by Burnside's basis
    theorem `gens` generate G iff their images span F_p^(m+1).  Otherwise a
    proper subgroup has at most |G|/2 elements (Lagrange), so the closure
    stops as soon as it holds more.
    """
    p = getattr(table.spec, "p", None)
    if p is not None and getattr(table.spec, "q", p) == p:
        n, m = table.spec.modulus, getattr(table.spec, "m", 1)
        rows = [[i % p] + [i // p // n**j % p for j in range(m)] for i in gens]
        return lattice_is_full(Lattice((p,) * (m + 1), rows))
    half = table.order // 2
    return len(closure(table.imul, 0, gens, bound=half)) > half


def greedy_generators(table: GroupTable, elems: frozenset) -> list | None:
    """Generators of the set of element indices `elems`, or None if it is no subgroup.

    Each element of H not yet spanned, in index order, joins the generators
    and is adjoined to the one span (``algebra.adjoin``) with bound |H|.  No
    closure leaves a subgroup, so a span that leaves H rejects; one inside H
    is a complete closure, hence a subgroup, and at the end it holds all of
    H.  Each generator at least doubles the span: at most log2 |H| of them.
    """
    if 0 not in elems:
        return None
    gens: list = []
    span, seen = [0], {0}
    for g in sorted(elems):
        if g not in seen:
            gens.append(g)
            adjoin(table.imul, span, seen, gens, len(elems))
            if not seen <= elems:
                return None
    return gens


def enumerate_alphas(p: int, q: int, r: int) -> set[int]:
    """All alpha != 1 of multiplicative order exactly q mod p^r.

    Straight search: q is prime, so alpha^q = 1 with alpha != 1 means order
    exactly q.  The classification layer asserts the case counts against
    this set, not the other way around.  Refuses p^r above ENUM_BOUND.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    m = _bounded_power(p, r, "the modulus p^r")
    if m > ENUM_BOUND:
        raise ValueError(f"p^r = {m} exceeds the twist-search bound {ENUM_BOUND}")
    return {a for a in range(2, m) if pow(a, q, m) == 1}


# Classification labels for Z_{p^r} x| Z_q with alpha of order q (or 1):
#   1  q-hedral            (q | p-1)
#   2  dihedral            (p = q = 2, alpha = 2^r - 1)
#   3  quasi-dihedral      (p = q = 2, r > 2, alpha = 2^(r-1) - 1)
#   4  modular             (q = p, alpha = p^(r-1) + 1; for p = 2 only r > 2)
#   5  direct product      (alpha = 1)
CLASS_NAMES = {
    1: "q-hedral",
    2: "dihedral",
    3: "quasi-dihedral",
    4: "modular-maximal-cyclic",
    5: "direct-product",
}


def classify(G: GroupSpec) -> int:
    if G.alpha == 1:
        return 5
    if G.q != G.p:
        # alpha of order q exists with q != p only when q | p - 1
        return 1
    if G.p != 2:
        return 4
    # p = q = 2: the three (or one) possible twists
    if G.alpha == 2**G.r - 1:
        return 2
    if G.alpha == 2 ** (G.r - 1) - 1:
        return 3
    if G.alpha == 2 ** (G.r - 1) + 1:
        return 4
    raise AssertionError("unreachable: alpha validated to have order q")


def iso_map(G_src: GroupSpec, G_dst: GroupSpec, e: Element) -> Element:
    """Image of e under the isomorphism G_src -> G_dst, (a, b) -> (a, b*i')
    where alpha_dst = alpha_src^i and i' = i^-1 mod q.

    Raises ValueError when the two specs are not in the same family.
    """
    if (G_src.p, G_src.q, G_src.r) != (G_dst.p, G_dst.q, G_dst.r):
        raise ValueError("isomorphism requires matching (p, q, r)")
    sdp_table(G_src).index(e)  # validates e
    m = G_src.modulus
    powers = (i for i in range(1, G_src.q) if pow(G_src.alpha, i, m) == G_dst.alpha)
    exponent = next(powers, None)
    if exponent is None:
        raise ValueError("specs are not in the same isomorphism family")
    i_inv = pow(exponent, -1, G_src.q)
    return Element(e.a, e.b * i_inv % G_src.q)


# ---------------------------------------------------------------------------
# Subgroups of the modular maximal-cyclic groups


@dataclass(frozen=True)
class SubgroupDesc:
    """A subgroup of a rank-one group: a name and the generators it closes over.

    ``enumerate_subgroups`` names the modular taxonomy (``xpower:i``,
    ``xpowery:i``, ``cyclicxy:t,j``).
    """

    name: str
    gens: tuple[Element, ...]

    def label(self) -> str:
        return self.name


def subgroup_elements(G: GroupSpec, S: SubgroupDesc) -> list[Element]:
    """Element list by closure of the defining generators."""
    for g in S.gens:
        sdp_table(G).index(g)  # validates g
    return sorted(closure(partial(compose, G), IDENTITY, S.gens))


def enumerate_subgroups(G: GroupSpec) -> list[SubgroupDesc]:
    """Every subgroup of the modular group of order p^(r+1): 2(r+1) + r(p-1).

    The one writer of the taxonomy's labels, in this order:
      xpower:i      <x^(p^i)>        0 <= i <= r
      xpowery:i     <x^(p^i), y>     0 <= i <= r
      cyclicxy:t,j  <x^(t p^j) y>    0 <= j < r, 1 <= t < p
    Not valid for (p, r) = (2, 2): that group is dihedral, with subgroups
    outside this taxonomy.
    """
    if not G.is_modular:
        raise ValueError("subgroup taxonomy requires the modular parameterization")
    p, r = G.p, G.r
    if (p, r) == (2, 2):
        raise ValueError("(p, r) = (2, 2) is outside the modular taxonomy")
    x = [Element(p**i % G.modulus, 0) for i in range(r + 1)]
    out = [SubgroupDesc(f"xpower:{i}", (x[i],)) for i in range(r + 1)]
    out += [SubgroupDesc(f"xpowery:{i}", (x[i], Element(0, 1))) for i in range(r + 1)]
    out += [
        SubgroupDesc(f"cyclicxy:{t},{j}", (Element(t * p**j, 1),))
        for j in range(r)
        for t in range(1, p)
    ]
    return out


@dataclass(frozen=True)
class SubgroupProperties:
    order: int
    abelian: bool
    normal: bool


def subgroup_properties(G: GroupSpec, S: SubgroupDesc) -> SubgroupProperties:
    """Order; abelian if H's generators commute, normal if G's conjugate them into H."""
    elems = set(subgroup_elements(G, S))
    table = sdp_table(G)
    mul = table.mul
    abelian = all(mul(g, h) == mul(h, g) for g in S.gens for h in S.gens)
    normal = all(
        mul(mul(g, s), table.inv(g)) in elems for g in table.standard_generators for s in S.gens
    )
    return SubgroupProperties(order=len(elems), abelian=abelian, normal=normal)
