"""Exact lattice algebra over products of residue rings.

A ``Lattice`` describes a subgroup of Z_{n_1} x ... x Z_{n_k} by generator
rows.  All computations lift to the integers: the lift of a lattice is its
preimage in Z^k, which contains diag(moduli), and its Hermite basis makes
canonical forms, membership tests, duals and sizes exact (no floating
point, no overflow: Python integers).

The dual ``L*`` of a lattice L is the annihilator under the pairing
    <c, h> = sum_j c_j * h_j * (N / n_j)  mod N,      N = lcm(n_1..n_k),
i.e. the set of characters of the ambient group that are trivial on L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

# Desk-scale guards.  Moduli above MAX_MODULUS are refused outright; element
# enumeration refuses groups larger than ENUM_BOUND.
MAX_MODULUS = 2**63
ENUM_BOUND = 10**6


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# Operations derived from a plain (mul, inv, identity)


def closure(mul: Callable, identity, gens, bound: int | None = None) -> list:
    """Every product of `gens`, in discovery order: the identity, then each
    generator not yet spanned adjoined coset by coset (:func:`adjoin`).
    Expansion stops once more than `bound` elements are known.  Elements
    must hash by value; opaque handles do, by their bytes."""
    limit = math.inf if bound is None else bound
    out, seen, used = [identity], {identity}, []
    for g in gens:
        if g not in seen and len(out) <= limit:
            used.append(g)
            adjoin(mul, out, seen, used, limit)
    return out


def adjoin(mul: Callable, out: list, seen: set, gens: list, limit: float = math.inf) -> None:
    """Adjoin gens[-1] in place to `out`, the closure H' of gens[:-1] (identity first,
    `seen` its set), by Dimino's algorithm: new elements come in whole right cosets
    H'w, so only representatives w meet the generators.  Stops past `limit` elements."""
    identity, sub = out[0], out[1:]
    if not sub:  # from the trivial group, the new elements are the powers of gens[-1]
        g = w = gens[-1]
        while w not in seen:
            seen.add(w)
            out.append(w)
            if len(out) > limit:
                return
            w = mul(w, g)
        return
    reps = [identity]
    for r in reps:  # grows while it is walked
        for s in gens:
            w = s if r is identity else mul(r, s)
            if w not in seen:
                coset = [w] + [mul(h, w) for h in sub]
                seen.update(coset)
                out += coset
                if len(out) > limit:
                    return
                reps.append(w)


def square_and_multiply(mul: Callable, inv: Callable, identity, g, n: int):
    """g^n with O(log |n|) products; a negative n inverts g first."""
    if n < 0:
        g, n = inv(g), -n
    acc = identity
    while n:
        if n & 1:
            acc = mul(acc, g)
        g = mul(g, g)
        n >>= 1
    return acc


# ---------------------------------------------------------------------------
# Lattices over Z_{n_1} x ... x Z_{n_k}


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z_{n_1} x ... x Z_{n_k} given by generator rows.

    Rows are stored reduced mod the moduli.  Construction does not
    canonicalize; use :func:`lattice_canonicalize` for a normal form whose
    row set is identical iff the subgroups are equal.
    """

    moduli: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        mods = tuple(int(n) for n in self.moduli)
        if not mods:
            raise ValueError("at least one modulus is required")
        for n in mods:
            if n < 1:
                raise ValueError(f"modulus must be >= 1, got {n}")
            if n > MAX_MODULUS:
                raise ValueError(f"modulus {n} exceeds the desk-scale bound")
        rows = []
        for row in self.gens:
            if len(row) != len(mods):
                raise ValueError(
                    f"generator row width {len(row)} does not match {len(mods)} moduli"
                )
            rows.append(tuple(int(x) % n for x, n in zip(row, mods)))
        object.__setattr__(self, "moduli", mods)
        object.__setattr__(self, "gens", tuple(rows))


def _lattice_basis(L: Lattice) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of the lift of L: the preimage of L in Z^k, built once
    per lattice and kept on it as read-only rows.

    Square and upper triangular, basis[i][i] > 0 divides n_i, and every
    entry above a pivot lies in [0, pivot); the Hermite form of a full-rank
    lattice is unique.  The lift contains diag(moduli), which is already
    such a basis, so each generator row is inserted into it column by
    column (Hermite form modulo the determinant: Domich, Kannan and
    Trotter, 1987).  Entries right of column i are kept mod their modulus,
    which leaves the span unchanged: n_j * e_j lies in the span of the rows
    with pivots >= j, and row i is not among them.
    """
    if "_basis" in vars(L):
        return L._basis
    mods = L.moduli
    k = len(mods)
    basis = [[0] * k for _ in range(k)]
    for i, n in enumerate(mods):
        basis[i][i] = n
    for row in L.gens:
        row = list(row)
        for i in range(k):
            x = row[i]
            if not x:
                continue
            pivot = basis[i]
            p = pivot[i]
            if x % p:
                # one gcd step: the combination becomes the pivot row and
                # the row carries on with the remainder
                g, s, t = _xgcd(p, x)
                pa, ra = p // g, x // g
                for j in range(i + 1, k):
                    a, b, n = pivot[j], row[j], mods[j]
                    pivot[j] = (s * a + t * b) % n
                    row[j] = (pa * b - ra * a) % n
                pivot[i] = g
            else:
                q = x // p
                for j in range(i + 1, k):
                    row[j] = (row[j] - q * pivot[j]) % mods[j]
            row[i] = 0
            if not any(row):
                break
    for i in range(k):
        p = basis[i][i]
        for above in basis[:i]:
            q = above[i] // p
            if q:
                for j in range(i, k):
                    above[j] -= q * basis[i][j]
    object.__setattr__(L, "_basis", tuple(map(tuple, basis)))
    return L._basis


def lattice_canonicalize(L: Lattice) -> Lattice:
    """Canonical form: equal subgroups yield identical row sets.  The output
    keeps L's Hermite basis, the same for the same subgroup."""
    basis = _lattice_basis(L)
    rows = []
    for row in basis:
        reduced = tuple(x % n for x, n in zip(row, L.moduli))
        if any(reduced):
            rows.append(reduced)
    out = Lattice(L.moduli, tuple(sorted(rows)))
    object.__setattr__(out, "_basis", basis)
    return out


def lattices_equal(L1: Lattice, L2: Lattice) -> bool:
    if L1.moduli != L2.moduli:
        raise ValueError("lattices live over different moduli")
    return lattice_canonicalize(L1).gens == lattice_canonicalize(L2).gens


def lattice_member(L: Lattice, v: Sequence[int]) -> bool:
    """True iff v (reduced mod the moduli) lies in L."""
    return not any(lattice_coset_rep(L, v))


def lattice_size(L: Lattice) -> int:
    """Number of elements of L, via the basis determinant."""
    basis = _lattice_basis(L)
    det = 1
    for i in range(len(basis)):
        det *= basis[i][i]
    total = 1
    for n in L.moduli:
        total *= n
    return total // det


def lattice_is_full(L: Lattice) -> bool:
    total = 1
    for n in L.moduli:
        total *= n
    return lattice_size(L) == total


def lattice_coset_rep(L: Lattice, v: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of v + L (reduction against the basis)."""
    k = len(L.moduli)
    if len(v) != k:
        raise ValueError(f"vector width {len(v)} does not match {k} moduli")
    w = reduce_rows([int(x) % n for x, n in zip(v, L.moduli)], _lattice_basis(L))
    return tuple(x % n for x, n in zip(w, L.moduli))


def reduce_rows(v: list, rows) -> list:
    """v, integers or integer arrays per coordinate, reduced in place against
    square upper-triangular `rows`, positive pivots on the diagonal, into the
    box of their pivots: the one point of v + span(rows) in that box."""
    for i, row in enumerate(rows):
        q = v[i] // row[i]
        for j in range(i, len(v)):
            if row[j]:
                v[j] = v[j] - q * row[j]
    return v


def lattice_elements(L: Lattice) -> list[tuple[int, ...]]:
    """All elements of L by closure (guarded by ENUM_BOUND)."""
    size = lattice_size(L)
    if size > ENUM_BOUND:
        raise ValueError(f"lattice with {size} elements exceeds the enumeration bound")
    add = lambda v, w: tuple((a + b) % n for a, b, n in zip(v, w, L.moduli))
    return sorted(closure(add, (0,) * len(L.moduli), L.gens))


def lattice_sample(L: Lattice, rng) -> tuple[int, ...]:
    """Uniform random element of L.

    Draws each generator exponent uniformly mod N = lcm(moduli); the map
    (z_1..z_t) -> sum z_i g_i is a homomorphism from Z_N^t onto L, and the
    image of a uniform distribution under a surjective homomorphism of
    finite groups is uniform.
    """
    mods = L.moduli
    if not L.gens:
        return tuple(0 for _ in mods)
    N = math.lcm(*mods)
    out = [0] * len(mods)
    for g in L.gens:
        z = int(rng.integers(0, N))
        for j in range(len(mods)):
            out[j] = (out[j] + z * g[j]) % mods[j]
    return tuple(out)


def dual_lattice(L: Lattice) -> Lattice:
    """Annihilator lattice L* = {c : <c, h> = 0 mod N for all h in L}.

    Satisfies (L*)* = L and |L| * |L*| = prod(moduli).
    """
    mods = L.moduli
    k = len(mods)
    N = math.lcm(*mods)
    scale = [N // n for n in mods]
    # Factor the k x k basis of the lift, not the generator rows: it gives
    # the same constraints (a modulus row pairs to 0 mod N), has full rank and
    # entries no larger than the moduli.  On a tall stack of raw rows the
    # Smith form's entries grow to thousands of digits.
    rows = [[h[j] * scale[j] for j in range(k)] for h in _lattice_basis(L)]
    snf = smith_normal_form(rows, k)
    gens = []
    for i in range(k):
        scale = N // math.gcd(snf.d[i], N)
        gens.append(tuple(scale * snf.v[j][i] % mods[j] for j in range(k)))
    return lattice_canonicalize(Lattice(mods, tuple(gens)))


def solve_kernel(samples: Iterable[Sequence[int]], moduli: Sequence[int]) -> Lattice:
    """Joint kernel of sampled characters: {h : <c, h> = 0 for all samples c}.

    The pairing is symmetric, so this is the dual of the lattice the samples
    generate, spanned by their distinct rows.  No samples means no
    constraints: the full lattice.
    """
    mods = tuple(moduli)
    return dual_lattice(Lattice(mods, tuple(dict.fromkeys(tuple(s) for s in samples))))


# ---------------------------------------------------------------------------
# Smith normal form over Z, with the column transform


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == diag(d) for unimodular U and V.  Only V is kept: no
    caller reads the row transform U.

    d is nonnegative with d[i] | d[i+1] (zeros last).
    """

    d: tuple[int, ...]
    v: tuple[tuple[int, ...], ...]


def smith_normal_form(rows: Sequence[Sequence[int]], width: int) -> SmithDecomposition:
    m, k = len(rows), width
    A = [list(map(int, r)) for r in rows]
    for r in A:
        if len(r) != k:
            raise ValueError("ragged matrix")
    V = [[int(i == j) for j in range(k)] for i in range(k)]

    def row_swap(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]

    def col_swap(i: int, j: int) -> None:
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def col_add(i: int, j: int, c: int) -> None:
        # col i += c * col j
        for r in A:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]

    rank = min(m, k)

    def diagonalize() -> None:
        for t in range(rank):
            # smallest-magnitude nonzero pivot in the trailing block
            best = None
            for i in range(t, m):
                for j in range(t, k):
                    if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            while True:
                dirty = False
                for i in range(t + 1, m):
                    if A[i][t]:
                        q = A[i][t] // A[t][t]
                        if q:  # row i -= q * row t
                            A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                        if A[i][t]:
                            row_swap(i, t)
                            dirty = True
                for j in range(t + 1, k):
                    if A[t][j]:
                        q = A[t][j] // A[t][t]
                        if q:
                            col_add(j, t, -q)
                        if A[t][j]:
                            col_swap(j, t)
                            dirty = True
                if not dirty:
                    break
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]

    while True:
        diagonalize()
        # enforce zeros-last and the divisibility chain
        violation = False
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a == 0 and b != 0:
                row_swap(i, i + 1)
                col_swap(i, i + 1)
                violation = True
                break
            if a != 0 and b % a != 0:
                col_add(i, i + 1, 1)
                violation = True
                break
        if not violation:
            break

    return SmithDecomposition(tuple(A[i][i] for i in range(rank)), tuple(map(tuple, V)))
