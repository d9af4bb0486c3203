"""Lattice and number-theory layer, checked against direct enumeration."""

import dataclasses
import itertools
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdhsp.algebra import (
    MAX_MODULUS,
    Lattice,
    _lattice_basis,
    _xgcd,
    dual_lattice,
    lattice_canonicalize,
    lattice_coset_rep,
    lattice_elements,
    lattice_is_full,
    lattice_member,
    lattice_sample,
    lattice_size,
    lattices_equal,
    smith_normal_form,
    solve_kernel,
)

MODULI_POOL = [1, 2, 3, 4, 5, 6, 8, 9, 27]
HUGE_MODULI = [2**61 - 1, 2**62, 3**39, MAX_MODULUS]


def full_lattice(moduli):
    """All of Z_{n_1} x ... x Z_{n_k}, spanned by the unit vectors."""
    rows = [tuple(int(i == j) for j in range(len(moduli))) for i in range(len(moduli))]
    return lattice_canonicalize(Lattice(tuple(moduli), tuple(rows)))


def brute_dual(L: Lattice) -> set:
    """Annihilator by definition: sum_i v_i g_i N/n_i == 0 mod N for all g in L."""
    N = 1
    for n in L.moduli:
        N = N * n // np.gcd(N, n)
    elems = lattice_elements(L)
    out = set()
    for v in itertools.product(*(range(n) for n in L.moduli)):
        if all(
            sum(vi * gi * (N // ni) for vi, gi, ni in zip(v, g, L.moduli)) % N == 0
            for g in elems
        ):
            out.add(v)
    return out


def random_lattice(rng, k_max=3) -> Lattice:
    k = int(rng.integers(1, k_max + 1))
    moduli = tuple(MODULI_POOL[int(i)] for i in rng.integers(0, len(MODULI_POOL), size=k))
    ngens = int(rng.integers(0, k + 2))
    gens = tuple(
        tuple(int(rng.integers(0, n)) for n in moduli) for _ in range(ngens)
    )
    return Lattice(moduli, gens)


def reference_basis(L: Lattice) -> list[list[int]]:
    """Hermite basis of the lift of L by plain elimination.

    Stacks the modulus rows under the generator rows and eliminates column
    by column across the whole stack with unreduced entries, then reduces
    the entries above each pivot into [0, pivot).
    """
    k = len(L.moduli)
    stack = [list(r) for r in L.gens]
    stack += [[n * (i == j) for j in range(k)] for i, n in enumerate(L.moduli)]
    mat = [r for r in stack if any(r)]
    out: list[list[int]] = []
    for col in range(k):
        pivot = None
        rest: list[list[int]] = []
        for r in mat:
            if r[col] == 0:
                rest.append(r)
                continue
            if pivot is None:
                pivot = r
                continue
            g, s, t = _xgcd(pivot[col], r[col])
            pa, ra = pivot[col] // g, r[col] // g
            combined = [s * x + t * y for x, y in zip(pivot, r)]
            reduced = [pa * y - ra * x for x, y in zip(pivot, r)]
            pivot = combined
            if any(reduced):
                rest.append(reduced)
        if pivot is not None:
            if pivot[col] < 0:
                pivot = [-x for x in pivot]
            out.append(pivot)
        mat = rest
    for i in range(len(out)):
        c = next(j for j, x in enumerate(out[i]) if x)
        for above in range(i):
            q = out[above][c] // out[i][c]
            if q:
                out[above] = [x - q * y for x, y in zip(out[above], out[i])]
    return out


@st.composite
def lattices_with_repeats(draw):
    """Up to 30 rows over 1-5 moduli, drawn from a few distinct rows and the
    zero row, so that repeated and zero rows are common."""
    moduli = draw(st.lists(st.sampled_from(MODULI_POOL + HUGE_MODULI), min_size=1, max_size=5))
    row = st.tuples(*(st.integers(0, n - 1) for n in moduli))
    distinct = draw(st.lists(row, min_size=1, max_size=6)) + [(0,) * len(moduli)]
    return Lattice(tuple(moduli), tuple(draw(st.lists(st.sampled_from(distinct), max_size=30))))


@given(lattices_with_repeats())
@settings(max_examples=300, deadline=None)
def test_the_basis_is_the_hermite_form_of_the_stacked_rows(L):
    basis = _lattice_basis(L)
    assert [list(row) for row in basis] == reference_basis(L)
    k = len(L.moduli)
    assert len(basis) == k
    for i, (row, n) in enumerate(zip(basis, L.moduli)):
        assert not any(row[:i])  # upper triangular
        assert row[i] > 0 and n % row[i] == 0
        for above in basis[:i]:
            assert 0 <= above[i] < row[i]


def fresh_basis(L: Lattice):
    """L's Hermite basis built anew, on a copy of L that has none stored."""
    return _lattice_basis(Lattice(L.moduli, L.gens))


@given(lattices_with_repeats())
@settings(max_examples=150, deadline=None)
def test_the_stored_basis_is_the_basis_of_its_lattice(L):
    for read in (lattice_size, lattice_is_full, lattice_canonicalize):
        M = Lattice(L.moduli, L.gens)
        read(M)
        assert vars(M)["_basis"] == fresh_basis(M)
    for C in (lattice_canonicalize(L), dual_lattice(L), solve_kernel(L.gens, L.moduli)):
        # the canonical form is given its input's basis rather than building one
        assert vars(C)["_basis"] == fresh_basis(C)
        twin = Lattice(C.moduli, C.gens)
        assert C == twin and hash(C) == hash(twin)
    assert vars(lattice_canonicalize(L))["_basis"] == fresh_basis(L)


def test_the_stored_basis_cannot_be_written():
    L = Lattice((4, 6), ((2, 3),))
    basis = _lattice_basis(L)
    with pytest.raises(TypeError):
        basis[0][0] = 1
    with pytest.raises(TypeError):
        basis[0] = (1, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        L._basis = ((1, 0), (0, 1))
    assert _lattice_basis(L) is basis and lattice_size(L) == 2


@st.composite
def sample_pools(draw):
    """Moduli (1-4 of them, up to 2^63), a pool of up to 20 rows drawn from a
    few distinct ones, and the pool's distinct rows in shuffled order."""
    moduli = draw(st.lists(st.sampled_from(MODULI_POOL + HUGE_MODULI), min_size=1, max_size=4))
    row = st.tuples(*(st.integers(0, n - 1) for n in moduli))
    pool = draw(st.lists(st.sampled_from(draw(st.lists(row, min_size=1, max_size=5))), max_size=20))
    return tuple(moduli), pool, draw(st.permutations(list(set(pool))))


@given(sample_pools())
@settings(max_examples=200, deadline=None)
def test_the_kernel_of_a_pool_is_the_kernel_of_its_distinct_rows(case):
    moduli, pool, distinct = case
    K = solve_kernel(pool, moduli)
    assert K == solve_kernel(distinct, moduli) == solve_kernel(pool + pool, moduli)
    assert K == dual_lattice(Lattice(moduli, tuple(pool)))  # every row, repeats included
    assert K.gens == lattice_canonicalize(K).gens


def test_dual_of_known_line():
    # <(1,1)> over (3,3) annihilates exactly <(1,2)>
    L = Lattice((3, 3), ((1, 1),))
    D = dual_lattice(L)
    assert lattices_equal(D, Lattice((3, 3), ((1, 2),)))
    assert brute_dual(L) == set(lattice_elements(D))


def test_dual_trivial_and_full():
    moduli = (4, 9)
    assert lattices_equal(dual_lattice(Lattice(moduli, ())), full_lattice(moduli))
    assert lattices_equal(dual_lattice(full_lattice(moduli)), Lattice(moduli, ()))


def test_double_dual_and_size_product_random():
    rng = np.random.default_rng(1234)
    for _ in range(250):
        L = random_lattice(rng)
        D = dual_lattice(L)
        assert lattices_equal(dual_lattice(D), L)
        total = 1
        for n in L.moduli:
            total *= n
        assert lattice_size(L) * lattice_size(D) == total


def test_dual_matches_definition_exhaustively():
    rng = np.random.default_rng(99)
    for _ in range(40):
        L = random_lattice(rng, k_max=2)
        assert set(lattice_elements(dual_lattice(L))) == brute_dual(L)


def test_kernel_of_tall_sample_stacks_finishes():
    # a Smith form of these raw rows grew entries past 4,000 digits and did
    # not finish; the alarm turns such a hang into a failure
    full = Lattice(
        (512, 49, 49, 3),
        ((456, 17, 46, 0), (104, 20, 1, 0), (26, 41, 34, 0), (390, 43, 13, 1), (29, 33, 14, 1)),
    )
    rng = np.random.default_rng(19)
    moduli = (125, 125, 125, 5)
    H = Lattice(moduli, tuple(tuple(int(rng.integers(0, n)) for n in moduli) for _ in range(2)))
    D = dual_lattice(H)
    samples = Lattice(moduli, tuple(lattice_sample(D, rng) for _ in range(15)))

    def hang(signum, frame):
        raise TimeoutError("the kernel solve did not finish")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for S, planted in ((full, Lattice(full.moduli, ())), (samples, H)):
            K = solve_kernel(S.gens, S.moduli)
            assert lattices_equal(K, planted)
            assert lattices_equal(dual_lattice(K), S)
            assert lattice_size(K) * lattice_size(S) == math.prod(S.moduli)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_canonical_form_identifies_equal_lattices():
    # same subgroup, presented by different generator lists
    a = Lattice((9, 3), ((3, 1), (6, 2)))
    b = Lattice((9, 3), ((3, 1),))
    assert a.gens != b.gens
    assert lattices_equal(a, b)
    assert lattice_canonicalize(a) == lattice_canonicalize(b)
    # literal comparison of unreduced lattices would get this wrong
    assert not lattices_equal(a, Lattice((9, 3), ((3, 2),)))


def test_membership_against_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(30):
        L = random_lattice(rng, k_max=2)
        elems = set(lattice_elements(L))
        assert lattice_size(L) == len(elems)
        for v in itertools.product(*(range(n) for n in L.moduli)):
            assert lattice_member(L, v) == (v in elems)


def test_coset_reps_partition():
    L = Lattice((9, 3), ((3, 1),))
    reps = {}
    for v in itertools.product(range(9), range(3)):
        reps.setdefault(lattice_coset_rep(L, v), []).append(v)
    assert len(reps) == 27 // lattice_size(L)
    for rep, members in reps.items():
        assert lattice_member(L, rep) == (rep == (0, 0))
        # all members differ from the rep by a lattice vector
        for v in members:
            diff = tuple((a - b) % n for a, b, n in zip(v, rep, L.moduli))
            assert lattice_member(L, diff)


def test_a_vector_of_the_wrong_width_raises():
    L = Lattice((9, 3), ((3, 1),))
    for v in [(1, 2, 5), (1,)]:
        with pytest.raises(ValueError, match="vector width"):
            lattice_coset_rep(L, v)
        with pytest.raises(ValueError, match="vector width"):
            lattice_member(L, v)


def test_sample_stays_inside_and_covers():
    rng = np.random.default_rng(5150)
    L = Lattice((9, 3), ((3, 1), (0, 0)))
    seen = set()
    for _ in range(400):
        v = lattice_sample(L, rng)
        assert lattice_member(L, v)
        seen.add(v)
    assert seen == set(lattice_elements(L))


def test_sample_is_roughly_uniform():
    rng = np.random.default_rng(77)
    L = Lattice((3, 3), ((1, 0), (0, 1)))
    counts = {}
    n = 9000
    for _ in range(n):
        v = lattice_sample(L, rng)
        counts[v] = counts.get(v, 0) + 1
    expect = n / 9
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 < 26.0  # df=8, p ~ 1e-3


def test_solve_kernel_recovers_lattice():
    rng = np.random.default_rng(31337)
    for _ in range(60):
        L = random_lattice(rng, k_max=2)
        D = dual_lattice(L)
        samples = [lattice_sample(D, rng) for _ in range(24)]
        K = solve_kernel(samples, L.moduli)
        # kernel of a sample subset always contains L; with 24 draws it is L whp
        for g in L.gens:
            assert lattice_member(K, g)
    # deterministic fixture: enough samples pins it down
    L = Lattice((9, 3), ((3, 1),))
    D = dual_lattice(L)
    samples = [lattice_sample(D, rng) for _ in range(40)]
    assert lattices_equal(solve_kernel(samples, (9, 3)), L)


def test_solve_kernel_of_nothing_is_everything():
    assert lattices_equal(solve_kernel((), (4, 9)), full_lattice((4, 9)))


def exact_det(M) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if not M:
        return 1
    return sum(
        (-1) ** j * M[0][j] * exact_det([r[:j] + r[j + 1 :] for r in M[1:]])
        for j in range(len(M))
    )


def reference_smith(rows, width):
    """(d, uinv, v) with A @ v == uinv @ diag(d), v and uinv unimodular: the
    pivoting of ``smith_normal_form``, which keeps only d and v, with the
    inverse row transform uinv updated on every row operation as well."""
    m, k = len(rows), width
    A = [list(map(int, r)) for r in rows]
    Uinv = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(k)] for i in range(k)]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):  # row i += c * row j
        A[i] = [x + c * y for x, y in zip(A[i], A[j])]
        for r in Uinv:
            r[j] -= c * r[i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        for r in Uinv:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in A + V:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, c):  # col i += c * col j
        for r in A + V:
            r[i] += c * r[j]

    rank = min(m, k)

    def diagonalize():
        for t in range(rank):
            nonzero = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, k) if A[i][j]]
            if not nonzero:
                return
            _, bi, bj = min(nonzero)  # smallest magnitude, first in row-major order
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, m):
                    if A[i][t]:
                        q = A[i][t] // A[t][t]
                        if q:
                            row_add(i, t, -q)
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
            if A[t][t] < 0:
                row_neg(t)

    violation = True
    while violation:
        diagonalize()
        violation = False  # zeros last, then the divisibility chain
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
    return tuple(A[i][i] for i in range(rank)), Uinv, V


@given(
    st.lists(
        st.lists(st.integers(-40, 40), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=80, deadline=None)
def test_smith_normal_form_properties(rows):
    d, uinv, v = reference_smith(rows, 3)
    snf = smith_normal_form(rows, 3)
    assert snf.d == d and snf.v == tuple(map(tuple, v))
    A = np.array(rows, dtype=object)
    D = np.zeros((len(rows), 3), dtype=object)
    for i, x in enumerate(d):
        D[i, i] = x
    V, Uinv = np.array(v, dtype=object), np.array(uinv, dtype=object)
    assert (A @ V).tolist() == (Uinv @ D).tolist()
    assert abs(exact_det(v)) == 1
    assert abs(exact_det(uinv)) == 1
    assert all(x >= 0 for x in d)
    for i in range(len(d) - 1):
        if d[i + 1] != 0:
            assert d[i + 1] % max(d[i], 1) == 0 or d[i] == 0
        if d[i] != 0 and d[i + 1] != 0:
            assert d[i + 1] % d[i] == 0


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice((0, 3), ())
    with pytest.raises(ValueError):
        Lattice((3,), ((1, 2),))
    assert lattice_is_full(Lattice((2, 2), ((1, 0), (0, 1))))
    assert not lattice_is_full(Lattice((2, 2), ((1, 1),)))
