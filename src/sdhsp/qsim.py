"""Simulated quantum subroutine: sampling the annihilator of a hidden lattice.

A periodic function F on Z_{n_1} x ... x Z_{n_k} hides a lattice
L = { u : F(u) = F(0) }.  One round of the standard coset-state experiment
prepares a uniform superposition, evaluates F, measures the value register,
Fourier-transforms each axis, and measures.  The outcome is a uniform draw
from the annihilator L^perp, whatever the measured value.  ``draw_samples``
simulates that experiment densely, at every domain size, with one uniform
draw per round.

Translating a coset state changes only the phases of its Fourier
transform, so when every level set of F translates F(0)'s, a subgroup L,
every round is a uniform draw from L^perp.  That is the hidden-subgroup
promise read on the grid, and each oracle is certified against it once:
L is a subgroup, F is L-periodic and F is injective on G/L.  A certified
oracle's rounds draw from the cached L^perp CDF with no transform and no
grid pass; that CDF is exact, and draws identical to the literal per-coset
simulation's rounded transform are measured (tests, pinned reports), not
guaranteed.  An oracle that cannot be certified breaks the promise: its
first ``draw_samples`` raises ValueError before any round is booked.

Each round is one superposed evaluation of F over the whole domain, and
``draw_samples`` alone books it, on the instance of an oracle built over
one: a superposed call and the domain's points per round.  A build books
only its walk's products; pointwise evaluations are classical work, booked
by the cost model of the constructor that built the oracle.

Oracles over a black box are built in one batched pass: ``BlackBox._walk``,
one loop for every grid, gives the element indices of g_1^{u_1}...g_k^{u_k}
over the grid, or, when that map is a homomorphism, over the |I| points of
I = <g_1..g_k> with its kernel rows, read as labels (``from_handles``) or
handle codes under a unique encoding (``from_products``); counters match a
point-by-point walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .algebra import Lattice, lattice_canonicalize, lattice_size, reduce_rows, solve_kernel

MAX_ROUNDS = 3  # abelian_hsp_solve doubles its sample pool at most twice


class AbelianOracle:
    """F on Z_{n_1} x ... x Z_{n_k}, pre-evaluated on a box prod [0, t_d): F(u) is
    the grid's value at u reduced against periods of F, the upper-triangular
    ``kernel`` rows, t_d on their diagonal; by default the box is the domain.

    The grid holds integer values, compared only for equality.  The oracle
    takes ownership of `grid` and makes this handle read-only; a caller must
    not write through another view of its memory, since the cached
    certificate assumes the grid never changes.  ``draw_samples`` books its
    rounds on ``inst``, the hidden instance the oracle was built over, if
    any; ``single_cost`` gets the point of each ``evaluate``, reduced into
    the domain.  A plain ``AbelianOracle(moduli, grid)`` books nothing.
    """

    def __init__(
        self,
        moduli: Sequence[int],
        grid: np.ndarray,
        inst=None,
        single_cost: Callable[[tuple[int, ...]], None] | None = None,
        kernel: Sequence[Sequence[int]] | None = None,
    ) -> None:
        self.moduli = tuple(int(n) for n in moduli)
        if any(n < 1 for n in self.moduli):
            raise ValueError("moduli must be positive")
        # the cached certificate below is only valid for this grid
        grid.flags.writeable = False
        self.grid = grid
        self.inst = inst
        self._single_cost = single_cost
        self.kernel = kernel or np.diag(self.moduli).tolist()

    @property
    def domain_size(self) -> int:
        return math.prod(self.moduli)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_handles(cls, moduli, inst, identity, gen_handles) -> "AbelianOracle":
        """F(u) = f(g_1^{u_1} ... g_k^{u_k}) over a hidden instance: the walk's
        labels, gathered into its index grid in place.  Each ``evaluate``
        books one pointwise ``f``."""
        walk, kernel = inst.blackbox._walk(moduli, identity, gen_handles)
        # every index is in range; 'clip' gathers into the index grid, unbuffered
        labels = inst.labels.take(walk, out=walk, mode="clip")
        return cls(moduli, labels, inst, lambda _: inst.charge(f=1), kernel)

    @classmethod
    def from_products(cls, moduli, inst, identity, gen_handles) -> "AbelianOracle":
        """F(u) = handle code (encoding bytes) of g_1^{u_1} ... g_k^{u_k}.

        Valid only when encodings are unique, so equal codes mean equal
        elements; ValueError, nothing booked, otherwise.  The hiding function
        is not involved.  Each ``evaluate`` at u books as ``mul`` the products
        ``oracle_lift`` makes to compute u's element: per coordinate c,
        c.bit_length() + c.bit_count() for the power by square-and-multiply
        and one to append it.
        """
        bb = inst.blackbox
        if bb.salts != 1:
            raise ValueError("product-valued oracles require unique encoding")

        def lift_cost(u):
            bb.counters["mul"] += sum(c.bit_length() + c.bit_count() + 1 for c in u)

        walk, kernel = bb._walk(moduli, identity, gen_handles)
        return cls(moduli, bb.codes[walk, 0], inst, lift_cost, kernel)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        idx = tuple(int(x) % n for x, n in zip(point, self.moduli, strict=True))
        if self._single_cost is not None:
            self._single_cost(idx)
        return int(self.grid[tuple(reduce_rows(list(idx), self.kernel))])

    def f0(self) -> int:
        return int(self.grid.flat[0])

    @cached_property
    def _certificate(self) -> tuple[int, np.ndarray, np.ndarray]:
        """|L|, L^perp's row-major indices and their CDF by ``Generator.choice``'s
        steps, when every level set of F translates F(0)'s, a subgroup L: iff
        L's generators leave F unchanged (F is L-periodic) and the box prod
        [0, d_i), d_i the diagonal of L's echelon basis, holds prod d_i values
        (F is injective on G/L).  Otherwise ValueError, naming the failed test."""
        basis = _level_basis(self.grid, self.kernel)
        if basis is None:
            raise ValueError("function is not periodic over this domain")
        box = np.sort(self.grid[tuple(slice(row[i]) for i, row in enumerate(basis))], axis=None)
        if 1 + np.count_nonzero(np.diff(box)) != box.size:
            raise ValueError("function gives two cosets of its period lattice one value")
        outcomes = _dual(self.moduli, basis)
        return self.domain_size // box.size, outcomes, np.arange(1, box.size + 1) / box.size


# -- sampling -------------------------------------------------------------------


def _level_basis(grid: np.ndarray, kernel) -> list | None:
    """An upper-triangular basis of the lift of F(0)'s level set S if S is a
    subgroup L and F is L-periodic, else None.  Row d is the first point of S
    with earlier coordinates 0 and least positive u_d on axis d (in row-major
    order, the first from stride s_d on, if below t_d s_d), else kernel row d.
    S = <rows> and F is L-periodic iff F(u + g) = F(u) for each such point g;
    u_d not dividing t_d, or |S| != prod t_d / u_d, rules S out first."""
    shape, pts = grid.shape, np.flatnonzero(grid == grid.flat[0])
    strides = [math.prod(shape[d + 1 :]) for d in range(len(shape))]
    rows, gens, order = [], [], 1
    for d, (n, s) in enumerate(zip(shape, strides)):
        first = int(pts[pts.searchsorted(s)]) if pts[-1] >= s else n * s
        u = min(first // s, n)
        order *= 0 if n % u else n // u
        if u < n:
            gens.append([first // t % m for t, m in zip(strides, shape)])
        rows.append(gens[-1] if u < n else kernel[d])
    if pts.size != order:
        return None
    if not gens:
        return rows
    axes = np.indices(shape)
    return rows if all(_invariant(grid, kernel, axes, g) for g in gens) else None


def _invariant(grid: np.ndarray, kernel, axes: np.ndarray, g) -> bool:
    """Whether F(u + g) = F(u), u + g reduced, at every point u, ``axes`` of the box."""
    return np.array_equal(grid[tuple(reduce_rows([a + x for a, x in zip(axes, g)], kernel))], grid)


def _dual(moduli: tuple, basis: list) -> np.ndarray:
    """L^perp as sorted row-major indices, from the upper-triangular ``basis`` of
    L's lift: c is in it iff sum_j b_j c_j N / n_j = 0 mod N, N = lcm(moduli),
    for each row b.  From the last axis, row i fixes c_i mod n_i / b_ii given
    the later c_j, leaving b_ii values: |L^perp| = prod b_ii.  Each point of
    the later axes is carried as its row-major index and, per earlier row, its
    pairing sum."""
    N, k = math.lcm(*moduli), len(moduli)
    flat, sums, stride = np.zeros(1, dtype=np.int64), [np.zeros(1, dtype=np.int64)] * k, 1
    for i in reversed(range(k)):
        n, d = moduli[i], basis[i][i]
        m = n // d  # c_i N / n_i d_i = c_i N / m
        c = (-(sums[i] % N) // (N // m) % m)[:, None] + m * np.arange(d)  # points x d
        flat = (flat[:, None] + stride * c).ravel()
        sums = [(s[:, None] + basis[r][i] % n * (N // n) * c).ravel() for r, s in enumerate(sums[:i])]
        stride *= n
    return np.sort(flat)


def draw_samples(
    oracle: AbelianOracle, rng: np.random.Generator, count: int
) -> list[tuple[int, ...]]:
    """Dense simulation of `count` independent coset-state rounds.  Every
    coset of a certified oracle translates F(0)'s, so the measured value
    only changes phases and each round is a uniform draw from the cached
    L^perp CDF; the rounds take one ``rng.random(count)``, as
    ``rng.choice(size=count, p=)`` would, and read no grid.  Books each
    round as one superposed call over the domain's points on the oracle's
    instance, if it has one: the only place superposed work is booked.  An
    oracle that cannot be certified raises ValueError before any round is
    booked."""
    _, outcomes, cdf = oracle._certificate
    if oracle.inst is not None:
        oracle.inst.charge(superposed_calls=count, domain_points=count * oracle.domain_size)
    flat = outcomes[cdf.searchsorted(rng.random(count), side="right")]
    return list(zip(*(axis.tolist() for axis in np.unravel_index(flat, oracle.moduli))))


# -- the hidden-lattice solver ---------------------------------------------------


@dataclass(frozen=True)
class AbelianSolveResult:
    lattice: Lattice
    confident: bool
    rounds: int
    samples_used: int


def abelian_hsp_solve(
    oracle: AbelianOracle,
    rng: np.random.Generator,
    delta: float = 0.01,
) -> AbelianSolveResult:
    """Recover the hidden lattice of a periodic F from annihilator samples.

    Samples lie in L^perp, so the kernel of the pooled sample span always
    contains L.  The candidate is accepted once every canonical generator g
    satisfies F(g) = F(0); since that containment makes acceptance imply
    equality, a confident result is exact.  F must be certified (see
    ``draw_samples``, which raises ValueError otherwise); a confident
    lattice of other than |L| points would mean a draw off L^perp, and
    raises ValueError too.
    Each round doubles the pool.
    """
    k = len(oracle.moduli)
    base = k + math.ceil(math.log2(1.0 / delta)) + 4
    f0 = oracle.f0()
    pooled: list[tuple[int, ...]] = []
    rounds = 0
    lat = None
    for rounds in range(1, MAX_ROUNDS + 1):
        want = base * (2 ** (rounds - 1))
        pooled.extend(draw_samples(oracle, rng, want - len(pooled)))
        lat = solve_kernel(tuple(pooled), oracle.moduli)
        if rounds < MAX_ROUNDS:
            held = (oracle.evaluate(g) == f0 for g in lat.gens)
        else:
            # the unconfident tail needs every generator: evaluate each once
            held = [oracle.evaluate(g) == f0 for g in lat.gens]
        if all(held):
            # F is L-periodic and lat lies in L, so equal sizes mean lat = L;
            # a draw off L^perp (a sampler fault) can leave lat smaller
            if lattice_size(lat) != oracle._certificate[0]:
                raise ValueError("a sample lies off the dual of the function's period lattice")
            return AbelianSolveResult(lat, True, rounds, len(pooled))
    # keep the generators that do satisfy the periodicity check
    good = tuple(g for g, ok in zip(lat.gens, held) if ok)
    return AbelianSolveResult(
        lattice_canonicalize(Lattice(oracle.moduli, good)),
        False,
        rounds,
        len(pooled),
    )
