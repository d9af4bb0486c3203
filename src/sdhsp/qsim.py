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

Oracles over a black box are built in one batched pass: ``BlackBox._walk``
gives the element indices of g_1^{u_1}...g_k^{u_k} over the grid, which
``from_handles`` reads as labels in place and ``from_products`` as handle
codes under a unique encoding; ``from_powers`` labels only <g_1> on a grid
of its powers.  The walk books one ``oracle_mul`` per grid point as
``walk_mul`` and draws no salt, so counters and answers match a
point-by-point walk.  Grid values are labels or codes, compared only for
equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .algebra import Lattice, _lattice_basis, lattice_canonicalize, lattice_size, solve_kernel

MAX_ROUNDS = 3  # abelian_hsp_solve doubles its sample pool at most twice


class AbelianOracle:
    """F on a product of cyclic groups, pre-evaluated on the full grid, or on
    Z_t with F(u) = grid[w.u mod t], t = grid.size, given ``weights`` w, w_1 = 1.

    The grid holds integer values, compared only for equality.  The oracle
    takes ownership of `grid` and makes this handle read-only; a caller must
    not write through another view of its memory, since the cached
    certificate assumes the grid never changes.  ``draw_samples`` books its
    rounds on ``inst``, the hidden instance the oracle was built over, if
    any; ``single_cost`` gets the point of each ``evaluate``, reduced into
    the grid.  A plain ``AbelianOracle(moduli, grid)`` books nothing.
    """

    def __init__(
        self,
        moduli: Sequence[int],
        grid: np.ndarray,
        inst=None,
        single_cost: Callable[[tuple[int, ...]], None] | None = None,
        weights: Sequence[int] | None = None,
    ) -> None:
        self.moduli = tuple(int(n) for n in moduli)
        if any(n < 1 for n in self.moduli):
            raise ValueError("moduli must be positive")
        # the cached certificate below is only valid for this grid
        grid.flags.writeable = False
        self.grid = grid
        self.inst = inst
        self._single_cost = single_cost
        self._weights = weights

    @property
    def domain_size(self) -> int:
        return math.prod(self.moduli)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_handles(cls, moduli, inst, identity, gen_handles) -> "AbelianOracle":
        """F(u) = f(g_1^{u_1} ... g_k^{u_k}) over a hidden instance: the walk's
        labels, gathered into its index grid in place.  Each ``evaluate``
        books one pointwise ``f``."""
        walk = inst.blackbox._walk(moduli, identity, gen_handles)
        # every index is in range; 'clip' gathers into the index grid, unbuffered
        labels = inst.labels.take(walk, out=walk, mode="clip")
        return cls(moduli, labels, inst, lambda _: inst.charge(f=1))

    @classmethod
    def from_powers(cls, moduli, inst, identity, gen_handles) -> "AbelianOracle":
        """``from_handles`` on a grid of powers g_d = g_1^{w_d} with g_d^{n_d} = e:
        its values and certificate from the ord(g_1) labels of <g_1>
        (``BlackBox._power_walk``); ValueError, nothing booked, on another grid."""
        walk, weights = inst.blackbox._power_walk(moduli, identity, gen_handles)
        return cls(moduli, inst.labels[walk], inst, lambda _: inst.charge(f=1), weights)

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

        codes = bb.codes[bb._walk(moduli, identity, gen_handles), 0]
        return cls(moduli, codes, inst, lift_cost)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        idx = tuple(int(x) % n for x, n in zip(point, self.moduli, strict=True))
        if self._single_cost is not None:
            self._single_cost(idx)
        if self._weights is not None:
            idx = sum(w * x for w, x in zip(self._weights, idx)) % self.grid.size
        return int(self.grid[idx])

    def f0(self) -> int:
        return int(self.grid.flat[0])

    @cached_property
    def _certificate(self) -> tuple[int, np.ndarray, np.ndarray]:
        """|L|, L^perp's row-major indices and their CDF by ``Generator.choice``'s
        steps, when every level set of F translates F(0)'s, a subgroup L: iff
        L's generators leave the grid unchanged (F is L-periodic) and the box
        prod [0, d_i), d_i the diagonal of L's echelon basis, a transversal of
        G/L, holds prod d_i values (F is injective on G/L).  Otherwise F hides
        no subgroup on this grid: ValueError, naming the test that failed.

        F(u) = h[w.u mod t], w_1 = 1, passes iff h does, with L the preimage of
        h's K: kappa = |Z_t/K|, and L^perp is j (w_d n_d / kappa)_d, row-major for j < kappa."""
        if self._weights is not None:
            kappa = self.grid.size // AbelianOracle(self.grid.shape, self.grid)._certificate[0]
            step = np.multiply(self._weights, self.moduli) // kappa
            dual = np.arange(kappa)[:, None] * step % self.moduli
            outcomes = np.ravel_multi_index(tuple(dual.T), self.moduli)
            return self.domain_size // kappa, outcomes, np.arange(1, kappa + 1) / kappa
        gens = _subgroup_gens(self.grid)
        if gens is None:
            raise ValueError("function is not periodic over this domain")
        basis = _lattice_basis(Lattice(self.moduli, tuple(gens)))
        box = np.sort(self.grid[tuple(slice(row[i]) for i, row in enumerate(basis))], axis=None)
        if 1 + np.count_nonzero(np.diff(box)) != box.size:
            raise ValueError("function gives two cosets of its period lattice one value")
        mask = _dual_mask(self.moduli, gens)
        outcomes = np.flatnonzero(mask)
        cdf = mask[outcomes].cumsum()
        return self.domain_size // box.size, outcomes, cdf / cdf[-1]


# -- sampling -------------------------------------------------------------------


def _subgroup_gens(grid: np.ndarray) -> list | None:
    """Generators of F(0)'s level set S if S is a subgroup L and F is
    L-periodic (`grid` equals its roll by each), else None.

    g_d is the first point of S with earlier coordinates 0 and least positive
    u_d on axis d: in row-major order, the first point from stride s_d on, if
    it is below n_d s_d.  S is <g_d> and F is <g_d>-periodic iff the grid
    equals its roll by each g_d, as u_d is least; u_d not dividing n_d, or a
    size other than prod n_d / u_d, rules S out before any periodicity check."""
    shape, pts = grid.shape, np.flatnonzero(grid == grid.flat[0])
    strides = [math.prod(shape[d + 1 :]) for d in range(len(shape))]
    gens, order = [], 1
    for n, s in zip(shape, strides):
        first = int(pts[pts.searchsorted(s)]) if pts[-1] >= s else n * s
        u = min(first // s, n)
        order *= 0 if n % u else n // u
        if u < n:
            gens.append(tuple(first // t % m for t, m in zip(strides, shape)))
    return gens if pts.size == order and all(_periodic(grid, g) for g in gens) else None


def _periodic(grid: np.ndarray, g) -> bool:
    """Whether `grid` equals its roll by `g`, read in place: a shift s on an axis
    pairs [s, n) with [0, n - s) and, if s > 0, [0, s) with [n - s, n).  Pairs are
    compared up to the first mismatch, by count: half the time of (a == b).all()."""
    pairs = [((), ())]
    for x, n in zip(g, grid.shape, strict=True):
        s = int(x) % n
        cuts = ((slice(s, n), slice(n - s)), (slice(s), slice(n - s, n)))[: 1 + (s > 0)]
        pairs = [(a + (u,), b + (v,)) for a, b in pairs for u, v in cuts]
    return all(not np.count_nonzero(grid[a] != grid[b]) for a, b in pairs)


def _dual_mask(moduli: tuple[int, ...], gens: list) -> np.ndarray:
    """Row-major L^perp indicator, L = <gens>: per g, the phases sum_i k_i g_i N / n_i
    mod N of the leading axes against minus the last's, in the narrowest type."""
    k, N = len(moduli), math.lcm(*moduli)
    w = np.array(gens, np.int64).reshape(-1, k) * (N // np.array(moduli))
    lead = w[:, :-1] @ np.indices(moduli[:-1]).reshape(k - 1, math.prod(moduli[:-1])) % N
    last = w[:, -1:] * -np.arange(moduli[-1]) % N
    dt = np.min_scalar_type(N)
    return (lead.astype(dt)[:, :, None] == last.astype(dt)[:, None, :]).all(axis=0).reshape(-1)


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
