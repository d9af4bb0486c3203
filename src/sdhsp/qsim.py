"""Simulated quantum subroutine: sampling the annihilator of a hidden lattice.

A periodic function F on Z_{n_1} x ... x Z_{n_k} hides a lattice
L = { u : F(u) = F(0) }.  One round of the standard coset-state experiment
prepares a uniform superposition, evaluates F, measures the value register,
Fourier-transforms each axis, and measures.  The outcome is a uniform draw
from the annihilator L^perp.  Two interchangeable backends:

  'statevector'   dense simulation of the experiment (domain <= 2**20),
  'annihilator'   algebraic shortcut: uniform draws from the dual of the
                  swept periodicity lattice; same output distribution.

Both backends book the same modeled query cost: one superposed evaluation
of F over the whole domain per sample.  Pointwise evaluations are booked
as single classical queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    Lattice,
    dual_lattice,
    lattice_canonicalize,
    lattice_sample,
    lattice_size,
    solve_kernel,
)

STATEVECTOR_BOUND = 2**20
AMPLITUDE_FLOOR = 1e-9
BACKENDS = ("statevector", "annihilator")
MAX_ROUNDS = 3  # abelian_hsp_solve doubles its sample pool at most twice


def backend_for(domain_size: int) -> str:
    """The dense simulation while the domain fits its bound, else the shortcut."""
    return "statevector" if domain_size <= STATEVECTOR_BOUND else "annihilator"


def qft_matrix(n: int) -> np.ndarray:
    """Unitary DFT on Z_n with the e^{+2 pi i jk/n} convention."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)


class AbelianOracle:
    """F on a product of cyclic groups, pre-evaluated on the full grid.

    The grid holds small integer label ids.  Cost hooks let an oracle built
    over a counted hiding function keep booking modeled cost even though
    replays hit the cache.
    """

    def __init__(
        self,
        moduli: Sequence[int],
        grid: np.ndarray,
        sample_cost: Callable[[], None] | None = None,
        single_cost: Callable[[], None] | None = None,
        first_sample_paid: bool = False,
    ) -> None:
        self.moduli = tuple(int(n) for n in moduli)
        if any(n < 1 for n in self.moduli):
            raise ValueError("moduli must be positive")
        self.grid = grid
        self._sample_cost = sample_cost
        self._single_cost = single_cost
        self._credit = first_sample_paid

    @property
    def domain_size(self) -> int:
        return math.prod(self.moduli)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_function(cls, moduli: Sequence[int], fn: Callable) -> "AbelianOracle":
        """Uncounted oracle from a plain callable on index tuples."""
        moduli = tuple(int(n) for n in moduli)
        labels = [fn(pt) for pt in np.ndindex(*moduli)]
        return cls(moduli, _to_id_grid(labels, moduli))

    @classmethod
    def from_handles(cls, moduli, inst, identity, gen_handles) -> "AbelianOracle":
        """F(u) = f(g_1^{u_1} ... g_k^{u_k}) over a hidden instance.

        The build performs one batched evaluation of f over the domain,
        which pays for the first superposed sample.
        """
        handles = _walk_products(inst.blackbox, moduli, identity, gen_handles)
        labels = inst.f_batch(handles)
        dom = math.prod(moduli)
        return cls(
            moduli,
            _to_id_grid(labels, tuple(moduli)),
            sample_cost=lambda: inst.charge(dom, 1),
            single_cost=lambda: inst.charge(1, 0),
            first_sample_paid=True,
        )

    @classmethod
    def from_products(cls, moduli, bb, identity, gen_handles, charge=None) -> "AbelianOracle":
        """F(u) = encoding bytes of g_1^{u_1} ... g_k^{u_k}.

        Valid only when encodings are unique, so equal bytes mean equal
        elements.  Samples book superposed group-operation rounds through
        ``charge``; no hiding function is involved.
        """
        if bb.salts != 1:
            raise ValueError("product-valued oracles require unique encoding")
        handles = _walk_products(bb, moduli, identity, gen_handles)
        labels = [h.data for h in handles]
        return cls(
            moduli,
            _to_id_grid(labels, tuple(moduli)),
            sample_cost=charge,
        )

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        if self._single_cost is not None:
            self._single_cost()
        idx = tuple(int(x) % n for x, n in zip(point, self.moduli, strict=True))
        return int(self.grid[idx])

    def f0(self) -> int:
        return int(self.grid[(0,) * len(self.moduli)])

    def note_sample(self) -> None:
        if self._credit:
            self._credit = False
            return
        if self._sample_cost is not None:
            self._sample_cost()

    def periodicity_lattice(self) -> Lattice:
        """Sweep the grid for { u : F(u) = F(0) }; must be a subgroup."""
        mask = self.grid == self.grid[(0,) * len(self.moduli)]
        points = [tuple(int(x) for x in idx) for idx in np.argwhere(mask)]
        lat = lattice_canonicalize(Lattice(self.moduli, tuple(points)))
        if lattice_size(lat) != len(points):
            raise ValueError("function is not periodic over this domain")
        return lat


def _to_id_grid(labels: list, moduli: tuple[int, ...]) -> np.ndarray:
    ids: dict = {}
    flat = np.empty(math.prod(moduli), dtype=np.int64)
    for i, lab in enumerate(labels):
        flat[i] = ids.setdefault(lab, len(ids))
    return flat.reshape(moduli)


def _walk_products(bb, moduli, identity, gen_handles) -> list:
    """Handles of g_1^{u_1}...g_k^{u_k} in row-major order, one mul per step.

    prefix[i] is the product of the first i factors at the current index;
    bumping digit d multiplies prefix[d+1] by g_{d+1} on the right and
    resets all lower prefixes.
    """
    k = len(moduli)
    if len(gen_handles) != k:
        raise ValueError("one generator handle per modulus is required")
    idx = [0] * k
    prefix = [identity] * (k + 1)
    out = [prefix[k]]
    total = math.prod(moduli)
    for _ in range(total - 1):
        d = k - 1
        while idx[d] == moduli[d] - 1:
            idx[d] = 0
            d -= 1
        idx[d] += 1
        prefix[d + 1] = bb.oracle_mul(prefix[d + 1], gen_handles[d])
        for j in range(d + 1, k):
            prefix[j + 1] = prefix[j]
        out.append(prefix[k])
    return out


# -- sampling backends ----------------------------------------------------------


def sample_statevector(
    oracle: AbelianOracle, rng: np.random.Generator, count: int = 1
) -> list[tuple[int, ...]]:
    """Dense simulation of `count` independent coset-state rounds."""
    moduli = oracle.moduli
    dom = oracle.domain_size
    if dom > STATEVECTOR_BOUND:
        raise ValueError(
            f"domain size {dom} exceeds the statevector bound {STATEVECTOR_BOUND}"
        )
    out: list[tuple[int, ...]] = []
    for _ in range(count):
        oracle.note_sample()
        # measuring the value register collapses to a uniform coset state
        u0 = tuple(int(rng.integers(0, n)) for n in moduli)
        support = oracle.grid == oracle.grid[u0]
        psi = support.astype(np.complex128)
        psi /= math.sqrt(int(support.sum()))
        # the unitary DFT of every axis, qft_matrix's e^{+2 pi i jk/n} convention
        psi = np.fft.ifftn(psi, norm="ortho")
        amp = np.abs(psi.reshape(-1))
        amp[amp < AMPLITUDE_FLOOR] = 0.0
        probs = amp * amp
        probs /= probs.sum()
        flat = int(rng.choice(dom, p=probs))
        out.append(tuple(int(x) for x in np.unravel_index(flat, moduli)))
    return out


def sample_annihilator(
    truth: Lattice, rng: np.random.Generator, count: int = 1
) -> list[tuple[int, ...]]:
    """Exact sampler given a known lattice: uniform draws from its annihilator.

    Harness-side shortcut with the same output distribution as the
    statevector experiment; usable beyond the statevector domain bound.
    """
    dual = dual_lattice(truth)
    return [lattice_sample(dual, rng) for _ in range(count)]


def draw_samples(oracle, rng, count: int, backend: str) -> list[tuple[int, ...]]:
    if backend == "statevector":
        return sample_statevector(oracle, rng, count)
    if backend == "annihilator":
        # derive the truth by sweeping the oracle's own grid, then draw;
        # books the same modeled cost per sample as the statevector path
        truth = oracle.periodicity_lattice()
        for _ in range(count):
            oracle.note_sample()
        return sample_annihilator(truth, rng, count)
    raise ValueError(f"unknown backend {backend!r}")


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
    backend: str = "statevector",
) -> AbelianSolveResult:
    """Recover the hidden lattice of a periodic F from annihilator samples.

    Samples lie in L^perp, so the kernel of the pooled sample span always
    contains L.  The candidate is accepted once every canonical generator g
    satisfies F(g) = F(0); since that containment makes acceptance imply
    equality, a confident result is exact.  A confident lattice that is not
    F's period and F(0) level set on the pre-evaluated grid (no query is
    booked) means F is not periodic: ValueError under either backend.
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
        pooled.extend(draw_samples(oracle, rng, want - len(pooled), backend))
        lat = solve_kernel(tuple(pooled), oracle.moduli)
        if all(oracle.evaluate(g) == f0 for g in lat.gens):
            axes = tuple(range(k))
            if np.count_nonzero(oracle.grid == f0) != lattice_size(lat) or any(
                not np.array_equal(np.roll(oracle.grid, g, axis=axes), oracle.grid)
                for g in lat.gens
            ):
                raise ValueError("function is not periodic over this domain")
            return AbelianSolveResult(lat, True, rounds, len(pooled))
    # keep the generators that do satisfy the periodicity check
    good = tuple(g for g in lat.gens if oracle.evaluate(g) == f0)
    return AbelianSolveResult(
        lattice_canonicalize(Lattice(oracle.moduli, good)),
        False,
        rounds,
        len(pooled),
    )
