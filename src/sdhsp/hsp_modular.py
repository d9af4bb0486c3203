"""Hidden subgroup solver for the modular maximal-cyclic groups.

Target family: non-abelian semidirect products of Z_{p^r} by Z_p whose twist
is multiplication by p^{r-1} + 1, with r >= 2 and (p, r) != (2, 2).  The
solver touches the group only through opaque handles: it may multiply,
invert and compare encodings, and evaluate the hiding function pointwise or
over a superposed grid of products.

Every hidden subgroup H is caught by at least one of three reductions, each
an exact pullback along a homomorphism from a small abelian grid, so the
abelian lattice solver applies verbatim:

  quotient    G modulo the central subgroup <x^p> is Z_p x Z_p; runs when
              f(X^p) = f(e), i.e. when x^p lies in H.
  inner       H sits inside the index-p abelian subgroup generated by X^p
              and a corrected second generator Y' = X^{-shift} Y; runs when
              the correction's p-th power lies in H.  The shift comes from
              a preliminary abelian solve over the p-th powers of both
              special generators.
  involution  p = 2 only: an order-8 abelian subgroup generated by
              X^{2^{r-2}} and an involution built from Y' catches the
              subgroups that meet <x> trivially.

Candidates from every branch that ran are filtered by f-membership before
the closure is taken, so a branch can never add a foreign element; with
confident abelian solves the closure equals H exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import lattice_is_full
from .blackbox import (
    BlackBox,
    HiddenInstance,
    OpaqueHandle,
    SolveOutcome,
    oracle_identity,
    oracle_lift,
    oracle_pow,
    record_stage,
    reveal_answer,
)
from .qsim import AbelianOracle, AbelianSolveResult, abelian_hsp_solve
from .sdp_group import GroupSpec


@dataclass(frozen=True)
class SpecialPair:
    """Generator pair normalized for the solver.

    ``x`` has maximal order p^r, ``y`` does not commute with it.  Both are
    opaque handles; ``identity`` is the encoded neutral element.
    """

    x: OpaqueHandle
    y: OpaqueHandle
    identity: OpaqueHandle


def _require_solver_group(spec) -> None:
    if not isinstance(spec, GroupSpec) or not spec.is_modular:
        raise ValueError("the solver requires the modular maximal-cyclic presentation")
    if spec.p == 2 and spec.r == 2:
        raise ValueError(
            "p = r = 2 is excluded: that group is dihedral, outside this solver's class"
        )


def find_special_pair(bb: BlackBox, gen_handles) -> SpecialPair:
    """Normalize an arbitrary generating set to (maximal-order X, partner Y).

    Scans for a generator whose p^{r-1} power is not the identity; such an
    element has order exactly p^r and every generating set of the group
    contains one.  The partner is any other generator that fails to commute
    with it; one must exist or the generators would span an abelian group.
    """
    spec = bb.table.spec
    _require_solver_group(spec)
    p, r = spec.p, spec.r
    handles = list(gen_handles)
    if not handles:
        raise ValueError("not a valid generating set: empty")
    e = oracle_identity(bb, handles[0])

    x = None
    for h in handles:
        if not bb.oracle_eq(oracle_pow(bb, h, p ** (r - 1), e), e):
            x = h
            break
    if x is None:
        raise ValueError("not a valid generating set: no element of maximal order")
    if not bb.oracle_eq(oracle_pow(bb, x, p**r, e), e):
        raise ValueError("not a valid generating set: element order exceeds the group exponent")

    for h in handles:
        if bb.oracle_eq(bb.oracle_mul(x, h), bb.oracle_mul(h, x)):
            continue
        return SpecialPair(x=x, y=h, identity=e)
    raise ValueError(
        "not a valid generating set: all generators commute with the maximal-order element"
    )


def find_shift(
    inst: HiddenInstance,
    pair: SpecialPair,
    xp: OpaqueHandle,
    rng: np.random.Generator,
    delta: float = 0.01,
) -> tuple[int | None, AbelianSolveResult]:
    """Relate the p-th powers of the special pair through the hiding function.

    Both X^p (``xp``, passed in) and Y^p are central powers of x, so
    F(u, v) = f((X^p)^u (Y^p)^v) is an exact homomorphism pullback over
    Z_{p^{r-1}} x Z_{p^{r-1}} and its periodicity lattice is a congruence
    a u + a' v = 0 (mod p^{i-1}) with a invertible.  Any basis of a proper
    such lattice contains a row whose second coordinate is a unit, giving
    shift = -u * v^{-1}.  A full lattice carries no information: the shift
    is then None and the quotient reduction applies.  Returns the shift and
    the abelian solve, whose lattice is this periodicity lattice.  As Y^p lies
    in <X^p>, the grid is walked on <X^p> alone (``BlackBox._walk``).
    """
    bb = inst.blackbox
    spec = bb.table.spec
    p, r = spec.p, spec.r
    n1 = p ** (r - 1)
    e = pair.identity
    yp = oracle_pow(bb, pair.y, p, e)
    oracle = AbelianOracle.from_handles((n1, n1), inst, e, (xp, yp))
    res = abelian_hsp_solve(oracle, rng, delta=delta)
    if lattice_is_full(res.lattice):
        return None, res
    for u, v in res.lattice.gens:
        if v % p != 0:
            return (-u * pow(v, -1, n1)) % n1, res
    # unreachable for this group family (the congruence has unit coefficients)
    return None, res


def shifted_generator(bb: BlackBox, pair: SpecialPair, shift: int | None) -> OpaqueHandle:
    """Y' = X^{-shift} Y, the corrected second generator.

    Its y-part is always a unit, and its p-th power is a power of x whose
    exponent vanishes to the same p-adic depth as H's intersection with
    <x> (one level short for p = 2 at the deepest level, which is what the
    involution branch is for).
    """
    if shift is None:
        raise ValueError("no shift available: the quotient reduction covers this instance")
    e = pair.identity
    return bb.oracle_mul(oracle_pow(bb, pair.x, -shift, e), pair.y)


def find_involution_partner(
    bb: BlackBox, pair: SpecialPair, x4: OpaqueHandle, yprime: OpaqueHandle
) -> OpaqueHandle | None:
    """p = 2 only: an involution of the form x4^{-k} Y', x4 = X^{2^{r-2}}.

    Searches k in 0..3 for a W with W^2 = e.  When the hidden subgroup
    meets <x> trivially such a W exists and <x4, W> is an abelian
    group of order 8 containing every candidate subgroup.
    """
    if bb.table.spec.p != 2:
        raise ValueError("the involution construction applies only to p = 2")
    e = pair.identity
    for k in range(4):
        w = bb.oracle_mul(oracle_pow(bb, x4, -k, e), yprime)
        if bb.oracle_eq(bb.oracle_mul(w, w), e):
            return w
    return None


def _run_branch(
    name: str,
    inst: HiddenInstance,
    e: OpaqueHandle,
    moduli: tuple[int, ...],
    gens: tuple[OpaqueHandle, ...],
    extras: tuple[OpaqueHandle, ...],
    rng: np.random.Generator,
    delta: float,
) -> tuple[list[OpaqueHandle], AbelianSolveResult]:
    """Solve one reduction's grid; its candidates and its abelian solve.
    ``name`` is unread here: perfbench names the branch's span by it."""
    bb = inst.blackbox
    oracle = AbelianOracle.from_handles(moduli, inst, e, gens)
    res = abelian_hsp_solve(oracle, rng, delta=delta)
    cands = [oracle_lift(bb, e, gens, g) for g in res.lattice.gens]
    cands.extend(extras)
    return cands, res


def solve(
    inst: HiddenInstance,
    gen_handles,
    rng: np.random.Generator | None = None,
    delta: float = 0.01,
) -> SolveOutcome:
    """Recover the hidden subgroup of a modular maximal-cyclic group.

    Returns surviving generator handles, their post-hoc revealed
    coordinates, the full subgroup closure, and a JSON-friendly report
    whose ``stages`` hold one record per step, in order: ``special_pair``,
    ``shift``, ``quotient``, ``inner``, ``involution`` (p = 2, after a
    failed inner gate) and ``filter``.  ``confident`` is True when every
    abelian solve that contributed was verified: the output is then exact
    under the hiding promise.  Without the promise it certifies the
    evidence: a confident answer K hides f on the set E of elements the
    solve evaluated, pointwise or on a superposed grid (f(x) = f(y) iff
    xK = yK for x, y in E).  Every superposed grid evaluated was certified
    periodic and injective on its cosets, or the solve raised ValueError;
    an f relabelled off E goes unseen.  Candidates are always filtered by
    f-membership, so even a low-confidence result never contains an
    element outside H.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must be in (0, 0.5]")
    if rng is None:
        rng = np.random.default_rng(0)
    bb = inst.blackbox
    pair = find_special_pair(bb, gen_handles)  # rejects groups outside the family first
    spec = bb.table.spec
    p, r = spec.p, spec.r
    group = {"p": p, "q": spec.q, "r": r, "alpha": spec.alpha}
    report: dict = {"group": group, "delta": delta, "stages": []}
    record_stage(report, inst, "special_pair")
    e = pair.identity
    xp = oracle_pow(bb, pair.x, p, e)
    shift, shift_solve = find_shift(inst, pair, xp, rng, delta=delta)
    record_stage(report, inst, "shift", shift_solve)
    candidates: list[OpaqueHandle] = []

    def run_branch(name, moduli, gens, extras) -> None:
        cands, res = _run_branch(name, inst, e, moduli, gens, extras, rng, delta)
        candidates.extend(cands)
        record_stage(report, inst, name, res)

    def skip(name, note) -> None:
        record_stage(report, inst, name, ran=False, note=note)

    # quotient reduction: valid exactly when x^p lies in H
    f0 = inst.f(e)
    if inst.f(xp) == f0:
        run_branch("quotient", (p, p), (pair.x, pair.y), (xp,))
    else:
        skip("quotient", "x^p lies outside the hidden subgroup")

    if shift is not None:
        yprime = shifted_generator(bb, pair, shift)
        ypp = oracle_pow(bb, yprime, p, e)
        if inst.f(ypp) == f0:
            run_branch("inner", (p ** (r - 1), p), (xp, yprime), (ypp,))
        else:
            skip("inner", "corrected generator's p-th power is outside H")
            if p == 2:
                x4 = oracle_pow(bb, pair.x, 2 ** (r - 2), e)
                w = find_involution_partner(bb, pair, x4, yprime)
                if w is None:
                    skip("involution", "no involution found")
                else:
                    run_branch("involution", (4, 2), (x4, w), ())
    else:
        skip("inner", "shift unavailable (full relation lattice)")

    survivors = [h for h in candidates if inst.f(h) == f0]
    record_stage(report, inst, "filter")
    report.update(shift=shift, candidates_kept=len(survivors))
    return reveal_answer(bb, survivors, report)
