"""Hidden subgroup solver for vector semidirect products.

Target family: G = Z_{p^r}^m x| Z_p where the generator of the Z_p factor
acts on every coordinate as multiplication by p^{r-1} + 1, with r >= 2,
m >= 1 and (p, r) != (2, 2).  Unlike the rank-one solver, no case analysis
is needed: the whole group reduces at once.

The reduction map pi sends abelian coordinates (u_1..u_m, v) to the element
g'_1^{u_1} ... g'_m^{u_m} Y^v, where the g'_i are a subset of the given
handles that forms a basis of the abelian part A, and Y is the given
generator of the complement with Y^p = e.  pi is a coordinate bijection but
not a homomorphism; the twist contributes a factor that is always a power
of an element of H whenever the operands map into H, so F = f o pi is
exactly lattice-periodic and the abelian solver applies.  The recovered
lattice is L = pi^-1(H), and the images under pi of the m + 1 rows of its
echelon basis generate H: no sampling and no closure is needed.

Unique encoding is required: the minimal-generating-set step compares raw
encoding bytes to detect relations, which is only meaningful when equal
elements have equal encodings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Lattice, _lattice_basis, lattice_is_full, lattice_size
from .blackbox import (
    BlackBox,
    HiddenInstance,
    OpaqueHandle,
    SolveOutcome,
    make_hidden_instance,
    oracle_identity,
    oracle_lift,
    record_stage,
    reveal_answer,
)
from .qsim import AbelianOracle, AbelianSolveResult, abelian_hsp_solve
from .sdp_group import VecElement, ZmGroupSpec, vec_table

@dataclass(frozen=True)
class VecInstance:
    """A hiding instance plus typed generator handles.

    ``a_handles`` encode generators of the abelian part A = Z_{p^r}^m x {0};
    ``y_handle`` encodes a generator of {0} x Z_p.  The split is part of the
    input promise; without it the solver could not aim its reductions.
    """

    instance: HiddenInstance
    a_handles: tuple[OpaqueHandle, ...]
    y_handle: OpaqueHandle

    @property
    def blackbox(self) -> BlackBox:
        return self.instance.blackbox

    @property
    def spec(self) -> ZmGroupSpec:
        return self.blackbox.table.spec


def make_vec_instance(
    spec: ZmGroupSpec,
    subgroup,
    salts: int = 1,
    generator_policy: str = "canonical",
    seed: int = 0,
) -> VecInstance:
    """Build a hiding instance with the typed generator split.

    'canonical' hands out the coordinate vectors x_1..x_m and y.
    'scrambled' draws random generating vectors for A and a random
    generator of the complement.  Unique encoding (one salt per element)
    is mandatory.  The instance runs on ``vec_table(spec)``, the one table
    of that spec.
    """
    if salts != 1:
        raise ValueError("the vector-group solver requires unique encoding")
    table = vec_table(spec)
    inst, handles = make_hidden_instance(table, subgroup, seed=seed)
    bb = inst.blackbox
    if generator_policy == "canonical":
        return VecInstance(inst, tuple(handles[: spec.m]), handles[spec.m])
    if generator_policy != "scrambled":
        raise ValueError(f"unknown generator policy {generator_policy!r}")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C12A]))
    n, m = spec.modulus, spec.m
    for _ in range(500):
        k = m + int(rng.integers(0, 2))
        rows = tuple(
            tuple(int(rng.integers(0, n)) for _ in range(m)) for _ in range(k)
        )
        if lattice_is_full(Lattice((n,) * m, rows)):
            break
    else:
        raise RuntimeError("failed to draw a random generating set")
    a_handles = tuple(bb.encode(VecElement(row, 0), 0) for row in rows)
    y_elem = VecElement((0,) * m, int(rng.integers(1, spec.p)))
    return VecInstance(inst, a_handles, bb.encode(y_elem, 0))


@dataclass(frozen=True)
class ReductionMap:
    """Coordinate bijection (u_1..u_m, v) -> g'_1^{u_1} ... g'_m^{u_m} Y^v."""

    moduli: tuple[int, ...]
    gen_handles: tuple[OpaqueHandle, ...]  # the g'_i, each of order p^r
    y_handle: OpaqueHandle
    identity: OpaqueHandle

    def lift(self, bb: BlackBox, coords) -> OpaqueHandle:
        """Handle of the element at the given abelian coordinates."""
        return oracle_lift(bb, self.identity, self.gen_handles + (self.y_handle,), coords)


def minimal_generating_set(
    vin: VecInstance,
    rng: np.random.Generator,
    delta: float = 0.01,
) -> tuple[ReductionMap, AbelianSolveResult]:
    """Pick m of the A-generator handles that form a basis of A.

    The relation lattice R = {u : a_1^{u_1} ... a_s^{u_s} = e} is itself a
    hidden-lattice problem whose oracle values are raw encoding bytes, so
    the abelian solver recovers it without touching the hiding function;
    its (p^r)^s-point grid is walked on the |A| or fewer elements it reaches
    (``BlackBox._walk``).  The handles present Z_n^m exactly when
    |Z_n^s / R| = n^m and the Hermite basis of R mod p has s - m pivots
    equal to 1.  Each pivot handle is a combination of the others mod pA,
    so the other m, kept in their given order, span A / pA; Z_n is a local
    ring, so by Nakayama's lemma they span A and form a basis.  After the
    solve, one commute test checks the complement handle y = (c, b): it
    acts on the first basis handle g, which lies outside pA, as alpha^b
    with alpha^b - 1 = b p^(r-1), so y commutes with g iff b = 0.
    Returns the reduction map and the relation lattice's abelian solve.
    """
    inst, bb = vin.instance, vin.blackbox
    spec = vin.spec
    n, m = spec.modulus, spec.m
    s = len(vin.a_handles)
    not_free = f"the abelian generator handles do not present a free module of rank {m} over Z_{n}"
    if s < m:
        raise ValueError(not_free)
    e = oracle_identity(bb, vin.y_handle)

    oracle = AbelianOracle.from_products((n,) * s, inst, e, vin.a_handles)
    res = abelian_hsp_solve(oracle, rng, delta=delta)

    mod_p = _lattice_basis(Lattice((spec.p,) * s, res.lattice.gens))
    pivots = {i for i, row in enumerate(mod_p) if row[i] == 1}
    if lattice_size(res.lattice) * n**m != n**s or len(pivots) != s - m:
        raise ValueError(not_free)
    gens = tuple(h for i, h in enumerate(vin.a_handles) if i not in pivots)
    y = vin.y_handle
    if bb.oracle_eq(bb.oracle_mul(y, gens[0]), bb.oracle_mul(gens[0], y)):
        raise ValueError("the complement handle lies in the abelian part")
    rmap = ReductionMap(moduli=(n,) * m + (spec.p,), gen_handles=gens, y_handle=y, identity=e)
    return rmap, res


def reduce_and_solve(
    vin: VecInstance,
    rmap: ReductionMap,
    rng: np.random.Generator,
    delta: float = 0.01,
) -> AbelianSolveResult:
    """Solve the abelian problem F = f o pi over Z_{p^r}^m x Z_p."""
    oracle = AbelianOracle.from_handles(
        rmap.moduli,
        vin.instance,
        rmap.identity,
        rmap.gen_handles + (rmap.y_handle,),
    )
    return abelian_hsp_solve(oracle, rng, delta=delta)


def pullback_generators(
    vin: VecInstance,
    rmap: ReductionMap,
    lat: Lattice,
) -> tuple[list[OpaqueHandle], bool]:
    """Read generators of H off the echelon basis of the lift of L = pi^-1(H).

    With the v coordinate first, the basis of the lift is upper triangular
    with k = m + 1 rows, so rows 2..k have v = 0.  The lift contains
    (p, 0, ..., 0), so every point of L with v = 0 mod p has a lift with
    v = 0, which is an integer combination of rows 2..k alone.  pi restricted
    to v = 0 is a homomorphism, so the images of rows 2..k generate the
    intersection of H with A.  Row 1 has v-pivot b in {1, p}.  If b = p, H
    lies in A.  If b = 1, write t = pi(row 1): t^c has v coordinate c, so an
    h in H with v coordinate c gives h t^-c in H and in A.  Either way the k
    lifted rows generate H.

    Each lifted row is kept only if f marks it as a member of H.  Returns
    the kept handles and whether every row passed; a failure means the
    lattice itself was wrong.
    """
    inst, bb = vin.instance, vin.blackbox
    v_first = Lattice(lat.moduli[-1:] + lat.moduli[:-1], [g[-1:] + g[:-1] for g in lat.gens])
    basis = _lattice_basis(v_first)
    f0 = inst.f(rmap.identity)
    handles: list[OpaqueHandle] = []
    for row in basis:
        h = rmap.lift(bb, [x % n for x, n in zip(row[1:] + row[:1], lat.moduli)])
        if inst.f(h) == f0:
            handles.append(h)
    return handles, len(handles) == len(basis)


def solve(
    vin: VecInstance,
    rng: np.random.Generator | None = None,
    delta: float = 0.01,
) -> SolveOutcome:
    """Recover the hidden subgroup of Z_{p^r}^m x| Z_p.

    Pipeline: pick a basis out of the abelian generators, solve the single
    reduced abelian instance, map the m + 1 echelon basis rows of its
    lattice through the reduction map.  The promise checks raise
    ValueError: the abelian handles must commute and present Z_{p^r}^m,
    and the complement handle must not lie in A.  The report's ``stages``
    hold one record per step, in order: ``minimal_generating_set`` (the
    promise checks included), ``reduce`` and ``pullback``.
    ``confident`` requires every stage to have verified its output: the
    result is then exact under the hiding promise.  Without the promise it
    certifies the evidence: a confident answer K hides f on the set E of
    elements the solve evaluated, pointwise or on a superposed grid (f(x) =
    f(y) iff xK = yK for x, y in E; handle-code grids are not f values).
    Every superposed grid evaluated was certified periodic and injective on
    its cosets, or the solve raised ValueError; an f relabelled off E goes
    unseen.
    All returned elements pass the f-membership filter regardless.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must be in (0, 0.5]")
    if rng is None:
        rng = np.random.default_rng(0)
    bb = vin.blackbox
    if bb.salts != 1:
        raise ValueError("the vector-group solver requires unique encoding")
    spec, inst = vin.spec, vin.instance
    report: dict = {"group": {"p": spec.p, "r": spec.r, "m": spec.m}, "delta": delta, "stages": []}

    # input-promise smoke check: the abelian handles must commute
    for i, h1 in enumerate(vin.a_handles):
        for h2 in vin.a_handles[i + 1 :]:
            if not bb.oracle_eq(bb.oracle_mul(h1, h2), bb.oracle_mul(h2, h1)):
                raise ValueError("the abelian generator handles do not commute")

    rmap, relations = minimal_generating_set(vin, rng, delta=delta)
    record_stage(report, inst, "minimal_generating_set", relations)
    res = reduce_and_solve(vin, rmap, rng, delta=delta)
    record_stage(report, inst, "reduce", res)
    handles, pulled_ok = pullback_generators(vin, rmap, res.lattice)
    record_stage(report, inst, "pullback", confident=pulled_ok)
    return reveal_answer(bb, handles, report)
