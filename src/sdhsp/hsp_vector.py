"""Hidden subgroup solver for vector semidirect products.

Target family: G = Z_{p^r}^m x| Z_p where the generator of the Z_p factor
acts on every coordinate as multiplication by p^{r-1} + 1, with r >= 2,
m >= 1 and (p, r) != (2, 2).  Unlike the rank-one solver, no case analysis
is needed: the whole group reduces at once.

The reduction map pi sends abelian coordinates (u_1..u_m, v) to the element
g'_1^{u_1} ... g'_m^{u_m} Y^v, where the g'_i form a minimal generating set
of the abelian part A recovered from the input handles, and Y is the given
generator of the complement with Y^p = e.  pi is a coordinate bijection but
not a homomorphism; the twist contributes a factor that is always a power
of an element of H whenever the operands map into H, so F = f o pi is
exactly lattice-periodic and the abelian solver applies.  Pulling the
recovered lattice back through pi and closing under multiplication yields
H itself.

Unique encoding is required: the minimal-generating-set step compares raw
encoding bytes to detect relations, which is only meaningful when equal
elements have equal encodings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Lattice,
    _lattice_basis,
    closure,
    lattice_is_full,
    lattice_sample,
    lattice_size,
    smith_normal_form,
)
from .blackbox import (
    BlackBox,
    HiddenInstance,
    OpaqueHandle,
    SolveOutcome,
    make_hidden_instance,
    oracle_identity,
    oracle_lift,
    reveal_answer,
)
from .qsim import AbelianOracle, AbelianSolveResult, abelian_hsp_solve
from .sdp_group import VecElement, ZmGroupSpec, vec_table

# Pullback: fresh lattice samples per round beyond the lattice's own
# generators, and the number of rounds before giving up.
PULLBACK_EXTRA_SAMPLES = 4
PULLBACK_MAX_ROUNDS = 8


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
    mode: str = "unique",
    generator_policy: str = "canonical",
    seed: int = 0,
) -> VecInstance:
    """Build a hiding instance with the typed generator split.

    'canonical' hands out the coordinate vectors x_1..x_m and y.
    'scrambled' draws random generating vectors for A and a random
    generator of the complement.  Unique encoding is mandatory.  The
    instance runs on ``vec_table(spec)``, the one table of that spec.
    """
    if mode != "unique":
        raise ValueError("the vector-group solver requires unique encoding")
    table = vec_table(spec)
    inst, handles = make_hidden_instance(
        table, subgroup, mode=mode, generator_policy="canonical", seed=seed
    )
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
    backend: str = "statevector",
) -> tuple[ReductionMap, dict]:
    """Distill the A-generator handles into m independent order-p^r generators.

    The relation lattice R = {u : a_1^{u_1} ... a_s^{u_s} = e} is itself a
    hidden-lattice problem whose oracle values are raw encoding bytes, so
    the abelian solver recovers it without touching the hiding function.
    A Smith decomposition of R then rebases the handles: the quotient
    Z^s / R must come out as m cyclic factors of order p^r exactly, or the
    inputs were not a generating set of A.
    """
    inst, bb = vin.instance, vin.blackbox
    spec = vin.spec
    n, m = spec.modulus, spec.m
    s = len(vin.a_handles)
    e = oracle_identity(bb, vin.y_handle)

    oracle = AbelianOracle.from_products(
        (n,) * s, bb, e, vin.a_handles, charge=lambda: inst.charge(0, 1)
    )
    res = abelian_hsp_solve(oracle, rng, delta=delta, backend=backend)

    basis = _lattice_basis(res.lattice)  # rows span the relation lattice
    cols = [list(col) for col in zip(*basis)]
    snf = smith_normal_form(cols, s)
    expect = sorted([1] * (s - m) + [n] * m)
    if sorted(snf.d) != expect:
        raise ValueError(
            "the abelian generator handles do not present a free module of "
            f"rank {m} over Z_{n}"
        )
    gens = [
        oracle_lift(bb, e, vin.a_handles, [snf.uinv[j][i] % n for j in range(s)])
        for i, d in enumerate(snf.d)
        if d == n
    ]
    rmap = ReductionMap(
        moduli=(n,) * m + (spec.p,),
        gen_handles=tuple(gens),
        y_handle=vin.y_handle,
        identity=e,
    )
    report = {
        "relation_lattice_gens": [list(g) for g in res.lattice.gens],
        "confident": res.confident,
        "samples_used": res.samples_used,
        "input_generators": s,
    }
    return rmap, report


def reduce_and_solve(
    vin: VecInstance,
    rmap: ReductionMap,
    rng: np.random.Generator,
    delta: float = 0.01,
    backend: str = "statevector",
) -> AbelianSolveResult:
    """Solve the abelian problem F = f o pi over Z_{p^r}^m x Z_p."""
    oracle = AbelianOracle.from_handles(
        rmap.moduli,
        vin.instance,
        rmap.identity,
        rmap.gen_handles + (rmap.y_handle,),
    )
    return abelian_hsp_solve(oracle, rng, delta=delta, backend=backend)


def pullback_generators(
    vin: VecInstance,
    rmap: ReductionMap,
    lat: Lattice,
    rng: np.random.Generator,
) -> tuple[list[OpaqueHandle], bool]:
    """Map lattice points back through pi and keep what lands in H.

    Starts from the canonical basis, adds uniform lattice samples, filters
    by f, and closes under multiplication until the closure size matches
    the lattice size (pi is a bijection, so |H| = |L|).  Returns the
    surviving handles and whether the size check succeeded; failure means
    the lattice itself was wrong.
    """
    inst, bb = vin.instance, vin.blackbox
    target = lattice_size(lat)
    count = len(lat.gens) + PULLBACK_EXTRA_SAMPLES
    f0 = inst.f(rmap.identity)

    pool: list[OpaqueHandle] = []
    points = list(lat.gens)
    for _ in range(PULLBACK_MAX_ROUNDS):
        points.extend(lattice_sample(lat, rng) for _ in range(count))
        for pt in points:
            h = rmap.lift(bb, pt)
            if inst.f(h) == f0:
                pool.append(h)
        points = []
        # handles compare by their bytes, which is exact under unique encoding
        found = closure(bb.oracle_mul, rmap.identity, pool, bound=target)
        if len(found) == target:
            return found, True
        if len(found) > target:
            break  # closure escaped the lattice size: the lattice is wrong
    return pool, False


def solve(
    vin: VecInstance,
    rng: np.random.Generator | None = None,
    delta: float = 0.01,
    backend: str = "statevector",
) -> SolveOutcome:
    """Recover the hidden subgroup of Z_{p^r}^m x| Z_p.

    Pipeline: rebase the abelian generators, solve the single reduced
    abelian instance, pull the lattice back through the reduction map.
    ``confident`` requires every stage to have verified its output; the
    result is then exact.  All returned elements pass the f-membership
    filter regardless.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must be in (0, 0.5]")
    if rng is None:
        rng = np.random.default_rng(0)
    bb = vin.blackbox
    if bb.salts != 1:
        raise ValueError("the vector-group solver requires unique encoding")
    spec = vin.spec

    # input-promise smoke check: the abelian handles must commute
    for i, h1 in enumerate(vin.a_handles):
        for h2 in vin.a_handles[i + 1 :]:
            if not bb.oracle_eq(bb.oracle_mul(h1, h2), bb.oracle_mul(h2, h1)):
                raise ValueError("the abelian generator handles do not commute")

    rmap, mgs_report = minimal_generating_set(vin, rng, delta=delta, backend=backend)
    res = reduce_and_solve(vin, rmap, rng, delta=delta, backend=backend)
    handles, pulled_ok = pullback_generators(vin, rmap, res.lattice, rng)

    confident = bool(mgs_report["confident"] and res.confident and pulled_ok)
    report = {
        "group": {"p": spec.p, "r": spec.r, "m": spec.m},
        "backend": backend,
        "delta": delta,
        "minimal_generating_set": mgs_report,
        "reduced_lattice_gens": [list(g) for g in res.lattice.gens],
        "reduced_confident": res.confident,
        "reduced_samples_used": res.samples_used,
        "pullback_ok": pulled_ok,
        "confident": confident,
        "queries": vin.instance.query_stats(),
    }
    return reveal_answer(bb, handles, confident, report)
