"""Black-box group oracles with opaque, optionally multi-valued encodings.

Group elements are handed to solvers only as fixed-length byte strings.
Each (element, salt) pair gets a distinct 8-byte handle drawn from a keyed
pseudorandom injection, so with S salts per element an element has S valid
encodings and nothing about (a, b) is recoverable from the bytes.  Solvers
interact exclusively through ``oracle_mul`` / ``oracle_inv`` / ``oracle_eq``
and the hiding function ``f``; every call is counted.

The salt of an oracle result is chosen by policy:
  'zero'      always salt 0 (encodings behave as if unique),
  'operands'  a deterministic mix of the operand bytes,
  'fresh'     drawn from the box's RNG: the values of one integers(0, S) draw
              per call, drawn SALT_BLOCK at a time, so a caller-supplied rng
              advances a block at a time.

The handles, read as big-endian integers, form a uint64 table of shape
(order, salts), drawn as one array, whose row is the element's index in
``table.elements``.  Each handle is made once, when first issued, and a
dict maps its bytes back to that index; a miss scans the table once.  Below
``encode``/``reveal`` everything is an element index: the oracles decode
handles to indices, apply the table's scalar law and read the result's
handle from the table.
The superposed walk over h g_1^{u_1}...g_k^{u_k}, one loop for every grid,
stays on element indices, on the grid or, if it maps onto I = <g_1..g_k>
by a homomorphism, on |I| points; ``qsim.AbelianOracle`` reads labels or
codes at them.  It books one ``oracle_mul`` per grid point as ``walk_mul``
and draws no salt, as f labels all encodings alike.

``reveal`` decodes a handle back to coordinates.  It exists for reports and
tests; solver code must never call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .algebra import closure, square_and_multiply
from .sdp_group import GroupTable, generates, greedy_generators

HANDLE_BYTES = 8
TABLE_BOUND = 2**24  # |G| * S must stay under this
WALK_BOUND = 2**26  # the most grid points one walk builds
SALT_POLICIES = ("zero", "operands", "fresh")
MIX_MASK = 0xFFFFFFFF  # the 'operands' salt mixes operand bytes modulo 2^32
MIX_FACTOR = 1000003
SALT_BLOCK = 64  # 'fresh' salts drawn at a time


@dataclass(frozen=True)
class OpaqueHandle:
    data: bytes

    def __repr__(self) -> str:  # keep logs short
        return f"<{self.data.hex()}>"

    @property
    def code(self) -> int:
        """The handle's bytes as one big-endian integer."""
        return int.from_bytes(self.data, "big")


def draw_distinct(draw: Callable[[int], np.ndarray], k: int) -> np.ndarray:
    """k >= 1 distinct values from ``draw(n)``, which returns an array of n
    values: repeats, which one sort usually rules out, are dropped in draw
    order and only the shortfall is redrawn.  When ``draw(n)`` uses the
    stream of n single draws, so does this, redrawing on a repeat."""
    drawn = draw(k)
    while True:
        ordered = np.sort(drawn)
        if (ordered[1:] == ordered[:-1]).any():  # keep first occurrences
            drawn = drawn[np.sort(np.unique(drawn, return_index=True)[1])]
        if drawn.size == k:
            return drawn
        drawn = np.concatenate((drawn, draw(k - drawn.size)))


class BlackBox:
    """Encoding table plus the three counted group oracles.

    ``codes`` holds every handle as a uint64, one row per element index and
    one column per salt; ``encode`` and the oracles read their results from
    it.  ``draw_distinct`` draws the table from ``rng`` as one array in row
    order: the handles and end state of one 8-byte draw per (element, salt).
    ``_handle`` makes each handle once and keeps it in ``_issued``, to reissue;
    ``_decode_map`` holds only the handles issued.  Decoding any other 8-byte
    code in ``codes`` scans the table once and records it, and anything else
    is an unknown encoding.  ``mul``, ``inv`` and ``eq``
    count pointwise calls only; ``walk_mul`` the products of ``_walk``.
    """

    def __init__(
        self,
        table: GroupTable,
        salts: int = 1,
        salt_policy: str = "zero",
        rng: np.random.Generator | None = None,
    ) -> None:
        if salts < 1 or salts > 16:
            raise ValueError(f"salt count {salts} out of range (1..16)")
        if salt_policy not in SALT_POLICIES:
            raise ValueError(f"unknown salt policy {salt_policy!r}")
        if table.order * salts > TABLE_BOUND:
            raise ValueError(
                f"encoding table would need {table.order * salts} entries, "
                f"over the bound {TABLE_BOUND}"
            )
        self.table = table
        self.salts = salts
        self.salt_policy = salt_policy
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.counters = {"mul": 0, "inv": 0, "eq": 0, "walk_mul": 0}
        # Keyed pseudorandom injection: no two handles collide.  Draws of
        # whole 8-byte chunks concatenate, so they consume the per-handle stream.
        self.codes = draw_distinct(
            lambda k: np.frombuffer(self._rng.bytes(HANDLE_BYTES * k), ">u8"), table.order * salts
        ).astype(np.uint64).reshape(table.order, salts)
        self._decode_map: dict[bytes, int] = {}  # handle bytes -> element index, as issued
        self._issued: dict[int, OpaqueHandle] = {}  # i * salts + salt -> its handle
        self._fresh: list[int] = []  # 'fresh' salts drawn and not yet used, last one next

    # -- construction-side access (not part of the solver surface) ---------

    def encode(self, g: Any, salt: int = 0) -> OpaqueHandle:
        """The handle of element `g` under `salt`; ValueError outside the table."""
        if not 0 <= salt < self.salts:
            raise ValueError(f"salt {salt} out of range for {self.salts} salts")
        return self._handle(self.table.index(g), salt)

    def reveal(self, h: OpaqueHandle) -> Any:
        """Decode for reports and the reference layer only."""
        return self.table.elements[self._decode_index(h)]

    def _handle(self, i: int, salt: int) -> OpaqueHandle:
        if (h := self._issued.get(key := i * self.salts + salt)) is None:  # made once
            data = int(self.codes[i, salt]).to_bytes(HANDLE_BYTES, "big")
            h = self._issued[key] = OpaqueHandle(data)
            self._decode_map[data] = i
        return h

    def _decode_index(self, h: OpaqueHandle) -> int:
        try:
            return self._decode_map[h.data]
        except (KeyError, AttributeError, TypeError):  # not issued yet, or not a handle
            data = getattr(h, "data", None)
            if isinstance(data, bytes) and len(data) == HANDLE_BYTES:  # scan once
                hit = np.flatnonzero(self.codes == int.from_bytes(data, "big"))
                if hit.size:
                    self._decode_map[data] = i = int(hit[0]) // self.salts
                    return i
            raise ValueError("unknown encoding") from None

    def _out_salt(self, *operands: OpaqueHandle) -> int:
        if self.salts == 1 or self.salt_policy == "zero":
            return 0
        if self.salt_policy == "operands":
            acc = 0
            for h in operands:
                acc = (acc * MIX_FACTOR + h.code) & MIX_MASK
            return acc % self.salts
        if not self._fresh:  # the next SALT_BLOCK draws, in draw order from the end
            self._fresh = self._rng.integers(0, self.salts, size=SALT_BLOCK).tolist()[::-1]
        return self._fresh.pop()

    # -- the oracle surface -------------------------------------------------

    def oracle_mul(self, h1: OpaqueHandle, h2: OpaqueHandle) -> OpaqueHandle:
        self.counters["mul"] += 1
        i = self.table.imul(self._decode_index(h1), self._decode_index(h2))
        return self._handle(i, self._out_salt(h1, h2))

    def oracle_inv(self, h: OpaqueHandle) -> OpaqueHandle:
        self.counters["inv"] += 1
        return self._handle(self.table.iinv(self._decode_index(h)), self._out_salt(h))

    def oracle_eq(self, h1: OpaqueHandle, h2: OpaqueHandle) -> bool:
        self.counters["eq"] += 1
        return self._decode_index(h1) == self._decode_index(h2)

    def _walk(self, moduli, identity: OpaqueHandle, gen_handles) -> tuple[np.ndarray, list | None]:
        """Element indices of h g_1^{u_1} ... g_k^{u_k}, h = ``identity``: over the
        grid, with None, or, if phi(u) = g_1^{u_1} ... g_k^{u_k} is a homomorphism
        (the g_d commute and each g_d^{n_d} = e, checked on the table), over a box
        prod [0, t_d) that phi maps one to one onto I = <g_1..g_k>, with the rows
        of ker phi.  From e, last axis first, block j of axis d is g_d^j times the
        span of the later axes: one product a step up to j = 16, then by doubling,
        x = g_d^j times the blocks so far while they hold at most |G| points (else
        through x's left permutation) and x <- x^2; h is applied last, the same
        way.  For a homomorphism the span's membership map stops axis d at the
        least t_d with g_d^{t_d} = phi(c) in the span, its relative order (Teske,
        1998), and row d is t_d e_d - c; otherwise the map stays empty, no block
        is looked up in it, and t_d = n_d.  Books the per-point walk's
        one ``oracle_mul`` per point u != 0 as ``walk_mul``, once the handles
        are valid and any other grid over ``WALK_BOUND`` points refused."""
        moduli = tuple(int(n) for n in moduli)
        if len(gen_handles) != len(moduli):
            raise ValueError("one generator handle per modulus is required")
        if min(moduli, default=1) < 1:
            raise ValueError("moduli must be positive")
        start, *gens = (self._decode_index(h) for h in (identity, *gen_handles))
        imul, index_mul, order = self.table.imul, self.table.index_mul, self.table.order
        commute = all(imul(a, b) == imul(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :])
        homomorphic = commute and all(square_and_multiply(imul, None, 0, g, n) == 0 for g, n in zip(gens, moduli))
        if (total := math.prod(moduli)) > WALK_BOUND and not homomorphic:
            raise ValueError(f"a grid of {total} points exceeds the walk bound {WALK_BOUND}")
        self.counters["walk_mul"] += total - 1
        elems = np.empty(min(total, order) if homomorphic else total, np.int64)  # a box has |I| <= |G| points
        where = np.full(order, -1)  # an element's place in the span, if a member
        kernel, where[0] = ([], 0) if homomorphic else (None, -1)  # otherwise nothing is a member
        elems[0], done, box = 0, 1, ()
        for d in reversed(range(len(moduli))):
            size, end, x, powers = done, min(moduli[d] * done, elems.size), gens[d], []
            most = min(16, min(end, order) // size) - 1  # blocks 1.. by scalar steps, at most |G| points
            while len(powers) < most and where[x] < 0:
                powers.append(x)
                x = imul(x, gens[d])
            if powers:
                done, powers = (len(powers) + 1) * size, np.array(powers)
                elems[size:done] = index_mul(powers[:, None], elems[:size]).ravel() if size > 1 else powers
            while done < end and where[x] < 0:  # blocks [j, 2j) are blocks [0, j) times x = g_d^j
                width = min(done, end - done)
                block = elems[done : done + width]
                if width <= order:  # x times the block itself
                    block[...] = index_mul(x, elems[:width])
                else:  # past |G| points, through x's left permutation; 'clip' gathers in place
                    index_mul(x, np.arange(order)).take(elems[:width], out=block, mode="clip")
                x = imul(x, x)
                if kernel is not None and (hits := np.flatnonzero(where[block[::size]] >= 0)).size:
                    done += int(hits[0]) * size
                    break
                done += width
            box = (done // size, *box)
            if kernel is not None:  # g_d^(t_d) = phi(c) is in the span
                c = np.unravel_index(where[imul(int(elems[done - size]), gens[d])], box[1:])
                kernel.insert(0, [0] * d + [box[0]] + [-int(i) for i in c])
                where[elems[:done]] = np.arange(done)
        elems = elems[:done].reshape(box)
        if start and elems.size <= order:  # h on the left of the box
            elems = index_mul(start, elems)
        elif start:  # or of a grid past |G| points: one permutation, gathered in place
            index_mul(start, np.arange(order)).take(elems, out=elems, mode="clip")
        return elems, kernel


def oracle_identity(bb: BlackBox, some_handle: OpaqueHandle) -> OpaqueHandle:
    """The identity handle, obtained as g * g^-1 (two oracle calls)."""
    return bb.oracle_mul(some_handle, bb.oracle_inv(some_handle))


def oracle_pow(
    bb: BlackBox, h: OpaqueHandle, n: int, identity: OpaqueHandle
) -> OpaqueHandle:
    """h^n by square-and-multiply through the oracles."""
    return square_and_multiply(bb.oracle_mul, bb.oracle_inv, identity, h, n)


def oracle_lift(
    bb: BlackBox, identity: OpaqueHandle, gens: Sequence[OpaqueHandle], coords
) -> OpaqueHandle:
    """g_1^{c_1} ... g_k^{c_k} through the oracles, one power per factor."""
    if len(coords) != len(gens):
        raise ValueError("coordinate width does not match the generator count")
    acc = identity
    for h, c in zip(gens, coords):
        acc = bb.oracle_mul(acc, oracle_pow(bb, h, int(c), identity))
    return acc


@dataclass(frozen=True)
class SolveOutcome:
    """What either solver returns: surviving handles, their revealed
    elements, the sorted subgroup they generate, and the report."""

    generator_handles: tuple[OpaqueHandle, ...]
    generators: tuple
    subgroup: tuple
    confident: bool
    report: dict = field(hash=False)


def record_stage(
    report: dict, inst: HiddenInstance, name: str, res=None, *, ran=True, note="", confident=None
) -> None:
    """Append one solver step's record to ``report["stages"]``.

    ``res``, the step's abelian solve if it made one, gives ``confident``,
    ``rounds``, ``samples_used`` and ``lattice_gens``.  The record's
    ``queries`` is what the instance's counters moved since the previous
    record; ``report["queries"]`` becomes the counters now, so the records
    of a solve sum to its totals.
    """
    now = inst.query_stats()
    before = report.get("queries", dict.fromkeys(now, 0))
    report["queries"] = now
    report["stages"].append({
        "name": name,
        "ran": ran,
        "note": note,
        "confident": res.confident if res else confident,
        "rounds": res.rounds if res else 0,
        "samples_used": res.samples_used if res else 0,
        "lattice_gens": [list(g) for g in res.lattice.gens] if res else [],
        "queries": {key: n - before[key] for key, n in now.items()},
    })


def reveal_answer(bb: BlackBox, handles, report: dict) -> SolveOutcome:
    """The shared tail of both solvers: decode the surviving handles.

    The solve is confident unless a stage record says ``confident: false``.
    Drops the identity and repeats, keeping handles and elements aligned and
    in order, and closes the elements into the sorted subgroup they generate.
    """
    report["confident"] = all(stage["confident"] is not False for stage in report["stages"])
    handles_out: list[OpaqueHandle] = []
    found: list[int] = []
    for h in handles:
        i = bb._decode_index(h)
        if i not in found and i != 0:
            handles_out.append(h)
            found.append(i)
    elements = bb.table.elements
    return SolveOutcome(
        tuple(handles_out),
        tuple(elements[i] for i in found),
        tuple(elements[i] for i in sorted(closure(bb.table.imul, 0, found))),
        report["confident"],
        report,
    )


class HiddenInstance:
    """A hiding function f over a black box, with its sealed truth.

    f maps any valid encoding of g to a 64-bit label constant on the left
    coset g*H and distinct across cosets.  ``labels`` is the label of every
    element index as a read-only array, which superposed oracles read
    (``qsim.AbelianOracle``), and is kept as a list for single reads; the
    truth is the planted subgroup's elements, which only ``truth_elements``
    hands back.  The counters track pointwise evaluations ('f') apart from
    superposed calls ('superposed_calls', the quantum-query figure of merit,
    booked by ``qsim.draw_samples``) and the grid points they cover
    ('domain_points').
    """

    def __init__(
        self,
        bb: BlackBox,
        truth_elements: frozenset,
        labels: np.ndarray,
    ) -> None:
        self.blackbox = bb
        self._truth = truth_elements
        self.labels = np.array(labels, dtype=np.int64)
        self.labels.flags.writeable = False
        self._labels = self.labels.tolist()
        self.counters = {"f": 0, "superposed_calls": 0, "domain_points": 0}

    def f(self, h: OpaqueHandle) -> int:
        self.counters["f"] += 1
        return self._labels[self.blackbox._decode_index(h)]

    def charge(self, **counts: int) -> None:
        """Book modeled query cost, by counter name: a pointwise ``f`` replayed
        from an oracle's grid, or ``qsim.draw_samples``'s superposed rounds."""
        for key, n in counts.items():
            self.counters[key] += n

    # -- harness-side access ------------------------------------------------

    def truth_elements(self) -> frozenset:
        return self._truth

    def label_of_element(self, g: Any) -> int:
        """Direct label lookup for the reference layer (not counted), in one
        dict lookup; outside the group, ``GroupTable.index``'s ValueError."""
        try:
            return self._labels[self.blackbox.table.positions[g]]
        except KeyError:  # g is not in the group: index raises its ValueError
            return self._labels[self.blackbox.table.index(g)]

    def query_stats(self) -> dict[str, int]:
        stats = dict(self.blackbox.counters)
        stats.update(self.counters)
        return stats


def make_hidden_instance(
    table: GroupTable,
    subgroup: Iterable[Any],
    mode: str = "unique",
    salts: int = 1,
    salt_policy: str = "zero",
    generator_policy: str = "canonical",
    seed: int = 0,
) -> tuple[HiddenInstance, list[OpaqueHandle]]:
    """Build a hiding instance for the given subgroup.

    Returns (instance, generator_handles); the handles encode either the
    standard generators ('canonical') or 2..4 random elements verified to
    generate the whole group ('scrambled').  Only these handles leak out of
    the construction; everything else must come from the oracles.  Coset
    labels are drawn per coset in order of least members: passes of doubling
    hops on index arrays, O(|G| log |H|) each, until an O(|G|) check finds them exact.
    The 'unique' encoding ``mode`` ignores ``salts``; 'salted' keeps it.
    """
    if mode not in ("unique", "salted"):
        raise ValueError(f"unknown encoding mode {mode!r}")
    salts = 1 if mode == "unique" else salts
    H = frozenset(subgroup)
    members = frozenset(map(table.index, H))
    if (hidden_gens := greedy_generators(table, members)) is None:
        raise ValueError("the hidden set is not a subgroup")
    ss = np.random.SeedSequence(seed)
    table_rng, label_rng, gen_rng = (np.random.default_rng(c) for c in ss.spawn(3))
    bb = BlackBox(table, salts=salts, salt_policy=salt_policy, rng=table_rng)

    # least[g] -> the least member of gH: min over g h^0 .. g h^(2^t - 1) after t doubling
    # hops per h.  Exact iff least maps onto |G|/|H| fixed points (one per coset, its least).
    everything = np.arange(table.order)
    least = everything
    while True:
        for h in hidden_gens:
            step = table.index_mul(everything, h)
            for _ in range((len(members) - 1).bit_length()):
                least, step = np.minimum(least, least[step]), step[step]
        reps = np.flatnonzero(least == everything)
        if reps.size * len(members) == table.order and np.array_equal(least[least], least):
            break
    # one label per coset, drawn in order of least members
    labels = np.zeros(table.order, dtype=np.int64)
    labels[reps] = draw_distinct(lambda n: label_rng.integers(0, 2**63, size=n), reps.size)
    inst = HiddenInstance(bb, H, labels[least])

    if generator_policy == "canonical":
        gens = [table.index(g) for g in table.standard_generators]
    elif generator_policy == "scrambled":
        for _ in range(500):
            k = int(gen_rng.integers(2, 5))
            gens = [int(i) for i in gen_rng.integers(0, table.order, size=k)]
            if generates(table, gens):
                break
        else:
            raise RuntimeError("failed to draw a random generating set")
    else:
        raise ValueError(f"unknown generator policy {generator_policy!r}")

    handles = [bb._handle(g, int(gen_rng.integers(0, bb.salts))) for g in gens]
    return inst, handles
