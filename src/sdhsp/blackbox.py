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
  'fresh'     drawn from the instance RNG on every call.

``reveal`` decodes a handle back to coordinates.  It exists for reports and
tests; solver code must never call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from .algebra import closure, square_and_multiply
from .sdp_group import GroupTable, generates, is_subgroup

HANDLE_BYTES = 8
TABLE_BOUND = 2**24  # |G| * S must stay under this
SALT_POLICIES = ("zero", "operands", "fresh")


@dataclass(frozen=True)
class OpaqueHandle:
    data: bytes

    def __repr__(self) -> str:  # keep logs short
        return f"<{self.data.hex()}>"


class BlackBox:
    """Encoding table plus the three counted group oracles."""

    def __init__(
        self,
        table: GroupTable,
        mode: str = "unique",
        salts: int = 1,
        salt_policy: str = "zero",
        rng: np.random.Generator | None = None,
    ) -> None:
        if mode == "unique":
            salts = 1
        elif mode != "salted":
            raise ValueError(f"unknown encoding mode {mode!r}")
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
        self.mode = mode
        self.salts = salts
        self.salt_policy = salt_policy
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.counters = {"mul": 0, "inv": 0, "eq": 0}
        self._encode_map: dict[tuple[Any, int], OpaqueHandle] = {}
        self._decode_map: dict[bytes, Any] = {}
        used: set[bytes] = set()
        for g in table.elements:
            for s in range(salts):
                h = self._rng.bytes(HANDLE_BYTES)
                while h in used:  # keyed pseudorandom injection: no collisions
                    h = self._rng.bytes(HANDLE_BYTES)
                used.add(h)
                self._encode_map[(g, s)] = OpaqueHandle(h)
                self._decode_map[h] = g

    # -- construction-side access (not part of the solver surface) ---------

    def encode(self, g: Any, salt: int = 0) -> OpaqueHandle:
        return self._encode_map[(g, salt)]

    def reveal(self, h: OpaqueHandle) -> Any:
        """Decode for reports and the reference layer only."""
        return self._decode(h)

    def _decode(self, h: OpaqueHandle) -> Any:
        try:
            return self._decode_map[h.data]
        except KeyError:
            raise ValueError("unknown encoding") from None

    def _out_salt(self, *operands: OpaqueHandle) -> int:
        if self.salts == 1 or self.salt_policy == "zero":
            return 0
        if self.salt_policy == "operands":
            acc = 0
            for h in operands:
                acc = (acc * 1000003 + int.from_bytes(h.data, "big")) & 0xFFFFFFFF
            return acc % self.salts
        return int(self._rng.integers(0, self.salts))

    # -- the oracle surface -------------------------------------------------

    def oracle_mul(self, h1: OpaqueHandle, h2: OpaqueHandle) -> OpaqueHandle:
        self.counters["mul"] += 1
        g = self.table.mul(self._decode(h1), self._decode(h2))
        return self._encode_map[(g, self._out_salt(h1, h2))]

    def oracle_inv(self, h: OpaqueHandle) -> OpaqueHandle:
        self.counters["inv"] += 1
        g = self.table.inv(self._decode(h))
        return self._encode_map[(g, self._out_salt(h))]

    def oracle_eq(self, h1: OpaqueHandle, h2: OpaqueHandle) -> bool:
        self.counters["eq"] += 1
        return self._decode(h1) == self._decode(h2)


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


def reveal_answer(bb: BlackBox, handles, confident: bool, report: dict) -> SolveOutcome:
    """The shared tail of both solvers: decode the surviving handles.

    Drops the identity and repeats, keeping handles and elements aligned and
    in order, and closes the elements into the sorted subgroup they generate.
    """
    handles_out: list[OpaqueHandle] = []
    elems_out: list[Any] = []
    seen = {bb.table.identity}
    for h in handles:
        g = bb.reveal(h)
        if g not in seen:
            seen.add(g)
            handles_out.append(h)
            elems_out.append(g)
    subgroup = sorted(closure(bb.table.mul, bb.table.identity, elems_out))
    return SolveOutcome(tuple(handles_out), tuple(elems_out), tuple(subgroup), confident, report)


class HiddenInstance:
    """A hiding function f over a black box, with its sealed truth.

    f maps any valid encoding of g to a 64-bit label constant on the left
    coset g*H and distinct across cosets.  ``f_batch`` evaluates a whole
    list in one oracle invocation; the counters track both the number of
    pointwise evaluations ('f') and the number of batched invocations
    ('superposed_calls'), which is the quantum-query figure of merit.
    """

    def __init__(
        self,
        bb: BlackBox,
        truth_elements: frozenset,
        labels: dict,
    ) -> None:
        self.blackbox = bb
        self._truth = truth_elements
        self._labels = labels  # element -> 64-bit label (via its coset rep)
        self.counters = {"f": 0, "superposed_calls": 0}

    def f(self, h: OpaqueHandle) -> int:
        self.counters["f"] += 1
        return self._labels[self.blackbox._decode(h)]

    def f_batch(self, handles: Sequence[OpaqueHandle]) -> list[int]:
        self.counters["f"] += len(handles)
        self.counters["superposed_calls"] += 1
        dec = self.blackbox._decode
        return [self._labels[dec(h)] for h in handles]

    def charge(self, evals: int, calls: int) -> None:
        """Book modeled query cost for replayed (cached) evaluations."""
        self.counters["f"] += evals
        self.counters["superposed_calls"] += calls

    # -- harness-side access ------------------------------------------------

    def truth_elements(self) -> frozenset:
        return self._truth

    def label_of_element(self, g: Any) -> int:
        """Direct label lookup for the reference layer (not counted)."""
        return self._labels[g]

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
    the construction; everything else must come from the oracles.
    """
    H = frozenset(subgroup)
    if not is_subgroup(table, H):
        raise ValueError("the hidden set is not a subgroup")
    ss = np.random.SeedSequence(seed)
    table_rng, label_rng, gen_rng = (np.random.default_rng(c) for c in ss.spawn(3))
    bb = BlackBox(table, mode=mode, salts=salts, salt_policy=salt_policy, rng=table_rng)

    # Label each left coset g*H through its lexicographically least member.
    H_sorted = sorted(H)
    rep_of: dict[Any, Any] = {}
    for g in table.elements:
        if g in rep_of:
            continue
        coset = [table.mul(g, h) for h in H_sorted]
        rep = min(coset)
        for c in coset:
            rep_of[c] = rep
    used_labels: set[int] = set()
    label_for_rep: dict[Any, int] = {}
    for rep in sorted(set(rep_of.values())):
        lab = int(label_rng.integers(0, 2**63))
        while lab in used_labels:
            lab = int(label_rng.integers(0, 2**63))
        used_labels.add(lab)
        label_for_rep[rep] = lab
    labels = {g: label_for_rep[rep_of[g]] for g in table.elements}

    inst = HiddenInstance(bb, H, labels)

    if generator_policy == "canonical":
        gens = list(table.standard_generators)
    elif generator_policy == "scrambled":
        for _ in range(500):
            k = int(gen_rng.integers(2, 5))
            idx = gen_rng.integers(0, table.order, size=k)
            gens = [table.elements[int(i)] for i in idx]
            if generates(table, gens):
                break
        else:
            raise RuntimeError("failed to draw a random generating set")
    else:
        raise ValueError(f"unknown generator policy {generator_policy!r}")

    handles = [bb.encode(g, int(gen_rng.integers(0, bb.salts))) for g in gens]
    return inst, handles
