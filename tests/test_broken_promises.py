"""Inputs that break a solver's promises raise a typed error, never answer.

Each case hands a solver something outside its input contract: handles
from another black box (to a solver or an oracle walk), handle sets that
do not generate the group, abelian handles that do not form a basis, a
complement handle inside the abelian part, a salted encoding given to the
vector solver, which needs unique encodings, or a hiding function that is
not periodic or gives two cosets one label.
A hiding function with a few elements relabelled may still be answered,
but a confident answer must hide f on every element the solve evaluated.
At the element edge, an element outside the group or a salt outside the
box raises ValueError too, and so does a handle one byte too long or too
short, or eight bytes the box never issued, at the decode boundary.
"""

import numpy as np
import pytest

from sdhsp.blackbox import BlackBox, HiddenInstance, OpaqueHandle, make_hidden_instance
from sdhsp.hsp_modular import solve as solve_modular
from sdhsp.hsp_vector import VecInstance, make_vec_instance
from sdhsp.hsp_vector import solve as solve_vector
from sdhsp.qsim import AbelianOracle, draw_samples
from sdhsp.reference import enumerate_all_subgroups
from sdhsp.sdp_group import (
    Element,
    VecElement,
    ZmGroupSpec,
    enumerate_subgroups,
    modular_group_spec,
    sdp_table,
    subgroup_elements,
    vec_table,
)

P32 = modular_group_spec(3, 2)
S322 = ZmGroupSpec(3, 2, 2)
MERGES_COSETS = "function gives two cosets of its period lattice one value"


def rank_one_instance(seed=0):
    table = sdp_table(P32)
    return make_hidden_instance(table, frozenset({table.identity}), seed=seed)


def test_foreign_handle_to_the_rank_one_solver():
    inst, handles = rank_one_instance(seed=0)
    other, other_handles = rank_one_instance(seed=1)
    with pytest.raises(ValueError, match="unknown encoding"):
        solve_modular(inst, [other_handles[0], handles[1]], rng=np.random.default_rng(1))


def _stranger(kind):
    """A handle the instance of rank_one_instance(seed=0) never issued."""
    if kind == "foreign":
        return OpaqueHandle(bytes(8))
    _, other_handles = rank_one_instance(seed=1)
    return other_handles[0]


def _malformed(kind, bb, valid):
    """A handle that is not in ``bb``'s table, or no handle, built from ``valid``'s bytes."""
    if kind in ("bytes", "None", "int"):
        return {"bytes": valid.data, "None": None, "int": valid.code}[kind]
    if kind.endswith(" data"):  # a handle whose data is not bytes
        return OpaqueHandle({"str": "12345678", "bytearray": bytearray(8), "int": 12345678}[kind[:-5]])
    if kind == "9 bytes":
        return OpaqueHandle(b"\x00" + valid.data)
    if kind == "7 bytes":
        return OpaqueHandle(valid.data[1:])
    issued = set(bb.codes.ravel().tolist())
    # the least code the box never issued
    return OpaqueHandle(min(set(range(len(issued) + 1)) - issued).to_bytes(8, "big"))


@pytest.mark.parametrize(
    "kind",
    [
        "9 bytes", "7 bytes", "8 bytes not issued", "bytes", "None", "int",
        "str data", "bytearray data", "int data",
    ],
)
@pytest.mark.parametrize(
    "call", ["mul left", "mul right", "eq left", "eq right", "reveal", "inv", "f"]
)
def test_malformed_handle_at_the_decode_boundary(call, kind):
    inst, handles = rank_one_instance(seed=0)
    bb = inst.blackbox
    valid = handles[0]
    bad = _malformed(kind, bb, valid)
    calls = {
        "mul left": lambda: bb.oracle_mul(bad, valid),
        "mul right": lambda: bb.oracle_mul(valid, bad),
        "eq left": lambda: bb.oracle_eq(bad, valid),
        "eq right": lambda: bb.oracle_eq(valid, bad),
        "reveal": lambda: bb.reveal(bad),
        "inv": lambda: bb.oracle_inv(bad),
        "f": lambda: inst.f(bad),
    }
    with pytest.raises(ValueError, match="^unknown encoding$"):
        calls[call]()


@pytest.mark.parametrize("kind", ["foreign", "other instance"])
@pytest.mark.parametrize("build", ["from_handles", "from_products"])
def test_stranger_handle_in_an_oracle_walk(build, kind):
    inst, handles = rank_one_instance(seed=0)
    e = inst.blackbox.encode(inst.blackbox.table.identity)
    gens = (handles[0], _stranger(kind))
    before = inst.query_stats()
    with pytest.raises(ValueError, match="unknown encoding"):
        if build == "from_handles":
            AbelianOracle.from_handles((9, 3), inst, e, gens)
        else:
            AbelianOracle.from_products((9, 3), inst, e, gens)
    assert inst.query_stats() == before


def test_foreign_handle_to_the_vector_solver():
    vin = make_vec_instance(S322, [vec_table(S322).identity], seed=0)
    other = make_vec_instance(S322, [vec_table(S322).identity], seed=1)
    bad = VecInstance(vin.instance, (other.a_handles[0], vin.a_handles[1]), vin.y_handle)
    with pytest.raises(ValueError, match="unknown encoding"):
        solve_vector(bad, rng=np.random.default_rng(1))


@pytest.mark.parametrize(
    "gens", [(Element(1, 0),), (Element(3, 0), Element(0, 1))], ids=["x", "x^3,y"]
)
def test_rank_one_handles_that_do_not_generate(gens):
    inst, _ = rank_one_instance()
    handles = [inst.blackbox.encode(g) for g in gens]
    with pytest.raises(ValueError, match="not a valid generating set"):
        solve_modular(inst, handles, rng=np.random.default_rng(1))


@pytest.mark.parametrize(
    "rows", [((3, 0), (0, 1)), ((1, 0),), ()], ids=["3e1,e2", "e1", "()"]
)
def test_vector_handles_that_are_not_a_basis(rows):
    vin = make_vec_instance(S322, [vec_table(S322).identity], seed=0)
    bb = vin.blackbox
    a_handles = tuple(bb.encode(VecElement(row, 0)) for row in rows)
    bad = VecInstance(vin.instance, a_handles, vin.y_handle)
    with pytest.raises(ValueError, match="do not present a free module"):
        solve_vector(bad, rng=np.random.default_rng(1))


@pytest.mark.parametrize(
    "spec, y",
    [
        (ZmGroupSpec(3, 2, 1), (0,)),
        (ZmGroupSpec(3, 2, 1), (1,)),
        (S322, (0, 0)),
        (S322, (1, 0)),
        (S322, (3, 1)),
    ],
    ids=["(3,2,1) e", "(3,2,1) x1", "(3,2,2) e", "(3,2,2) x1", "(3,2,2) x1^3x2"],
)
def test_a_complement_handle_inside_a_raises_on_every_subgroup(spec, y):
    # y in A commutes with A, so pi covers A only: no hidden subgroup may be answered
    table = vec_table(spec)
    for sub in enumerate_all_subgroups(table):
        vin = make_vec_instance(spec, sub, seed=0)
        bad = VecInstance(vin.instance, vin.a_handles, vin.blackbox.encode(VecElement(y, 0)))
        with pytest.raises(ValueError, match="the complement handle lies in the abelian part"):
            solve_vector(bad, rng=np.random.default_rng(1))


def test_salted_instance_given_to_the_vector_solver():
    table = vec_table(S322)
    inst, handles = make_hidden_instance(
        table, frozenset({table.identity}), mode="salted", salts=4, seed=0
    )
    vin = VecInstance(inst, tuple(handles[: S322.m]), handles[S322.m])
    with pytest.raises(ValueError, match="requires unique encoding"):
        solve_vector(vin, rng=np.random.default_rng(1))


def test_non_periodic_f_raises():
    # every element but x is relabelled with f(e): the f(e) level set has
    # 26 of 27 elements and is not a subgroup
    table = sdp_table(P32)
    desc = next(d for d in enumerate_subgroups(P32) if d.label() == "cyclicxy:1,1")
    inst, handles = make_hidden_instance(table, subgroup_elements(P32, desc), seed=7)
    labels = np.full(table.order, inst.label_of_element(table.identity), dtype=np.int64)
    labels[table.index(Element(1, 0))] = inst.label_of_element(Element(1, 0))
    broken = HiddenInstance(inst.blackbox, inst.truth_elements(), labels)
    with pytest.raises(ValueError, match="function is not periodic over this domain"):
        solve_modular(broken, handles, rng=np.random.default_rng(1))


def merged(inst, source, into):
    """`inst` with the label of `source` replaced by that of `into`."""
    table = inst.blackbox.table
    labels = np.array([inst.label_of_element(g) for g in table.elements], dtype=np.int64)
    labels[table.index(source)] = inst.label_of_element(into)
    return HiddenInstance(inst.blackbox, inst.truth_elements(), labels)


def merged_rank_one_instance():
    """H = 1 in (3,2), so F = f o pi is periodic on every grid, but x^6 shares
    the label of x^3: not injective on G/L, a promise no lattice answer keeps."""
    table = sdp_table(P32)
    inst, handles = make_hidden_instance(table, [table.identity], seed=7)
    return merged(inst, Element(6, 0), Element(3, 0)), handles


def test_rank_one_f_that_merges_two_cosets_raises():
    broken, handles = merged_rank_one_instance()
    with pytest.raises(ValueError, match=MERGES_COSETS):
        solve_modular(broken, handles, rng=np.random.default_rng(1))


def test_vector_f_that_merges_two_cosets_raises():
    spec = ZmGroupSpec(3, 2, 1)
    vin = make_vec_instance(spec, [vec_table(spec).identity], seed=7)
    broken = merged(vin.instance, VecElement((6,), 0), VecElement((3,), 0))
    with pytest.raises(ValueError, match=MERGES_COSETS):
        solve_vector(VecInstance(broken, vin.a_handles, vin.y_handle), rng=np.random.default_rng(1))


def test_an_uncertified_oracle_books_no_sample():
    broken, handles = merged_rank_one_instance()
    e = broken.blackbox.encode(broken.blackbox.table.identity)
    before = broken.query_stats()
    oracle = AbelianOracle.from_handles((9, 3), broken, e, handles)
    built = broken.query_stats()
    # the build books its walk's products only
    assert {k: n - before[k] for k, n in built.items() if n != before[k]} == {"walk_mul": 26}
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    # refused twice, and no superposed call is booked at all
    for _ in range(2):
        with pytest.raises(ValueError, match=MERGES_COSETS):
            draw_samples(oracle, rng, 5)
    assert broken.query_stats() == built
    assert built["superposed_calls"] == built["domain_points"] == 0
    assert rng.bit_generator.state == state


EDGE_CALLS = {
    "encode a foreign element": lambda inst: inst.blackbox.encode(Element(99, 0)),
    "encode another family's element": lambda inst: inst.blackbox.encode(VecElement((1,), 0)),
    "encode salt == salts": lambda inst: inst.blackbox.encode(Element(1, 0), 2),
    "encode salt == -1": lambda inst: inst.blackbox.encode(Element(1, 0), -1),
    "label of a foreign element": lambda inst: inst.label_of_element(Element(99, 0)),
    "label of another family's element": lambda inst: inst.label_of_element(VecElement((1,), 0)),
    "label of a wrong-width tuple": lambda inst: inst.label_of_element((1, 0, 0)),
    "label of an out-of-range coordinate": lambda inst: inst.label_of_element(Element(0, 9)),
    "encode a wrong-width tuple": lambda inst: inst.blackbox.encode((1, 0, 0)),
}


@pytest.mark.parametrize("name, call", EDGE_CALLS.items(), ids=EDGE_CALLS.keys())
def test_the_element_edge_raises_a_typed_error(name, call):
    table = sdp_table(P32)
    inst, _ = make_hidden_instance(
        table, frozenset({table.identity}), mode="salted", salts=2, seed=0
    )
    with pytest.raises(ValueError, match="out of range" if "salt" in name else "is not in"):
        call(inst)


# -- relabelled f: what a confident answer certifies ----------------------------

RELABEL_RUNS = 25  # instances per cell and encoding


def planted(subgroups, seed):
    """From `subgroups`, smallest first: the trivial one for a third of the
    seeds, where a relabel onto another element's label merges two one-point
    cosets, which only the certificate's injectivity check refuses; otherwise
    any subgroup."""
    return subgroups[0] if seed % 3 == 0 else subgroups[seed * 7 % len(subgroups)]


def rank_one_builds(p, r, mode, salts, policy):
    spec = modular_group_spec(p, r)
    table = sdp_table(spec)
    subgroups = sorted((subgroup_elements(spec, d) for d in enumerate_subgroups(spec)), key=len)

    def build(seed):
        inst, handles = make_hidden_instance(
            table, planted(subgroups, seed), mode=mode, salts=salts, salt_policy=policy,
            generator_policy="scrambled", seed=seed,
        )
        return inst, lambda f, rng: solve_modular(f, handles, rng=rng)

    return build


def vector_builds(p, r, m):
    spec = ZmGroupSpec(p, r, m)
    subgroups = enumerate_all_subgroups(vec_table(spec))

    def build(seed):
        vin = make_vec_instance(
            spec, planted(subgroups, seed), generator_policy="scrambled", seed=seed
        )
        return vin.instance, lambda f, rng: solve_vector(
            VecInstance(f, vin.a_handles, vin.y_handle), rng=rng
        )

    return build


RELABEL_CELLS = {
    **{
        f"({p},{r}) {mode}:{salts}:{policy}": (rank_one_builds, (p, r, mode, salts, policy))
        for p, r in ((3, 2), (2, 3), (3, 3), (5, 2))
        for mode, salts, policy in (("unique", 1, "zero"), ("salted", 4, "fresh"))
    },
    **{f"({p},{r},{m})": (vector_builds, (p, r, m)) for p, r, m in ((3, 2, 1), (2, 3, 1), (2, 3, 2))},
}


@pytest.fixture
def evaluated(monkeypatch):
    """The element indices at which f is evaluated, pointwise or on a
    superposed grid: the walk's elements under ``AbelianOracle.from_handles``
    (on an image box they stand for every point of their grid);
    ``from_products`` grids hold handle codes, not f values, and stay out."""
    seen: set[int] = set()
    labelling = []
    f = HiddenInstance.f

    def spy_walk(walk):
        def spied(bb, *args):
            out = walk(bb, *args)
            if labelling:
                seen.update(np.unique(out[0]).tolist())
            return out

        return spied

    def spy_labels(build):
        def spied(*args):
            labelling.append(True)
            try:
                return build(*args)
            finally:
                labelling.pop()

        return staticmethod(spied)

    def spy_f(inst, h):
        seen.add(inst.blackbox._decode_index(h))
        return f(inst, h)

    monkeypatch.setattr(BlackBox, "_walk", spy_walk(BlackBox._walk))
    monkeypatch.setattr(AbelianOracle, "from_handles", spy_labels(AbelianOracle.from_handles))
    monkeypatch.setattr(HiddenInstance, "f", spy_f)
    return seen


def relabelled(inst, rng):
    """`inst` with 1-3 non-identity elements relabelled, each to the label of
    an element of another coset or to a fresh label; and their indices."""
    labels = inst.labels.copy()
    moved = rng.choice(np.arange(1, labels.size), size=int(rng.integers(1, 4)), replace=False)
    for i in moved:
        others = np.flatnonzero(labels != labels[i])
        fresh = others.size == 0 or rng.random() < 0.5
        labels[i] = labels.max() + 1 if fresh else labels[rng.choice(others)]
    return HiddenInstance(inst.blackbox, inst.truth_elements(), labels), set(moved.tolist())


def hides_on(table, labels, seen, subgroup) -> bool:
    """Whether f(x) = f(y) iff xK = yK for all x, y in `seen`, K = `subgroup`."""
    xs = np.array(sorted(seen))
    ks = np.array([table.index(g) for g in subgroup])
    coset = table.index_mul(xs[:, None], ks[None, :]).min(axis=1)  # xK's least index
    values = labels[xs].tolist()
    return len(set(zip(values, coset.tolist()))) == len(set(values)) == len(set(coset.tolist()))


@pytest.mark.parametrize("cell", RELABEL_CELLS)
def test_a_confident_answer_hides_f_on_every_evaluated_element(evaluated, cell):
    make, args = RELABEL_CELLS[cell]
    build = make(*args)
    kinds = set()
    for seed in range(RELABEL_RUNS):
        intact, solve = build(seed)
        twin, solve_twin = build(seed)  # the same instance, its own black box
        broken, moved = relabelled(twin, np.random.default_rng([seed, 1]))
        evaluated.clear()
        try:
            out = solve_twin(broken, np.random.default_rng(seed))
        except ValueError:
            out = None
        seen = set(evaluated)
        saw_relabel = bool(seen & moved)
        kinds.add((saw_relabel, "error" if out is None else out.confident))
        if out is not None and out.confident:
            assert hides_on(intact.blackbox.table, broken.labels, seen, out.subgroup)
        if not saw_relabel:
            # nothing the solve read changed: it is the solve on the intact f
            assert out == solve(intact, np.random.default_rng(seed))
    # relabels seen and refused, seen and still answered, and (rank-one only:
    # the vector solver's reduced grid is the whole group) missed altogether
    assert {(True, "error"), (True, True)} <= kinds
    assert (False, True) in kinds or make is vector_builds
