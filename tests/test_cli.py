"""Command-line surface: reports, exit codes, determinism, schema conformance."""

import csv
import io
import json
import math
import pathlib
import re
import shlex
import time

import numpy as np
import pytest

from sdhsp.cli import SEED_ENV_VAR, main, parse_hidden
from sdhsp.sdp_group import (
    IDENTITY,
    Element,
    VecElement,
    ZmGroupSpec,
    closure,
    elements,
    enumerate_subgroups,
    modular_group_spec,
    sdp_table,
    subgroup_elements,
    vec_table,
)

jsonschema = pytest.importorskip("jsonschema")

HERE = pathlib.Path(__file__).resolve().parent
SCHEMA = json.loads((HERE.parent / "docs" / "report_schema.json").read_text())

# stdout pinned from an earlier commit: a report that drifts between commits
# fails here even when each commit is deterministic on its own
PINNED_REPORTS = {
    "solve_p_cyclicxy.json": (
        "solve-p", "--p", "3", "--r", "2", "--hidden", "cyclicxy:1,1", "--seed", "7",
    ),
    "solve_p_salted_scrambled.json": (
        "solve-p", "--p", "2", "--r", "4", "--hidden", "random", "--encoding", "salted:4",
        "--salt-policy", "fresh", "--generators", "scrambled", "--seed", "3",
    ),
    "solve_p_salted_operands.json": (
        "solve-p", "--p", "2", "--r", "4", "--hidden", "random", "--encoding", "salted:4",
        "--salt-policy", "operands", "--generators", "scrambled", "--seed", "3",
    ),
    "solve_p_3_6_salted16_fresh.json": (
        "solve-p", "--p", "3", "--r", "6", "--hidden", "random", "--encoding", "salted:16",
        "--salt-policy", "fresh", "--generators", "scrambled", "--seed", "11",
    ),
    "solve_p_large_cyclicxy.json": (
        "solve-p", "--p", "2", "--r", "8", "--hidden", "cyclicxy:1,3", "--seed", "5",
    ),
    "solve_p_2_10_cyclicxy.json": (
        "solve-p", "--p", "2", "--r", "10", "--hidden", "cyclicxy:1,5", "--seed", "5",
    ),
    "solve_p_2_12_cyclicxy.json": (
        "solve-p", "--p", "2", "--r", "12", "--hidden", "cyclicxy:1,5", "--seed", "5",
    ),
    "solve_p_2_13_cyclicxy.json": (
        "solve-p", "--p", "2", "--r", "13", "--hidden", "cyclicxy:1,5", "--seed", "5",
    ),
    "solve_p_2_16_scrambled.json": (
        "solve-p", "--p", "2", "--r", "16", "--hidden", "random", "--generators", "scrambled",
        "--seed", "3",
    ),
    "solve_zm_random.json": (
        "solve-zm", "--p", "3", "--r", "2", "--m", "1", "--hidden", "random", "--seed", "1",
    ),
    "solve_zm_3_3_2.json": (
        "solve-zm", "--p", "3", "--r", "3", "--m", "2", "--hidden", "random", "--seed", "2",
    ),
    "solve_zm_2_3_3_scrambled.json": (
        "solve-zm", "--p", "2", "--r", "3", "--m", "3", "--hidden", "random",
        "--generators", "scrambled", "--seed", "4",
    ),
    # seed 3 draws three A-handles: the basis is picked out of m + 1 of them
    "solve_zm_3_2_2_scrambled.json": (
        "solve-zm", "--p", "3", "--r", "2", "--m", "2", "--hidden", "random",
        "--generators", "scrambled", "--seed", "3",
    ),
    # seed 1 draws two A-handles: a relation grid of 2^28 points, walked on A's 2^14
    "solve_zm_2_14_1_scrambled.json": (
        "solve-zm", "--p", "2", "--r", "14", "--m", "1", "--hidden", "trivial",
        "--generators", "scrambled", "--seed", "1",
    ),
    "bench_mixed.csv": ("bench", "--grid", "3,2;2,3;3,2,1", "--seed", "7"),
    "bench_salted_fresh.csv": (
        "bench", "--grid", "3,3;2,4", "--encoding", "salted:4", "--salt-policy", "fresh",
        "--generators", "scrambled", "--seed", "7",
    ),
    "bench_vector_scrambled.csv": (
        "bench", "--grid", "2,3,2;3,2,2", "--generators", "scrambled", "--seed", "7",
    ),
    "bench_scrambled_wide.csv": (
        "bench", "--grid", "5,3;11,2;13,2", "--encoding", "salted:4", "--salt-policy", "fresh",
        "--generators", "scrambled", "--seed", "7",
    ),
    "bench_13_3_salted_fresh.csv": (
        "bench", "--grid", "13,3", "--encoding", "salted:4", "--salt-policy", "fresh",
        "--generators", "scrambled", "--seed", "7",
    ),
    # every one of the 322 subgroups of Z_16^2 x| Z_2, in enumeration order
    "bench_2_4_2_scrambled.csv": (
        "bench", "--grid", "2,4,2", "--generators", "scrambled", "--seed", "7",
    ),
}
WORKFLOW = HERE.parent / ".github" / "workflows" / "tests.yml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    rep = json.loads(out)
    jsonschema.validate(rep, SCHEMA)
    return code, rep, err


def test_classify_modular_family(capsys):
    code, rep, _ = run_json(capsys, "classify", "--p", "3", "--q", "3", "--r", "2")
    assert code == 0
    assert [row["alpha"] for row in rep["alphas"]] == [4, 7]
    assert all(row["class"] == 4 for row in rep["alphas"])
    assert len(rep["families"]) == 1
    assert rep["families"][0]["alphas"] == [4, 7]


def test_classify_three_classes_at_p2(capsys):
    code, rep, _ = run_json(capsys, "classify", "--p", "2", "--q", "2", "--r", "3")
    assert code == 0
    got = {row["alpha"]: row["class"] for row in rep["alphas"]}
    assert got == {3: 3, 5: 4, 7: 2}
    assert len(rep["families"]) == 3


def test_classify_empty_alpha_set_with_note(capsys):
    code, rep, _ = run_json(capsys, "classify", "--p", "5", "--q", "3", "--r", "1")
    assert code == 0
    assert rep["alphas"] == []
    assert "does not divide" in rep["note"]


def test_solve_p_worked_example(capsys):
    code, rep, _ = run_json(
        capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", "cyclicxy:1,1", "--seed", "7"
    )
    assert code == 0
    assert rep["match"] is True
    assert sorted(rep["found_subgroup"]) == [[0, 0], [3, 1], [6, 2]]


def test_solve_p_full_and_trivial(capsys):
    code, rep, _ = run_json(capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", "full")
    assert code == 0 and rep["match"]
    assert len(rep["found_subgroup"]) == 27
    code, rep, _ = run_json(capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", "trivial")
    assert code == 0 and rep["match"]
    assert rep["found_subgroup"] == [[0, 0]]


def test_solve_p_rejects_the_excluded_group(capsys):
    code, out, err = run(capsys, "solve-p", "--p", "2", "--r", "2", "--hidden", "full")
    assert code == 2
    assert "excluded" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--p", "2", "--q", "2", "--r", "30"),
        ("solve-p", "--p", "1009", "--r", "2"),
        ("solve-p", "--p", "2", "--r", "19"),
        ("bench", "--grid", "1009,2"),
        ("bench", "--grid", "3,2,9"),
        ("bench", "--grid", "3,2;2,19"),
        # exponents whose power alone would take minutes, or print as a
        # number too long for str()
        ("solve-p", "--p", "2", "--r", "10000000"),
        ("bench", "--grid", "2,10000000"),
        ("solve-zm", "--p", "3", "--r", "1000000", "--m", "1000"),
        ("classify", "--p", "2", "--q", "2", "--r", "10000000"),
        ("solve-zm", "--p", "2", "--r", "3", "--m", "10000000"),
        # a large prime is decided at once, then refused by a bound
        ("classify", "--p", "2305843009213693951", "--q", "2", "--r", "1"),
        ("solve-p", "--p", "2305843009213693951", "--r", "2"),
        ("solve-zm", "--p", "2305843009213693951", "--r", "2", "--m", "1"),
        ("classify", "--p", "3", "--q", "9223372036854775837", "--r", "1"),
        # the brute-force bound on the group order, as for solve-p and bench
        ("solve-zm", "--p", "3", "--r", "7", "--m", "2"),
    ],
    ids=" ".join,
)
def test_oversized_inputs_exit_2_before_any_table_is_built(capsys, monkeypatch, argv):
    from sdhsp import acceptance, cli

    def no_table(spec):
        raise AssertionError(f"a table of {spec} was built")

    for module in (cli, acceptance):
        monkeypatch.setattr(module, "sdp_table", no_table)
        monkeypatch.setattr(module, "vec_table", no_table)
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 2
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bound" in err and len(err) < 200


def test_classify_decides_a_large_prime_q_at_once(capsys):
    # 2^61 - 1 is prime and no unit mod 3 has that order: an empty answer, not a hang
    t0 = time.monotonic()
    code, rep, _ = run_json(
        capsys, "classify", "--p", "3", "--q", "2305843009213693951", "--r", "1"
    )
    assert time.monotonic() - t0 < 2
    assert code == 0 and rep["alphas"] == [] and rep["note"] == "q does not divide p - 1"


@pytest.mark.parametrize("seed", range(1, 7))
def test_a_relation_grid_is_walked_on_a_at_every_seed(capsys, seed):
    # seeds 1, 3, 5 and 6 draw two A-handles, a relation grid of 2^28 points;
    # the walk covers A's 2^14 elements, so every seed is answered
    code, rep, _ = run_json(
        capsys, "solve-zm", "--p", "2", "--r", "14", "--m", "1", "--hidden", "trivial",
        "--generators", "scrambled", "--seed", str(seed),
    )
    assert code == 0 and rep["match"] is True and rep["solver"]["confident"] is True


def test_solve_p_samples_a_domain_of_2_22_points_in_closed_form(capsys, monkeypatch):
    # (2,12)'s shift oracle has 2^11 x 2^11 points; the sampler runs no
    # Fourier transform, at this size or any other
    def no_transform(*args, **kwargs):
        raise AssertionError("a Fourier transform in the sampler")

    monkeypatch.setattr(np.fft, "ifftn", no_transform)
    code, rep, _ = run_json(
        capsys, "solve-p", "--p", "2", "--r", "12", "--hidden", "cyclicxy:1,5", "--seed", "5"
    )
    assert code == 0 and rep["match"] is True and rep["solver"]["confident"] is True
    assert "backend" not in rep and "backend" not in rep["solver"]


def test_solve_p_has_no_backend_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve-p", "--p", "2", "--r", "3", "--seed", "5", "--backend", "annihilator"])
    assert exc.value.code == 2


def test_solve_p_is_deterministic(capsys):
    args = ("solve-p", "--p", "3", "--r", "3", "--hidden", "random", "--seed", "12")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "wall_ms" not in json.loads(out1)


def test_timings_flag_adds_wall_ms(capsys):
    code, rep, _ = run_json(
        capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", "trivial", "--timings"
    )
    assert code == 0
    assert "wall_ms" in rep


def test_solve_zm_random(capsys):
    code, rep, _ = run_json(
        capsys, "solve-zm", "--p", "3", "--r", "2", "--m", "2", "--hidden", "random", "--seed", "1"
    )
    assert code == 0 and rep["match"]


def test_solve_zm_trivial(capsys):
    code, rep, _ = run_json(
        capsys, "solve-zm", "--p", "3", "--r", "2", "--m", "1", "--hidden", "trivial"
    )
    assert code == 0 and rep["match"]
    assert rep["found_subgroup"] == [[[0], 0]]


def test_solve_zm_full_pullback_is_logarithmic(capsys):
    # the pullback lifts only the m + 1 echelon rows of pi^-1(H), so its
    # products grow with log |G| rather than |H|, and H is never listed
    p, r, m = 3, 2, 3
    argv = ("solve-zm", "--p", str(p), "--r", str(r), "--m", str(m), "--seed", "1")
    _, trivial, _ = run_json(capsys, *argv, "--hidden", "trivial")
    code, full, _ = run_json(capsys, *argv, "--hidden", "full")
    assert code == 0 and full["match"] and full["solver"]["confident"]
    bound = trivial["solver"]["queries"]["mul"] + (m + 1) * 2 * r * math.ceil(math.log2(p))
    assert full["solver"]["queries"]["mul"] <= bound
    assert len(full["found_generators"]) <= m + 1


def test_solve_zm_requires_unique_encoding(capsys):
    code, out, err = run(
        capsys, "solve-zm", "--p", "3", "--r", "2", "--m", "1",
        "--hidden", "trivial", "--encoding", "salted:4",
    )
    assert code == 2
    assert "unique encoding" in err
    # one salt per element is a unique encoding, whatever the mode is called
    code, rep, _ = run_json(
        capsys, "solve-zm", "--p", "3", "--r", "2", "--m", "1",
        "--hidden", "trivial", "--encoding", "salted:1",
    )
    assert code == 0 and rep["match"] is True
    assert rep["encoding"] == {"salts": 1, "salt_policy": "zero"}


def test_bad_encoding_string(capsys):
    code, out, err = run(
        capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", "full", "--encoding", "salted:99"
    )
    assert code == 2 and "out of range" in err
    code, out, err = run(
        capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", "full", "--encoding", "weird"
    )
    assert code == 2


def test_bad_hidden_spec(capsys):
    for text in (
        "nope:1", "xpower:9", "cyclicxy:0,1", "cyclicxy:1",
        # text outside the tuples, or a tuple left open, is refused
        "gens:(1,0),(0", "gens:junk(1,0)junk", "gens:(1,0);(0,1)",
    ):
        code, out, err = run(capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", text)
        assert code == 2, text


def _vec(*gens):
    """Elements (a_1,..,a_m,b) of a vector group."""
    return [VecElement(tuple(g[:-1]), g[-1]) for g in gens]


def _hidden_modular_specs():
    for p, r in ((3, 2), (2, 3)):
        spec = modular_group_spec(p, r)
        table = sdp_table(spec)
        for d in enumerate_subgroups(spec):
            want = subgroup_elements(spec, d)
            yield pytest.param(table, d.label(), 0, want, id=f"{p},{r} {d.label()}")
        yield pytest.param(table, "full", 0, elements(spec), id=f"{p},{r} full")
        yield pytest.param(table, "trivial", 0, [IDENTITY], id=f"{p},{r} trivial")
    table = sdp_table(modular_group_spec(3, 2))
    for text, want in (
        ("xpower:+1", [IDENTITY, Element(3, 0), Element(6, 0)]),
        ("cyclicxy:1, 1", [IDENTITY, Element(3, 1), Element(6, 2)]),
        ("gens:(6,2),(12,4)", [IDENTITY, Element(3, 1), Element(6, 2)]),
    ):
        yield pytest.param(table, text, 0, want, id=f"3,2 {text}")
    # random specs resolve to the subgroups the per-family parsers drew
    # before they were merged: a label on a rank-one group, the closure of
    # up to m+1 drawn elements on a vector group
    for (p, r), labels in (
        ((3, 2), ("xpowery:1", "cyclicxy:1,1", "cyclicxy:1,1")),
        ((2, 3), ("xpowery:1", "cyclicxy:1,1", "cyclicxy:1,0")),
    ):
        spec = modular_group_spec(p, r)
        descs = {d.label(): d for d in enumerate_subgroups(spec)}
        for seed, label in enumerate(labels, 1):
            want = subgroup_elements(spec, descs[label])
            yield pytest.param(sdp_table(spec), "random", seed, want, id=f"{p},{r} random {seed}")
    for cell, drawn in (
        ((3, 2, 1), (_vec((4, 1)), _vec((2, 1), (0, 2)), _vec((0, 2), (1, 1)))),
        (
            (2, 3, 2),
            (
                _vec((4, 0, 1)),
                _vec((2, 0, 1), (0, 6, 1), (2, 3, 0)),
                _vec((0, 5, 0), (1, 3, 0), (1, 7, 0)),
            ),
        ),
    ):
        table = vec_table(ZmGroupSpec(*cell))
        key = ",".join(map(str, cell))
        for seed, gens in enumerate(drawn, 1):
            want = closure(table.mul, table.identity, gens)
            yield pytest.param(table, "random", seed, want, id=f"{key} random {seed}")
        yield pytest.param(table, "full", 0, table.elements, id=f"{key} full")
        yield pytest.param(table, "trivial", 0, [table.identity], id=f"{key} trivial")
    table = vec_table(ZmGroupSpec(3, 2, 1))
    yield pytest.param(table, "gens:(3,1)", 0, _vec((0, 0), (3, 1), (6, 2)), id="3,2,1 gens:(3,1)")
    table = vec_table(ZmGroupSpec(2, 3, 2))
    want = closure(table.mul, table.identity, _vec((4, 0, 1), (0, 2, 0)))
    yield pytest.param(table, "gens:(12,0,3),(0,-6,0)", 0, want, id="2,3,2 gens:(12,0,3),(0,-6,0)")


@pytest.mark.parametrize("table, text, seed, want", list(_hidden_modular_specs()))
def test_hidden_modular_spec_resolves(table, text, seed, want):
    assert parse_hidden(text, table, np.random.default_rng(seed)) == sorted(want)


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    _, rep, _ = run_json(capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", "trivial")
    assert rep["seed"] == 99
    monkeypatch.delenv(SEED_ENV_VAR)
    _, rep, _ = run_json(capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", "trivial")
    assert rep["seed"] == 0


def test_bench_row_counts_match_the_count_formula(capsys):
    code, out, err = run(capsys, "bench", "--grid", "3,2;3,3;5,2", "--seed", "7")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    per = {}
    for row in rows:
        key = (row["p"], row["r"])
        per[key] = per.get(key, 0) + 1
        assert row["match"] == "True"
    assert per == {("3", "2"): 10, ("3", "3"): 14, ("5", "2"): 14}


def test_match_needs_the_brute_force_level_set(capsys, monkeypatch):
    # a reference that disagrees with the planted subgroup turns match off,
    # although the solver still finds the planted subgroup
    from sdhsp import acceptance

    real = acceptance.reference.brute_force_hidden_subgroup
    monkeypatch.setattr(
        acceptance.reference,
        "brute_force_hidden_subgroup",
        lambda table, label_of: real(table, label_of) - {table.identity},
    )
    code, rep, _ = run_json(
        capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", "cyclicxy:1,1", "--seed", "7"
    )
    assert code == 1 and rep["match"] is False
    assert sorted(rep["found_subgroup"]) == [[0, 0], [3, 1], [6, 2]]
    code, rep, _ = run_json(capsys, "bench", "--grid", "3,2,1", "--seed", "7", "--output", "json")
    assert code == 1
    assert [row["match"] for row in rep["rows"]] == [False] * 10


def test_bench_empty_grid_gives_header_only(capsys):
    code, out, err = run(capsys, "bench", "--grid", "")
    assert code == 0
    assert out.count("\n") == 1
    assert out.startswith("p,r,m,group_order,subgroup,")


def test_bench_reruns_are_byte_identical(capsys):
    args = ("bench", "--grid", "2,3;3,2,1", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_bench_json_mode_validates(capsys):
    code, rep, _ = run_json(
        capsys, "bench", "--grid", "3,2;3,2,1", "--seed", "7", "--output", "json"
    )
    assert code == 0
    assert len(rep["rows"]) == 20
    for row in rep["rows"]:
        assert not set(rep) & set(row) and "pullback_ok" not in row


def test_output_is_a_bench_option_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve-p", "--p", "3", "--r", "2", "--seed", "7", "--output", "csv"])
    assert exc.value.code == 2
    assert "--output" in capsys.readouterr().err


def test_selftest_quick_passes_fast(capsys):
    import time

    t0 = time.monotonic()
    code, out, err = run(capsys, "selftest", "--quick")
    assert code == 0
    assert time.monotonic() - t0 < 60
    assert "all gates passed" in out


def test_selftest_fails_under_mutation(capsys, monkeypatch):
    from sdhsp import acceptance
    from sdhsp.algebra import Lattice

    real = acceptance.dual_lattice
    # a nonzero lattice gets the dual of the zero lattice: everything
    monkeypatch.setattr(
        acceptance, "dual_lattice", lambda L: real(Lattice(L.moduli, ()) if L.gens else L)
    )
    code, out, err = run(capsys, "selftest", "--quick")
    assert code != 0
    assert "FAIL" in out


def test_bench_vector_cells(capsys):
    code, out, err = run(capsys, "bench", "--grid", "3,2,1", "--seed", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10  # the pinned subgroup count of Z_9 x| Z_3
    assert all(row["m"] == "1" and row["match"] == "True" for row in rows)


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_reports_match_the_pinned_bytes(capsys, name):
    code, out, _ = run(capsys, *PINNED_REPORTS[name])
    assert code == 0
    assert out == (HERE / "data" / name).read_text()
    if name.endswith(".json"):
        rep = json.loads(out)
        jsonschema.validate(rep, SCHEMA)
        # each fact once: what the solver knows lives under solver only
        assert not set(rep) & set(rep["solver"]) and "pullback_ok" not in rep["solver"]


@pytest.mark.parametrize("name", ["solve_p_cyclicxy.json", "solve_zm_random.json"])
def test_the_schema_refuses_a_copied_solver_fact(name):
    rep = json.loads((HERE / "data" / name).read_text())
    jsonschema.validate(rep, SCHEMA)
    for key in ("group", "delta", "confident", "queries"):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**rep, key: rep["solver"][key]}, SCHEMA)
    if "zm" in name:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**rep, "solver": {**rep["solver"], "pullback_ok": True}}, SCHEMA)


def test_ci_diffs_exactly_the_pinned_reports():
    # every `sdhsp ... | diff - tests/data/<name>` line of the workflow, by file
    diffed = {}
    for line in WORKFLOW.read_text().splitlines():
        if "| diff" in line:
            m = re.fullmatch(r"\s*sdhsp (.+) \| diff - tests/data/(\S+)", line)
            assert m, line
            assert m.group(2) not in diffed, line
            diffed[m.group(2)] = tuple(shlex.split(m.group(1)))
    assert diffed == PINNED_REPORTS
