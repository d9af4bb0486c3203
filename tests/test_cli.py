"""Command-line surface: reports, exit codes, determinism, schema conformance."""

import csv
import io
import json
import pathlib

import numpy as np
import pytest

from sdhsp.cli import SEED_ENV_VAR, main, parse_hidden_modular
from sdhsp.sdp_group import (
    IDENTITY,
    Element,
    elements,
    enumerate_subgroups,
    modular_group_spec,
    subgroup_elements,
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
    "solve_p_large_cyclicxy.json": (
        "solve-p", "--p", "2", "--r", "8", "--hidden", "cyclicxy:1,3", "--seed", "5",
    ),
    "solve_zm_random.json": (
        "solve-zm", "--p", "3", "--r", "2", "--m", "1", "--hidden", "random", "--seed", "1",
    ),
    "bench_mixed.csv": ("bench", "--grid", "3,2;2,3;3,2,1", "--seed", "7"),
}


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


def test_solve_p_random_spec_and_backend(capsys):
    code, rep, _ = run_json(
        capsys, "solve-p", "--p", "2", "--r", "3", "--hidden", "random",
        "--seed", "5", "--backend", "annihilator",
    )
    assert code == 0 and rep["match"]
    assert rep["solver"]["backend"] == "annihilator"


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


def test_solve_zm_requires_unique_encoding(capsys):
    code, out, err = run(
        capsys, "solve-zm", "--p", "3", "--r", "2", "--m", "1",
        "--hidden", "trivial", "--encoding", "salted:4",
    )
    assert code == 2
    assert "unique encoding" in err


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
    for text in ("nope:1", "xpower:9", "cyclicxy:0,1", "cyclicxy:1"):
        code, out, err = run(capsys, "solve-p", "--p", "3", "--r", "2", "--hidden", text)
        assert code == 2, text


def _hidden_modular_specs():
    for p, r in ((3, 2), (2, 3)):
        spec = modular_group_spec(p, r)
        for d in enumerate_subgroups(spec):
            want = subgroup_elements(spec, d)
            yield pytest.param(spec, d.label(), want, id=f"{p},{r} {d.label()}")
        yield pytest.param(spec, "full", elements(spec), id=f"{p},{r} full")
        yield pytest.param(spec, "trivial", [IDENTITY], id=f"{p},{r} trivial")
    spec = modular_group_spec(3, 2)
    for text, want in (
        ("xpower:+1", [IDENTITY, Element(3, 0), Element(6, 0)]),
        ("cyclicxy:1, 1", [IDENTITY, Element(3, 1), Element(6, 2)]),
    ):
        yield pytest.param(spec, text, want, id=f"3,2 {text}")


@pytest.mark.parametrize("spec, text, want", list(_hidden_modular_specs()))
def test_hidden_modular_spec_resolves(spec, text, want):
    desc = parse_hidden_modular(text, spec, np.random.default_rng(0))
    assert subgroup_elements(spec, desc) == sorted(want)


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
    code, rep, _ = run_json(capsys, "bench", "--grid", "3,2", "--seed", "7", "--output", "json")
    assert code == 0
    assert len(rep["rows"]) == 10


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
    from sdhsp.algebra import full_lattice

    real = acceptance.dual_lattice
    monkeypatch.setattr(
        acceptance, "dual_lattice", lambda L: full_lattice(L.moduli) if L.gens else real(L)
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
