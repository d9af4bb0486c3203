"""The names the benchmark harness in perfbench/ reaches into must exist.

perfbench/ traces functions by module path and builds its cases through
package exports; a moved or renamed definition would only show up in the
slow traced benchmark run.  This test reads perfbench/tracing.py without
installing anything and checks every trace point, every call signature
that perfbench/cases.py relies on, and the argument branch spans are named by.
"""

import importlib
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

import sdhsp
from sdhsp import hsp_modular, hsp_vector, reference, sdp_group

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return inspect.getattr_static(owner, leaf)


TRACE_POINTS = _load_tracing().TRACE_POINTS


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _name, _how in TRACE_POINTS], ids=lambda v: v
)
def test_every_trace_point_resolves(module_name, attr):
    target = _resolve(module_name, attr)
    if isinstance(target, classmethod):
        target = target.__func__
    assert callable(target)


def test_names_the_cases_use_exist():
    for name in (
        "GroupTable",
        "ZmGroupSpec",
        "sdp_table",
        "modular_group_spec",
        "enumerate_subgroups",
        "make_hidden_instance",
        "make_vec_instance",
        "solve_modular",
        "solve_vector",
    ):
        assert hasattr(sdhsp, name), name
    assert callable(hsp_vector.vec_table)
    assert callable(sdp_group.subgroup_elements)
    assert callable(reference.enumerate_all_subgroups)
    assert callable(reference.subgroup_equal)
    assert hsp_vector.vec_table is sdp_group.vec_table


def test_call_signatures_the_cases_use():
    # each bind mirrors a call in perfbench/cases.py; bind raises on a
    # removed or renamed parameter
    table = object()
    inspect.signature(sdhsp.make_hidden_instance).bind(
        table,
        frozenset(),
        mode="unique",
        salts=1,
        salt_policy="zero",
        generator_policy="canonical",
        seed=0,
    )
    inspect.signature(sdhsp.make_vec_instance).bind(
        table, frozenset(), generator_policy="scrambled", seed=0
    )
    inspect.signature(sdhsp.sdp_table).bind(None)
    inspect.signature(hsp_vector.vec_table).bind(None)
    inspect.signature(sdp_group.subgroup_elements).bind(None, None)
    rng = np.random.default_rng(0)
    inspect.signature(sdhsp.solve_modular).bind(None, [], rng=rng)
    inspect.signature(sdhsp.solve_vector).bind(None, rng)
    inspect.signature(reference.brute_force_hidden_subgroup).bind(table, len)
    outcome_fields = set(inspect.signature(sdhsp.SolveOutcome).parameters)
    assert {"subgroup", "confident", "report"} <= outcome_fields


def test_branch_spans_take_their_name_from_the_first_argument(monkeypatch):
    # tracing.py names each hsp_modular.branch span by args[0] of _run_branch
    assert next(iter(inspect.signature(hsp_modular._run_branch).parameters)) == "name"
    real, names = hsp_modular._run_branch, []

    def spy(*args, **kwargs):
        assert not kwargs
        names.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(hsp_modular, "_run_branch", spy)
    # quotient runs for xpower:1 of (3,2), inner for cyclicxy:1,1; the skewed
    # pair (x, x*y) sends xpowery:4 of (2,4) to the involution branch
    cases = (
        ((3, 2), "xpower:1", False),
        ((3, 2), "cyclicxy:1,1", False),
        ((2, 4), "xpowery:4", True),
    )
    for (p, r), label, skewed in cases:
        spec = sdhsp.modular_group_spec(p, r)
        table = sdhsp.sdp_table(spec)
        desc = next(d for d in sdhsp.enumerate_subgroups(spec) if d.label() == label)
        truth = frozenset(sdp_group.subgroup_elements(spec, desc))
        inst, handles = sdhsp.make_hidden_instance(table, truth, seed=0)
        if skewed:
            x, y = table.standard_generators
            handles = [inst.blackbox.encode(x), inst.blackbox.encode(table.mul(x, y))]
        sdhsp.solve_modular(inst, handles, rng=np.random.default_rng(0))
    assert set(names) == {"quotient", "inner", "involution"}
