"""Inputs that break a solver's promises raise a typed error, never answer.

Each case hands a solver something outside its input contract: handles
from another black box, handle sets that do not generate the group,
abelian handles that do not form a basis, or a salted encoding given to
the vector solver, which needs unique encodings.
"""

import numpy as np
import pytest

from sdhsp.blackbox import make_hidden_instance
from sdhsp.hsp_modular import solve as solve_modular
from sdhsp.hsp_vector import VecInstance, make_vec_instance
from sdhsp.hsp_vector import solve as solve_vector
from sdhsp.sdp_group import (
    Element,
    VecElement,
    ZmGroupSpec,
    modular_group_spec,
    sdp_table,
    vec_identity,
    vec_table,
)

P32 = modular_group_spec(3, 2)
S322 = ZmGroupSpec(3, 2, 2)


def rank_one_instance(seed=0):
    table = sdp_table(P32)
    return make_hidden_instance(table, frozenset({table.identity}), seed=seed)


def test_foreign_handle_to_the_rank_one_solver():
    inst, handles = rank_one_instance(seed=0)
    other, other_handles = rank_one_instance(seed=1)
    with pytest.raises(ValueError, match="unknown encoding"):
        solve_modular(inst, [other_handles[0], handles[1]], rng=np.random.default_rng(1))


def test_foreign_handle_to_the_vector_solver():
    vin = make_vec_instance(S322, [vec_identity(S322)], seed=0)
    other = make_vec_instance(S322, [vec_identity(S322)], seed=1)
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
    "rows", [((3, 0), (0, 1)), ((1, 0),)], ids=["3e1,e2", "e1"]
)
def test_vector_handles_that_are_not_a_basis(rows):
    vin = make_vec_instance(S322, [vec_identity(S322)], seed=0)
    bb = vin.blackbox
    a_handles = tuple(bb.encode(VecElement(row, 0)) for row in rows)
    bad = VecInstance(vin.instance, a_handles, vin.y_handle)
    with pytest.raises(ValueError, match="do not present a free module"):
        solve_vector(bad, rng=np.random.default_rng(1))


def test_salted_instance_given_to_the_vector_solver():
    table = vec_table(S322)
    inst, handles = make_hidden_instance(
        table, frozenset({table.identity}), mode="salted", salts=4, seed=0
    )
    vin = VecInstance(inst, tuple(handles[: S322.m]), handles[S322.m])
    with pytest.raises(ValueError, match="requires unique encoding"):
        solve_vector(vin, rng=np.random.default_rng(1))
