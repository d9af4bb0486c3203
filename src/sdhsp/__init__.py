"""Hidden subgroup algorithms over semidirect-product groups, simulated.

Layers, bottom up:

  algebra      integer lattices over mixed moduli, plus closure and
               square-and-multiply over a plain (mul, inv, identity)
  sdp_group    both families Z_{p^r}^m x| Z_q: arithmetic, group tables,
               twists, classes, subgroups
  blackbox     opaque-handle encodings, oracles, query accounting, instances
               and the solvers' shared outcome
  qsim         the simulated quantum step: QFT sampling of periodic functions
  hsp_modular  solver for the rank-one modular maximal-cyclic family
  hsp_vector   solver for Z_{p^r}^m x| Z_p with the near-identity twist
  reference    brute-force routes everything is checked against
  acceptance   the gates; cli drives them via `sdhsp selftest`
"""

from .algebra import (
    Lattice,
    dual_lattice,
    lattice_canonicalize,
    lattice_elements,
    lattice_member,
    lattice_sample,
    lattice_size,
    lattices_equal,
    solve_kernel,
)
from .blackbox import BlackBox, HiddenInstance, OpaqueHandle, SolveOutcome, make_hidden_instance
from .hsp_modular import SpecialPair, find_special_pair
from .hsp_modular import solve as solve_modular
from .hsp_vector import VecInstance, make_vec_instance
from .hsp_vector import solve as solve_vector
from .qsim import AbelianOracle, abelian_hsp_solve
from .sdp_group import (
    Element,
    GroupSpec,
    GroupTable,
    SubgroupDesc,
    VecElement,
    ZmGroupSpec,
    classify,
    enumerate_alphas,
    enumerate_subgroups,
    iso_map,
    modular_group_spec,
    power_closed_form,
    sdp_table,
)

__version__ = "0.1.0"
