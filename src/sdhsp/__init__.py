"""Hidden subgroup algorithms over semidirect-product groups, simulated.

Layers, bottom up:

  algebra      integer lattices over mixed moduli: duals, kernels, Smith form
  sdp_group    the groups Z_{p^r} x| Z_q: arithmetic, twists, classes, subgroups
  blackbox     opaque-handle encodings, oracles and query accounting
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
    multiplicative_order,
    smith_normal_form,
    solve_kernel,
)
from .blackbox import (
    BlackBox,
    GroupTable,
    HiddenInstance,
    OpaqueHandle,
    make_hidden_instance,
    sdp_table,
)
from .hsp_modular import SolveOutcome, SpecialPair, find_special_pair
from .hsp_modular import solve as solve_modular
from .hsp_vector import VecElement, VecInstance, VecSolveOutcome, ZmGroupSpec, make_vec_instance
from .hsp_vector import solve as solve_vector
from .qsim import AbelianOracle, abelian_hsp_solve, qft_matrix
from .sdp_group import (
    Element,
    GroupSpec,
    SubgroupDesc,
    classify,
    compose,
    enumerate_alphas,
    enumerate_subgroups,
    invert,
    iso_map,
    modular_group_spec,
    power,
    power_closed_form,
)

__version__ = "0.1.0"
