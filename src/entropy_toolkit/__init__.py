"""Polymatroid rank functions, entropy functions and Ingleton score tooling.

The package splits into five layers:

* :mod:`~entropy_toolkit.core` - set functions on ground sets of up to 8
  elements: axioms, matroid generators, convolution, tight/modular
  decomposition, contractions and principal extensions;
* :mod:`~entropy_toolkit.entropy` - entropy functions of joint distributions
  and the two closed-form families (four-atom and forty-configuration);
* :mod:`~entropy_toolkit.frame` - the four-variable Ingleton machinery:
  functional, basis expansion, face maps, symmetrized cross-section;
* :mod:`~entropy_toolkit.inequalities` - non-Shannon inequalities as data
  (symmetrized Zhang-Yeung, the DFZ family) and point checking;
* :mod:`~entropy_toolkit.search` - derivative-free score minimization over
  distributions, point clouds, convex hulls and outer approximations.

The command line front end lives in :mod:`entropy_toolkit.cli`.
"""

from .core import (
    AxiomReport,
    GroundSet,
    NonPolymatroidWarning,
    SetFunction,
    TOL_ANALYTIC,
    TOL_ENTROPIC,
    check_axioms,
    closure_of,
    contraction,
    convolution,
    convolve_modular_iterative,
    delta,
    delta_given,
    delta_vec,
    is_modular,
    is_tight,
    load_set_function,
    matroid_rank,
    modular_from,
    modular_part,
    parallel_extension,
    pe_contract,
    principal_extension,
    relabel,
    save_set_function,
    set_function_from_json,
    set_function_to_json,
    tight_part,
)
from .entropy import (
    EXL_COLUMNS,
    EXL_REFERENCE,
    ExLParams,
    JointDistribution,
    distribution_from_csv,
    distribution_from_json,
    distribution_to_csv,
    distribution_to_json,
    entropy_function,
    exl_closed_form,
    exl_distribution,
    four_atom_distribution,
    four_atom_score,
    kappa,
    load_distribution,
    save_distribution,
)
from .frame import (
    BasisCoefficients,
    CrossSectionPoint,
    IngletonFrame,
    a_map,
    b_map,
    basis_coefficients,
    basis_generators,
    c_sym,
    cross_section_point,
    e_face_margins,
    in_e_face,
    ingleton_base,
    ingleton_score,
    ingleton_value,
    pipeline_operator,
    point_from_weights,
    reconstruct,
    section_weight_matrix,
    section_weights,
    stv_vec,
    tetra_vertices,
    violated_instances,
)
from .inequalities import (
    CrossSectionHalfspace,
    LinearInequality,
    PointCheckReport,
    check_point,
    default_halfspace_bank,
    dfz_halfspace,
    dfz_linear,
    evaluate,
    halfspace_from_json,
    halfspace_to_json,
    inequality_from_json,
    inequality_to_json,
    is_balanced,
    load_inequality_file,
    section_halfspace,
    stv_functional,
    symmetrized_zy,
)
from .search.engine import (
    Cloud,
    SearchConfig,
    SearchResult,
    generate_cloud,
    minimize_scalar,
    optimize_distribution,
    sphere_directions,
    vertex_seed_distributions,
)
from .search.geometry import Polytope3, convex_hull_3d, hull_volume, outer_region

__version__ = "0.1.0"
