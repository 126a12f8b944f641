"""Spectral analysis of point interactions on metric graphs.

The pipeline: describe a metric graph with an edge model (Laplacian or
Dirac) and a vertex coupling; evaluate per-edge boundary response
matrices and their renormalized versions; assemble the weighted discrete
Laplacian that represents the coupling; run sufficient-condition checks
(self-adjointness, discreteness,semi-boundedness); and compute spectra
on finite graphs twice, by a secular-matrix scan and by an independent
RK4 transfer-matrix oracle.
"""

from .edges import (
    Dirac,
    EdgeModelError,
    HalfLineLaplacian,
    Laplacian,
    PoleOfWeylError,
    decoupled_eigenvalues,
    defect_element,
    green_identity_residual,
    transform_triplet,
    weyl,
    weyl_derivative,
    weyl_norm_prime,
)
from .graphs import (
    Edge,
    MetricGraph,
    TruncationInfo,
    alpha_map,
    binary_tree,
    chain,
    geometric_chain,
    incidence_sets,
    interval,
    random_graph,
    star,
    validate_graph,
)
from .linrel import LinearRelation, OperatorOnSubspace, relation_from_operator
from .coupling import custom_coupling, delta_coupling, global_basis
from .regularize import Regularization, build_regularization, regularized_weyl
from .discrete import (
    DiscreteLaplacian,
    build_discrete,
    lmin_matrix,
    unitary_equivalence_residual,
    weighted_degree,
)
from .criteria import (
    CriterionResult,
    check_bounded_triplet_case,
    check_discreteness,
    check_mtilde_divergence,
    check_self_adjointness,
    check_semibounded,
)
from .spectra import (
    OracleConvergenceError,
    SpectrumResult,
    krein_matrix,
    lower_bound_certificate,
    match_spectra,
    oracle_eigenvalues,
    scan_spectrum,
    spectrum_csv,
)
from .fileio import GraphFormatError, LoadedProblem, load_problem, parse_problem

__version__ = "0.1.0"
