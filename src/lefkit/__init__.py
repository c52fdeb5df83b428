"""Exact toolkit for Lefschetz properties of Stanley-Reisner rings.

From simplicial complexes to Lefschetz verdicts: face enumeration and
homology, artinian reductions with standard-monomial bases, exact rank
and kernel computation, incidence complexes and half-hollow edgewise
subdivisions, analytic spread of monomial ideals, and verification of
unexpected systems of parameters.
"""

from .complexes import (
    CollapseCertificate,
    Coloring,
    FHProfile,
    HomologyReport,
    SimplicialComplex,
    balanced_coloring,
    collapse_search,
    faces,
    fh_profile,
    from_facets,
    homology,
    is_cohen_macaulay,
    is_homology_sphere,
    link,
    load_complex,
    pseudomanifold_status,
    replay_collapse,
)
from .lefschetz import (
    ClassifierResult,
    InverseSystemPiece,
    IsotypicMaps,
    SopCandidate,
    UnexpectedReport,
    WlpReport,
    colored_dual_generator,
    colored_sop,
    divergence_bound_check,
    graph_wlp_classifier,
    ideal_membership,
    inverse_system_piece,
    is_sop,
    kernel_transpose_basis,
    quotient_hilbert,
    slp_check,
    twin_pairs,
    universal_sop,
    verify_unexpected,
    wlp_check,
)
from .linalg import ExactMatrix, KernelBasis, kernel_basis, rank, rank_mod_p
from .monomials import (
    ArtinianFrame,
    IdealPresentation,
    LogMatrix,
    Monomial,
    Polynomial,
    analytic_spread,
    contract,
    differentiate,
    divided_power_rescale,
    facet_ideal,
    hilbert_function,
    log_matrix,
    multiplication_equals_hesd_log,
    multiplication_matrix,
    parse_polynomial,
    stanley_reisner_generators,
    standard_basis,
    sum_of_variables,
)
from .subdivision import (
    FacetRidgeGraph,
    LatticePoint,
    facet_ridge_graph,
    hesd,
    incidence_complex,
    is_bipartite,
)

__version__ = "0.1.0"
