"""Point counts over finite fields for spanning-tree hypersurfaces,
symmetric-matrix strata, incidence configurations, and matroid
representation spaces — with exact polynomial fitting and a reproducible
non-polynomial counterexample."""

from __future__ import annotations

from .errors import (
    BadParams,
    BadArgs,
    BadVertex,
    BudgetExceeded,
    DivisionByZero,
    GraphMotiveError,
    InsufficientPoints,
    LengthMismatch,
    NotAForest,
    NotPrimePower,
    NotSimple,
    ParseError,
    TooLarge,
)
from .ffield import (
    FieldElem,
    FieldSpec,
    make_field,
    matrix_rank_minors,
    rank_from_index_rows,
)
from .graphs import (
    Graph,
    complete,
    connected_simple_graphs,
    cycle,
    discrete,
    format_edge_list,
    from_name,
    parse_edge_list,
    parse_graph6,
    path,
    star,
)
from .polys import (
    MultilinearPoly,
    duality_check,
    matrix_tree_check,
    reduced_laplacian,
    spanning_tree_poly,
    symbolic_det,
    tree_complement_poly,
)
from .counting import (
    DEFAULT_BUDGET,
    CountTable,
    Strata,
    count_blocked_nondegenerate,
    count_blocked_rank,
    count_invertible,
    count_rank_maps,
    count_subspaces,
    count_supported_nondegenerate,
    count_symmetric_extensions,
    count_symmetric_rank,
    count_tree_complement,
    count_tree_support,
    count_zeros,
    extension_support,
    rank_census,
    stats,
    strata_counts,
    symmetric_extension_census,
    symmetric_rank_census,
    verify_apex_support_iso,
    verify_contract_delete_sums,
    verify_free_vertex_extension,
)
from .incidence import (
    IdentityReport,
    count_A,
    count_H,
    count_J,
    count_J_partial,
    count_K,
    count_L,
    forest_J,
    verify_identity,
)
from .matroids import (
    Matroid,
    PartialRank,
    VonStaudtReport,
    count_X,
    count_X_oracle,
    fano,
    fano_demo,
    matroid_from_text,
    matroid_to_text,
    uniform,
    validate_axioms,
    vector_matroid,
    von_staudt_check,
)
from .motive import IntPoly, NoFit, fit_polynomial
from .cache import CountCache

__version__ = "0.1.0"
