"""Classification, closure graphs and numerical verification for pairs of
2x2 complex matrices under the action (c, P): (A, B) -> (c P* A P, P^T B P)."""

from .core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    ValidationError,
    apply_action,
    apply_psi1,
    apply_psi2,
    cosquare,
    det_invariant,
    group_compose,
    group_identity,
    group_inverse,
    max_norm,
    pair_distance,
)
from .normal_forms import (
    ALabel,
    BLabel,
    BShape,
    BundleLabel,
    BundleParams,
    CELLS,
    canonicalize_params,
    label_from_string,
    representative,
    table_dimension,
    validate_params,
)

from .classify import (
    AmbiguityError,
    Classification,
    ClassificationFailureError,
    classify_pair,
)
from .closure import (
    PSI1_GRAPH,
    PSI2_GRAPH,
    ClosureGraphPsi,
    Edge,
    SuspectEdgeWarning,
    bundle_graph,
    is_path,
    is_path_psi1,
    is_path_psi2,
    path_edges,
    predecessors,
    successors,
)
from .witnesses import (
    CATALOG,
    VerifyReport,
    WitnessFamily,
    default_grid,
    witness_eval,
    witness_lookup,
    witness_repair,
    witness_verify,
)
from .numerics import (
    BoundReport,
    EmpiricalConstants,
    NeighborhoodReport,
    bundle_dimension_numeric,
    detxe_bound,
    distance_to_bundle,
    lemadet_verify,
    monte_carlo_neighborhood,
    nonedge_floor,
    nu_fit,
    psi2_orbit_dimension_numeric,
    sample_group_element,
    table3_residuals,
    table4_residuals,
)

__version__ = "0.1.0"
