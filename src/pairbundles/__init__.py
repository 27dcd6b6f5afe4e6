"""Classification, closure graphs and numerical verification for pairs of
2x2 complex matrices under the action (c, P): (A, B) -> (c P* A P, P^T B P).

`import pairbundles` loads only the numpy-free modules `core`,
`normal_forms` and `closure`, so querying the closure graph
(`bundle_graph`, `is_path`, ...) loads neither the classifier nor
numpy.  The classifier `classify` and the verification engines
`numerics` and `witnesses` load on the first use of one of their names
here (`pairbundles.classify_pair`, `pairbundles.distance_to_bundle`,
`pairbundles.CATALOG`, ...) or of the submodule itself.  None of them
imports numpy when it loads: the engines import it only in the functions
that draw seeded samples, search distances or evaluate a family."""

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

# name -> the submodule that defines it, loaded on first access (PEP 562)
_LAZY = {
    **dict.fromkeys((
        "classify",
        "AmbiguityError",
        "Classification",
        "ClassificationFailureError",
        "classify_pair",
    ), "classify"),
    **dict.fromkeys((
        "witnesses",
        "CATALOG",
        "VerifyReport",
        "WitnessFamily",
        "default_grid",
        "witness_eval",
        "witness_lookup",
        "witness_repair",
        "witness_verify",
    ), "witnesses"),
    **dict.fromkeys((
        "numerics",
        "BoundReport",
        "EmpiricalConstants",
        "NeighborhoodReport",
        "bundle_dimension_numeric",
        "detxe_bound",
        "distance_to_bundle",
        "lemadet_verify",
        "monte_carlo_neighborhood",
        "nonedge_floor",
        "nu_fit",
        "psi2_orbit_dimension_numeric",
        "sample_group_element",
        "table3_residuals",
        "table4_residuals",
    ), "numerics"),
}

# the eager names, the three eager submodules and every lazy name
__all__ = sorted({n for n in globals() if not n.startswith("_")}
                 | _LAZY.keys())

__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
