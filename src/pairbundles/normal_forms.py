"""The taxonomy of bundle normal forms as data.

Each bundle is a pair (a_label, b_shape): a discrete normal-form type for the
first matrix and an enumerated shape for the second, together with the open
parameter domains and the tabulated real dimension of the bundle.

A handful of source-table cells are visibly garbled (duplicated entries,
truncated nodes, one dimension that disagrees between the table and the graph
figure).  Those cells carry a machine-readable provenance note explaining the
reconstruction; nothing is silently guessed.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .core import (Mat2, PairAB, SymMat2, ValidationError, _c2j, _j2c,
                   _j2f, _mat4)

__all__ = [
    "ALabel",
    "BLabel",
    "BShape",
    "BundleLabel",
    "BundleParams",
    "CELLS",
    "PROVENANCE_NOTES",
    "representative",
    "representative_A",
    "table_dimension",
    "canonicalize_params",
    "validate_params",
    "param_fields",
    "label_from_string",
    "GENERIC_PARAMS",
]


class ALabel(str, Enum):
    ZERO = "zero"
    ONE_ZERO = "one_zero"
    IDENTITY = "identity"
    ONE_PLUS_MINUS = "one_plus_minus"
    ONE_THETA = "one_theta"
    NILPOTENT = "nilpotent"
    TAU_FORM = "tau_form"
    JORDAN_I = "jordan_i"


class BLabel(str, Enum):
    """Rank classes of a symmetric matrix under T-congruence."""

    ZERO = "zero"
    RANK1 = "rank1"
    RANK2 = "rank2"

    @property
    def rank(self) -> int:
        return {"zero": 0, "rank1": 1, "rank2": 2}[self.value]


class BShape(str, Enum):
    # shapes relative to the diagonal representative of the A-part
    ZERO = "zero"                       # 0_2
    FULL_HERMITIAN_LIKE = "full_hermitian_like"  # [[a, z*], [z*, d]]
    OFF_DIAG_PLUS_D = "off_diag_plus_d"  # [[0, b], [b, d]]
    A_PLUS_OFF_DIAG = "a_plus_off_diag"  # [[a, b], [b, 0]]
    DIAG_AD = "diag_ad"                 # a (+) d
    ANTI_DIAG = "anti_diag"             # [[0, b], [b, 0]]
    DIAG_A0 = "diag_a0"                 # a (+) 0
    ZERO_D = "zero_d"                   # 0 (+) d
    PHASE_FORM = "phase_form"           # [[e^{i phi}, b], [b, zeta]]
    OFF_DIAG_PHASE = "off_diag_phase"   # [[0, b], [b, e^{i phi}]]
    ONE_ZETA = "one_zeta"               # 1 (+) zeta
    ZERO_ONE = "zero_one"               # 0 (+) 1
    DIAG_A_ZETA = "diag_a_zeta"         # a (+) zeta
    ZETA_B_ONE = "zeta_b_one"           # [[z*, b], [b, 1]]
    OFF_DIAG_B_ONE = "off_diag_b_one"   # [[0, b], [b, 1]]
    DIAG_A_ONE = "diag_a_one"           # a (+) 1
    ONE_B_ZERO = "one_b_zero"           # [[1, b], [b, 0]]
    ONE_ZERO = "one_zero"               # 1 (+) 0
    D_IDENTITY = "d_identity"           # d I_2
    SWAP = "swap"                       # [[0, 1], [1, 0]]
    RANK1 = "rank1"                     # 1 (+) 0 under the zero A-part
    RANK2 = "rank2"                     # I_2 under the zero A-part
    # shapes relative to the anti-diagonal representative [[0,1],[1,0]] of
    # the 1 (+) -1 class
    SWAP_ONE_DE_ITHETA = "swap_one_de_itheta"    # 1 (+) d e^{i theta}
    SWAP_OFF_DIAG_B_ONE = "swap_off_diag_b_one"  # [[0, b], [b, 1]]
    SWAP_ONE_ZERO = "swap_one_zero"              # 1 (+) 0


@dataclass(frozen=True)
class BundleLabel:
    a_label: ALabel
    b_shape: BShape

    def __post_init__(self):
        key = (self.a_label, self.b_shape)
        if key not in _DIMENSIONS:
            raise ValueError(f"no such bundle in the table: {self}")

    def __str__(self) -> str:
        return f"{self.a_label.value}/{self.b_shape.value}"

    def to_json(self) -> str:
        return str(self)


def label_from_string(s: str) -> BundleLabel:
    try:
        a, b = s.split("/")
        return BundleLabel(ALabel(a), BShape(b))
    except ValueError as exc:
        raise ValidationError(f"invalid bundle label {s!r}") from exc


@dataclass(frozen=True)
class BundleParams:
    """Continuous parameters of a bundle; only the fields relevant to the
    label are meaningful (the rest stay None)."""

    theta: Optional[float] = None
    tau: Optional[float] = None
    phi: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    d: Optional[float] = None
    zeta: Optional[complex] = None
    zeta_star: Optional[complex] = None

    def to_json(self) -> dict:
        return {name: _c2j(v) if name in COMPLEX_FIELDS else float(v)
                for name, v in vars(self).items() if v is not None}

    @staticmethod
    def from_json(doc: dict) -> "BundleParams":
        """Parameters from `to_json`'s layout; a complex parameter may also
        be a plain number.  A document that is not an object, an unknown
        key, and a value that is not a JSON number, booleans included,
        raise ValidationError."""
        if not isinstance(doc, dict):
            raise ValidationError("parameters JSON must be an object")
        names = [f.name for f in dataclasses.fields(BundleParams)]
        unknown = sorted(set(doc) - set(names))
        if unknown:
            raise ValidationError(f"unknown parameters: {', '.join(unknown)}")
        return BundleParams(**{
            name: (_j2c if name in COMPLEX_FIELDS else _j2f)(doc[name])
            for name in names if name in doc})


# ---------------------------------------------------------------------------
# the cell catalog: (a_label, b_shape) -> bundle dimension

_A = ALabel
_B = BShape

_DIMENSIONS: dict[tuple[ALabel, BShape], int] = {
    # 1 (+) e^{i theta} column
    (_A.ONE_THETA, _B.FULL_HERMITIAN_LIKE): 14,
    (_A.ONE_THETA, _B.OFF_DIAG_PLUS_D): 12,
    (_A.ONE_THETA, _B.A_PLUS_OFF_DIAG): 12,
    (_A.ONE_THETA, _B.DIAG_AD): 12,
    (_A.ONE_THETA, _B.ANTI_DIAG): 10,
    (_A.ONE_THETA, _B.DIAG_A0): 10,
    (_A.ONE_THETA, _B.ZERO_D): 10,
    (_A.ONE_THETA, _B.ZERO): 8,
    # [[0,1],[tau,0]] column
    (_A.TAU_FORM, _B.PHASE_FORM): 14,
    (_A.TAU_FORM, _B.OFF_DIAG_PHASE): 12,
    (_A.TAU_FORM, _B.ONE_ZETA): 12,
    (_A.TAU_FORM, _B.ZERO_ONE): 10,
    (_A.TAU_FORM, _B.ANTI_DIAG): 10,
    (_A.TAU_FORM, _B.ZERO): 8,
    # [[0,1],[1,i]] column
    (_A.JORDAN_I, _B.DIAG_A_ZETA): 12,
    (_A.JORDAN_I, _B.ANTI_DIAG): 10,
    (_A.JORDAN_I, _B.ZERO_D): 9,
    (_A.JORDAN_I, _B.ZERO): 7,
    # [[0,1],[0,0]] column
    (_A.NILPOTENT, _B.ZETA_B_ONE): 12,
    (_A.NILPOTENT, _B.OFF_DIAG_B_ONE): 10,
    (_A.NILPOTENT, _B.DIAG_A_ONE): 10,
    (_A.NILPOTENT, _B.ONE_B_ZERO): 10,
    (_A.NILPOTENT, _B.ANTI_DIAG): 8,
    (_A.NILPOTENT, _B.ONE_ZERO): 8,
    (_A.NILPOTENT, _B.ZERO_ONE): 8,
    (_A.NILPOTENT, _B.ZERO): 6,
    # I_2 column
    (_A.IDENTITY, _B.DIAG_AD): 11,
    (_A.IDENTITY, _B.D_IDENTITY): 9,
    (_A.IDENTITY, _B.ZERO_D): 9,
    (_A.IDENTITY, _B.ZERO): 5,
    # 1 (+) -1 column (diagonal representative)
    (_A.ONE_PLUS_MINUS, _B.DIAG_AD): 11,
    (_A.ONE_PLUS_MINUS, _B.D_IDENTITY): 9,
    (_A.ONE_PLUS_MINUS, _B.ANTI_DIAG): 9,
    (_A.ONE_PLUS_MINUS, _B.ZERO_D): 9,
    (_A.ONE_PLUS_MINUS, _B.ZERO): 5,
    # 1 (+) -1 column, anti-diagonal representative [[0,1],[1,0]]
    (_A.ONE_PLUS_MINUS, _B.SWAP_ONE_DE_ITHETA): 11,
    (_A.ONE_PLUS_MINUS, _B.SWAP_OFF_DIAG_B_ONE): 10,
    (_A.ONE_PLUS_MINUS, _B.SWAP_ONE_ZERO): 8,
    # 1 (+) 0 column
    (_A.ONE_ZERO, _B.DIAG_A_ONE): 10,
    (_A.ONE_ZERO, _B.SWAP): 8,
    (_A.ONE_ZERO, _B.ZERO_ONE): 8,
    (_A.ONE_ZERO, _B.DIAG_A0): 6,
    (_A.ONE_ZERO, _B.ZERO): 4,
    # 0_2 column
    (_A.ZERO, _B.RANK2): 6,
    (_A.ZERO, _B.RANK1): 4,
    (_A.ZERO, _B.ZERO): 0,
}

CELLS: tuple[BundleLabel, ...] = tuple(
    BundleLabel(a, b) for (a, b) in _DIMENSIONS
)

#: machine-readable notes for every reconstructed / repaired cell
PROVENANCE_NOTES: dict[BundleLabel, str] = {
    BundleLabel(_A.ONE_ZERO, _B.DIAG_A_ONE): (
        "dimension conflict in source: table row says 11, graph figure places "
        "the node in the dim-10 row; tangent-rank oracle gives 10 (orbit dim 9 "
        "+ 1 parameter). Catalogued as 10."
    ),
    BundleLabel(_A.ONE_ZERO, _B.SWAP): (
        "duplicated cell in source: [[0,1],[1,0]] appears in both the dim-9 "
        "and dim-8 rows of the 1(+)0 column. Pair stabilizer is 1-dimensional, "
        "so the orbit (no free parameters) has dim 8. Catalogued once, dim 8."
    ),
    BundleLabel(_A.JORDAN_I, _B.DIAG_A_ZETA): (
        "graph figure writes this node as 1(+)zeta; the leading modulus is "
        "invariant under the [[0,1],[1,i]] stabilizer, so it cannot be "
        "normalized away. Table form a(+)zeta, a>0 kept."
    ),
    BundleLabel(_A.ONE_PLUS_MINUS, _B.SWAP_ONE_DE_ITHETA): (
        "graph figure writes this node as 1(+)xi; read as the table's "
        "1(+)d e^{i theta} cell under the [[0,1],[1,0]] representative."
    ),
    BundleLabel(_A.NILPOTENT, _B.ZERO_ONE): (
        "listed separately from 1(+)0 at dim 8 in the source; the nilpotent "
        "stabilizer {diag(x, 1/(c conj(x)))} never swaps coordinates, so the "
        "two bundles are genuinely distinct. Kept distinct."
    ),
}

#: generic parameter values used when a dimension/tangent computation needs a
#: concrete representative (arbitrary generic choices, not table data)
GENERIC_PARAMS = BundleParams(
    theta=1.0, tau=0.5, a=1.0, b=1.0, d=2.0, phi=0.7,
    zeta=0.3 + 0.4j, zeta_star=1.0 + 1.0j,
)

# the complex-valued parameters; every other parameter is real
COMPLEX_FIELDS = frozenset({"zeta", "zeta_star"})
# the angles v, which enter a form only as e(v) = e^{iv}
ANGLE_FIELDS = frozenset({"theta", "phi"})


def _cis(v) -> complex:
    return cmath.exp(1j * v)


# ---------------------------------------------------------------------------
# the normal forms: for each A-label and each B-shape, its free parameters
# in search-coordinate order and its entries as a function (p, e) of them,
# with e the map v -> e^{iv} of an angle.  Each entry is a sum of constants
# and products of parameters and e(angle)s, affine in each one: the exact
# tangent ranks of `numerics` rely on that.

# row-major entries (a00, a01, a10, a11) of each A-form
_A_FORMS: dict = {
    _A.ZERO: ((), lambda p, e: (0.0, 0.0, 0.0, 0.0)),
    _A.ONE_ZERO: ((), lambda p, e: (1.0, 0.0, 0.0, 0.0)),
    _A.IDENTITY: ((), lambda p, e: (1.0, 0.0, 0.0, 1.0)),
    _A.ONE_PLUS_MINUS: ((), lambda p, e: (1.0, 0.0, 0.0, -1.0)),
    _A.ONE_THETA: (("theta",),
                   lambda p, e: (1.0, 0.0, 0.0, e(p["theta"]))),
    _A.NILPOTENT: ((), lambda p, e: (0.0, 1.0, 0.0, 0.0)),
    _A.TAU_FORM: (("tau",), lambda p, e: (0.0, 1.0, p["tau"], 0.0)),
    _A.JORDAN_I: ((), lambda p, e: (0.0, 1.0, 1.0, 1j)),
}
# the 1 (+) -1 class under its anti-diagonal representative
_SWAP_REP_A_ENTRIES = (0.0, 1.0, 1.0, 0.0)
_SWAP_SHAPES = frozenset(
    {_B.SWAP_ONE_DE_ITHETA, _B.SWAP_OFF_DIAG_B_ONE, _B.SWAP_ONE_ZERO}
)

# (b11, b12, b22) of each B-form [[b11, b12], [b12, b22]]
_B_FORMS: dict = {
    _B.ZERO: ((), lambda p, e: (0.0, 0.0, 0.0)),
    _B.FULL_HERMITIAN_LIKE: (("a", "d", "zeta_star"),
                             lambda p, e: (p["a"], p["zeta_star"], p["d"])),
    _B.OFF_DIAG_PLUS_D: (("b", "d"), lambda p, e: (0.0, p["b"], p["d"])),
    _B.A_PLUS_OFF_DIAG: (("a", "b"), lambda p, e: (p["a"], p["b"], 0.0)),
    _B.DIAG_AD: (("a", "d"), lambda p, e: (p["a"], 0.0, p["d"])),
    _B.ANTI_DIAG: (("b",), lambda p, e: (0.0, p["b"], 0.0)),
    _B.DIAG_A0: (("a",), lambda p, e: (p["a"], 0.0, 0.0)),
    _B.ZERO_D: (("d",), lambda p, e: (0.0, 0.0, p["d"])),
    _B.PHASE_FORM: (("phi", "b", "zeta"),
                    lambda p, e: (e(p["phi"]), p["b"], p["zeta"])),
    _B.OFF_DIAG_PHASE: (("b", "phi"),
                        lambda p, e: (0.0, p["b"], e(p["phi"]))),
    _B.ONE_ZETA: (("zeta",), lambda p, e: (1.0, 0.0, p["zeta"])),
    _B.ZERO_ONE: ((), lambda p, e: (0.0, 0.0, 1.0)),
    _B.DIAG_A_ZETA: (("a", "zeta"), lambda p, e: (p["a"], 0.0, p["zeta"])),
    _B.ZETA_B_ONE: (("zeta_star", "b"), lambda p, e: (p["zeta_star"], p["b"], 1.0)),
    _B.OFF_DIAG_B_ONE: (("b",), lambda p, e: (0.0, p["b"], 1.0)),
    _B.DIAG_A_ONE: (("a",), lambda p, e: (p["a"], 0.0, 1.0)),
    _B.ONE_B_ZERO: (("b",), lambda p, e: (1.0, p["b"], 0.0)),
    _B.ONE_ZERO: ((), lambda p, e: (1.0, 0.0, 0.0)),
    _B.D_IDENTITY: (("d",), lambda p, e: (p["d"], 0.0, p["d"])),
    _B.SWAP: ((), lambda p, e: (0.0, 1.0, 0.0)),
    _B.RANK1: ((), lambda p, e: (1.0, 0.0, 0.0)),
    _B.RANK2: ((), lambda p, e: (1.0, 0.0, 1.0)),
    _B.SWAP_ONE_DE_ITHETA: (("d", "theta"), lambda p, e: (
        1.0, 0.0, p["d"] * e(p["theta"]))),
    _B.SWAP_OFF_DIAG_B_ONE: (("b",), lambda p, e: (0.0, p["b"], 1.0)),
    _B.SWAP_ONE_ZERO: ((), lambda p, e: (1.0, 0.0, 0.0)),
}


def param_fields(label: BundleLabel) -> tuple[str, ...]:
    """Names of the free continuous parameters of a bundle: the A-form's,
    then the B-form's."""
    return _A_FORMS[label.a_label][0] + _B_FORMS[label.b_shape][0]


def _representative_A_entries(a_label: ALabel, p: dict,
                              swap_rep: bool = False, e=_cis) -> tuple:
    """Row-major entries of `representative_A`, with the parameters as a
    dict from field name to value (None or left out when absent), and e
    the form records' angle map."""
    if not isinstance(a_label, ALabel):
        raise ValueError(a_label)
    if swap_rep and a_label is _A.ONE_PLUS_MINUS:
        return _SWAP_REP_A_ENTRIES
    fields, form = _A_FORMS[a_label]
    for name in fields:
        if p.get(name) is None:
            raise ValueError(f"{a_label.value} requires parameter {name}")
    return form(p, e)


def representative_A(a_label: ALabel, params: BundleParams | None = None,
                     *, swap_rep: bool = False) -> Mat2:
    """Canonical first-component matrix for an A-class."""
    return _mat4(_representative_A_entries(
        a_label, vars(params) if params is not None else {}, swap_rep))


def _representative_B_entries(shape: BShape, p: dict, e=_cis) -> tuple:
    """(b11, b12, b22) of the B-part of `representative`, with the
    parameters and e as for `_representative_A_entries`."""
    try:
        form = _B_FORMS[shape][1]
    except KeyError:
        raise ValueError(shape) from None
    return form(p, e)


def _pair_entries(label: BundleLabel, p: dict) -> tuple:
    """(A's entries, B's entries) of `representative` from the form
    records, with the parameters as a dict and validated as there; the
    entries are not yet checked finite."""
    violations = _param_violations(label, p, param_fields(label))
    if violations:
        raise ValidationError(
            f"invalid parameters for {label}: " + "; ".join(violations)
        )
    return (_representative_A_entries(label.a_label, p,
                                      label.b_shape in _SWAP_SHAPES),
            _representative_B_entries(label.b_shape, p))


def representative(label: BundleLabel, params: BundleParams | None = None) -> PairAB:
    """The literal matrix pair of a catalogued cell."""
    a, b = _pair_entries(label, vars(params or BundleParams()))
    return PairAB(_mat4(a), SymMat2(*b))


def table_dimension(label: BundleLabel) -> int:
    """Tabulated real dimension of the bundle."""
    return _DIMENSIONS[(label.a_label, label.b_shape)]


# ---------------------------------------------------------------------------
# parameter validation / canonicalization

def validate_params(label: BundleLabel, params: BundleParams) -> list[str]:
    """Return the list of violated domain constraints (empty when valid)."""
    return _param_violations(label, vars(params), param_fields(label))


def _param_violations(label: BundleLabel, p: dict, fields) -> list[str]:
    """`validate_params` on the parameters as a dict, as for
    `_representative_A_entries`, with fields the cell's `param_fields`."""
    out: list[str] = []
    for name in fields:
        v = p.get(name)
        if v is None:
            out.append(f"{name} is required")
        elif name == "theta" and not (0.0 < v < math.pi):
            out.append("theta must lie in (0, pi)")
        elif name == "tau" and not (0.0 < v < 1.0):
            out.append("tau must lie in (0, 1)")
        elif name in ("a", "b", "d") and not (0.0 < float(v) < math.inf):
            out.append(f"{name} must be "
                       + ("positive" if v <= 0.0 else "finite"))
        elif name in ("phi", "zeta", "zeta_star") and not cmath.isfinite(v):
            out.append(f"{name} must be finite")
        elif name == "zeta_star" and complex(v) == 0:
            out.append("zeta_star must be nonzero")
    if not out and label.b_shape is BShape.DIAG_AD and label.a_label in (
        ALabel.IDENTITY, ALabel.ONE_PLUS_MINUS
    ):
        if not (p["a"] < p["d"]):
            out.append("a<d required; use d_identity label for a=d")
    return out


def _wrap_phase_halfturn(x: float) -> float:
    """Reduce an angle modulo pi into [0, pi)."""
    y = math.fmod(x, math.pi)
    if y < 0.0:
        y += math.pi
    if y >= math.pi:  # guard the fmod boundary
        y -= math.pi
    return y


def _canonical_zeta_star(z: complex) -> complex:
    """Representative of the identification z ~ -z: argument in [0, pi),
    decided by the signs of z's parts, so that it is idempotent."""
    if z == 0:
        return z
    return z if z.imag > 0.0 or z.imag == 0.0 and z.real >= 0.0 else -z


def _canonical_updates(label: BundleLabel, p: dict) -> dict:
    """The parameter values that `canonicalize_params` replaces, for the
    parameters as a dict as for `_representative_A_entries`.  Every update
    is returned, also one that compares equal to the value it replaces (a
    flipped zero keeps its new sign)."""
    updates: dict = {}
    phi, zeta_star, zeta = p.get("phi"), p.get("zeta_star"), p.get("zeta")
    if "phi" in param_fields(label) and phi is not None:
        updates["phi"] = _wrap_phase_halfturn(phi)
    if label.b_shape is BShape.FULL_HERMITIAN_LIKE and zeta_star is not None:
        # the sign identification -zeta* ~ zeta* is specific to this cell;
        # over the nilpotent form the sign of zeta* is a genuine invariant
        updates["zeta_star"] = _canonical_zeta_star(complex(zeta_star))
    if label.b_shape is BShape.PHASE_FORM and phi is not None:
        # (phi, zeta) ~ (phi + pi, -zeta); the wrap above fixed phi in
        # [0, pi), so flip zeta when a half turn was removed
        if zeta is not None:
            halfturns = round((phi - updates["phi"]) / math.pi)
            if halfturns % 2:
                updates["zeta"] = -complex(zeta)
    if label.b_shape is BShape.DIAG_AD and label.a_label in (
        ALabel.IDENTITY, ALabel.ONE_PLUS_MINUS
    ):
        a, d = p.get("a"), p.get("d")
        if a is not None and d is not None and a > d:
            updates["a"], updates["d"] = d, a
    return updates


def canonicalize_params(label: BundleLabel, params: BundleParams) -> BundleParams:
    """Unique representative per parameter equivalence class; idempotent."""
    updates = _canonical_updates(label, vars(params))
    return replace(params, **updates) if updates else params
