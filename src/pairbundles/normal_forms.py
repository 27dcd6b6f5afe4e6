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
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .core import Mat2, PairAB, SymMat2, _mat4

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
        raise ValueError(f"invalid bundle label {s!r}") from exc


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
        out = {}
        for name in ("theta", "tau", "phi", "a", "b", "d"):
            v = getattr(self, name)
            if v is not None:
                out[name] = float(v)
        for name in ("zeta", "zeta_star"):
            v = getattr(self, name)
            if v is not None:
                v = complex(v)
                out[name] = [v.real, v.imag]
        return out

    @staticmethod
    def from_json(doc: dict) -> "BundleParams":
        kw = {}
        for name in ("theta", "tau", "phi", "a", "b", "d"):
            if name in doc:
                kw[name] = float(doc[name])
        for name in ("zeta", "zeta_star"):
            if name in doc:
                v = doc[name]
                kw[name] = complex(v[0], v[1]) if isinstance(v, list) else complex(v)
        return BundleParams(**kw)


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

# which parameter fields each shape uses (the A-part contributes theta / tau)
_SHAPE_FIELDS: dict[BShape, tuple[str, ...]] = {
    _B.ZERO: (),
    _B.FULL_HERMITIAN_LIKE: ("a", "d", "zeta_star"),
    _B.OFF_DIAG_PLUS_D: ("b", "d"),
    _B.A_PLUS_OFF_DIAG: ("a", "b"),
    _B.DIAG_AD: ("a", "d"),
    _B.ANTI_DIAG: ("b",),
    _B.DIAG_A0: ("a",),
    _B.ZERO_D: ("d",),
    _B.PHASE_FORM: ("phi", "b", "zeta"),
    _B.OFF_DIAG_PHASE: ("b", "phi"),
    _B.ONE_ZETA: ("zeta",),
    _B.ZERO_ONE: (),
    _B.DIAG_A_ZETA: ("a", "zeta"),
    _B.ZETA_B_ONE: ("zeta_star", "b"),
    _B.OFF_DIAG_B_ONE: ("b",),
    _B.DIAG_A_ONE: ("a",),
    _B.ONE_B_ZERO: ("b",),
    _B.ONE_ZERO: (),
    _B.D_IDENTITY: ("d",),
    _B.SWAP: (),
    _B.RANK1: (),
    _B.RANK2: (),
    _B.SWAP_ONE_DE_ITHETA: ("d", "theta"),
    _B.SWAP_OFF_DIAG_B_ONE: ("b",),
    _B.SWAP_ONE_ZERO: (),
}


def param_fields(label: BundleLabel) -> tuple[str, ...]:
    """Names of the free continuous parameters of a bundle."""
    fields = []
    if label.a_label is _A.ONE_THETA:
        fields.append("theta")
    elif label.a_label is _A.TAU_FORM:
        fields.append("tau")
    for f in _SHAPE_FIELDS[label.b_shape]:
        if f not in fields:
            fields.append(f)
    return tuple(fields)


# ---------------------------------------------------------------------------
# representatives

_SWAP_SHAPES = frozenset(
    {_B.SWAP_ONE_DE_ITHETA, _B.SWAP_OFF_DIAG_B_ONE, _B.SWAP_ONE_ZERO}
)


# row-major entries (a00, a01, a10, a11) of the parameter-free A-forms
_REP_A_ENTRIES: dict[ALabel, tuple] = {
    _A.ZERO: (0.0, 0.0, 0.0, 0.0),
    _A.ONE_ZERO: (1.0, 0.0, 0.0, 0.0),
    _A.IDENTITY: (1.0, 0.0, 0.0, 1.0),
    _A.ONE_PLUS_MINUS: (1.0, 0.0, 0.0, -1.0),
    _A.NILPOTENT: (0.0, 1.0, 0.0, 0.0),
    _A.JORDAN_I: (0.0, 1.0, 1.0, 1j),
}
_SWAP_REP_A_ENTRIES = (0.0, 1.0, 1.0, 0.0)


def _representative_A_entries(a_label: ALabel, p: BundleParams,
                              swap_rep: bool = False) -> tuple:
    """Row-major entries of `representative_A`."""
    if a_label is _A.ONE_THETA:
        if p.theta is None:
            raise ValueError("one_theta requires parameter theta")
        return (1.0, 0.0, 0.0, cmath.exp(1j * p.theta))
    if a_label is _A.TAU_FORM:
        if p.tau is None:
            raise ValueError("tau_form requires parameter tau")
        return (0.0, 1.0, p.tau, 0.0)
    if swap_rep and a_label is _A.ONE_PLUS_MINUS:
        return _SWAP_REP_A_ENTRIES
    if not isinstance(a_label, ALabel):
        raise ValueError(a_label)
    return _REP_A_ENTRIES[a_label]


def representative_A(a_label: ALabel, params: BundleParams | None = None,
                     *, swap_rep: bool = False) -> Mat2:
    """Canonical first-component matrix for an A-class."""
    return _mat4(_representative_A_entries(a_label, params or BundleParams(),
                                           swap_rep))


# (b11, b12, b22) of each B-form [[b11, b12], [b12, b22]]
_B_FORMS = {
    _B.ZERO: lambda p: (0.0, 0.0, 0.0),
    _B.FULL_HERMITIAN_LIKE: lambda p: (p.a, p.zeta_star, p.d),
    _B.OFF_DIAG_PLUS_D: lambda p: (0.0, p.b, p.d),
    _B.A_PLUS_OFF_DIAG: lambda p: (p.a, p.b, 0.0),
    _B.DIAG_AD: lambda p: (p.a, 0.0, p.d),
    _B.ANTI_DIAG: lambda p: (0.0, p.b, 0.0),
    _B.DIAG_A0: lambda p: (p.a, 0.0, 0.0),
    _B.ZERO_D: lambda p: (0.0, 0.0, p.d),
    _B.PHASE_FORM: lambda p: (cmath.exp(1j * p.phi), p.b, p.zeta),
    _B.OFF_DIAG_PHASE: lambda p: (0.0, p.b, cmath.exp(1j * p.phi)),
    _B.ONE_ZETA: lambda p: (1.0, 0.0, p.zeta),
    _B.ZERO_ONE: lambda p: (0.0, 0.0, 1.0),
    _B.DIAG_A_ZETA: lambda p: (p.a, 0.0, p.zeta),
    _B.ZETA_B_ONE: lambda p: (p.zeta_star, p.b, 1.0),
    _B.OFF_DIAG_B_ONE: lambda p: (0.0, p.b, 1.0),
    _B.DIAG_A_ONE: lambda p: (p.a, 0.0, 1.0),
    _B.ONE_B_ZERO: lambda p: (1.0, p.b, 0.0),
    _B.ONE_ZERO: lambda p: (1.0, 0.0, 0.0),
    _B.D_IDENTITY: lambda p: (p.d, 0.0, p.d),
    _B.SWAP: lambda p: (0.0, 1.0, 0.0),
    _B.RANK1: lambda p: (1.0, 0.0, 0.0),
    _B.RANK2: lambda p: (1.0, 0.0, 1.0),
    _B.SWAP_ONE_DE_ITHETA: lambda p: (1.0, 0.0, p.d * cmath.exp(1j * p.theta)),
    _B.SWAP_OFF_DIAG_B_ONE: lambda p: (0.0, p.b, 1.0),
    _B.SWAP_ONE_ZERO: lambda p: (1.0, 0.0, 0.0),
}


def _representative_B_entries(shape: BShape, p: BundleParams) -> tuple:
    """(b11, b12, b22) of the B-part of `representative`."""
    try:
        form = _B_FORMS[shape]
    except KeyError:
        raise ValueError(shape) from None
    return form(p)


def representative(label: BundleLabel, params: BundleParams | None = None) -> PairAB:
    """The literal matrix pair of a catalogued cell."""
    p = params or BundleParams()
    violations = validate_params(label, p)
    if violations:
        raise ValueError(
            f"invalid parameters for {label}: " + "; ".join(violations)
        )
    A = representative_A(label.a_label, p,
                         swap_rep=label.b_shape in _SWAP_SHAPES)
    return PairAB(A, SymMat2(*_representative_B_entries(label.b_shape, p)))


def table_dimension(label: BundleLabel) -> int:
    """Tabulated real dimension of the bundle."""
    return _DIMENSIONS[(label.a_label, label.b_shape)]


# ---------------------------------------------------------------------------
# parameter validation / canonicalization

def _need(p: BundleParams, name: str, out: list[str]) -> bool:
    if getattr(p, name) is None:
        out.append(f"{name} is required")
        return False
    return True


def validate_params(label: BundleLabel, params: BundleParams) -> list[str]:
    """Return the list of violated domain constraints (empty when valid)."""
    out: list[str] = []
    p = params
    for name in param_fields(label):
        if not _need(p, name, out):
            continue
        if name == "theta" and not (0.0 < p.theta < math.pi):
            out.append("theta must lie in (0, pi)")
        elif name == "tau" and not (0.0 < p.tau < 1.0):
            out.append("tau must lie in (0, 1)")
        elif name in ("a", "b", "d") and not (float(getattr(p, name)) > 0.0):
            out.append(f"{name} must be positive")
        elif name == "zeta_star" and complex(p.zeta_star) == 0:
            out.append("zeta_star must be nonzero")
    if not out and label.b_shape is BShape.DIAG_AD and label.a_label in (
        ALabel.IDENTITY, ALabel.ONE_PLUS_MINUS
    ):
        if not (p.a < p.d):
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
    """Representative of the identification z ~ -z: argument in [0, pi)."""
    if z == 0:
        return z
    return z if 0.0 <= cmath.phase(z) < math.pi else -z


def canonicalize_params(label: BundleLabel, params: BundleParams) -> BundleParams:
    """Unique representative per parameter equivalence class; idempotent."""
    p = params
    updates: dict = {}
    fields = param_fields(label)
    if "phi" in fields and p.phi is not None:
        updates["phi"] = _wrap_phase_halfturn(p.phi)
    if (label.b_shape is BShape.FULL_HERMITIAN_LIKE
            and p.zeta_star is not None):
        # the sign identification -zeta* ~ zeta* is specific to this cell;
        # over the nilpotent form the sign of zeta* is a genuine invariant
        updates["zeta_star"] = _canonical_zeta_star(complex(p.zeta_star))
    if label.b_shape is BShape.PHASE_FORM and p.phi is not None:
        # (phi, zeta) ~ (phi + pi, -zeta); the wrap above fixed phi in
        # [0, pi), so flip zeta when a half turn was removed
        if p.zeta is not None:
            halfturns = round((p.phi - updates["phi"]) / math.pi)
            if halfturns % 2:
                updates["zeta"] = -complex(p.zeta)
    if label.b_shape is BShape.DIAG_AD and label.a_label in (
        ALabel.IDENTITY, ALabel.ONE_PLUS_MINUS
    ):
        if p.a is not None and p.d is not None and p.a > p.d:
            updates["a"], updates["d"] = p.d, p.a
    return replace(p, **updates) if updates else p
