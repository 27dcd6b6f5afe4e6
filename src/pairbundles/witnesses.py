"""Catalog of explicit degeneration families certifying closure-graph edges.

A witness family is a curve s -> (c(s), P(s)) together with a curve of
instances (A(s), B(s)) inside the target bundle such that

    c(s) P(s)* A(s) P(s) -> A~   and   P(s)^T B(s) P(s) -> B~

as s -> 0+, where (A~, B~) is the representative of the source bundle.
A family names its instance by the target's parameters q(s): the instance
is `representative(target, q(s))`, so it lies in the target bundle by
construction, and a q(s) outside the target's domain raises
ValidationError.
Families are entered with their printed closed-form constants; a few are
known to carry misprinted constants.  `witness_repair` fixes those by exact
corrections only: a constant scale on P, a quarter-turn phase on c, or the
transposition of P (the repair log, not the printed constants, is the
ground truth).

Families are immutable and carry no trust status: `witness_verify` is a
pure function, and a family's status lives only in the `VerifyReport` that
`witness_verify` or `witness_repair` returns.

A family's P(s) is closed-form nested rows of Python numbers.  One raw
core, `_witness4`, evaluates a family at one s on `core`'s 4-tuples: it
checks (c(s), P(s)) with `_group4`, the check a `GroupElement` makes,
builds the instance's entries with `representative`'s checks and checks
the moved entries finite, as `Mat2` and `SymMat2` would.  `witness_verify`
and `witness_repair` read the source's entries once per family and
build no value type per grid point; `witness_eval` wraps the core's result
into a `GroupElement` and a `PairAB`.  Nothing here multiplies 2x2 arrays,
and nothing here loads numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .core import (PairAB, SymMat2, ValidationError, _checked_group_element,
                   _entries4, _finite3, _finite4, _gap, _group4, _mat4,
                   _record_json, _star_congruence4, _transpose_congruence3)
# unused here; perfbench/spans.py wraps it in this module
from .core import apply_action  # noqa: F401
from .normal_forms import (
    BundleLabel,
    BundleParams,
    _pair_entries,
    label_from_string as _L,
    representative,
)

__all__ = [
    "WitnessFamily",
    "VerifyReport",
    "CATALOG",
    "default_grid",
    "witness_lookup",
    "witness_eval",
    "witness_verify",
    "witness_repair",
]

DEFAULT_S_MAX = 0.3
DEFAULT_GRID_LENGTH = 14
DEFAULT_GRID_RATIO = 0.5
DEFAULT_TOL = 1e-4


@dataclass(frozen=True)
class WitnessFamily:
    """One closed-form degeneration family for a single closure-graph edge."""

    name: str
    source: tuple  # (BundleLabel, BundleParams)
    target: BundleLabel
    c_of_s: Callable[[float], complex]
    P_of_s: Callable[[float], list]  # nested rows [[p00, p01], [p10, p11]]
    target_params_of_s: Callable[[float], dict]  # BundleParams fields
    provenance: str

    @property
    def source_label(self) -> BundleLabel:
        return self.source[0]

    def source_pair(self) -> PairAB:
        return representative(self.source[0], self.source[1])

    def target_instance_of_s(self, s: float) -> PairAB:
        """The target's representative at the parameters q(s)."""
        return representative(self.target,
                              BundleParams(**self.target_params_of_s(s)))


@dataclass
class VerifyReport:
    family: str
    s_grid: tuple
    residuals: tuple
    status: str
    message: str

    def to_json(self) -> dict:
        return _record_json(self)


def default_grid() -> tuple:
    """Geometric grid DEFAULT_S_MAX, DEFAULT_S_MAX*ratio, ... of
    DEFAULT_GRID_LENGTH points with ratio DEFAULT_GRID_RATIO."""
    return tuple(DEFAULT_S_MAX * DEFAULT_GRID_RATIO ** k
                 for k in range(DEFAULT_GRID_LENGTH))


def _source7(f: WitnessFamily) -> tuple:
    """The entries of f's source representative: A's, then b11, b12, b22."""
    x = f.source_pair()
    return x.A.entries + (x.B.a, x.B.b, x.B.d)


def _witness4(f: WitnessFamily, s: float, src: tuple):
    """`witness_eval` on raw values, with src = `_source7(f)`: (c, P, moved,
    residual), with P a row-major 4-tuple and moved laid out as src."""
    if not 0.0 < s <= DEFAULT_S_MAX:
        raise ValidationError(f"s must lie in (0, {DEFAULT_S_MAX}] (got {s})")
    c, p = _group4(f.c_of_s(s), _entries4(f.P_of_s(s)))
    q = f.target_params_of_s(s)
    if not q.keys() <= BundleParams.__dataclass_fields__.keys():
        BundleParams(**q)  # raises TypeError naming the unknown parameter
    a, b = _pair_entries(f.target, q)
    a, b = _finite4(a), _finite3(b)
    moved = (_finite4(_star_congruence4(c, p, a))
             + _finite3(_transpose_congruence3(p, *b)))
    return c, p, moved, _gap(moved, src)


def witness_eval(f: WitnessFamily, s: float):
    """Evaluate a family at one parameter value.

    Returns (group element, transported pair, residual to the source
    representative).  Raises ValidationError on s outside
    (0, DEFAULT_S_MAX], on a non-finite or singular P(s) (the checks of
    `GroupElement`) and on a q(s) outside the target's domain.
    """
    c, p, moved, r = _witness4(f, s, _source7(f))
    return (_checked_group_element(c, p),
            PairAB(_mat4(moved[:4]), SymMat2(*moved[4:])), r)


def witness_verify(f: WitnessFamily,
                   s_grid: Optional[Sequence[float]] = None,
                   tol: float = DEFAULT_TOL) -> VerifyReport:
    """Check convergence of a family along a decreasing geometric grid.

    verified: residuals non-increasing and the final one below tol.
    refuted: residuals bounded away from zero over the whole grid.
    Anything in between is reported unverified.
    """
    grid = tuple(s_grid) if s_grid is not None else default_grid()
    if len(grid) < 2:
        raise ValueError("insufficient grid: need at least 2 points")
    return _verify(f, grid, tol, _source7(f))


def _verify(f: WitnessFamily, grid: tuple, tol: float,
            src: tuple) -> VerifyReport:
    """`witness_verify` with src = `_source7(f)`."""
    residuals = tuple(_witness4(f, s, src)[3] for s in grid)
    monotone = all(
        residuals[i + 1] <= residuals[i] * (1.0 + 1e-9) + 1e-15
        for i in range(len(residuals) - 1)
    )
    if monotone and residuals[-1] < tol:
        status, msg = "verified", f"final residual {residuals[-1]:.3e} < {tol}"
    elif min(residuals) >= 100.0 * tol:
        status = "refuted"
        msg = f"residual bounded below by {min(residuals):.3e}"
    else:
        status = "unverified"
        msg = ("residuals not monotone" if not monotone
               else f"final residual {residuals[-1]:.3e} >= {tol}")
    return VerifyReport(f.name, grid, residuals, status, msg)


# ---------------------------------------------------------------------------
# repair: search a small correction space for misprinted constants
# ---------------------------------------------------------------------------

_PREFERRED_SCALES = (
    1.0, math.sqrt(2.0), 1.0 / math.sqrt(2.0), 2.0, 0.5,
    2.0 ** 0.25, 2.0 ** -0.25, 3.0 ** 0.5, 3.0 ** -0.5,
)
_PREFERRED_PHASES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


def _scaled(k, rows) -> list:
    """The rows of k M, for M given by its rows."""
    return [[k * z for z in row] for row in rows]


def _corrected(f: WitnessFamily, t: float, psi: float,
               transpose: bool) -> WitnessFamily:
    base_P, base_c = f.P_of_s, f.c_of_s

    def P(s, _t=t, _tr=transpose):
        m00, m01, m10, m11 = _entries4(base_P(s))
        if _tr:
            m01, m10 = m10, m01
        return _scaled(_t, [[m00, m01], [m10, m11]])

    def c(s, _psi=psi):
        return cmath.exp(1j * _psi) * base_c(s)

    notes = []
    if transpose:
        notes.append("P transposed")
    if abs(t - 1.0) > 1e-12:
        notes.append(f"P scaled by t={t:.10g}")
    if abs(psi) > 1e-12:
        notes.append(f"c rotated by e^(i {psi:.10g})")
    return replace(
        f,
        c_of_s=c,
        P_of_s=P,
        provenance=f.provenance + "; repaired: " + ", ".join(notes),
    )


def witness_repair(f: WitnessFamily, tol: float = DEFAULT_TOL):
    """Fit an exact correction (scale on P, phase on c, optional
    transposition of P) to a family whose printed constants are garbled.

    Returns (family, report).  report.status is "verified" when f already
    converges (f is returned unchanged), "repaired" when a correction
    converges (the corrected family is returned, with the correction
    recorded in its provenance), and "refuted" when none does (f is
    returned unchanged).
    """
    return _repair_from(f, witness_verify(f, tol=tol), tol)


def _repair_from(f: WitnessFamily, report: VerifyReport, tol: float):
    """``witness_repair`` given ``report = witness_verify(f, tol=tol)``,
    for a caller that has already verified f."""
    if report.status == "verified":
        return f, report
    grid, src = default_grid(), _source7(f)
    # misprints are dropped factors, not noise: only exact constants are tried
    for transpose in (False, True):
        for t in _PREFERRED_SCALES:
            for psi in _PREFERRED_PHASES:
                if not transpose and t == 1.0 and psi == 0.0:
                    continue
                cand = _corrected(f, t, psi, transpose)
                cand_report = _verify(cand, grid, tol, src)
                if cand_report.status == "verified":
                    return cand, replace(cand_report, status="repaired")
    return f, replace(report, status="refuted",
                      message=f"no exact correction converges; {report.message}")


def witness_lookup(src: BundleLabel, dst: BundleLabel):
    """The catalogued family for an edge, or None."""
    for f in CATALOG:
        if f.source_label == src and f.target == dst:
            return f
    return None


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

def _const_c(s):
    return 1.0


def _family(name, src, src_params, dst, P, q, provenance,
            c=_const_c) -> WitnessFamily:
    return WitnessFamily(
        name=name,
        source=(_L(src), src_params),
        target=_L(dst),
        c_of_s=c,
        P_of_s=P,
        target_params_of_s=q,
        provenance=provenance,
    )


_SQ2 = math.sqrt(2.0)

CATALOG: tuple = (
    # ---- rank chain of the second component --------------------------------
    _family(
        "rank1-in-rank2", "zero/rank1", BundleParams(), "zero/rank2",
        lambda s: [[1, 0], [0, s]],
        lambda s: {},
        "P(s) = 1 (+) s applied to B = I2; P^T P = 1 (+) s^2",
    ),
    # ---- first-component families (B = 0) ----------------------------------
    _family(
        "one-zero-in-one-theta", "one_zero/zero", BundleParams(),
        "one_theta/zero",
        lambda s: [[1, 0], [0, s]],
        lambda s: {"theta": 1.0},
        "P(s) = 1 (+) s applied to A = 1 (+) e^{i theta}, theta = 1",
    ),
    _family(
        "one-zero-in-tau", "one_zero/zero", BundleParams(), "tau_form/zero",
        lambda s: _scaled(1.0 / math.sqrt(1.5), [[1, 0], [1, s]]),
        lambda s: {"tau": 0.5},
        "P(s) = (1/sqrt(1+tau)) [[1, 0], [1, s]] at tau = 1/2; "
        "residual s/(1+tau)",
    ),
    _family(
        "plus-minus-in-jordan", "one_plus_minus/zero", BundleParams(),
        "jordan_i/zero",
        lambda s: _scaled(0.5, [[1 / s, 1 / s], [s, -s]]),
        lambda s: {},
        "printed family P(s) = (1/2)[[1/s, 1/s], [s, -s]]; the printed "
        "scale 1/2 leaves the limit at (1/2)(1 (+) -1)",
    ),
    _family(
        "plus-minus-in-tau", "one_plus_minus/zero", BundleParams(),
        "tau_form/zero",
        lambda s: _scaled(1.0 / _SQ2, [[1, 1], [1, -1]]),
        lambda s: {"tau": 1 - s},
        "source printed against the anti-diagonal representative with "
        "P = I2; the constant change of basis to 1 (+) -1 is folded into P",
    ),
    _family(
        "jordan-in-tau", "jordan_i/zero", BundleParams(), "tau_form/zero",
        lambda s: _scaled(1.0 / (2 * math.sqrt(s)),
                          [[s, -2j], [-1j * s, 2]]),
        lambda s: {"tau": 1 - s},
        "A(s) = [[0, 1], [1-s, 0]]; source graph figure prints "
        "(1/(2 sqrt(s)))[[sqrt(s), -2i], [-i sqrt(s), 1]], which does not "
        "converge; constants corrected by rederivation (residual s/2)",
    ),
    _family(
        "jordan-in-one-theta", "jordan_i/zero", BundleParams(),
        "one_theta/zero",
        lambda s: [[math.sqrt(s) / 2, 1 / math.sqrt(s)],
                   [math.sqrt(s) / 2, -1 / math.sqrt(s)]],
        lambda s: {"theta": math.pi - s},
        "theta(s) = pi - s with c(s) = e^{is/2}; the printed family "
        "(phase phi with cos phi = (sin s)^{3/4}) does not converge and the "
        "printed column scale was corrected by rederivation (residual s^2/8)",
        c=lambda s: cmath.exp(0.5j * s),
    ),
    # ---- pairs over the diagonalizable first components ---------------------
    _family(
        "identity-diag-in-off-diag-d", "identity/diag_ad",
        BundleParams(a=1.0, d=2.0), "one_theta/off_diag_plus_d",
        lambda s: _scaled(1.0 / math.sqrt(3.0), [[-1j * _SQ2, 1],
                                                 [1j, _SQ2]]),
        lambda s: {"theta": s, "b": _SQ2, "d": 1.0},
        "constant unitary P = (1/sqrt(a+d))[[-i sqrt(d), sqrt(a)], "
        "[i sqrt(a), sqrt(d)]] with theta(s) = s, a = 1, d = 2",
    ),
    _family(
        "plus-minus-diag-in-a-plus-off-diag", "one_plus_minus/diag_ad",
        BundleParams(a=1.0, d=2.0), "one_theta/a_plus_off_diag",
        lambda s: [[1j, -_SQ2], [-1j * _SQ2, 1]],
        lambda s: {"theta": math.pi - s, "a": 3.0, "b": _SQ2},
        "c = -1, P = (1/sqrt(d-a))[[i sqrt(a), -sqrt(d)], "
        "[-i sqrt(d), sqrt(a)]], theta(s) = pi - s, a = 1, d = 2",
        c=lambda s: -1.0,
    ),
    _family(
        "identity-scalar-in-anti-diag", "identity/d_identity",
        BundleParams(d=2.0), "one_theta/anti_diag",
        lambda s: _scaled(1.0 / _SQ2, [[1, 1j], [1, -1j]]),
        lambda s: {"theta": s, "b": 2 + s},
        "constant unitary P = (1/sqrt(2))[[1, i], [1, -i]] with "
        "theta(s) = s and b(s) = d + s, d = 2",
    ),
    _family(
        "plus-minus-scalar-in-swap-one-de-itheta", "one_plus_minus/d_identity",
        BundleParams(d=2.0), "one_plus_minus/swap_one_de_itheta",
        lambda s: [[1, 1], [0.5, -0.5]],
        lambda s: {"d": 4.0, "theta": s},
        "constant P = (sqrt(d)/sqrt(2))[[1, 1], [1/d, -1/d]] with "
        "B(s) = 1 (+) d^2 e^{is}, d = 2",
    ),
    _family(
        "plus-minus-scalar-in-swap-off-diag-b-one",
        "one_plus_minus/d_identity", BundleParams(d=2.0),
        "one_plus_minus/swap_off_diag_b_one",
        lambda s: [[1 / (2 * s), -1j / (2 * s)], [s, 1j * s]],
        lambda s: {"b": 2 + s},
        "P(s) = [[1/(2s), -i/(2s)], [s, is]] with b(s) = d + s, d = 2",
    ),
    _family(
        "plus-minus-scalar-in-jordan-diag-a-zeta", "one_plus_minus/d_identity",
        BundleParams(d=2.0), "jordan_i/diag_a_zeta",
        lambda s: _scaled(1.0 / _SQ2, [[1 / s, 1 / s], [s, -s]]),
        lambda s: {"a": (2 + s) * s * s, "zeta": (2 + s) / (s * s)},
        "P(s) = (1/sqrt(2))[[1/s, 1/s], [s, -s]] with "
        "B(s) = (d + s)(s^2 (+) 1/s^2), d = 2",
    ),
    _family(
        "plus-minus-scalar-in-jordan-anti-diag", "one_plus_minus/d_identity",
        BundleParams(d=2.0), "jordan_i/anti_diag",
        lambda s: _scaled(1.0 / _SQ2, [[1j / s, 1 / s], [-1j * s, s]]),
        lambda s: {"b": 2 + s},
        "c = -1, P(s) = (1/sqrt(2))[[i/s, 1/s], [-is, s]] with "
        "b(s) = d + s, d = 2",
        c=lambda s: -1.0,
    ),
    _family(
        "plus-minus-in-jordan-zero-d", "one_plus_minus/zero", BundleParams(),
        "jordan_i/zero_d",
        lambda s: [[1 / (2 * s), -1 / (2 * s)], [s, s]],
        lambda s: {"d": 2.0},
        "P(s) = [[1/(2s), -1/(2s)], [s, s]] against B = 0 (+) d, d = 2",
    ),
    _family(
        "plus-minus-in-swap-one-zero", "one_plus_minus/zero", BundleParams(),
        "one_plus_minus/swap_one_zero",
        lambda s: _scaled(0.5, [[2 * s, 1 / s], [2 * s, -1 / s]]),
        lambda s: {},
        "printed family P(s) = (1/2)[[2s, 1/s], [2s, -1/s]]; the printed "
        "matrix is the transpose of the converging one",
    ),
    _family(
        "swap-one-zero-in-jordan-zero-d", "one_plus_minus/swap_one_zero",
        BundleParams(), "jordan_i/zero_d",
        lambda s: [[1, 1 / s], [s, 0]],
        lambda s: {"d": (1 + s) / (s * s)},
        "P(s) = [[1, 1/s], [s, 0]] with B(s) = 0 (+) (1+s)/s^2",
    ),
    # ---- pairs over the nilpotent / tau first components --------------------
    _family(
        "tau-anti-diag-in-off-diag-phase", "tau_form/anti_diag",
        BundleParams(tau=0.5, b=1.0), "tau_form/off_diag_phase",
        lambda s: [[1 / s, 0], [s * s, s]],
        lambda s: {"tau": 0.5, "b": 1.0, "phi": 0.7},
        "P(s) = [[1/s, 0], [s^2, s]] against the constant instance "
        "B = [[0, b], [b, e^{i phi}]], b = 1, phi = 0.7, tau = 1/2",
    ),
    _family(
        "nilpotent-anti-diag-in-one-b-zero", "nilpotent/anti_diag",
        BundleParams(b=1.0), "nilpotent/one_b_zero",
        lambda s: [[s, s * s], [0, 1 / s]],
        lambda s: {"b": 1.0},
        "P(s) = [[s, s^2], [0, 1/s]] against the constant instance "
        "B = [[1, b], [b, 0]], b = 1",
    ),
    _family(
        "tau-zero-one-in-one-zeta", "tau_form/zero_one",
        BundleParams(tau=0.5), "tau_form/one_zeta",
        lambda s: [[s, s * s], [0, 1 / s]],
        lambda s: {"tau": 0.5, "zeta": s * s},
        "P(s) = [[s, s^2], [0, 1/s]] with zeta(s) = s^2, tau = 1/2",
    ),
    _family(
        "nilpotent-one-zero-in-diag-a-one", "nilpotent/one_zero",
        BundleParams(), "nilpotent/diag_a_one",
        lambda s: [[1 / s, 1], [s * s, s]],
        lambda s: {"a": s * s + s ** 3},
        "P(s) = [[1/s, 1], [s^2, s]] with a(s) = s^2 + s^3",
    ),
    _family(
        "nilpotent-one-b-zero-in-zeta-b-one", "nilpotent/one_b_zero",
        BundleParams(b=1.0), "nilpotent/zeta_b_one",
        lambda s: [[1 / s, 1], [s * s, s]],
        lambda s: {"zeta_star": s * s - 2 * s ** 3, "b": 1.0},
        "P(s) = [[1/s, 1], [s^2, s]] with zeta*(s) = s^2 - 2s^3, b = 1",
    ),
    _family(
        "nilpotent-off-diag-b-one-in-phase-form", "nilpotent/off_diag_b_one",
        BundleParams(b=1.0), "tau_form/phase_form",
        lambda s: [[s, s * s], [1, 1 / s]],
        lambda s: {"tau": s, "phi": 0.7, "b": 1 + s, "zeta": s * s},
        "P(s) = [[s, s^2], [1, 1/s]] with tau(s) = s, "
        "B(s) = [[e^{i phi}, b + s], [b + s, s^2]], b = 1, phi = 0.7",
    ),
    # ---- Jordan-form pairs --------------------------------------------------
    _family(
        "jordan-zero-d-in-anti-diag", "jordan_i/zero_d", BundleParams(d=2.0),
        "jordan_i/anti_diag",
        lambda s: _scaled(cmath.exp(-0.25j * math.pi),
                          [[cmath.exp(0.25j * math.pi) * s, 1 / s], [s, 1j]]),
        lambda s: {"b": s},
        "P(s) = e^{-i pi/4}[[e^{i pi/4} s, 1/s], [s, i]] with "
        "b(s) = (d/2) s, d = 2",
    ),
    _family(
        "jordan-zero-d-in-tau-one-zeta", "jordan_i/zero_d",
        BundleParams(d=2.0), "tau_form/one_zeta",
        lambda s: [[0, s], [1 / s, 1j / (s * s)]],
        lambda s: {"tau": 1 - s, "zeta": -2 * s ** 4},
        "P(s) = [[0, s], [1/s, i/s^2]] with tau(s) = 1 - s, "
        "zeta(s) = -d s^4, d = 2",
    ),
    # ---- families out of the zero pair's rank-one neighbours ----------------
    _family(
        "rank1-in-identity-diag", "zero/rank1", BundleParams(),
        "identity/diag_ad",
        lambda s: [[s, 0], [0, s ** 3]],
        lambda s: {"a": 1 / (s * s), "d": (1 + s) / (s * s)},
        "P(s) = s (+) s^3 with B(s) = (1/s^2) (+) (1 + (d-a)s)/s^2, "
        "a = 1, d = 2",
    ),
    _family(
        "rank1-in-identity-zero-d", "zero/rank1", BundleParams(),
        "identity/zero_d",
        lambda s: [[0, s], [s, 0]],
        lambda s: {"d": 1 / (s * s)},
        "P(s) = [[0, s], [s, 0]] with B(s) = 0 (+) 1/s^2",
    ),
    _family(
        "rank1-in-jordan-zero-d", "zero/rank1", BundleParams(),
        "jordan_i/zero_d",
        lambda s: [[s, 1], [s, s * s]],
        lambda s: {"d": 1 / (s * s)},
        "P(s) = [[s, 1], [s, s^2]] with B(s) = 0 (+) 1/s^2",
    ),
    _family(
        "rank1-in-tau-one-zeta", "zero/rank1", BundleParams(),
        "tau_form/one_zeta",
        lambda s: [[1, 0], [0, s]],
        lambda s: {"tau": 0.5, "zeta": 0.3 + 0.4j},
        "P(s) = 1 (+) s against the constant instance "
        "B = 1 (+) zeta, zeta = 0.3 + 0.4i, tau = 1/2",
    ),
)
