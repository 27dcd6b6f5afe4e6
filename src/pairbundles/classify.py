"""Decide the bundle of an input pair and build the reducing group element.

Stage 1 classifies the A-part by rank and cosquare eigenstructure and moves
it to its canonical form.  Stage 2 reduces the transported B-part by the
stabilizer subgroup of the canonical A to the catalogued B-shape, extracting
the continuous parameters.  Every reducer is verified by re-application; a
failed verification raises rather than returning a wrong answer.

One raw core does the work: `_classify4` runs stage 1 (`_classify_A4`),
stage 2 (`_stabilizer_reduce3`, over the `_STAGE2` reducers) and the
verification tail on row-major 4-tuples of Python complex numbers (see
`core`), scalars and plain parameter dicts: `_stage1(a)`, stage 1 with
its group check, then `_classify_rest(a, b, stage1)`, stage 2 and the
tail.  A stage-1 result depends on A alone, so `numerics` shares one
among the Monte Carlo samples of a centre A; a shared result, which
also holds the A-form, is read-only (its notes are a tuple, and no
reducer or merge mutates its parameter dict).  Each stage's (c, P) and
the composed reducer pass `core._group4`, the check a `GroupElement`
makes; the stage-2 reducer must also fix the canonical A-form, the merged
parameters must be complete, and the moved pair must land on the
representative.  A reducer that fails the group check, or a moved B that
overflows, is the classifier's failure on a valid input and raises
`ClassificationFailureError` with the check's message.  The public
functions build the checked value types only for what they return: the
parameters are a dict up to `classify_pair`, which builds one
`BundleParams`, one `GroupElement` (not checked again, see
`core._checked_group_element`) and one `Classification`.
Only `classify_A` measures the stage-1 residual.  Stage 2 builds no value
type: `classify_B` is stage 2 over the zero A-form, a thin wrapper over
the Takagi rank reducer `_reduce_B_zero`.  Every target a reducer or
check compares with comes from the form records of `normal_forms`, and
so do the parameter names of the 1 (+) e^{i theta} reducer, whose shape
is the `_ONE_THETA_SHAPES` entry of B's nonzero pattern, a table built
at load from those cells' B-forms at `GENERIC_PARAMS`.

Each threshold rule has one home.  `_near` decides a gray-band comparison
and notes it in `ambiguous`.  `_zero_tol` is the stage-2 zero threshold,
relative to |B|, and `_zero_flags` its three entry tests, which the six
reducers that test B's entries read.  `_check_unimodular` refuses a scalar
or defective cosquare off the unit circle.  The (1,1)-unitary membership
of a 1(+)-1 reducer is checked once, by the stabilizer check of
`_stabilizer_reduce3`.

Every kernel is a 2x2 closed form: singular values from M*M and |det M|,
eigenvalues from the quadratic formula, eigenvectors as null vectors of a
row (`_eigvec`), the top singular pair of the rank-1 and Jordan reducers
from M*M, Hermitian eigenpairs (`_eigh2`), Takagi factors (`_takagi`), a
symmetric square root and adjugate inverses; the kernels that other modules
share (`_singular_values`, `_inv4`, `_gap`) live in `core`.  The two
1(+)-1 solvers of a rank-2 B build on them: `_opm_intertwine` carries the
invariant N = J conj(B) J B onto its target's through eigenvectors or a
Jordan chain, and `_opm_scalar` serves a scalar N through a symmetric
square root of B.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    ValidationError,
    _checked_group_element,
    _cosquare4,
    _det4,
    _gap,
    _group4,
    _inv4,
    _mat4,
    _max_abs,
    _mul4,
    _record_json,
    _singular_values,
    _spectral_norm,
    _star_congruence4,
    _transpose_congruence3,
    apply_action,  # unused here; perfbench/spans.py wraps it in this module
)
from .normal_forms import (
    ALabel,
    BLabel,
    BShape,
    BundleLabel,
    BundleParams,
    CELLS,
    GENERIC_PARAMS,
    _B_FORMS,
    _SWAP_SHAPES,
    _canonical_updates,
    _param_violations,
    _representative_A_entries,
    _representative_B_entries,
    _wrap_phase_halfturn,
    param_fields,
    representative,  # unused here; perfbench/spans.py wraps it in this module
)

__all__ = [
    "Classification",
    "AmbiguityError",
    "ClassificationFailureError",
    "classify_A",
    "classify_B",
    "stabilizer_reduce_B",
    "classify_pair",
]

# constant matrices as row-major 4-tuples
_I4 = (1.0, 0.0, 0.0, 1.0)
_J = (1.0, 0.0, 0.0, -1.0)
_S12 = (0.0, 1.0, 1.0, 0.0)
_T = (math.sqrt(0.5), math.sqrt(0.5), math.sqrt(0.5), -math.sqrt(0.5))

# relative thresholds: rank decisions compare singular (or Takagi) value
# ratios, eigenvalue-cluster decisions compare spreads to the spectrum scale
_RANK_TOL = 1e-6
_EIG_TOL = 1e-6


@dataclass(frozen=True)
class Classification:
    label: BundleLabel
    params: BundleParams
    reducer: GroupElement
    residual: float
    ambiguous: tuple = ()

    def to_json(self) -> dict:
        return _record_json(self)


class AmbiguityError(ValueError):
    """Two classification branches fall within tolerance of each other."""

    def __init__(self, candidates, message="ambiguous classification"):
        super().__init__(f"{message}: {candidates}")
        self.candidates = tuple(candidates)


class ClassificationFailureError(RuntimeError):
    """No catalogued shape is reachable within tolerance (taxonomy bug or a
    genuine off-catalog input)."""


def _own_check(check, *args):
    """One of `core`'s value checks on something the classifier built, such
    as a reducer or the moved B.  Its failure is the classifier's on a valid
    input, so the `ValidationError` becomes a `ClassificationFailureError`
    with the same message."""
    try:
        return check(*args)
    except ValidationError as exc:
        raise ClassificationFailureError(str(exc)) from exc


def _near(q, thresh, amb, note):
    """Decide q <= thresh, annotating when q sits suspiciously close."""
    if 0.01 * thresh < q < 100.0 * thresh:
        amb.append(note)
    return q <= thresh


def _phase_sqrt(z: complex) -> complex:
    """A unit-modulus x with x^2 * z real positive (z != 0)."""
    return cmath.exp(-0.5j * cmath.phase(z))


# ---------------------------------------------------------------------------
# stage 1: the A-part

def _classify_A4(a, amb):
    """Stage 1 on the row-major 4-tuple a: (a_label, params, c, P), with
    the parameters as a dict and (c, P) not yet checked."""
    scale, sv1 = _singular_values(a)
    if _near(scale, _RANK_TOL, amb, "A near zero"):
        return ALabel.ZERO, {}, 1.0, _I4
    if _near(sv1 / scale, _RANK_TOL, amb, "A near rank-1 boundary"):
        return _reduce_rank1_A(a, amb)
    return _reduce_rank2_A(a, amb)


def classify_A(A: Mat2):
    """Returns (a_label, params, reducer, residual, ambiguous).  The
    residual is the max-norm distance of the moved A to the canonical form,
    and for the zero class the spectral norm of A."""
    a = A.entries
    amb: list[str] = []
    label, params, c, p = _classify_A4(a, amb)
    res = (_spectral_norm(*a) if label is ALabel.ZERO else _gap(
        _star_congruence4(c, p, a), _representative_A_entries(label, params)))
    return (label, BundleParams(**params), GroupElement(c, _mat4(p)),
            float(res), tuple(amb))


def _unit2(x, y):
    n = math.hypot(abs(x), abs(y))
    return x / n, y / n


def _reduce_rank1_A(a, amb):
    # the top singular pair: A ~ s0 u v^H with A v = s0 u
    s0, (v0, v1) = _top_singular(a)
    u0, u1 = _unit2(a[0] * v0 + a[1] * v1, a[2] * v0 + a[3] * v1)
    vu = v0.conjugate() * u0 + v1.conjugate() * u1  # v^H u
    if _near(1.0 - abs(vu), _EIG_TOL, amb,
             "rank-1 A near the 1(+)0 / nilpotent boundary"):
        # A = s0 e^{i psi} v v^H; the second column is v's unit perpendicular
        r = math.sqrt(s0)
        w0, w1 = _unit2(-v1.conjugate(), v0.conjugate())
        P = (v0 / r, w0, v1 / r, w1)
        return ALabel.ONE_ZERO, {}, cmath.exp(-1j * cmath.phase(vu)), P
    # nilpotent: send u -> e1 direction, v -> e2 direction
    uv = vu.conjugate()
    p10, p11 = _unit2(u0 - v0 * vu, u1 - v1 * vu)  # perpendicular to v
    p20, p21 = _unit2(v0 - u0 * uv, v1 - u1 * uv)  # perpendicular to u
    z = (s0 * (p10.conjugate() * u0 + p11.conjugate() * u1)
         * (v0.conjugate() * p20 + v1.conjugate() * p21))
    m = abs(z)
    return ALabel.NILPOTENT, {}, z.conjugate() / m, (p10 / m, p20, p11 / m, p21)


def _reduce_rank2_A(a, amb):
    C, det_c = _cosquare4(a)
    lam_m, disc, sd0 = _mean_split(C)
    n_scale = max(1.0, abs(lam_m))
    if _near(sd0, _EIG_TOL * n_scale, amb, "cosquare near scalar"):
        return _reduce_hermitian_like(a, lam_m, amb)
    if _near(abs(disc) / sd0, _EIG_TOL * max(1.0, sd0), amb,
             "cosquare near defective"):
        return _reduce_jordan_A(a, C, lam_m)
    # two separated eigenvalues
    lam = _roots(lam_m, disc, det_c)
    # pair structure: both unimodular, or a conjugate-reciprocal pair
    m0, m1 = abs(lam[0]), abs(lam[1])
    unimodular = max(abs(m0 - 1.0), abs(m1 - 1.0))
    if _near(unimodular, _EIG_TOL, amb, "cosquare eigenvalues near the unit circle"):
        return _reduce_one_theta_A(a, C, lam)
    if abs(m0 * m1 - 1.0) > 1e-6 * max(1.0, m0 * m1):
        raise ClassificationFailureError(
            f"cosquare spectrum {lam!r} "
            "violates the reciprocal pair structure"
        )
    return _reduce_tau_A(a, C, lam)


def _mean_split(m):
    """(lam_m, disc, sd0) of a 2x2 matrix m: its mean eigenvalue lam_m, and
    disc = -det(m - lam_m I) and sd0 = sv[0] of m - lam_m I =
    [[e, m01], [m10, -e]].  Its other singular value is |disc| / sd0."""
    lam_m = 0.5 * (m[0] + m[3])
    e = 0.5 * (m[0] - m[3])
    return lam_m, e * e + m[1] * m[2], _spectral_norm(e, m[1], m[2], -e)


def _roots(lam_m, disc, det):
    """The eigenvalues lam_m +- sqrt(disc), larger modulus first; the other
    one is det / lam_big, free of cancellation."""
    r = cmath.sqrt(disc)
    big = lam_m + r if abs(lam_m + r) >= abs(lam_m - r) else lam_m - r
    return big, det / big


def _eigvec(m, lam):
    """A unit null vector of M - lam I: (-x01, x00) of its row (x00, x01) of
    larger norm."""
    x0, x1, x2, x3 = m[0] - lam, m[1], m[2], m[3] - lam
    if abs(x0) ** 2 + abs(x1) ** 2 < abs(x2) ** 2 + abs(x3) ** 2:
        x0, x1 = x2, x3
    n = math.hypot(abs(x0), abs(x1))
    return (-x1 / n, x0 / n) if n > 0.0 else (1.0, 0.0)


def _gram(m) -> tuple:
    """The Hermitian M* M."""
    m0, m1, m2, m3 = m
    h01 = m0.conjugate() * m1 + m2.conjugate() * m3
    return (abs(m0) ** 2 + abs(m2) ** 2, h01, h01.conjugate(),
            abs(m1) ** 2 + abs(m3) ** 2)


def _top_singular(m):
    """(s0, v): the largest singular value of M and a unit right singular
    vector for it, the eigenvector of M* M for s0^2."""
    s0 = _spectral_norm(*m)
    return s0, _eigvec(_gram(m), s0 * s0)


def _perp(u):
    """The unit vector orthogonal to the unit vector u."""
    return (-u[1].conjugate(), u[0].conjugate())


def _eigh2(h):
    """The eigenvalues of a Hermitian h in ascending order and their unit
    eigenvectors: `_eigvec` of the one of larger modulus, and its
    orthogonal complement."""
    lam_m, disc, _ = _mean_split(h)
    big, small = _roots(lam_m, disc, _det4(h))
    big, small = big.real, small.real
    u = _eigvec(h, big)
    if small <= big:
        return (small, big), (_perp(u), u)
    return (big, small), (u, _perp(u))


def _sqrtm2_symmetric(m):
    """A symmetric square root (M + s I) / sqrt(tr M + 2 s), s = +-sqrt(det M),
    of an invertible symmetric 2x2 M: the one of the two with the smaller
    residual."""
    det, tr = _det4(m), m[0] + m[3]
    best = None
    for s in (cmath.sqrt(det), -cmath.sqrt(det)):
        t2 = tr + 2 * s
        if abs(t2) < 1e-14 * max(1.0, abs(tr)):
            continue
        r = cmath.sqrt(t2)
        x = ((m[0] + s) / r, m[1] / r, m[2] / r, (m[3] + s) / r)
        res = _gap(_mul4(x, x), m)
        if best is None or res < best[0]:
            best = (res, x)
    if best is None or best[0] > 1e-8 * max(1.0, _max_abs(m)):
        raise ClassificationFailureError("symmetric square root failed")
    return best[1]


def _takagi_turn(b, u):
    """u turned by the phase that makes u* B conj(u) real nonnegative."""
    u0, u1 = u[0].conjugate(), u[1].conjugate()
    z = u0 * (b[0] * u0 + b[1] * u1) + u1 * (b[2] * u0 + b[3] * u1)
    w = cmath.exp(0.5j * cmath.phase(z))
    return u[0] * w, u[1] * w


def _takagi(b):
    """B = U diag(s0, s1) U^T for a symmetric 4-tuple b: ((s0, s1), U) with
    s0 >= s1 the singular values and U unitary.  Values within 1e-8
    relative form one block, where B / s0 is unitary and U is its symmetric
    square root; else U holds the eigenvector of B conj(B) for s0^2 and its
    orthogonal complement, both turned."""
    s0, s1 = _singular_values(b)
    if s0 == 0.0:
        return (s0, s1), _I4
    if s0 - s1 <= 1e-8 * s0:
        return (s0, s1), _sqrtm2_symmetric(tuple(z / s0 for z in b))
    u = _takagi_turn(b, _eigvec(_mul4(b, [z.conjugate() for z in b]), s0 * s0))
    w = _takagi_turn(b, _perp(u))
    return (s0, s1), (u[0], w[0], u[1], w[1])


def _quad(u, a) -> complex:
    """u* A u."""
    return (u[0].conjugate() * (a[0] * u[0] + a[1] * u[1])
            + u[1].conjugate() * (a[2] * u[0] + a[3] * u[1]))


def _reduce_one_theta_A(a, C, lam):
    s0 = _eigvec(C, lam[0])
    s1 = _eigvec(C, lam[1])
    for u, v in ((s0, s1), (s1, s0)):
        n0, n1 = _quad(u, a), _quad(v, a)
        c = cmath.exp(-1j * cmath.phase(n0))
        theta = cmath.phase(c * n1)
        if 0.0 < theta < math.pi:
            k0, k1 = 1.0 / math.sqrt(abs(n0)), 1.0 / math.sqrt(abs(n1))
            P = (u[0] * k0, v[0] * k1, u[1] * k0, v[1] * k1)
            return ALabel.ONE_THETA, {"theta": theta}, c, P
    raise ClassificationFailureError("no eigenvalue order yields theta in (0, pi)")


def _reduce_tau_A(a, C, lam):
    lam = sorted(lam, key=abs)
    tau = abs(lam[0])
    s0 = _eigvec(C, lam[0])
    s1 = _eigvec(C, lam[1])
    S = (s0[0], s1[0], s0[1], s1[1])
    c = _phase_sqrt(lam[0])
    for cc in (c, -c):
        m = _star_congruence4(cc, S, a)[1]
        if abs(m) < 1e-300:
            continue
        # split the scale evenly over both columns to keep P well conditioned
        r = cmath.sqrt(m)
        k0, k1 = 1.0 / r.conjugate(), 1.0 / r
        P = (S[0] * k0, S[1] * k1, S[2] * k0, S[3] * k1)
        if abs(_star_congruence4(cc, P, a)[1] - 1.0) < 0.5:
            return ALabel.TAU_FORM, {"tau": float(tau)}, cc, P
    raise ClassificationFailureError("tau-form reduction failed")


def _check_unimodular(lam_m, kind):
    """A scalar or defective cosquare must have its one eigenvalue on the
    unit circle."""
    if abs(abs(lam_m) - 1.0) > 100 * _EIG_TOL:
        raise ClassificationFailureError(
            f"{kind} cosquare with non-unimodular eigenvalue {lam_m!r}")


def _reduce_hermitian_like(a, lam_m, amb):
    _check_unimodular(lam_m, "scalar")
    c0 = _phase_sqrt(lam_m)
    # the Hermitian part of c0 A
    h00, h11 = (c0 * a[0]).real, (c0 * a[3]).real
    h01 = 0.5 * (c0 * a[1] + (c0 * a[2]).conjugate())
    (d0, d1), (u, v) = _eigh2((h00, h01, h01.conjugate(), h11))
    if _near(min(abs(d0), abs(d1)), _EIG_TOL * max(abs(d0), abs(d1)), amb,
             "Hermitian part near singular"):
        raise ClassificationFailureError("rank-2 A with near-singular Hermitian part")
    if d0 > 0 or d1 < 0:
        k0, k1 = 1.0 / math.sqrt(abs(d0)), 1.0 / math.sqrt(abs(d1))
        P = (u[0] * k0, v[0] * k1, u[1] * k0, v[1] * k1)
        return ALabel.IDENTITY, {}, c0 if d0 > 0 else -c0, P
    # indefinite: order (positive, negative) for diag(1, -1)
    k0, k1 = 1.0 / math.sqrt(d1), 1.0 / math.sqrt(-d0)
    P = (v[0] * k0, u[0] * k1, v[1] * k0, u[1] * k1)
    return ALabel.ONE_PLUS_MINUS, {}, c0, P


def _reduce_jordan_A(a, C, lam_m):
    _check_unimodular(lam_m, "defective")
    # bring the cosquare to the unipotent Jordan form of [[0,1],[1,i]]
    lam = lam_m / abs(lam_m)
    c = _phase_sqrt(lam)
    # Jordan chain of the unipotent cosquare: (Cn - I) p2 = 2i p1
    cc2 = c * c
    V = _jordan_chain(tuple(cc2 * z for z in C), 1.0)
    P0 = (V[0] / 2j, V[1], V[2] / 2j, V[3])
    target = _representative_A_entries(ALabel.JORDAN_I, {})
    for cc in (c, -c):
        Mt = _star_congruence4(cc, P0, a)
        t = Mt[1]
        if abs(t.real) < 1e-12 * max(1.0, abs(t)) or t.real < 0:
            continue
        tr = t.real
        q = Mt[3].real
        a_scale = 1.0 / math.sqrt(tr)
        b_corr = -a_scale * q / (2.0 * tr)
        P = _mul4(P0, (a_scale, b_corr, 0.0, a_scale))
        if _gap(_star_congruence4(cc, P, a), target) < 0.1:
            return ALabel.JORDAN_I, {}, cc, P
    raise ClassificationFailureError("Jordan-type reduction failed")


# ---------------------------------------------------------------------------
# the B-part alone (T-congruence rank normal form)

def _reduce_B_zero(b, amb):
    """Stage 2 over the zero A-form, whose stabilizer is the whole group:
    the rank normal form through the Takagi factors B = U diag(s0, s1) U^T,
    P = conj(U) diag(1/sqrt(s0), 1/sqrt(s1)), with 1 for a zero s1."""
    (scale, s1), U = _takagi((b[0], b[1], b[1], b[2]))
    # squared entries past 1e154 overflow B*B, and so its singular values
    if not scale < math.inf:
        raise ClassificationFailureError(
            f"singular values of B overflow to {scale!r}")
    if _near(scale, _RANK_TOL, amb, "B near zero"):
        return BShape.ZERO, {}, 1.0, _I4
    rank1 = _near(s1 / scale, _RANK_TOL, amb, "B near rank-1 boundary")
    k0, k1 = 1.0 / math.sqrt(scale), (1.0 if rank1 else 1.0 / math.sqrt(s1))
    P = (U[0].conjugate() * k0, U[1].conjugate() * k1,
         U[2].conjugate() * k0, U[3].conjugate() * k1)
    return BShape.RANK1 if rank1 else BShape.RANK2, {}, 1.0, P


def classify_B(B: SymMat2):
    """Returns (b_label, reducer P, residual, ambiguous): stage 2 over the
    zero A-form.  The residual is the max-norm distance of the moved B to
    its form, and for the zero class the spectral norm of B."""
    amb: list[str] = []
    b = (B.a, B.b, B.d)
    shape, _, _, p = _reduce_B_zero(b, amb)
    res = (_spectral_norm(B.a, B.b, B.b, B.d) if shape is BShape.ZERO else _gap(
        _transpose_congruence3(p, *b), _representative_B_entries(shape, {})))
    return BLabel(shape.value), _mat4(p), float(res), tuple(amb)


# ---------------------------------------------------------------------------
# stage 2: stabilizer reduction of the transported B

def _zero_tol(b):
    """The stage-2 zero threshold of b = (b11, b12, b22): the rank
    threshold relative to |B|."""
    return _RANK_TOL * max(_max_abs(b), 1e-300)


def _zero_flags(b):
    """Which of b11, b12, b22 exceed `_zero_tol`."""
    zt = _zero_tol(b)
    return (abs(b[0]) > zt, abs(b[1]) > zt, abs(b[2]) > zt)


def _a_form(a_label, a_params):
    """(A0, the stabilizer check's tolerance) of the canonical A-form."""
    a0 = _representative_A_entries(a_label, a_params)
    return a0, 1e-7 * max(1.0, _max_abs(a0))


def _stabilizer_reduce3(a_label, a_params, a0, a_tol, b, amb):
    """Stage 2 on b = (b11, b12, b22): (b_shape, params, c, P, A_target),
    with (c, P) checked as a group element and as a member of the
    stabilizer of A0: c P* A0 P must be A_target."""
    shape, params, c, p = _STAGE2[a_label](b, amb)
    c, p = _own_check(_group4, c, p)
    # stabilizer membership / A-transport check
    A_target = (_representative_A_entries(a_label, a_params, True)
                if shape in _SWAP_SHAPES else a0)
    defect = _gap(_star_congruence4(c, p, a0), A_target)
    if defect > a_tol:
        raise ClassificationFailureError(
            f"stage-2 reducer leaves the stabilizer of {a_label} (defect {defect:.3e})"
        )
    return shape, params, c, p, A_target


def stabilizer_reduce_B(a_label: ALabel, B: SymMat2,
                        a_params: BundleParams | None = None):
    """Reduce B by the stabilizer of the canonical A-form.

    Returns (b_shape, params: BundleParams, g_stab: GroupElement, ambiguous).
    The returned element satisfies c P* A0 P = A_target where A_target is A0
    itself except for the cells displayed in the anti-diagonal representative
    of the 1(+)-1 class.
    """
    amb: list[str] = []
    a_params = vars(a_params or BundleParams())
    shape, params, c, p, _ = _stabilizer_reduce3(
        a_label, a_params, *_a_form(a_label, a_params), (B.a, B.b, B.d), amb)
    return shape, BundleParams(**params), GroupElement(c, _mat4(p)), tuple(amb)


# Each stage-2 reducer takes b = (b11, b12, b22) and returns (b_shape,
# params, c, p), the parameters as a dict and the reducer's P as a row-major
# 4-tuple; `_stabilizer_reduce3` checks (c, P).
def _diag4(x, y) -> tuple:
    return (x, 0j, 0j, y)


def _reduce_B_one_zero(b, amb):
    f11, f12, f22 = _zero_flags(b)
    b11, b12, b22 = b
    if f22:
        v = 1.0 / cmath.sqrt(b22)
        w = (b11 * b22 - b12 * b12) / b22  # det B / b22
        if _near(abs(w), _zero_tol(b), amb,
                 "B(1,1) residual near zero over 1(+)0"):
            P = (1.0, 0.0, -b12 / b22, v)
            return BShape.ZERO_ONE, {}, 1.0, P
        x = _phase_sqrt(w)
        P = (x, 0.0, -x * b12 / b22, v)
        return BShape.DIAG_A_ONE, {"a": abs(w)}, 1.0, P
    if f12:
        P = (1.0, 0.0, -b11 / (2 * b12), 1.0 / b12)
        return BShape.SWAP, {}, 1.0, P
    if f11:
        x = _phase_sqrt(b11)
        return BShape.DIAG_A0, {"a": abs(b11)}, 1.0, _diag4(x, 1.0)
    return BShape.ZERO, {}, 1.0, _I4


def _reduce_B_identity(b, amb):
    (s_hi, s_lo), U = _takagi((b[0], b[1], b[1], b[2]))
    # conj(U) S12: the Takagi values in ascending order
    p = (U[1].conjugate(), U[0].conjugate(), U[3].conjugate(), U[2].conjugate())
    if _near(s_hi, _RANK_TOL, amb, "B near zero over I2"):
        return BShape.ZERO, {}, 1.0, p
    if _near(s_lo / s_hi, _RANK_TOL, amb, "B near rank-1 over I2"):
        return BShape.ZERO_D, {"d": float(s_hi)}, 1.0, p
    if _near((s_hi - s_lo) / s_hi, _EIG_TOL, amb,
             "Takagi values near coincidence over I2"):
        return (BShape.D_IDENTITY, {"d": float(0.5 * (s_lo + s_hi))},
                1.0, p)
    return BShape.DIAG_AD, {"a": float(s_lo), "d": float(s_hi)}, 1.0, p


# the B-form over 1 (+) e^{i theta} of each pattern (b11, b12, b22 nonzero)
_ONE_THETA_SHAPES = {
    tuple(z != 0 for z in _representative_B_entries(
        cell.b_shape, vars(GENERIC_PARAMS))): cell.b_shape
    for cell in CELLS if cell.a_label is ALabel.ONE_THETA
}


def _reduce_B_one_theta(b, amb):
    """The stabilizer diag(e^{i phi1}, e^{i phi2}) turns each nonzero
    diagonal entry real positive by its own phase, and a nonzero b12 by the
    phase that is left; with both taken, b12 keeps its phase as zeta_star."""
    pattern = _zero_flags(b)
    f11, f12, f22 = pattern
    b11, b12, b22 = b
    phi1 = -0.5 * cmath.phase(b11) if f11 else 0.0
    phi2 = -0.5 * cmath.phase(b22) if f22 else 0.0
    values = {"a": abs(b11), "b": abs(b12), "d": abs(b22)}
    if f11 and f12 and f22:
        zs = b12 * cmath.exp(1j * (phi1 + phi2))
        # half-angle branches realize the sign identification; canonicalize
        if not (0.0 <= cmath.phase(zs) < math.pi):
            phi1 += math.pi
            zs = -zs
        values["zeta_star"] = zs
    elif f11 and f12:
        phi2 = -cmath.phase(b12) - phi1
    elif f12:
        phi1 = -cmath.phase(b12) - phi2
    shape = _ONE_THETA_SHAPES[pattern]
    params = {name: values[name] for name in _B_FORMS[shape][0]}
    return shape, params, 1.0, _diag4(cmath.exp(1j * phi1), cmath.exp(1j * phi2))


def _reduce_B_tau(b, amb):
    f11, f12, f22 = _zero_flags(b)
    b11, b12, b22 = b

    def elem(p, c):
        return c, _diag4(p, c / p.conjugate())

    def phase_elem(rho, b_diag):
        """The phase phi of b_diag against b12 and the element of modulus
        rho that realises it; an odd half-turn costs c = -1."""
        psi = -0.5 * cmath.phase(b12)
        phi_raw = cmath.phase(b_diag) - cmath.phase(b12)
        phi = _wrap_phase_halfturn(phi_raw)
        c = 1.0
        if round((phi_raw - phi) / math.pi) % 2:
            psi += 0.5 * math.pi
            c = -1.0
        return phi, elem(rho * cmath.exp(1j * psi), c)

    if f11 and f12:
        phi, (c, p) = phase_elem(abs(b11) ** -0.5, b11)
        zeta = _transpose_congruence3(p, *b)[2]
        return (BShape.PHASE_FORM, {"phi": phi, "b": abs(b12), "zeta": zeta},
                c, p)
    if f11:
        c, p = elem(1.0 / cmath.sqrt(b11), 1.0)
        return (BShape.ONE_ZETA, {"zeta": _transpose_congruence3(p, *b)[2]},
                c, p)
    if f22 and f12:
        phi, g = phase_elem(abs(b22) ** 0.5, b22)
        return BShape.OFF_DIAG_PHASE, {"b": abs(b12), "phi": phi}, *g
    if f22:
        rho = abs(b22) ** 0.5
        psi = -0.5 * cmath.phase(b22)
        return (BShape.ZERO_ONE, {},
                *elem(rho * cmath.exp(1j * psi), 1.0))
    if f12:
        psi = -0.5 * cmath.phase(b12)
        return (BShape.ANTI_DIAG, {"b": abs(b12)},
                *elem(cmath.exp(1j * psi), 1.0))
    return BShape.ZERO, {}, 1.0, _I4


def _reduce_B_nilpotent(b, amb):
    f11, f12, f22 = _zero_flags(b)
    b11, b12, b22 = b
    a1 = cmath.phase(b11) if f11 else 0.0
    a2 = cmath.phase(b12) if f12 else 0.0
    a3 = cmath.phase(b22) if f22 else 0.0

    def stab(x, c):
        return c, _diag4(x, 1.0 / (c * x.conjugate()))

    def elem(rho, psi, gamma):
        return stab(rho * cmath.exp(1j * psi), cmath.exp(1j * gamma))

    if f22 and f12:
        rho = abs(b22) ** 0.5
        gamma = a3 - a2
        psi = gamma - 0.5 * a3
        c, p = elem(rho, psi, gamma)
        if f11:
            zs = _transpose_congruence3(p, *b)[0]
            return BShape.ZETA_B_ONE, {"zeta_star": zs, "b": abs(b12)}, c, p
        return BShape.OFF_DIAG_B_ONE, {"b": abs(b12)}, c, p
    if f11 and f12:  # b22 = 0
        x = 1.0 / cmath.sqrt(b11)
        psi = cmath.phase(x)
        gamma = 2 * psi + a2
        g = elem(abs(x), psi, gamma)
        return BShape.ONE_B_ZERO, {"b": abs(b12)}, *g
    if f11 and f22:  # b12 = 0
        rho = abs(b22) ** 0.5
        psi = -0.5 * a1
        x = rho * cmath.exp(1j * psi)
        g = stab(x, cmath.sqrt(b22) / x.conjugate())
        return BShape.DIAG_A_ONE, {"a": abs(b11) * abs(b22)}, *g
    if f11:
        return (BShape.ONE_ZERO, {},
                *stab(1.0 / cmath.sqrt(b11), 1.0))
    if f22:
        rho = abs(b22) ** 0.5
        return (BShape.ZERO_ONE, {},
                *stab(rho, cmath.sqrt(b22) / rho))
    if f12:
        return BShape.ANTI_DIAG, {"b": abs(b12)}, *elem(1.0, 0.0, a2)
    return BShape.ZERO, {}, 1.0, _I4


def _reduce_B_jordan(b, amb):
    f11, f12, f22 = _zero_flags(b)
    b11, b12, b22 = b

    def elem(v2, t):
        v = cmath.sqrt(v2)
        return 1.0, (v, v * (1j * t), 0j, v)

    def shear(t_c):
        """The real shear t of the stabilizer; a complex one is off-catalog."""
        if abs(t_c.imag) > 1e-6 * (1.0 + abs(t_c)):
            raise ClassificationFailureError(
                "B over the [[0,1],[1,i]] form is off the catalogued strata "
                f"(unreal shear {t_c!r})"
            )
        return t_c.real

    if f11:
        t = shear(1j * b12 / b11)
        c, p = elem(b11.conjugate() / abs(b11), t)
        zeta = _transpose_congruence3(p, *b)[2]
        return BShape.DIAG_A_ZETA, {"a": abs(b11), "zeta": zeta}, c, p
    if f12:
        t = shear(1j * b22 / (2 * b12))
        g = elem(b12.conjugate() / abs(b12), t)
        return BShape.ANTI_DIAG, {"b": abs(b12)}, *g
    if f22:
        v2 = b22.conjugate() / abs(b22)
        return BShape.ZERO_D, {"d": abs(b22)}, *elem(v2, 0.0)
    return BShape.ZERO, {}, 1.0, _I4


# --- the 1 (+) -1 class -----------------------------------------------------
# The stabilizer {(c, P): c = +-1, P* J P = c J} of J = diag(1, -1) moves the
# invariant N = J conj(B) J B of B only by similarity, N -> P^-1 N P.

def _rot(z):
    c, s = cmath.cos(z), cmath.sin(z)
    return (c, s, -s, c)


def _boost(t):
    """The (1,1)-unitary boost [[cosh t, sinh t], [sinh t, cosh t]]."""
    return (math.cosh(t), math.sinh(t), math.sinh(t), math.cosh(t))


_SHALF_INV = _mul4(_mul4(_T, (1.0, 0.0, 0.0, -1j)), _T)


def _star_flip(m):
    """J conj(M) J with J = diag(1, -1)."""
    return (m[0].conjugate(), -m[1].conjugate(), -m[2].conjugate(),
            m[3].conjugate())


def _jordan_chain(n, lam):
    """Columns (v1, v2) with (N - lam I) v2 = v1, for N with the single
    eigenvalue lam; v2 is the top right singular vector of N - lam I."""
    m = (n[0] - lam, n[1], n[2], n[3] - lam)
    v20, v21 = _top_singular(m)[1]
    return (m[0] * v20 + m[1] * v21, v20, m[2] * v20 + m[3] * v21, v21)


def _reduce_B_one_plus_minus(b, amb):
    if not any(_zero_flags(b)):
        return BShape.ZERO, {}, 1.0, _I4
    # the Takagi values of B are its singular values
    b4 = (b[0], b[1], b[1], b[2])
    s0, s1 = _singular_values(b4)
    if _near(s1 / s0, _RANK_TOL, amb, "B near rank-1 over 1(+)-1"):
        # B ~ w w^T with w = sqrt(s0) times the top Takagi vector
        U = _takagi(b4)[1]
        w0, w1 = math.sqrt(s0) * U[0], math.sqrt(s0) * U[2]
        mu = (abs(w0) ** 2 - abs(w1) ** 2)
        if _near(abs(mu), _RANK_TOL * (abs(w0) ** 2 + abs(w1) ** 2), amb,
                 "rank-1 B near the isotropic boundary over 1(+)-1"):
            # isotropic direction: the 1(+)0 cell of the swap representative
            m = 0.5 * (abs(w0) + abs(w1))
            Dw = _diag4(cmath.exp(-1j * cmath.phase(w0)),
                        cmath.exp(-1j * cmath.phase(w1)))
            P = _mul4(_mul4(Dw, _boost(-math.log(m * math.sqrt(2.0)))), _T)
            return BShape.SWAP_ONE_ZERO, {}, 1.0, P
        c_total, pre = 1.0, _I4
        if mu > 0:
            c_total, pre = -1.0, _S12
            w0, w1, mu = w1, w0, -mu
        # P = D H with phases D and a boost H so that P^T w = sqrt(-mu) e2
        r1, r2 = abs(w0), abs(w1)
        D1 = _diag4(cmath.exp(-1j * cmath.phase(w0)) if r1 > 0 else 1.0,
                    cmath.exp(-1j * cmath.phase(w1)))
        P = _mul4(_mul4(pre, D1), _boost(math.atanh(-r1 / r2)))
        return BShape.ZERO_D, {"d": -mu}, c_total, P
    # rank 2: classify by the similarity invariant N, det N = |det B|^2
    n4 = _mul4(_star_flip(b4), b4)
    lam_m, disc, sd0 = _mean_split(n4)
    n_scale = max(_max_abs(n4), 1e-300)
    if _near(sd0, _EIG_TOL * n_scale, amb,
             "similarity invariant near scalar over 1(+)-1"):
        lam_r = lam_m.real
        if abs(lam_m.imag) > 1e-6 * n_scale:
            raise ClassificationFailureError("scalar invariant with complex eigenvalue")
        if lam_r > 0:
            d = math.sqrt(lam_r)
            return _opm_scalar(b4, BShape.D_IDENTITY, {"d": d}, d,
                               _orth_d_identity)
        b = math.sqrt(-lam_r)
        return _opm_scalar(b4, BShape.ANTI_DIAG, {"b": b}, b,
                           _orth_anti_diag)
    if _near(abs(disc) / sd0, _EIG_TOL * max(sd0, 1e-300), amb,
             "similarity invariant near defective over 1(+)-1"):
        if not (abs(lam_m.imag) <= 1e-6 * n_scale and lam_m.real > 0):
            raise ClassificationFailureError(
                f"defective invariant with eigenvalue {lam_m!r} "
                "off the catalog"
            )
        b = math.sqrt(lam_m.real)
        return _opm_intertwine(b4, n4, BShape.SWAP_OFF_DIAG_B_ONE, {"b": b},
                               (b * b,))
    # distinct eigenvalues
    lam = _roots(lam_m, disc, abs(_det4(b4)) ** 2)
    if abs(lam[0].imag) > 1e-6 * n_scale:
        # a conjugate pair d e^{+-i theta}: the 1 (+) d e^{i theta} swap cell
        lam_p = lam[0] if lam[0].imag > 0 else lam[1]
        d, theta = abs(lam_p), abs(cmath.phase(lam_p))
        return _opm_intertwine(b4, n4, BShape.SWAP_ONE_DE_ITHETA,
                               {"d": d, "theta": theta},
                               (lam_p, lam_p.conjugate()))
    lam_r = sorted(l.real for l in lam)
    if lam_r[0] <= 0:
        raise ClassificationFailureError(
            f"real invariant spectrum {lam_r!r} "
            "off the catalog over 1(+)-1"
        )
    a, d = math.sqrt(lam_r[0]), math.sqrt(lam_r[1])
    return _opm_intertwine(b4, n4, BShape.DIAG_AD, {"a": a, "d": d}, lam_r)


def _opm_intertwine(b4, n4, shape, params, lam):
    """The reducer of the symmetric B = b4 onto the J-frame target B_t of
    (shape, params), its form or, for the swap shapes, T form T, whose
    invariant has the eigenvalues lam (one entry when both are one defective
    eigenvalue).

    R = V Z Uc^-1, where V and Uc hold eigenvectors (or a Jordan chain) of
    N and of N_t, and Z commutes with their common Jordan form.  N^T B = B N,
    so G = V^T B V and H = Uc^T B_t Uc are diagonal for distinct
    eigenvalues, and R^T B R = B_t fixes Z up to signs, which change neither
    residual.  The swap shapes leave the J frame by P = R T.
    """
    t11, t12, t22 = _representative_B_entries(shape, params)
    # in Python complex, as b4 is: float zeros would flip the sign of zero
    # parts of P
    bt = tuple(map(complex, (t11, t12, t12, t22)))
    if shape in _SWAP_SHAPES:
        bt = _mul4(_mul4(_T, bt), _T)
    nt = _mul4(_star_flip(bt), bt)
    if len(lam) == 2:
        (v00, v10), (v01, v11) = (_eigvec(n4, l) for l in lam)
        (u00, u10), (u01, u11) = (_eigvec(nt, l) for l in lam)
        V, Uc = (v00, v01, v10, v11), (u00, u01, u10, u11)
    else:
        V, Uc = _jordan_chain(n4, lam[0]), _jordan_chain(nt, lam[0])
    # (g00, g01, g11) of G and (h00, h01, h11) of H
    G = _transpose_congruence3(V, b4[0], b4[1], b4[3])
    H = _transpose_congruence3(Uc, bt[0], bt[1], bt[3])
    g_scale = _max_abs(G)
    Z = None
    if len(lam) == 2:
        if min(abs(G[0]), abs(G[2])) > 1e-12 * g_scale:
            Z = _diag4(cmath.sqrt(H[0] / G[0]), cmath.sqrt(H[2] / G[2]))
    # defective: the chain's first vector is isotropic for B and for B_t,
    # G00 = H00 = 0 up to rounding, so Z = [[z1, z2], [0, z1]] solves
    # Z^T G Z = H through G01 and G11
    elif abs(G[1]) > 1e-10 * g_scale:
        z1 = cmath.sqrt(H[1] / G[1])
        z2 = (H[2] - z1 * z1 * G[2]) / (2.0 * z1 * G[1])
        Z = (z1, z2, 0.0, z1)
    r, c, P = math.inf, 1.0, None
    if Z is not None:
        P = _mul4(_mul4(V, Z), _inv4(Uc))
        b_res = _gap(_transpose_congruence3(P, b4[0], b4[1], b4[3]),
                     (bt[0], bt[1], bt[3]))
        # the (1,1)-unitary defect: the gap of c P* J P to J
        r, c = min(((max(b_res, _gap(_star_congruence4(cc, P, _J), _J)), cc)
                    for cc in (1.0, -1.0)), key=lambda rc: rc[0])
    if not r <= 1e-7 * max(1.0, _max_abs(b4)):
        raise ClassificationFailureError(
            f"1(+)-1 reduction to {shape.value} failed (residual {r:.3e})")
    if shape in _SWAP_SHAPES:
        P = _mul4(P, _T)
    return shape, params, c, P


def _orth_d_identity(K):
    """The rotation taking K = Q0^-* J Q0^-1 to J."""
    return _rot(0.5 * math.atan2(K[1].real, K[0].real))


def _orth_anti_diag(K):
    """The complex-orthogonal factor taking K = Q0^-* J Q0^-1 to the
    anti-diagonal target's frame."""
    if K[1].imag >= 0:
        O = _rot(0.5j * math.asinh(K[0].real))
    else:
        O = _mul4(_J, _rot(0.5j * math.asinh(-K[0].real)))
    return _mul4(_SHALF_INV, O)


def _opm_scalar(b4, shape, params, s, orth):
    """The reducer of the symmetric B = b4 with scalar invariant: B / s = Q0^2
    with Q0 symmetric, so P = (O Q0)^-1 carries B to the target for every
    complex orthogonal O, and `orth` picks the O that puts P in the (1,1)
    unitary group; `_stabilizer_reduce3` checks that it does."""
    Q0 = _sqrtm2_symmetric(tuple(z / s for z in b4))
    P = _inv4(_mul4(orth(_star_congruence4(1.0, _inv4(Q0), _J)), Q0))
    return shape, params, 1.0, P


_STAGE2 = {
    ALabel.ZERO: _reduce_B_zero,
    ALabel.ONE_ZERO: _reduce_B_one_zero,
    ALabel.IDENTITY: _reduce_B_identity,
    ALabel.ONE_PLUS_MINUS: _reduce_B_one_plus_minus,
    ALabel.ONE_THETA: _reduce_B_one_theta,
    ALabel.TAU_FORM: _reduce_B_tau,
    ALabel.NILPOTENT: _reduce_B_nilpotent,
    ALabel.JORDAN_I: _reduce_B_jordan,
}


# ---------------------------------------------------------------------------
# the full pair

# (a_label, b_shape) -> (cell, fields, whether `_canonical_updates` can
# change the cell's parameters, as it does the probe's)
_CANON_PROBE = {"phi": 0.0, "zeta_star": 1j, "zeta": 1j, "a": 2.0, "d": 1.0}
_CELL_RECORDS = {(cell.a_label, cell.b_shape): (
    cell, param_fields(cell), bool(_canonical_updates(cell, _CANON_PROBE)))
    for cell in CELLS}


def _stage1(a):
    """Stage 1 on the 4-tuple a, (c, P) checked by `_group4`: (a_label,
    a_params, c1, p1, notes, *`_a_form`).  The result may be shared by
    several calls of `_classify_rest`, which only read it."""
    amb: list[str] = []
    a_label, a_params, c1, p1 = _classify_A4(a, amb)
    c1, p1 = _own_check(_group4, c1, p1)
    return (a_label, a_params, c1, p1, tuple(amb),
            *_a_form(a_label, a_params))


def _classify4(a, b):
    """The classifier on the row-major 4-tuple a of A and b = (b11, b12,
    b22) of B: (label, params, c, P, residual, ambiguous), params a dict
    and (c, P) the reducer as a scalar and a row-major 4-tuple."""
    return _classify_rest(a, b, _stage1(a))


def _classify_rest(a, b, stage1):
    """`_classify4` after stage 1, whose result `_stage1(a)` is stage1:
    stage 2 and the verification tail."""
    a_label, a_params, c1, p1, amb1, a0, a_tol = stage1
    amb2: list[str] = []
    b1 = _transpose_congruence3(p1, *b)
    if not all(map(cmath.isfinite, b1)):
        _own_check(SymMat2, *b1)  # names the first non-finite entry
    try:
        shape, b_params, c2, p2, a_target = _stabilizer_reduce3(
            a_label, a_params, a0, a_tol, b1, amb2)
    except ClassificationFailureError:
        if amb1:
            # the A part was snapped to a degenerate class inside the
            # ambiguity zone; if B then falls off that class's strata the
            # snap itself is what failed, not the input
            raise AmbiguityError(
                amb1, f"B is off the strata of the tentative class {a_label}")
        raise
    # an uncatalogued pair raises BundleLabel's ValueError
    label, fields, canon = (_CELL_RECORDS.get((a_label, shape))
                            or BundleLabel(a_label, shape))
    params = {**a_params, **b_params}
    if canon:
        params.update(_canonical_updates(label, params))
    # the reducer P1 P2, checked as a group element
    c, p = _own_check(_group4, c1 * c2, _mul4(p1, p2))
    if _param_violations(label, params, fields):
        raise ClassificationFailureError(f"incomplete parameters for {label}")
    # residual: max-norm distance of the moved pair to the representative,
    # whose A-part is the stabilizer check's A_target
    moved = _star_congruence4(c, p, a) + _transpose_congruence3(p, *b)
    residual = _gap(moved, a_target + _representative_B_entries(shape, params))
    scale = max(1.0, _max_abs(a + b))
    # a NaN residual (an overflowed product) fails too
    if not residual <= 1e-5 * scale:
        raise ClassificationFailureError(
            f"classification of {label} failed verification (residual {residual:.3e})"
        )
    return label, params, c, p, float(residual), amb1 + tuple(amb2)


def classify_pair(x: PairAB) -> Classification:
    label, params, c, p, res, amb = _classify4(x.A.entries, (x.B.a, x.B.b, x.B.d))
    return Classification(label, BundleParams(**params),
                          _checked_group_element(c, p), res, amb)
