"""Decide the bundle of an input pair and build the reducing group element.

Stage 1 classifies the A-part by rank and cosquare eigenstructure and moves
it to its canonical form.  Stage 2 reduces the transported B-part by the
stabilizer subgroup of the canonical A to the catalogued B-shape, extracting
the continuous parameters.  Every reducer is verified by re-application; a
failed verification raises rather than returning a wrong answer.

Inside, matrices are row-major 4-tuples of Python complex numbers (see
`core`): the rank and eigenvalue decisions use closed-form singular values
and quadratic-formula eigenvalues, and the residuals scalar congruences.
LAPACK stays where the vector basis it picks can be degenerate: the rank-1
and Jordan reducers, the Hermitian-like eigenbasis, the Takagi factors and
the two 1(+)-1 solvers of a rank-2 B (`_opm_intertwine` carries the invariant
N = J conj(B) J B onto its target's through eigenvectors or a Jordan chain;
`_opm_scalar` serves a scalar N through a symmetric square root of B).  The
stage-2 reducers return (c, P) as a scalar and a 4-tuple, and the
verification tail composes the reducers and measures the residual on
4-tuples.  The checked value types are built only for what the public
functions return.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._takagi import takagi
from .core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    _cosquare4,
    _det4,
    _entries4,
    _mat4,
    _max_abs,
    _mul4,
    _spectral_norm,
    _star_congruence4,
    _transpose_congruence3,
    apply_action,  # unused here; perfbench/spans.py wraps it in this module
    max_norm,
)
from .normal_forms import (
    ALabel,
    BLabel,
    BShape,
    BundleLabel,
    BundleParams,
    _SWAP_SHAPES,
    _representative_A_entries,
    _representative_B_entries,
    _wrap_phase_halfturn,
    canonicalize_params,
    representative,  # unused here; perfbench/spans.py wraps it in this module
    validate_params,
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

_J = np.diag([1.0, -1.0]).astype(complex)
_S12 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_T = (1.0 / math.sqrt(2.0)) * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)

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
        return {
            "label": str(self.label),
            "params": self.params.to_json(),
            "reducer": self.reducer.to_json(),
            "residual": self.residual,
            "ambiguous": list(self.ambiguous),
        }


class AmbiguityError(ValueError):
    """Two classification branches fall within tolerance of each other."""

    def __init__(self, candidates, message="ambiguous classification"):
        super().__init__(f"{message}: {candidates}")
        self.candidates = tuple(candidates)


class ClassificationFailureError(RuntimeError):
    """No catalogued shape is reachable within tolerance (taxonomy bug or a
    genuine off-catalog input)."""


def _near(q, thresh, amb, note):
    """Decide q <= thresh, annotating when q sits suspiciously close."""
    if 0.01 * thresh < q < 100.0 * thresh:
        amb.append(note)
    return q <= thresh


# ---------------------------------------------------------------------------
# stage 1: the A-part

def _singular_values(m):
    """Both singular values of a 2x2 matrix in closed form: sv[0] from M*M
    (`core._spectral_norm`), sv[1] = |det M| / sv[0]."""
    s0 = _spectral_norm(*m)
    return s0, (abs(_det4(m)) / s0 if s0 > 0.0 else 0.0)


def _array(m) -> np.ndarray:
    return np.array(m, dtype=complex).reshape(2, 2)


def _gap(m, t) -> float:
    """Max-norm distance of two row-major 4-tuples."""
    return _max_abs([x - y for x, y in zip(m, t)])


def classify_A(A: Mat2):
    """Returns (a_label, params, reducer, residual, ambiguous)."""
    a = _entries4(A)
    amb: list[str] = []
    scale, sv1 = _singular_values(a)
    if _near(scale, _RANK_TOL, amb, "A near zero"):
        g = GroupElement(1.0, Mat2.identity())
        return ALabel.ZERO, BundleParams(), g, float(scale), tuple(amb)
    if _near(sv1 / scale, _RANK_TOL, amb, "A near rank-1 boundary"):
        label, c, p = _reduce_rank1_A(A.array, amb)
        params = BundleParams()
    else:
        label, params, c, p = _reduce_rank2_A(a, amb)
    res = _gap(_star_congruence4(c, p, a),
               _representative_A_entries(label, params))
    return label, params, GroupElement(c, _mat4(p)), float(res), tuple(amb)


def _unit2(x, y):
    n = math.hypot(abs(x), abs(y))
    return x / n, y / n


def _reduce_rank1_A(arr, amb):
    U, sv, Vh = np.linalg.svd(arr)
    s0 = float(sv[0])
    u0, u1 = U[:, 0].tolist()
    v0, v1 = Vh[0].conj().tolist()  # A ~ s0 * outer(u, conj(v)) = s0 u v^H
    vu = v0.conjugate() * u0 + v1.conjugate() * u1  # v^H u
    if _near(1.0 - abs(vu), _EIG_TOL, amb,
             "rank-1 A near the 1(+)0 / nilpotent boundary"):
        # A = s0 e^{i psi} v v^H; the second column is v's unit perpendicular
        r = math.sqrt(s0)
        w0, w1 = _unit2(-v1.conjugate(), v0.conjugate())
        P = (v0 / r, w0, v1 / r, w1)
        return ALabel.ONE_ZERO, cmath.exp(-1j * cmath.phase(vu)), P
    # nilpotent: send u -> e1 direction, v -> e2 direction
    uv = vu.conjugate()
    p10, p11 = _unit2(u0 - v0 * vu, u1 - v1 * vu)  # perpendicular to v
    p20, p21 = _unit2(v0 - u0 * uv, v1 - u1 * uv)  # perpendicular to u
    z = (s0 * (p10.conjugate() * u0 + p11.conjugate() * u1)
         * (v0.conjugate() * p20 + v1.conjugate() * p21))
    m = abs(z)
    return ALabel.NILPOTENT, z.conjugate() / m, (p10 / m, p20, p11 / m, p21)


def _reduce_rank2_A(a, amb):
    C, det_c = _cosquare4(a)
    lam_m, disc, sd0 = _mean_split(C)
    n_scale = max(1.0, abs(lam_m))
    if _near(sd0, _EIG_TOL * n_scale, amb, "cosquare near scalar"):
        return _reduce_hermitian_like(_array(a), lam_m, amb)
    if _near(abs(disc) / sd0, _EIG_TOL * max(1.0, sd0), amb,
             "cosquare near defective"):
        if abs(abs(lam_m) - 1.0) > 100 * _EIG_TOL:
            raise ClassificationFailureError(
                "defective cosquare with non-unimodular eigenvalue "
                f"{np.complex128(lam_m)!r}"
            )
        return _reduce_jordan_A(_array(a), _array(C), lam_m)
    # two separated eigenvalues
    lam = _roots(lam_m, disc, det_c)
    # pair structure: both unimodular, or a conjugate-reciprocal pair
    m0, m1 = abs(lam[0]), abs(lam[1])
    unimodular = max(abs(m0 - 1.0), abs(m1 - 1.0))
    if _near(unimodular, _EIG_TOL, amb, "cosquare eigenvalues near the unit circle"):
        return _reduce_one_theta_A(a, C, lam)
    if abs(m0 * m1 - 1.0) > 1e-6 * max(1.0, m0 * m1):
        raise ClassificationFailureError(
            f"cosquare spectrum {np.array(lam)!r} "
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
            return ALabel.ONE_THETA, BundleParams(theta=theta), c, P
    raise ClassificationFailureError("no eigenvalue order yields theta in (0, pi)")


def _reduce_tau_A(a, C, lam):
    lam = sorted(lam, key=abs)
    tau = abs(lam[0])
    s0 = _eigvec(C, lam[0])
    s1 = _eigvec(C, lam[1])
    S = (s0[0], s1[0], s0[1], s1[1])
    c = cmath.exp(-0.5j * cmath.phase(lam[0]))
    for cc in (c, -c):
        m = _star_congruence4(cc, S, a)[1]
        if abs(m) < 1e-300:
            continue
        # split the scale evenly over both columns to keep P well conditioned
        r = cmath.sqrt(m)
        k0, k1 = 1.0 / r.conjugate(), 1.0 / r
        P = (S[0] * k0, S[1] * k1, S[2] * k0, S[3] * k1)
        if abs(_star_congruence4(cc, P, a)[1] - 1.0) < 0.5:
            return ALabel.TAU_FORM, BundleParams(tau=float(tau)), cc, P
    raise ClassificationFailureError("tau-form reduction failed")


def _reduce_hermitian_like(arr, lam_m, amb):
    if abs(abs(lam_m) - 1.0) > 100 * _EIG_TOL:
        raise ClassificationFailureError(
            "scalar cosquare with non-unimodular eigenvalue "
            f"{np.complex128(lam_m)!r}"
        )
    c0 = cmath.exp(-0.5j * cmath.phase(lam_m))
    H = c0 * arr
    H = 0.5 * (H + H.conj().T)
    d, Uh = np.linalg.eigh(H)  # ascending
    if _near(min(abs(d)), _EIG_TOL * max(abs(d)), amb,
             "Hermitian part near singular"):
        raise ClassificationFailureError("rank-2 A with near-singular Hermitian part")
    if d[0] > 0:
        P = Uh @ np.diag(1.0 / np.sqrt(d))
        return ALabel.IDENTITY, BundleParams(), c0, _entries4(P)
    if d[1] < 0:
        P = Uh @ np.diag(1.0 / np.sqrt(-d))
        return ALabel.IDENTITY, BundleParams(), -c0, _entries4(P)
    # indefinite: order (positive, negative) for diag(1, -1)
    P = np.column_stack([Uh[:, 1] / math.sqrt(d[1]), Uh[:, 0] / math.sqrt(-d[0])])
    return ALabel.ONE_PLUS_MINUS, BundleParams(), c0, _entries4(P)


def _reduce_jordan_A(arr, C, lam_m):
    # bring the cosquare to the unipotent Jordan form of [[0,1],[1,i]]
    lam = lam_m / abs(lam_m)
    c = cmath.exp(-0.5j * cmath.phase(lam))
    # Jordan chain of the unipotent cosquare: (Cn - I) p2 = 2i p1
    V = _jordan_chain(c * c * C, 1.0)
    P0 = np.column_stack([V[:, 0] / 2j, V[:, 1]])
    for cc in (c, -c):
        Mt = cc * P0.conj().T @ arr @ P0
        t = Mt[0, 1]
        if abs(t.real) < 1e-12 * max(1.0, abs(t)):
            continue
        if t.real < 0:
            continue
        tr = t.real
        q = Mt[1, 1].real
        a_scale = 1.0 / math.sqrt(tr)
        b_corr = -a_scale * q / (2.0 * tr)
        K = np.array([[a_scale, b_corr], [0.0, a_scale]], dtype=complex)
        P = P0 @ K
        out = cc * P.conj().T @ arr @ P
        if max_norm(out - np.array([[0, 1], [1, 1j]])) < 0.1:
            return ALabel.JORDAN_I, BundleParams(), cc, _entries4(P)
    raise ClassificationFailureError("Jordan-type reduction failed")


# ---------------------------------------------------------------------------
# the B-part alone (T-congruence rank normal form)

def classify_B(B: SymMat2):
    """Returns (b_label, reducer P, residual, ambiguous)."""
    amb: list[str] = []
    arr = B.array
    s, U = takagi(arr)
    scale = s[0]
    if _near(scale, _RANK_TOL, amb, "B near zero"):
        return BLabel.ZERO, Mat2.identity(), float(scale), tuple(amb)
    if _near(s[1] / scale, _RANK_TOL, amb, "B near rank-1 boundary"):
        rank = 1
        P = np.conj(U) @ np.diag([1.0 / math.sqrt(s[0]), 1.0])
    else:
        rank = 2
        P = np.conj(U) @ np.diag(1.0 / np.sqrt(s))
    target = np.diag([1.0, 1.0 if rank == 2 else 0.0])
    res = max_norm(P.T @ arr @ P - target)
    label = BLabel.RANK2 if rank == 2 else BLabel.RANK1
    return label, Mat2(P), float(res), tuple(amb)


# ---------------------------------------------------------------------------
# stage 2: stabilizer reduction of the transported B

def _zero_flags(B: SymMat2):
    """Which of b11, b12, b22 exceed the rank threshold relative to |B|."""
    zt = _RANK_TOL * max(max_norm(B), 1e-300)
    return (abs(B.a) > zt, abs(B.b) > zt, abs(B.d) > zt)


def _phase_sqrt(z: complex) -> complex:
    """A unit-modulus x with x^2 * z real positive (z != 0)."""
    return cmath.exp(-0.5j * cmath.phase(z))


def stabilizer_reduce_B(a_label: ALabel, B: SymMat2,
                        a_params: BundleParams | None = None):
    """Reduce B by the stabilizer of the canonical A-form.

    Returns (b_shape, params: BundleParams, g_stab: GroupElement, ambiguous).
    The returned element satisfies c P* A0 P = A_target where A_target is A0
    itself except for the cells displayed in the anti-diagonal representative
    of the 1(+)-1 class.
    """
    a_params = a_params or BundleParams()
    amb: list[str] = []
    shape, params, c, p = _STAGE2[a_label](B, amb)
    g = GroupElement(c, _mat4(p))
    # stabilizer membership / A-transport check
    A0 = _representative_A_entries(a_label, a_params)
    A_target = _representative_A_entries(a_label, a_params, shape in _SWAP_SHAPES)
    defect = _gap(_star_congruence4(g.c, _entries4(g.P), A0), A_target)
    if defect > 1e-7 * max(1.0, _max_abs(A0)):
        raise ClassificationFailureError(
            f"stage-2 reducer leaves the stabilizer of {a_label} (defect {defect:.3e})"
        )
    return shape, params, g, tuple(amb)


# Each stage-2 reducer returns (b_shape, params, c, p) with the reducer's P
# as a row-major 4-tuple; `stabilizer_reduce_B` builds the GroupElement.
_I4 = (1.0, 0.0, 0.0, 1.0)


def _diag4(x, y) -> tuple:
    return (x, 0j, 0j, y)


def _congruent_B(p, B) -> tuple:
    """(b11, b12, b22) of P^T B P."""
    return _transpose_congruence3(p, B.a, B.b, B.d)


def _reduce_B_zero(B, amb):
    label, P, _, amb2 = classify_B(B)
    amb.extend(amb2)
    return BShape(label.value), BundleParams(), 1.0, _entries4(P)


def _reduce_B_one_zero(B, amb):
    zt = _RANK_TOL * max(max_norm(B), 1e-300)
    b11, b12, b22 = B.a, B.b, B.d
    if abs(b22) > zt:
        v = 1.0 / cmath.sqrt(b22)
        w = (b11 * b22 - b12 * b12) / b22  # det B / b22
        if _near(abs(w), zt, amb, "B(1,1) residual near zero over 1(+)0"):
            P = (1.0, 0.0, -b12 / b22, v)
            return BShape.ZERO_ONE, BundleParams(), 1.0, P
        x = _phase_sqrt(w)
        P = (x, 0.0, -x * b12 / b22, v)
        return BShape.DIAG_A_ONE, BundleParams(a=abs(w)), 1.0, P
    if abs(b12) > zt:
        P = (1.0, 0.0, -b11 / (2 * b12), 1.0 / b12)
        return BShape.SWAP, BundleParams(), 1.0, P
    if abs(b11) > zt:
        x = _phase_sqrt(b11)
        return BShape.DIAG_A0, BundleParams(a=abs(b11)), 1.0, _diag4(x, 1.0)
    return BShape.ZERO, BundleParams(), 1.0, _I4


def _reduce_B_identity(B, amb):
    arr = B.array
    s, U = takagi(arr)  # descending
    p = _entries4(np.conj(U) @ _S12)  # ascending order
    scale = max(s[0], 1e-300)
    s_lo, s_hi = s[1], s[0]
    if _near(s_hi, _RANK_TOL * max(1.0, scale), amb, "B near zero over I2"):
        return BShape.ZERO, BundleParams(), 1.0, p
    if _near(s_lo / s_hi, _RANK_TOL, amb, "B near rank-1 over I2"):
        return BShape.ZERO_D, BundleParams(d=float(s_hi)), 1.0, p
    if _near((s_hi - s_lo) / s_hi, _EIG_TOL, amb,
             "Takagi values near coincidence over I2"):
        return (BShape.D_IDENTITY, BundleParams(d=float(0.5 * (s_lo + s_hi))),
                1.0, p)
    return BShape.DIAG_AD, BundleParams(a=float(s_lo), d=float(s_hi)), 1.0, p


def _reduce_B_one_theta(B, amb):
    f11, f12, f22 = _zero_flags(B)
    b11, b12, b22 = B.a, B.b, B.d
    phi1 = phi2 = 0.0
    shape, params = None, BundleParams()
    if f11 and f12 and f22:
        phi1 = -0.5 * cmath.phase(b11)
        phi2 = -0.5 * cmath.phase(b22)
        zs = b12 * cmath.exp(1j * (phi1 + phi2))
        # half-angle branches realize the sign identification; canonicalize
        if not (0.0 <= cmath.phase(zs) < math.pi):
            phi1 += math.pi
            zs = -zs
        shape = BShape.FULL_HERMITIAN_LIKE
        params = BundleParams(a=abs(b11), d=abs(b22), zeta_star=zs)
    elif f11 and f12:
        phi1 = -0.5 * cmath.phase(b11)
        phi2 = -cmath.phase(b12) - phi1
        shape, params = BShape.A_PLUS_OFF_DIAG, BundleParams(a=abs(b11), b=abs(b12))
    elif f12 and f22:
        phi2 = -0.5 * cmath.phase(b22)
        phi1 = -cmath.phase(b12) - phi2
        shape, params = BShape.OFF_DIAG_PLUS_D, BundleParams(b=abs(b12), d=abs(b22))
    elif f11 and f22:
        phi1 = -0.5 * cmath.phase(b11)
        phi2 = -0.5 * cmath.phase(b22)
        shape, params = BShape.DIAG_AD, BundleParams(a=abs(b11), d=abs(b22))
    elif f12:
        phi1 = -cmath.phase(b12)
        shape, params = BShape.ANTI_DIAG, BundleParams(b=abs(b12))
    elif f11:
        phi1 = -0.5 * cmath.phase(b11)
        shape, params = BShape.DIAG_A0, BundleParams(a=abs(b11))
    elif f22:
        phi2 = -0.5 * cmath.phase(b22)
        shape, params = BShape.ZERO_D, BundleParams(d=abs(b22))
    else:
        shape = BShape.ZERO
    return shape, params, 1.0, _diag4(cmath.exp(1j * phi1), cmath.exp(1j * phi2))


def _reduce_B_tau(B, amb):
    f11, f12, f22 = _zero_flags(B)
    b11, b12, b22 = B.a, B.b, B.d

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
        return (BShape.PHASE_FORM,
                BundleParams(phi=phi, b=abs(b12), zeta=_congruent_B(p, B)[2]),
                c, p)
    if f11:
        c, p = elem(1.0 / cmath.sqrt(b11), 1.0)
        return BShape.ONE_ZETA, BundleParams(zeta=_congruent_B(p, B)[2]), c, p
    if f22 and f12:
        phi, g = phase_elem(abs(b22) ** 0.5, b22)
        return BShape.OFF_DIAG_PHASE, BundleParams(b=abs(b12), phi=phi), *g
    if f22:
        rho = abs(b22) ** 0.5
        psi = -0.5 * cmath.phase(b22)
        return (BShape.ZERO_ONE, BundleParams(),
                *elem(rho * cmath.exp(1j * psi), 1.0))
    if f12:
        psi = -0.5 * cmath.phase(b12)
        return (BShape.ANTI_DIAG, BundleParams(b=abs(b12)),
                *elem(cmath.exp(1j * psi), 1.0))
    return BShape.ZERO, BundleParams(), 1.0, _I4


def _reduce_B_nilpotent(B, amb):
    f11, f12, f22 = _zero_flags(B)
    b11, b12, b22 = B.a, B.b, B.d
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
            return (BShape.ZETA_B_ONE,
                    BundleParams(zeta_star=_congruent_B(p, B)[0], b=abs(b12)),
                    c, p)
        return BShape.OFF_DIAG_B_ONE, BundleParams(b=abs(b12)), c, p
    if f11 and f12:  # b22 = 0
        x = 1.0 / cmath.sqrt(b11)
        psi = cmath.phase(x)
        gamma = 2 * psi + a2
        g = elem(abs(x), psi, gamma)
        return BShape.ONE_B_ZERO, BundleParams(b=abs(b12)), *g
    if f11 and f22:  # b12 = 0
        rho = abs(b22) ** 0.5
        psi = -0.5 * a1
        x = rho * cmath.exp(1j * psi)
        g = stab(x, cmath.sqrt(b22) / x.conjugate())
        return BShape.DIAG_A_ONE, BundleParams(a=abs(b11) * abs(b22)), *g
    if f11:
        return (BShape.ONE_ZERO, BundleParams(),
                *stab(1.0 / cmath.sqrt(b11), 1.0))
    if f22:
        rho = abs(b22) ** 0.5
        return (BShape.ZERO_ONE, BundleParams(),
                *stab(rho, cmath.sqrt(b22) / rho))
    if f12:
        return BShape.ANTI_DIAG, BundleParams(b=abs(b12)), *elem(1.0, 0.0, a2)
    return BShape.ZERO, BundleParams(), 1.0, _I4


def _reduce_B_jordan(B, amb):
    f11, f12, f22 = _zero_flags(B)
    b11, b12, b22 = B.a, B.b, B.d

    def elem(v2, t):
        v = cmath.sqrt(v2)
        return 1.0, _entries4(v * np.array([[1.0, 1j * t], [0.0, 1.0]],
                                           dtype=complex))

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
        return (BShape.DIAG_A_ZETA,
                BundleParams(a=abs(b11), zeta=_congruent_B(p, B)[2]), c, p)
    if f12:
        t = shear(1j * b22 / (2 * b12))
        g = elem(b12.conjugate() / abs(b12), t)
        return BShape.ANTI_DIAG, BundleParams(b=abs(b12)), *g
    if f22:
        v2 = b22.conjugate() / abs(b22)
        return BShape.ZERO_D, BundleParams(d=abs(b22)), *elem(v2, 0.0)
    return BShape.ZERO, BundleParams(), 1.0, _I4


# --- the 1 (+) -1 class -----------------------------------------------------
# The stabilizer {(c, P): c = +-1, P* J P = c J} of J = diag(1, -1) moves the
# invariant N = J conj(B) J B of B only by similarity, N -> P^-1 N P.

def _sqrtm2_symmetric(C):
    """A symmetric square root of an invertible symmetric 2x2 matrix."""
    det = C[0, 0] * C[1, 1] - C[0, 1] * C[1, 0]
    tr = C[0, 0] + C[1, 1]
    best = None
    for s in (cmath.sqrt(det), -cmath.sqrt(det)):
        t2 = tr + 2 * s
        if abs(t2) < 1e-14 * max(1.0, abs(tr)):
            continue
        X = (C + s * np.eye(2)) / cmath.sqrt(t2)
        r = max_norm(X @ X - C)
        if best is None or r < best[0]:
            best = (r, X)
    if best is None or best[0] > 1e-8 * max(1.0, max_norm(C)):
        raise ClassificationFailureError("symmetric square root failed")
    return best[1]


def _rot(z):
    c, s = cmath.cos(z), cmath.sin(z)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _boost(t):
    """The (1,1)-unitary boost [[cosh t, sinh t], [sinh t, cosh t]]."""
    return np.array([[math.cosh(t), math.sinh(t)],
                     [math.sinh(t), math.cosh(t)]], dtype=complex)


_SHALF_INV = _T @ np.diag([1.0, -1j]) @ _T


def _star_flip(m):
    """J conj(M) J with J = diag(1, -1)."""
    return (m[0].conjugate(), -m[1].conjugate(), -m[2].conjugate(),
            m[3].conjugate())


def _u11_membership(P, c=1.0):
    return max_norm(c * P.conj().T @ _J @ P - _J)


def _jordan_chain(N, lam):
    """Columns (v1, v2) with (N - lam I) v2 = v1, for N with the single
    eigenvalue lam."""
    M = N - lam * np.eye(2)
    _, _, Vh = np.linalg.svd(M)
    v2 = Vh[0].conj()
    return np.column_stack([M @ v2, v2])


def _reduce_B_one_plus_minus(B, amb):
    arr = B.array
    zt = _RANK_TOL * max(max_norm(B), 1e-300)
    if max_norm(B) <= zt:
        return BShape.ZERO, BundleParams(), 1.0, _I4
    # the Takagi values of B are its singular values
    b4 = (B.a, B.b, B.b, B.d)
    s0, s1 = _singular_values(b4)
    c_total = 1.0
    pre = np.eye(2, dtype=complex)
    if _near(s1 / s0, _RANK_TOL, amb, "B near rank-1 over 1(+)-1"):
        s, U = takagi(arr)
        w = math.sqrt(s[0]) * U[:, 0]
        mu = (abs(w[0]) ** 2 - abs(w[1]) ** 2)
        if _near(abs(mu), _RANK_TOL * (abs(w[0]) ** 2 + abs(w[1]) ** 2), amb,
                 "rank-1 B near the isotropic boundary over 1(+)-1"):
            # isotropic direction: the 1(+)0 cell of the swap representative
            m = 0.5 * (abs(w[0]) + abs(w[1]))
            Dw = np.diag([cmath.exp(-1j * cmath.phase(w[0])),
                          cmath.exp(-1j * cmath.phase(w[1]))])
            P = Dw @ _boost(-math.log(m * math.sqrt(2.0))) @ _T
            return BShape.SWAP_ONE_ZERO, BundleParams(), 1.0, _entries4(P)
        if mu > 0:
            pre = _S12
            c_total = -1.0
            w = _S12 @ w
            mu = -mu
        d = -mu
        # P = D H with phases D and a boost H so that P^T w = sqrt(d) e2
        r1, r2 = abs(w[0]), abs(w[1])
        D1 = np.diag([cmath.exp(-1j * cmath.phase(w[0])) if r1 > 0 else 1.0,
                      cmath.exp(-1j * cmath.phase(w[1]))])
        P = pre @ D1 @ _boost(math.atanh(-r1 / r2))
        return BShape.ZERO_D, BundleParams(d=float(d)), c_total, _entries4(P)
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
            return _opm_scalar(arr, BShape.D_IDENTITY, BundleParams(d=d), d,
                               _orth_d_identity)
        b = math.sqrt(-lam_r)
        return _opm_scalar(arr, BShape.ANTI_DIAG, BundleParams(b=b), b,
                           _orth_anti_diag)
    if _near(abs(disc) / sd0, _EIG_TOL * max(sd0, 1e-300), amb,
             "similarity invariant near defective over 1(+)-1"):
        if not (abs(lam_m.imag) <= 1e-6 * n_scale and lam_m.real > 0):
            raise ClassificationFailureError(
                f"defective invariant with eigenvalue {np.complex128(lam_m)!r} "
                "off the catalog"
            )
        b = math.sqrt(lam_m.real)
        B_sw = np.array([[0.0, b], [b, 1.0]], dtype=complex)
        return _opm_intertwine(arr, n4, BShape.SWAP_OFF_DIAG_B_ONE,
                               BundleParams(b=b), _T @ B_sw @ _T, (b * b,))
    # distinct eigenvalues
    lam = _roots(lam_m, disc, abs(_det4(b4)) ** 2)
    if abs(lam[0].imag) > 1e-6 * n_scale:
        # a conjugate pair d e^{+-i theta}: the 1 (+) d e^{i theta} swap cell
        lam_p = lam[0] if lam[0].imag > 0 else lam[1]
        d, theta = abs(lam_p), abs(cmath.phase(lam_p))
        B_sw = np.diag([1.0, d * cmath.exp(1j * theta)])
        return _opm_intertwine(arr, n4, BShape.SWAP_ONE_DE_ITHETA,
                               BundleParams(d=d, theta=theta), _T @ B_sw @ _T,
                               (lam_p, lam_p.conjugate()))
    lam_r = sorted(l.real for l in lam)
    if lam_r[0] <= 0:
        raise ClassificationFailureError(
            f"real invariant spectrum {[np.float64(l) for l in lam_r]!r} "
            "off the catalog over 1(+)-1"
        )
    a, d = math.sqrt(lam_r[0]), math.sqrt(lam_r[1])
    return _opm_intertwine(arr, n4, BShape.DIAG_AD, BundleParams(a=a, d=d),
                           np.diag([a, d]).astype(complex), lam_r)


def _opm_intertwine(arr, n4, shape, params, B_t, lam):
    """The reducer of B = arr onto the J-frame target B_t, whose invariant
    has the eigenvalues lam (one entry when both are one defective
    eigenvalue).

    R = V Z Uc^-1, where V and Uc hold eigenvectors (or a Jordan chain) of
    N and of N_t, and Z commutes with their common Jordan form.  N^T B = B N,
    so G = V^T B V and H = Uc^T B_t Uc are diagonal for distinct
    eigenvalues, and R^T B R = B_t fixes Z up to signs, which change neither
    residual.  The swap shapes leave the J frame by P = R T.
    """
    N_t = _J @ np.conj(B_t) @ _J @ B_t
    if len(lam) == 2:
        n4_t = _entries4(N_t)
        V = np.column_stack([_eigvec(n4, l) for l in lam])
        Uc = np.column_stack([_eigvec(n4_t, l) for l in lam])
    else:
        V, Uc = _jordan_chain(_array(n4), lam[0]), _jordan_chain(N_t, lam[0])
    G, H = V.T @ arr @ V, Uc.T @ B_t @ Uc
    Z = None
    if len(lam) == 2:
        if min(abs(G[0, 0]), abs(G[1, 1])) > 1e-12 * max_norm(G):
            Z = np.diag([cmath.sqrt(H[0, 0] / G[0, 0]),
                         cmath.sqrt(H[1, 1] / G[1, 1])])
    # defective: G00 = 0 up to the near-defective gray band, and Z is
    # [[z1, z2], [0, z1]]
    elif abs(G[0, 0]) > 1e-10 * max_norm(G):
        z1 = cmath.sqrt(H[0, 0] / G[0, 0])
        z2 = (H[0, 1] - z1 * z1 * G[0, 1]) / (z1 * G[0, 0])
        Z = np.array([[z1, z2], [0.0, z1]])
    elif abs(G[0, 1]) > 1e-10 * max_norm(G):
        z1 = cmath.sqrt(H[0, 1] / G[0, 1])
        z2 = (H[1, 1] - z1 * z1 * G[1, 1]) / (2.0 * z1 * G[0, 1])
        Z = np.array([[z1, z2], [0.0, z1]])
    r, c, P = math.inf, 1.0, None
    if Z is not None:
        P = V @ Z @ np.linalg.inv(Uc)
        b_res = max_norm(P.T @ arr @ P - B_t)
        r, c = min(((max(b_res, _u11_membership(P, cc)), cc)
                    for cc in (1.0, -1.0)), key=lambda rc: rc[0])
    if not r <= 1e-7 * max(1.0, max_norm(arr)):
        raise ClassificationFailureError(
            f"1(+)-1 reduction to {shape.value} failed (residual {r:.3e})")
    if shape in _SWAP_SHAPES:
        P = P @ _T
    return shape, params, c, _entries4(P)


def _orth_d_identity(K):
    """The rotation taking K = Q0^-* J Q0^-1 to J."""
    return _rot(0.5 * math.atan2(K[0, 1].real, K[0, 0].real))


def _orth_anti_diag(K):
    """The complex-orthogonal factor taking K = Q0^-* J Q0^-1 to the
    anti-diagonal target's frame."""
    if K[0, 1].imag >= 0:
        O = _rot(0.5j * math.asinh(K[0, 0].real))
    else:
        O = np.diag([1.0, -1.0]) @ _rot(0.5j * math.asinh(-K[0, 0].real))
    return _SHALF_INV @ O


def _opm_scalar(arr, shape, params, s, orth):
    """The reducer of B = arr with scalar invariant: B / s = Q0^2 with Q0
    symmetric, so P = (O Q0)^-1 carries B to the target for every complex
    orthogonal O, and `orth` picks the O that puts P in the (1,1) unitary
    group."""
    Q0 = _sqrtm2_symmetric(arr / s)
    Q0i = np.linalg.inv(Q0)
    P = np.linalg.inv(orth(Q0i.conj().T @ _J @ Q0i) @ Q0)
    if _u11_membership(P) > 1e-7:
        raise ClassificationFailureError(
            f"1(+)-1 reduction to {shape.value} left the (1,1) unitary group")
    return shape, params, 1.0, _entries4(P)


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

def classify_pair(x: PairAB) -> Classification:
    a_label, a_params, g1, res1, amb1 = classify_A(x.A)
    p1 = _entries4(g1.P)
    B1 = SymMat2(*_congruent_B(p1, x.B))
    try:
        shape, b_params, g2, amb2 = stabilizer_reduce_B(a_label, B1, a_params)
    except ClassificationFailureError:
        if amb1:
            # the A part was snapped to a degenerate class inside the
            # ambiguity zone; if B then falls off that class's strata the
            # snap itself is what failed, not the input
            raise AmbiguityError(
                tuple(amb1),
                f"B is off the strata of the tentative class {a_label}")
        raise
    label = BundleLabel(a_label, shape)
    merged = BundleParams(**{**_asdict(a_params), **_asdict(b_params)})
    merged = canonicalize_params(label, merged)
    # the reducer P1 P2; its GroupElement checks |c| = 1 and det P
    c, p = g1.c * g2.c, _mul4(p1, _entries4(g2.P))
    total = GroupElement(c, _mat4(p))
    if validate_params(label, merged):
        raise ClassificationFailureError(f"incomplete parameters for {label}")
    # residual: max-norm distance of the moved pair to the representative
    a = _entries4(x.A)
    moved = _star_congruence4(c, p, a) + _congruent_B(p, x.B)
    target = (_representative_A_entries(a_label, merged, shape in _SWAP_SHAPES)
              + _representative_B_entries(shape, merged))
    residual = _gap(moved, target)
    scale = max(1.0, _max_abs(a), max_norm(x.B))
    ambiguous = tuple(amb1) + tuple(amb2)
    # a NaN residual (an overflowed product) fails too
    if not residual <= 1e-5 * scale:
        raise ClassificationFailureError(
            f"classification of {label} failed verification (residual {residual:.3e})"
        )
    return Classification(label, merged, total, float(residual), ambiguous)


def _asdict(p: BundleParams) -> dict:
    return {k: v for k, v in p.__dict__.items() if v is not None}

