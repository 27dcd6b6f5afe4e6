"""Numerical verification engines.

Four groups of tools:

* tangent-rank dimension counts for the catalogued bundles (and for the
  symmetric-part orbits alone),
* quantitative determinant/parameter bounds with explicit hypotheses,
  reported as pass/fail margins,
* residual evaluation for the tabulated necessary conditions attached to
  closure-graph edges (rows C1..C12 for the first component, D1..D5 for
  the second),
* a derivative-free distance-to-bundle optimizer and a Monte Carlo
  neighborhood validator for the closure graph.

Everything is measured in the entrywise max-norm.
"""

import cmath
import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from .closure import SuspectEdgeWarning, bundle_graph
from .core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    ValidationError,
    _spectral_norm,
    max_norm,
    pair_distance,
)
from .normal_forms import (
    GENERIC_PARAMS,
    ALabel,
    BundleLabel,
    BundleParams,
    param_fields,
    representative,
    validate_params,
)

__all__ = [
    "BoundReport",
    "EmpiricalConstants",
    "NeighborhoodReport",
    "GENERIC_PARAMS",
    "generic_params",
    "bundle_dimension_numeric",
    "psi2_orbit_dimension_numeric",
    "detxe_bound",
    "lemadet_verify",
    "table3_residuals",
    "table4_residuals",
    "distance_to_bundle",
    "nonedge_floor",
    "monte_carlo_neighborhood",
    "nu_fit",
    "sample_group_element",
    "sample_detxe_case",
    "sample_lemadet_case",
]

_MATCH_TOL = 1e-9
_COMPLEX_FIELDS = ("zeta", "zeta_star")


def generic_params(label: BundleLabel) -> BundleParams:
    """Arbitrary generic parameter values for a label (nothing special
    about the numbers; they just avoid accidental degeneracies)."""
    kw = {f: getattr(GENERIC_PARAMS, f) for f in param_fields(label)}
    return BundleParams(**kw)


# ---------------------------------------------------------------------------
# report types

@dataclass
class BoundReport:
    hypothesis_ok: bool
    bound_value: float
    observed_value: float
    margin: float  # bound - observed
    name: str = ""

    @property
    def ok(self) -> bool:
        """Vacuously true when the hypothesis fails."""
        return (not self.hypothesis_ok) or self.margin >= 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "hypothesis_ok": self.hypothesis_ok,
            "bound_value": self.bound_value,
            "observed_value": self.observed_value,
            "margin": self.margin,
            "ok": self.ok,
        }


@dataclass
class EmpiricalConstants:
    """Empirical estimates of the separation/convergence constants of a
    (source, target) pair.  These are measurements, not certified values."""

    src: str
    dst: str
    mu_estimate: Optional[float] = None
    nu_estimate: Optional[float] = None
    floor: Optional[float] = None
    flagged: bool = False
    grid: tuple = ()
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "mu_estimate": self.mu_estimate,
            "nu_estimate": self.nu_estimate,
            "floor": self.floor,
            "flagged": self.flagged,
            "grid": list(self.grid),
            "detail": self.detail,
        }


@dataclass
class NeighborhoodReport:
    center: str
    center_params: dict
    epsilon: float
    trials: int
    histogram: dict
    violations: list
    ambiguous: int = 0
    failures: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "center": self.center,
            "center_params": self.center_params,
            "epsilon": self.epsilon,
            "trials": self.trials,
            "histogram": dict(self.histogram),
            "violations": list(self.violations),
            "ambiguous": self.ambiguous,
            "failures": self.failures,
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# tangent-rank dimensions

def _unit_matrix(j, k):
    E = np.zeros((2, 2), dtype=complex)
    E[j, k] = 1.0
    return E


def _embed_pair(dA, dB) -> np.ndarray:
    """Real 14-vector of a tangent direction (8 reals for the first
    component, 6 for the symmetric second component)."""
    out = np.empty(14)
    out[0:4] = dA.real.ravel()
    out[4:8] = dA.imag.ravel()
    vals = (dB[0, 0], dB[0, 1], dB[1, 1])
    out[8:14] = [w for z in vals for w in (z.real, z.imag)]
    return out


def _stable_rank(rows, cutoff_ratio=1e-8, *, what="tangent rank"):
    M = np.asarray(rows)
    if M.size == 0 or not np.any(np.abs(M) > 0):
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    top = sv[0]

    def rank_at(ratio):
        return int(np.sum(sv > ratio * top))

    r = rank_at(cutoff_ratio)
    if rank_at(cutoff_ratio * 10) != r or rank_at(cutoff_ratio / 10) != r:
        raise ArithmeticError(
            f"{what} unstable under cutoff x10 / /10 "
            f"(singular values {sv.tolist()})")
    return r


def _shifted(params: BundleParams, name: str, delta):
    return dataclasses.replace(params, **{name: getattr(params, name) + delta})


def bundle_dimension_numeric(label: BundleLabel,
                             params: BundleParams | None = None,
                             *, cutoff_ratio: float = 1e-8,
                             step: float = 1e-6) -> int:
    """Real dimension of a bundle, as the rank of its numerically
    assembled tangent directions at the representative."""
    params = params if params is not None else generic_params(label)
    problems = validate_params(label, params)
    if problems:
        raise ValidationError("; ".join(problems))
    x0 = representative(label, params)
    A0, B0 = x0.A.array, x0.B.array

    rows = []
    for j, k in product(range(2), range(2)):
        Ejk, Ekj = _unit_matrix(j, k), _unit_matrix(k, j)
        rows.append(_embed_pair(Ekj @ A0 + A0 @ Ejk, Ekj @ B0 + B0 @ Ejk))
        rows.append(_embed_pair(1j * (-Ekj @ A0 + A0 @ Ejk),
                                1j * (Ekj @ B0 + B0 @ Ejk)))
    zero_b = np.zeros((2, 2), dtype=complex)
    rows.append(_embed_pair(1j * A0, zero_b))  # phase direction
    if label.a_label is ALabel.ONE_THETA:
        dA = np.zeros((2, 2), dtype=complex)
        dA[1, 1] = 1j * cmath.exp(1j * params.theta)
        rows.append(_embed_pair(dA, zero_b))
    elif label.a_label is ALabel.TAU_FORM:
        rows.append(_embed_pair(_unit_matrix(1, 0).astype(complex), zero_b))
    for name in param_fields(label):
        deltas = (step, 1j * step) if name in _COMPLEX_FIELDS else (step,)
        for delta in deltas:
            hi = representative(label, _shifted(params, name, delta))
            lo = representative(label, _shifted(params, name, -delta))
            rows.append(_embed_pair((hi.A.array - lo.A.array) / (2 * step),
                                    (hi.B.array - lo.B.array) / (2 * step)))
    return _stable_rank(rows, cutoff_ratio,
                        what=f"dimension of {label}")


def psi2_orbit_dimension_numeric(B: SymMat2, *,
                                 cutoff_ratio: float = 1e-8) -> int:
    """Complex dimension of the T-congruence orbit of a symmetric matrix
    (its tangent space is a complex subspace, so the complex rank is the
    natural count here)."""
    arr = B.array if isinstance(B, SymMat2) else np.asarray(B, dtype=complex)
    rows = []
    for j, k in product(range(2), range(2)):
        Ejk, Ekj = _unit_matrix(j, k), _unit_matrix(k, j)
        dB = Ekj @ arr + arr @ Ejk
        rows.append([dB[0, 0], dB[0, 1], dB[1, 1]])
    return _stable_rank(rows, cutoff_ratio, what="orbit rank")


# ---------------------------------------------------------------------------
# determinant perturbation bounds

def _as_array(M) -> np.ndarray:
    if isinstance(M, (Mat2, SymMat2)):
        return M.array
    return np.asarray(M, dtype=complex)


def _det(M) -> complex:
    return complex(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])


def _is_singular(detval: complex, norm: float) -> bool:
    return abs(detval) <= 1e-12 * max(1.0, norm * norm)


def detxe_bound(X, D) -> BoundReport:
    """|det(X+D) - det X| against the explicit perturbation bound."""
    X, D = _as_array(X), _as_array(D)
    nX, nD = max_norm(X), max_norm(D)
    observed = abs(_det(X + D) - _det(X))
    bound = nD * (4.0 * nX + 2.0 * nD)
    return BoundReport(True, bound, observed, bound - observed, name="detxe")


def _short_circuit(mode: str) -> BoundReport:
    nan = float("nan")
    return BoundReport(False, nan, nan, nan, name=mode)


def lemadet_verify(src, dst, g: GroupElement, mode: str) -> BoundReport:
    """Check one of the determinant/parameter bounds for an approximate
    move of ``dst`` onto ``src`` by the group element ``g``.

    ``src`` is the limit object and ``dst`` the moved one; both may be
    given as PairAB, or as bare 2x2 data for the single-component modes.
    Modes: "PAE" (square-root-of-determinant defect of the first
    component), "cE" (the unimodular scalar against the determinant
    phase), "PBF" (the symmetric-component analog), "part3" (the mixed
    determinant identity, needs full pairs).
    """
    mode = str(mode)
    if mode not in ("PAE", "cE", "PBF", "part3"):
        raise ValueError(f"unknown mode {mode!r}")
    c = complex(g.c)
    P = _as_array(g.P)
    detP = _det(P)

    def a_parts():
        At = src.A.array if isinstance(src, PairAB) else _as_array(src)
        A = dst.A.array if isinstance(dst, PairAB) else _as_array(dst)
        E = c * P.conj().T @ A @ P - At
        return At, A, E

    def b_parts():
        Bt = src.B.array if isinstance(src, PairAB) else _as_array(src)
        B = dst.B.array if isinstance(dst, PairAB) else _as_array(dst)
        F = P.T @ B @ P - Bt
        return Bt, B, F

    if mode in ("PAE", "cE"):
        At, A, E = a_parts()
        nAt, nE = max_norm(At), max_norm(E)
        detAt, detA = _det(At), _det(A)
        singular = _is_singular(detAt, nAt)
        if mode == "PAE":
            limit = 1.0 if singular else min(abs(detAt) / (8 * nAt + 4), 1.0)
            if nE > limit:
                return _short_circuit(mode)
            observed = abs(math.sqrt(abs(detA)) * abs(detP)
                           - math.sqrt(abs(detAt)))
            if singular:
                bound = math.sqrt(nE * (4 * nAt + 2))
            else:
                bound = nE * (4 * nAt + 2) / abs(detAt)
        else:  # cE: both components nonsingular
            if singular or _is_singular(detA, max_norm(A)):
                return _short_circuit(mode)
            limit = min(abs(detAt) / (8 * nAt + 4), 1.0)
            if nE > limit:
                return _short_circuit(mode)
            delta = cmath.phase(detAt / detA)
            observed = min(abs(c - cmath.exp(1j * delta / 2)),
                           abs(c + cmath.exp(1j * delta / 2)))
            bound = nE * (8 * nAt + 4) / abs(detAt)
        return BoundReport(True, bound, observed, bound - observed, name=mode)

    if mode == "PBF":
        Bt, B, F = b_parts()
        nBt, nB, nF = max_norm(Bt), max_norm(B), max_norm(F)
        detBt, detB = _det(Bt), _det(B)
        singular = _is_singular(detBt, nBt)
        limit = 1.0 if singular else min(abs(detBt) / (4 * nB + 2), 1.0)
        if nF > limit:
            return _short_circuit(mode)
        lhs = cmath.sqrt(detB) * detP
        rhs = cmath.sqrt(detBt)
        observed = min(abs(lhs - rhs), abs(lhs + rhs))
        if singular:
            bound = math.sqrt(nF * (4 * nBt + 2))
        else:
            bound = nF * (4 * nBt + 2) / abs(detBt)
        return BoundReport(True, bound, observed, bound - observed, name=mode)

    # part3
    if not (isinstance(src, PairAB) and isinstance(dst, PairAB)):
        raise TypeError("mode part3 needs full pairs")
    At, A, E = a_parts()
    Bt, B, F = b_parts()
    nAt, nE, nF = max_norm(At), max_norm(E), max_norm(F)
    detAt, detA = _det(At), _det(A)
    detBt, detB = _det(Bt), _det(B)
    if _is_singular(detAt, nAt) or _is_singular(detA, max_norm(A)):
        return _short_circuit(mode)
    inv_norm = max_norm(np.linalg.inv(At))
    limit = min(1.0, 1.0 / inv_norm, abs(detAt) / (8 * nAt + 4))
    if nE > limit:
        return _short_circuit(mode)
    observed = abs(abs(detAt * detB) - abs(detBt * detA))
    big = max(nAt, max_norm(Bt), abs(detAt), abs(detBt))
    bound = (max(nE, nF) * (abs(detA) / abs(detAt)) * (4 * big + 2) ** 2)
    return BoundReport(True, bound, observed, bound - observed, name=mode)


def _rand_full(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2))
                    + 1j * rng.standard_normal((2, 2)))


def _rand_sym_mat(rng, scale=1.0):
    M = _rand_full(rng, scale)
    return (M + M.T) / 2


def sample_detxe_case(rng) -> BoundReport:
    """One random determinant-perturbation check (norms up to ~10)."""
    X = _rand_full(rng, rng.uniform(0.0, 5.0))
    D = _rand_full(rng, rng.uniform(0.0, 5.0))
    return detxe_bound(X, D)


def sample_lemadet_case(mode: str, rng) -> tuple[BoundReport, int]:
    """One random in-hypothesis check of the given mode, and the number of
    draws it took.  The defect is planted by construction, so the
    hypothesis holds up to resampling: a draw outside it is redrawn, up to
    20 draws in all."""
    for attempts in range(1, 21):
        c, P = sample_group_element(rng)
        Pi = np.linalg.inv(P)
        if mode in ("PAE", "cE"):
            At = _rand_full(rng)
            limit = min(abs(_det(At)) / (8 * max_norm(At) + 4), 1.0)
            E = _rand_full(rng)
            E *= rng.uniform(0.05, 0.95) * limit / max_norm(E)
            A = (1 / c) * Pi.conj().T @ (At + E) @ Pi
            rep = lemadet_verify(Mat2(At), Mat2(A), GroupElement(c, Mat2(P)),
                                 mode)
        elif mode == "PBF":
            Bt = _rand_sym_mat(rng)
            F = _rand_sym_mat(rng)
            limit = min(abs(_det(Bt)) / 6.0, 1.0)
            F *= rng.uniform(0.05, 0.5) * limit / max_norm(F)
            B = Pi.T @ (Bt + F) @ Pi
            rep = lemadet_verify(SymMat2.from_array(Bt), SymMat2.from_array(B),
                                 GroupElement(c, Mat2(P)), mode)
        elif mode == "part3":
            At, Bt = _rand_full(rng), _rand_sym_mat(rng)
            limit = min(1.0, 1.0 / max_norm(np.linalg.inv(At)),
                        abs(_det(At)) / (8 * max_norm(At) + 4))
            E = _rand_full(rng)
            E *= rng.uniform(0.05, 0.95) * limit / max_norm(E)
            F = _rand_sym_mat(rng)
            F *= rng.uniform(0.01, 0.3) / max_norm(F)
            A = (1 / c) * Pi.conj().T @ (At + E) @ Pi
            B = Pi.T @ (Bt + F) @ Pi
            rep = lemadet_verify(
                PairAB(Mat2(At), SymMat2.from_array(Bt)),
                PairAB(Mat2(A), SymMat2.from_array(B)),
                GroupElement(c, Mat2(P)), mode)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if rep.hypothesis_ok:
            return rep, attempts
    return rep, attempts  # give up; caller sees hypothesis_ok=False


# ---------------------------------------------------------------------------
# tabulated necessary conditions, first component (rows C1..C12)

def _close(z, w, tol=_MATCH_TOL) -> bool:
    return abs(complex(z) - complex(w)) <= tol


def _match_alpha_diag0(M):
    """alpha (+) 0 with alpha in {0, 1}, else None."""
    if not (_close(M[0, 1], 0) and _close(M[1, 0], 0) and _close(M[1, 1], 0)):
        return None
    for alpha in (0.0, 1.0):
        if _close(M[0, 0], alpha):
            return alpha
    return None


def _match_one_theta(M, lo=0.0, hi=math.pi, closed=False):
    """diag(1, e^{i theta}) with theta in the stated range, else None."""
    if not (_close(M[0, 1], 0) and _close(M[1, 0], 0) and _close(M[0, 0], 1)):
        return None
    z = complex(M[1, 1])
    if abs(abs(z) - 1.0) > _MATCH_TOL:
        return None
    th = cmath.phase(z)
    pad = 0.0 if closed else _MATCH_TOL
    if lo + pad <= th <= hi - pad:
        return th
    return None


def _match_swap_omega(M, allowed=(0.0, 1j)):
    """[[0,1],[1,omega]] with omega in ``allowed``, else None."""
    if not (_close(M[0, 0], 0) and _close(M[0, 1], 1) and _close(M[1, 0], 1)):
        return None
    for om in allowed:
        if _close(M[1, 1], om):
            return om
    return None


def _match_tau(M, lo_open=False):
    """[[0,1],[tau,0]] with 0 <= tau < 1 (strictly positive if asked)."""
    if not (_close(M[0, 0], 0) and _close(M[0, 1], 1) and _close(M[1, 1], 0)):
        return None
    t = complex(M[1, 0])
    if abs(t.imag) > _MATCH_TOL:
        return None
    tau = t.real
    if -_MATCH_TOL <= tau < 1.0 - _MATCH_TOL:
        if lo_open and tau <= _MATCH_TOL:
            return None
        return max(tau, 0.0)
    return None


def _match_sym_discrete(M, combos):
    """[[alpha,beta],[beta,omega]] against a list of (alpha, beta, omega)."""
    if not _close(M[0, 1], M[1, 0]):
        return None
    for alpha, beta, omega in combos:
        if (_close(M[0, 0], alpha) and _close(M[0, 1], beta)
                and _close(M[1, 1], omega)):
            return (alpha, beta, omega)
    return None


def _match_diag_sign(M):
    """diag(1, sigma), sigma in {1,-1}, else None."""
    if not (_close(M[0, 1], 0) and _close(M[1, 0], 0) and _close(M[0, 0], 1)):
        return None
    for s in (1.0, -1.0):
        if _close(M[1, 1], s):
            return s
    return None


def _mismatch(row, what):
    raise ValueError(f"row {row}: {what} does not match the row's types")


def table3_residuals(row: str, A_tilde, A, c, P) -> list:
    """Moduli of the tabulated residual expressions for one closure-graph
    row, minimizing jointly over the discrete sign index k in {0, 1}
    (only its parity matters)."""
    At, Am = _as_array(A_tilde), _as_array(A)
    Pm = _as_array(P)
    c = complex(c)
    if abs(abs(c) - 1.0) > 1e-9:
        raise ValidationError("c must be unimodular")
    x, y = complex(Pm[0, 0]), complex(Pm[0, 1])
    u, v = complex(Pm[1, 0]), complex(Pm[1, 1])
    xc, yc, uc, vc = x.conjugate(), y.conjugate(), u.conjugate(), v.conjugate()
    row = str(row)

    def best_over_k(fn, ks=(0, 1)):
        cands = [[abs(e) for e in fn((-1.0) ** k)] for k in ks]
        return min(cands, key=max)

    if row == "C1":
        alpha = _match_alpha_diag0(At)
        if alpha is None or not np.allclose(Am, np.eye(2), atol=_MATCH_TOL):
            _mismatch(row, "(alpha(+)0, I2)")
        return [abs(abs(x) ** 2 + abs(u) ** 2 - alpha / c),
                abs(y * y), abs(v * v)]

    if row == "C2":
        alpha = _match_alpha_diag0(At)
        th = _match_one_theta(Am)
        if alpha is None or th is None:
            _mismatch(row, "(alpha(+)0, diag(1,e^{i theta}))")
        e = cmath.exp(1j * th)
        return [abs(abs(x) ** 2 + e * abs(u) ** 2 - alpha / c),
                abs(abs(y) ** 2 + e * abs(v) ** 2),
                abs(math.sin(th) * abs(uc * v)),
                abs(xc * y + math.cos(th) * uc * v)]

    if row == "C3":
        om = _match_swap_omega(At)
        th = _match_one_theta(Am)
        if om is None or th is None:
            _mismatch(row, "([[0,1],[1,omega]], diag(1,e^{i theta}))")
        s = math.sin(th)

        def exprs(sign):
            out = [abs(x) ** 2 - abs(u) ** 2, abs(y) ** 2 - abs(v) ** 2,
                   xc * y - uc * v - sign, abs(s)]
            return out

        if om == 0:
            return best_over_k(exprs)
        vals = exprs(1.0)  # k = 0 in this branch
        vals += [s * abs(v) ** 2 - 1.0, s * abs(u) ** 2]
        return [abs(e) for e in vals]

    if row == "C4":
        alpha = _match_alpha_diag0(At)
        tau = _match_tau(Am)
        if alpha is None or tau is None:
            _mismatch(row, "(alpha(+)0, [[0,1],[tau,0]])")
        return [abs((yc * v).real), abs((1 - tau) * (yc * v).imag),
                abs(xc * v), abs(uc * y),
                abs((1 + tau) * (xc * u).real
                    + 1j * (1 - tau) * (xc * u).imag - alpha / c)]

    if row == "C5":
        om = _match_swap_omega(At)
        tau = _match_tau(Am, lo_open=True)
        if om is None or tau is None:
            _mismatch(row, "([[0,1],[1,omega]], [[0,1],[tau,0]])")

        def exprs(sign):
            return [(xc * u).real, (1 - tau) * (xc * u).imag,
                    (1 - tau) ** 2, xc * v + uc * y - sign,
                    (1 + tau) * (yc * v).real
                    + 1j * (1 - tau) * (yc * v).imag - sign * om]

        return best_over_k(exprs)

    if row == "C6":
        combos = [(0.0, 1.0, 0.0)]
        for alpha in (0.0, 1.0):
            for omega in {0.0, alpha, -alpha}:
                combos.append((alpha, 0.0, omega))
        data = _match_sym_discrete(At, combos)
        if data is None or _match_swap_omega(Am, allowed=(0.0,)) is None:
            _mismatch(row, "([[alpha,beta],[beta,omega]], [[0,1],[1,0]])")
        alpha, beta, omega = data

        def exprs(sign):
            return [2 * (yc * v).real - sign * omega,
                    2 * (xc * u).real - sign * alpha,
                    (xc * v + uc * y) - sign * beta]

        return best_over_k(exprs)

    if row == "C7":
        alpha = _match_alpha_diag0(At)
        if alpha is None or _match_swap_omega(Am, allowed=(1j,)) is None:
            _mismatch(row, "(alpha(+)0, [[0,1],[1,i]])")
        return [abs(xc * v + uc * y), abs(uc * v), abs((yc * u).real),
                abs(v * v),
                abs(2 * (xc * u).real + 1j * abs(u) ** 2 - alpha / c)]

    if row == "C8":
        tht = _match_one_theta(At)
        th = _match_one_theta(Am)
        if tht is None or th is None:
            _mismatch(row, "(diag(1,e^{i theta~}), diag(1,e^{i theta}))")
        return [abs(u * u), abs(y * y), abs(abs(x) ** 2 - 1),
                abs(abs(v) ** 2 - 1)]

    if row == "C9":
        combos = [(0.0, 1.0, 0.0), (0.0, 1.0, 1j),
                  (0.0, 0.0, 0.0), (1.0, 0.0, -1.0)]
        data = _match_sym_discrete(At, combos)
        if data is None or _match_swap_omega(Am, allowed=(1j,)) is None:
            _mismatch(row, "([[alpha,beta],[beta,omega]], [[0,1],[1,i]])")
        alpha, beta, omega = data
        omega = complex(omega)

        def exprs(sign):
            return [2 * (xc * u).real - sign * alpha,
                    2 * (yc * v).real - sign * omega.real,
                    xc * v + uc * y - sign * beta,
                    u * u, abs(v) ** 2 - sign * omega.imag]

        return best_over_k(exprs)

    if row == "C10":
        taut = _match_tau(At)
        tau = _match_tau(Am)
        if taut is None or tau is None:
            _mismatch(row, "([[0,1],[tau~,0]], [[0,1],[tau,0]])")
        if not (tau > 0 or (tau == 0 and taut == 0)):
            _mismatch(row, "tau range")
        out = [abs(xc * u), abs(yc * v), abs(yc * u), abs(vc * x - 1.0 / c)]
        if tau > 0:
            out.append(min(abs(c - 1.0), abs(c + 1.0)))
        return out

    if row == "C11":
        sigma = _match_diag_sign(Am)
        if sigma is None:
            _mismatch(row, "second component diag(1,sigma)")
        combos = [(1.0, 0.0, sigma), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)]
        data = _match_sym_discrete(At, combos)
        if data is None:
            _mismatch(row, "first argument diag(alpha,omega)")
        alpha, _, omega = data
        out = [abs(abs(x) ** 2 + sigma * abs(u) ** 2 - alpha / c),
               abs(xc * y + sigma * uc * v),
               abs(abs(y) ** 2 + sigma * abs(v) ** 2 - sigma * omega / c)]
        if alpha == 1.0 and omega == sigma:
            if sigma == 1.0:
                out.append(abs(c - 1.0))
            else:
                out.append(min(abs(c - 1.0), abs(c + 1.0)))
        return out

    if row == "C12":
        if (_match_sym_discrete(At, [(0.0, 1.0, 0.0)]) is None
                or _match_diag_sign(Am) != -1.0):
            _mismatch(row, "([[0,1],[1,0]], diag(1,-1))")

        def exprs(sign):
            return [xc * y - uc * v - sign,
                    abs(x) ** 2 - abs(u) ** 2, abs(y) ** 2 - abs(v) ** 2]

        return best_over_k(exprs)

    # two further printed rows fall outside the C1..C12 indexing; they are
    # kept available under suffixed names (see the provenance notes)
    if row == "C12a":
        sigma_t = _match_diag_sign(At)
        th = _match_one_theta(Am, closed=True)
        if sigma_t is None or th is None:
            _mismatch(row, "(diag(1,sigma), diag(1,e^{i theta}))")
        ks = (0,) if sigma_t == 1.0 else (0, 1)

        def exprs(sign):
            return [abs(x) ** 2 + sigma_t * abs(u) ** 2 - sign,
                    xc * y + sigma_t * uc * v,
                    abs(y) ** 2 + sigma_t * abs(v) ** 2 - sign,
                    c - sign]

        return best_over_k(exprs, ks=ks)

    if row == "C12b":
        alpha = _match_alpha_diag0(At)
        if alpha is None or not np.allclose(Am, np.diag([1.0, 0.0]),
                                            atol=_MATCH_TOL):
            _mismatch(row, "(alpha(+)0, diag(1,0))")
        out = [abs(y * y), abs(abs(x) ** 2 - alpha)]
        if alpha == 1.0:
            E = c * Pm.conj().T @ Am @ Pm - At
            if max_norm(E) <= 0.5:
                out.append(abs(c - 1.0))
        return out

    raise ValueError(f"unknown row {row!r}")


# ---------------------------------------------------------------------------
# tabulated necessary conditions, second component (rows D1..D5)

def _shape_of_d_row(row, B):
    """Extract the shape data (a, b, d as applicable) or complain."""
    a, b, d = complex(B[0, 0]), complex(B[0, 1]), complex(B[1, 1])
    if not _close(B[0, 1], B[1, 0]):
        _mismatch(row, "second component not symmetric")
    if row == "D1":   # [[0,b],[b,d]]
        if not _close(a, 0) or _close(b, 0):
            _mismatch(row, "[[0,b],[b,d]]")
        return {"b": b, "rank": 2}
    if row == "D2":   # [[a,b],[b,0]]
        if not _close(d, 0) or _close(b, 0):
            _mismatch(row, "[[a,b],[b,0]]")
        return {"b": b, "rank": 2}
    if row == "D3":   # 0 (+) d
        if not (_close(a, 0) and _close(b, 0)) or _close(d, 0):
            _mismatch(row, "0(+)d")
        return {"rank": 1}
    if row == "D4":   # [[0,b],[b,0]]
        if not (_close(a, 0) and _close(d, 0)) or _close(b, 0):
            _mismatch(row, "[[0,b],[b,0]]")
        return {"b": b, "rank": 2}
    if row == "D5":   # a (+) 0
        if not (_close(b, 0) and _close(d, 0)) or _close(a, 0):
            _mismatch(row, "a(+)0")
        return {"rank": 1}
    raise ValueError(f"unknown row {row!r}")


def _numeric_rank(M, tol=1e-9):
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] <= tol:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def table4_residuals(row: str, B_tilde, B, P, F=None) -> BoundReport:
    """Defects of the tabulated congruence equations for one row of the
    symmetric-component table, minimizing over the sign index l, compared
    with the printed allowance on the auxiliary off-diagonal terms."""
    row = str(row)
    Bt, Bm, Pm = _as_array(B_tilde), _as_array(B), _as_array(P)
    info = _shape_of_d_row(row, Bm)
    if F is None:
        Fm = Pm.T @ Bm @ Pm - Bt
    else:
        Fm = _as_array(F)
    at, bt, dt = complex(Bt[0, 0]), complex(Bt[0, 1]), complex(Bt[1, 1])
    e1, e2, e4 = complex(Fm[0, 0]), complex(Fm[0, 1]), complex(Fm[1, 1])
    x, y = complex(Pm[0, 0]), complex(Pm[0, 1])
    u, v = complex(Pm[1, 0]), complex(Pm[1, 1])
    nF, nBt = max_norm(Fm), max_norm(Bt)
    detBt = _det(Bt)
    if _is_singular(detBt, nBt):
        bound = math.sqrt(nF * (4 * nBt + 3))
    else:
        bound = nF * (4 * nBt + 2 + abs(detBt)) / abs(detBt)
    hyp = _numeric_rank(Bt) <= info["rank"]
    root = cmath.sqrt(detBt)

    def needed(defect, coef):
        if coef <= 1e-14:
            return 0.0 if abs(defect) <= 1e-12 else float("inf")
        return abs(defect) / coef

    if row in ("D1", "D2", "D4"):
        best = float("inf")
        for el in (0, 1):
            t = 1j * (-1.0) ** el * root
            if row == "D1":
                o = max(needed(v * (at + e1) - u * (t + bt), abs(u)),
                        needed(u * (dt + e4) - v * (-t + bt), abs(v)))
            elif row == "D2":
                o = max(needed(x * (dt + e4) - y * (t + bt), abs(y)),
                        needed(y * (at + e1) - x * (-t + bt), abs(x)))
            else:  # D4
                b = info["b"]
                o = max(abs(2 * b * v * x - (t + bt)),
                        abs(2 * b * u * y - (-t + bt)))
            best = min(best, o)
        observed = best
    elif row == "D3":
        observed = max(abs(u * (bt + e2) - v * (at + e1)),
                       abs(v * (bt + e2) - u * (dt + e4)))
    else:  # D5
        observed = max(abs(y * (bt + e2) - x * (dt + e4)),
                       abs(x * (bt + e2) - y * (at + e1)))
    return BoundReport(hyp, bound, observed, bound - observed, name=row)


# ---------------------------------------------------------------------------
# distance-to-bundle optimization

def sample_group_element(rng, cond_max: float = 1e3, spread: float = 1.0):
    """Random (c, P) with P of bounded condition number."""
    phi = rng.uniform(0.0, 2 * math.pi)
    while True:
        P = (np.eye(2)
             + spread * (rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2))) / math.sqrt(2))
        if abs(_det(P)) > 1e-9 and np.linalg.cond(P) <= cond_max:
            break
    return cmath.exp(1j * phi), P


def _param_coords(fields, params):
    out = []
    for f in fields:
        val = getattr(params, f)
        if f in _COMPLEX_FIELDS:
            out.extend([complex(val).real, complex(val).imag])
        else:
            out.append(float(val))
    return out


def _coords_to_params(fields, coords):
    kw = {}
    i = 0
    for f in fields:
        if f in _COMPLEX_FIELDS:
            kw[f] = complex(coords[i], coords[i + 1])
            i += 2
        else:
            kw[f] = float(coords[i])
            i += 1
    return BundleParams(**kw)


def _distance_kernel(x: PairAB, target: BundleLabel, norm: str):
    """(objective, surrogate) of ``distance_to_bundle`` as functions of the
    search vector (phase of c, the 8 real entries of P, the coordinates of
    the target's free parameters).

    Both are inf where |det P| < 1e-12 or the parameters leave the
    target's domain.  Each evaluation multiplies Python complex scalars in the
    association ((c P*) A) P - xA and (P^T B) P - xB.  The target's
    representative is memoised on its parameter coordinates, since the
    search moves c and P far more often than the parameters; a miss goes
    through ``validate_params`` and ``representative``.
    """
    if norm not in ("max", "spectral"):
        raise ValidationError(f"unknown norm {norm!r}")
    fields = param_fields(target)
    x00, x01, x10, x11 = (complex(z) for z in x.A.array.ravel())
    y00, y01, y10, y11 = (complex(z) for z in x.B.array.ravel())

    @functools.lru_cache(maxsize=8)
    def target_entries(coords):
        params = _coords_to_params(fields, coords)
        if validate_params(target, params):
            return None
        rep = representative(target, params)
        return tuple(complex(z) for z in (*rep.A.array.ravel(),
                                          *rep.B.array.ravel()))

    def moved(vec):
        """The 4 + 4 entries of the moved target minus x, or None."""
        p00, p01 = complex(vec[1], vec[2]), complex(vec[3], vec[4])
        p10, p11 = complex(vec[5], vec[6]), complex(vec[7], vec[8])
        if abs(p00 * p11 - p01 * p10) < 1e-12:
            return None
        entries = target_entries(tuple(vec[9:]))
        if entries is None:
            return None
        a00, a01, a10, a11, b00, b01, b10, b11 = entries
        c = cmath.exp(1j * vec[0])
        # c P*
        s00, s01 = c * p00.conjugate(), c * p10.conjugate()
        s10, s11 = c * p01.conjugate(), c * p11.conjugate()
        # (c P*) A
        t00, t01 = s00 * a00 + s01 * a10, s00 * a01 + s01 * a11
        t10, t11 = s10 * a00 + s11 * a10, s10 * a01 + s11 * a11
        # P^T B
        u00, u01 = p00 * b00 + p10 * b10, p00 * b01 + p10 * b11
        u10, u11 = p01 * b00 + p11 * b10, p01 * b01 + p11 * b11
        return (t00 * p00 + t01 * p10 - x00, t00 * p01 + t01 * p11 - x01,
                t10 * p00 + t11 * p10 - x10, t10 * p01 + t11 * p11 - x11,
                u00 * p00 + u01 * p10 - y00, u00 * p01 + u01 * p11 - y01,
                u10 * p00 + u11 * p10 - y10, u10 * p01 + u11 * p11 - y11)

    if norm == "max":
        def objective(vec):
            d = moved(vec)
            return math.inf if d is None else max(map(abs, d))
    else:
        def objective(vec):
            d = moved(vec)
            if d is None:
                return math.inf
            return max(_spectral_norm(*d[:4]), _spectral_norm(*d[4:]))

    def surrogate(vec):
        # smooth stand-in for the nonsmooth max-norm; coordinate descent
        # stalls far less often on it
        d = moved(vec)
        if d is None:
            return math.inf
        return sum(z.real * z.real + z.imag * z.imag for z in d)

    return objective, surrogate


def distance_to_bundle(x: PairAB, target: BundleLabel, budget: int = 32,
                       seed: int = 0, *, starts=(), norm: str = "max"):
    """Upper bound on the distance from a pair to a bundle.

    Random-restart pattern search over (phase of c, the 8 real entries of
    P, the bundle's free parameters); deterministic for a given seed.
    Optional warm ``starts`` are (GroupElement, BundleParams) feasible
    points tried before the random restarts.  ``norm`` selects the gauge
    of the reported distance: "max" (entrywise, the default used
    everywhere else) or "spectral" (largest singular value, the gauge in
    which the rank-drop separation constant of the symmetric component is
    sharp; see the provenance notes on the non-edge floors).

    Each evaluation runs in Python complex scalars (``_distance_kernel``):
    the target's representative is memoised on the parameter coordinates,
    so ``representative`` runs only when the search moves a parameter,
    and the spectral gauge uses the closed-form largest singular value of
    a 2x2 matrix.
    """
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    objective, surrogate = _distance_kernel(x, target, norm)
    fields = param_fields(target)

    def search(vec, fn, max_sweeps=25):
        vec = list(vec)
        val = fn(vec)
        step = 0.5
        while step >= 1e-9:
            for _ in range(max_sweeps):
                improved = False
                for i in range(len(vec)):
                    for sgn in (1.0, -1.0):
                        trial = list(vec)
                        trial[i] += sgn * step
                        tv = fn(trial)
                        if tv < val:
                            vec, val = trial, tv
                            improved = True
                if not improved:
                    break
            step *= 0.5
        return val, vec

    def encode(c, P, params):
        return ([cmath.phase(complex(c))]
                + [w for z in np.asarray(P).ravel()
                   for w in (z.real, z.imag)]
                + _param_coords(fields, params))

    inits = []
    for g, params in starts:
        inits.append(encode(g.c, _as_array(g.P), params))
    inits.append(encode(1.0, np.eye(2), generic_params(target)))
    for r in range(1, budget):
        rng = np.random.default_rng([seed, r])
        c, P = sample_group_element(rng, spread=0.7)
        params = generic_params(target)
        kw = {}
        for f in fields:
            val = getattr(params, f)
            if f in _COMPLEX_FIELDS:
                kw[f] = complex(val) * (1 + 0.5 * rng.standard_normal()) \
                    + 0.5j * rng.standard_normal()
            elif f == "theta":
                kw[f] = rng.uniform(0.1, math.pi - 0.1)
            elif f == "tau":
                kw[f] = rng.uniform(0.05, 0.95)
            elif f == "phi":
                kw[f] = rng.uniform(-3.0, 3.0)
            else:
                kw[f] = float(val) * math.exp(0.7 * rng.standard_normal())
        inits.append(encode(c, P, BundleParams(**kw)))

    best_val, best_vec = float("inf"), None
    for vec in inits:
        if objective(vec) == float("inf"):
            continue
        _sv, smoothed = search(vec, surrogate)
        val, out = search(smoothed, objective)
        if val < best_val:
            best_val, best_vec = val, out
    if best_vec is None:
        raise ValidationError(f"no feasible start found for {target}")
    c = cmath.exp(1j * best_vec[0])
    P = np.array([[best_vec[1] + 1j * best_vec[2],
                   best_vec[3] + 1j * best_vec[4]],
                  [best_vec[5] + 1j * best_vec[6],
                   best_vec[7] + 1j * best_vec[8]]])
    g = GroupElement(c, Mat2(P))
    return best_val, (g, _coords_to_params(fields, best_vec[9:]))


def _quiet_is_path(src, dst) -> bool:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SuspectEdgeWarning)
        return bundle_graph().is_path(src, dst)


def nonedge_floor(src, dst: BundleLabel, budget: int = 32,
                  seed: int = 0, *, norm: str = "max") -> EmpiricalConstants:
    """Empirical lower-distance floor for a catalogued non-edge.

    ``src`` is a BundleLabel or a (BundleLabel, BundleParams) pair.  The
    floor is the best distance the optimizer finds; a floor below 1e-4
    contradicts the separation statement and is flagged prominently.
    """
    if isinstance(src, BundleLabel):
        src_label, src_params = src, generic_params(src)
    else:
        src_label, src_params = src
        if src_params is None:
            src_params = generic_params(src_label)
    if _quiet_is_path(src_label, dst):
        raise ValidationError(
            f"{src_label} -> {dst} is an edge; no separation floor exists")
    rep = representative(src_label, src_params)
    floor, _best = distance_to_bundle(rep, dst, budget=budget, seed=seed,
                                      norm=norm)
    return EmpiricalConstants(
        src=str(src_label), dst=str(dst),
        mu_estimate=math.sqrt(floor), floor=floor,
        flagged=floor < 1e-4,
        detail={"seed": seed, "budget": budget, "norm": norm})


# ---------------------------------------------------------------------------
# empirical convergence-rate constants

def nu_fit(family, row: str, s_grid=None) -> EmpiricalConstants:
    """Fit the convergence constant of a degeneration family: the largest
    ratio of a tabulated residual to sqrt of the first-component defect
    norm over the family's grid."""
    from .witnesses import default_grid, witness_eval

    grid = tuple(s_grid) if s_grid is not None else tuple(
        s for s in default_grid() if s <= family.s_max)
    src = family.source_pair()
    ratios = []
    for s in grid:
        g, _moved, _r = witness_eval(family, s)
        inst = family.target_instance_of_s(s)
        c, P = complex(g.c), g.P.array
        E = c * P.conj().T @ inst.A.array @ P - src.A.array
        nE = max_norm(E)
        res = table3_residuals(row, src.A.array, inst.A.array, c, P)
        if nE > 0:
            ratios.append(max(res) / math.sqrt(nE))
    nu = max(ratios) if ratios else None
    return EmpiricalConstants(
        src=str(family.source_label), dst=str(family.target),
        nu_estimate=nu, grid=grid, detail={"family": family.name,
                                           "row": row})


# ---------------------------------------------------------------------------
# Monte Carlo neighborhood validation

def _trial_perturbation(seed: int, t: int, epsilon: float) -> list:
    """The perturbations of trial t, in the order A00, A01, A10, A11, b11,
    b12, b22: each uniform on the disc of radius epsilon, with radius
    epsilon sqrt(u) and angle 2 pi u' from consecutive draws (u, u') of
    `default_rng([seed, t])`.  One draw of 14 doubles is the stream of 14
    scalar `uniform()` calls, and `uniform(0, 2 pi)` is 2 pi u."""
    u = np.random.default_rng([seed, t]).random(14).tolist()
    return [epsilon * math.sqrt(u[i]) * cmath.exp(1j * (2 * math.pi * u[i + 1]))
            for i in range(0, 14, 2)]


def monte_carlo_neighborhood(label: BundleLabel,
                             params: BundleParams | None,
                             epsilon: float, trials: int,
                             seed: int = 0) -> NeighborhoodReport:
    """Perturb the representative by entrywise noise uniform on the
    max-norm polydisc of radius epsilon, classify each sample, and check
    each observed label against closure reachability from the center.
    Ambiguous or failed classifications are counted separately and never
    reported as violations."""
    from .classify import (AmbiguityError, ClassificationFailureError,
                           classify_pair)

    if not (0 < epsilon <= 0.1):
        raise ValidationError("epsilon must lie in (0, 0.1]")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    params = params if params is not None else generic_params(label)
    center = representative(label, params)
    a00, a01, a10, a11 = center.A.array.ravel().tolist()
    B0 = center.B

    histogram: dict = {}
    violations: list = []
    ambiguous = failures = 0
    graph = bundle_graph()
    with warnings.catch_warnings():
        # reachability through a suspect edge still counts as reachable
        warnings.simplefilter("ignore", SuspectEdgeWarning)
        for t in range(trials):
            d = _trial_perturbation(seed, t, epsilon)
            x = PairAB(Mat2([[a00 + d[0], a01 + d[1]], [a10 + d[2], a11 + d[3]]]),
                       SymMat2(B0.a + d[4], B0.b + d[5], B0.d + d[6]))
            try:
                cls = classify_pair(x)
            except AmbiguityError:
                ambiguous += 1
                continue
            except ClassificationFailureError:
                failures += 1
                continue
            name = str(cls.label)
            histogram[name] = histogram.get(name, 0) + 1
            if cls.ambiguous:
                ambiguous += 1
                continue
            if not graph.is_path(label, cls.label):
                violations.append((t, name))
    return NeighborhoodReport(
        center=str(label), center_params=params.to_json(),
        epsilon=float(epsilon), trials=int(trials),
        histogram=histogram, violations=violations,
        ambiguous=ambiguous, failures=failures)
