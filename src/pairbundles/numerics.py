"""Numerical verification engines.

Four groups of tools:

* exact tangent-rank dimension counts for the catalogued bundles (and for
  the symmetric-part orbits alone), in integer arithmetic,
* quantitative determinant/parameter bounds with explicit hypotheses,
  reported as pass/fail margins (the lemadet modes PAE, cE and part3
  share one defect limit, `_defect_limit`, and PAE and PBF one
  square-root bound, `_sqrt_bound`),
* residual evaluation for the tabulated necessary conditions attached to
  closure-graph edges (rows C1..C12 for the first component, D1..D5 for
  the second),
* a derivative-free distance-to-bundle optimizer and a Monte Carlo
  neighborhood validator for the closure graph.

Bounds and residuals are measured in the entrywise max-norm.
`distance_to_bundle` and `nonedge_floor` measure in that norm by default
and in the spectral norm with ``norm="spectral"``.

The 2x2 arithmetic is `core`'s: the bounds, their samplers, the table
residuals, `nu_fit` and the optimizer's (c, P) encoding work on row-major
4-tuples of Python complex numbers with `core`'s determinant, product,
inverse, congruence and max-norm kernels.  The public functions accept
value types, numpy arrays and nested lists and convert them once, at the
edge, with `core._entries4`.  numpy stays where the work is not 2x2
arithmetic: the seeded RNG streams, and the ndarray `sample_group_element`
returns (it keeps a draw by `core`'s closed-form singular values, the same
decisions as numpy's condition number).  `sample_group_element`,
`distance_to_bundle` and `_trial_perturbation` import numpy themselves, so
importing this module does not load it.

`distance_to_bundle` holds the search of its seed-independent start in
``_HELD_STARTS`` (``_HELD_STARTS.clear()`` empties it), as
`_trial_perturbations` holds the Monte Carlo table, and `_trial_stage1`
the classifier's stage 1 on each trial's A-part around the last centre A
(130 KB at 200 trials; ``cache_clear()`` empties either).
"""

import cmath
import functools
import math
import struct
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .closure import bundle_graph
from .core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    ValidationError,
    _det4,
    _entries4,
    _finite4,
    _gap,
    _inv4,
    _mat4,
    _max_abs,
    _record_json,
    _singular_values,
    _spectral_norm,
    _star_congruence4,
    _transpose_congruence4,
)
from .normal_forms import (
    ANGLE_FIELDS,
    COMPLEX_FIELDS,
    GENERIC_PARAMS,
    ALabel,
    BShape,
    BundleLabel,
    BundleParams,
    _SWAP_SHAPES,
    _cis,
    _representative_A_entries,
    _representative_B_entries,
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
        return _record_json(self, "ok")


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
        return _record_json(self)


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
        return _record_json(self, "ok")


# ---------------------------------------------------------------------------
# tangent-rank dimensions, counted exactly
#
# A float is a binary rational, so the tangent directions at a representative
# are integer vectors once each one's entries share a power-of-two
# denominator.  Scaling a direction leaves the rank alone, so the
# denominators are dropped, and the rank is that of the given point exactly.

_I = (0, 1)


def _gaussian(values) -> list:
    """Complex values as (re, im) integer pairs over one common power-of-two
    denominator."""
    ratios = [x.as_integer_ratio() for z in map(complex, values)
              for x in (z.real, z.imag)]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    return list(zip(ints[::2], ints[1::2]))


def _times(w, v) -> list:
    """The integer pairs v, each multiplied by the Gaussian integer w."""
    return [(x * w[0] - y * w[1], x * w[1] + y * w[0]) for x, y in v]


def _sides(m, j, k, sign) -> list:
    """sign E_kj M + M E_jk, for the row-major integer pairs m of M: row j
    of M moved to row k, plus column j of M moved to column k."""
    out = [(0, 0)] * 4
    out[2 * k:2 * k + 2] = [(sign * x, sign * y) for x, y in m[2 * j:2 * j + 2]]
    for r in (0, 1):
        (x, y), (s, t) = out[2 * r + k], m[2 * r + j]
        out[2 * r + k] = (x + s, y + t)
    return out


def _rank(rows) -> int:
    """Real rank of rows of integer pairs, by fraction-free (Bareiss)
    elimination."""
    rows = [[x for z in row for x in z] for row in rows]
    rank, prev = 0, 1
    while rows := [row for row in rows if any(row)]:
        top = rows.pop()
        col, p = next((i, x) for i, x in enumerate(top) if x)
        rows = [[(p * x - row[col] * y) // prev for x, y in zip(row, top)]
                if row[col] else [p * x // prev for x in row] for row in rows]
        prev, rank = p, rank + 1
    return rank


def bundle_dimension_numeric(label: BundleLabel,
                             params: BundleParams | None = None) -> int:
    """Real dimension of a bundle, as the exact rank of its tangent
    directions at the representative (A, B): X*A + AX and XᵀB + BX for
    X = E_jk and iE_jk, the phase iA, and one derivative per real parameter
    direction.  A form record is affine in each parameter, and in e^{iv}
    for an angle v, so a derivative is the record at 1 minus the record at
    0, exact in floats, times i e^{iv} for an angle."""
    params = params if params is not None else generic_params(label)
    problems = validate_params(label, params)
    if problems:
        raise ValidationError("; ".join(problems))
    swap = label.b_shape in _SWAP_SHAPES

    def entries(p, e=_cis):
        """A's entries and B's, b12 twice, at the parameter dict p."""
        b11, b12, b22 = _representative_B_entries(label.b_shape, p, e)
        return (_representative_A_entries(label.a_label, p, swap, e)
                + (b11, b12, b12, b22))

    p0 = vars(params)
    e0 = entries(p0)
    base = _gaussian(_finite4(e0[:4]) + _finite4(e0[4:]))
    a, b = base[:4], base[4:]
    rows = [_times(_I, a) + [(0, 0)] * 4]
    for j, k in product((0, 1), repeat=2):
        rows.append(_sides(a, j, k, 1) + _sides(b, j, k, 1))
        rows.append(_times(_I, _sides(a, j, k, -1) + _sides(b, j, k, 1)))
    for name in param_fields(label):
        # an angle's direction is its e-coefficient times i e^{iv} (1j * z
        # is exact in floats); any other direction is taken as it is
        angle = name in ANGLE_FIELDS
        e = (lambda v: v) if angle else _cis
        w = _gaussian([1j * _cis(p0[name]) if angle else 1])[0]
        for one in ((1, 1j) if name in COMPLEX_FIELDS else (1,)):
            hi, lo = entries({**p0, name: one}, e), entries({**p0, name: 0}, e)
            rows.append(_times(w, _gaussian([h - l for h, l in zip(hi, lo)])))
    return _rank(rows)


def psi2_orbit_dimension_numeric(B: SymMat2) -> int:
    """Complex dimension of the T-congruence orbit of a symmetric matrix:
    half the exact real rank of XᵀB + BX for X = E_jk and iE_jk (its
    tangent space is a complex subspace)."""
    b = _gaussian(_finite4(_entries4(B)))
    rows = [[_sides(b, j, k, 1)[i] for i in (0, 1, 3)]
            for j, k in product((0, 1), repeat=2)]
    return _rank(rows + [_times(_I, d) for d in rows]) // 2


# ---------------------------------------------------------------------------
# determinant perturbation bounds

def _is_singular(detval: complex, norm: float) -> bool:
    return abs(detval) <= 1e-12 * max(1.0, norm * norm)


def detxe_bound(X, D) -> BoundReport:
    """|det(X+D) - det X| against the explicit perturbation bound."""
    x, d = _entries4(X), _entries4(D)
    nX, nD = _max_abs(x), _max_abs(d)
    observed = abs(_det4([s + t for s, t in zip(x, d)]) - _det4(x))
    bound = nD * (4.0 * nX + 2.0 * nD)
    return BoundReport(True, bound, observed, bound - observed, name="detxe")


def _short_circuit(mode: str) -> BoundReport:
    nan = float("nan")
    return BoundReport(False, nan, nan, nan, name=mode)


def _parts4(x) -> tuple:
    """The A- and B-part 4-tuples of a PairAB, or of bare 2x2 data, whose
    B-part averages the off-diagonal as `SymMat2.from_array` does."""
    if isinstance(x, PairAB):
        return x.A.entries, _entries4(x.B)
    m = _entries4(x)
    b = 0.5 * (m[1] + m[2])
    return m, (m[0], b, b, m[3])


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
    if mode == "part3" and not (isinstance(src, PairAB)
                                and isinstance(dst, PairAB)):
        raise TypeError("mode part3 needs full pairs")
    (at, bt), (a, b) = _parts4(src), _parts4(dst)
    return _lemadet4(mode, at, bt, a, b, complex(g.c), _entries4(g.P))


def _defect_limit(det_t, n_t) -> float:
    """The largest first-component defect max|E| that the bounds assume
    for a limit At with determinant det_t and max-norm n_t."""
    return min(abs(det_t) / (8 * n_t + 4), 1.0)


def _sqrt_bound(n_def, n_t, det_t, singular) -> float:
    """The PAE and PBF bound for a defect of max-norm n_def against a limit
    with max-norm n_t and determinant det_t: a square root at a singular
    limit, linear in the defect otherwise."""
    x = n_def * (4 * n_t + 2)
    return math.sqrt(x) if singular else x / abs(det_t)


def _first_component4(at, a, c, p) -> tuple:
    """max|At|, max|E|, det At, det A and whether At is singular."""
    nAt, detAt = _max_abs(at), _det4(at)
    return (nAt, _gap(_star_congruence4(c, p, a), at), detAt, _det4(a),
            _is_singular(detAt, nAt))


def _lemadet4(mode, at, bt, a, b, c, p) -> BoundReport:
    """`lemadet_verify` on the 4-tuples of the limit's parts (at, bt), the
    moved object's parts (a, b) and P, with E = c P* A P - At and
    F = P^T B P - Bt."""
    if mode == "PBF":
        nBt, nF = _max_abs(bt), _gap(_transpose_congruence4(p, b), bt)
        detBt = _det4(bt)
        singular = _is_singular(detBt, nBt)
        limit = 1.0 if singular else min(
            abs(detBt) / (4 * _max_abs(b) + 2), 1.0)
        if nF > limit:
            return _short_circuit(mode)
        lhs, rhs = cmath.sqrt(_det4(b)) * _det4(p), cmath.sqrt(detBt)
        observed = min(abs(lhs - rhs), abs(lhs + rhs))
        bound = _sqrt_bound(nF, nBt, detBt, singular)
        return BoundReport(True, bound, observed, bound - observed, name=mode)

    nAt, nE, detAt, detA, singular = _first_component4(at, a, c, p)
    if mode == "PAE":
        limit = 1.0 if singular else _defect_limit(detAt, nAt)
        if nE > limit:
            return _short_circuit(mode)
        observed = abs(math.sqrt(abs(detA)) * abs(_det4(p))
                       - math.sqrt(abs(detAt)))
        bound = _sqrt_bound(nE, nAt, detAt, singular)
        return BoundReport(True, bound, observed, bound - observed, name=mode)

    # cE and part3: both first components nonsingular
    if singular or _is_singular(detA, _max_abs(a)):
        return _short_circuit(mode)
    if mode == "cE":
        if nE > _defect_limit(detAt, nAt):
            return _short_circuit(mode)
        # e^{i delta / 2}, delta the phase of det At / det A
        half = cmath.exp(1j * cmath.phase(detAt / detA) / 2)
        observed = min(abs(c - half), abs(c + half))
        bound = nE * (8 * nAt + 4) / abs(detAt)
        return BoundReport(True, bound, observed, bound - observed, name=mode)

    # part3
    nBt, nF = _max_abs(bt), _gap(_transpose_congruence4(p, b), bt)
    detBt, detB = _det4(bt), _det4(b)
    if nE > min(1.0, 1.0 / _max_abs(_inv4(at)), _defect_limit(detAt, nAt)):
        return _short_circuit(mode)
    observed = abs(abs(detAt * detB) - abs(detBt * detA))
    big = max(nAt, nBt, abs(detAt), abs(detBt))
    bound = max(nE, nF) * (abs(detA) / abs(detAt)) * (4 * big + 2) ** 2
    return BoundReport(True, bound, observed, bound - observed, name=mode)


def _rand4(rng, scale=1.0) -> tuple:
    """scale (G + i H) for standard normal 2x2 G and H, as a 4-tuple: one
    draw of 8 doubles gives G's entries, then H's, the stream of two
    `standard_normal((2, 2))` calls."""
    z = rng.standard_normal(8).tolist()
    return tuple(scale * complex(re, im) for re, im in zip(z[:4], z[4:]))


def _rand_sym4(rng) -> tuple:
    """The symmetric part (M + M^T) / 2 of a `_rand4` draw M."""
    m0, m1, m2, m3 = _rand4(rng)
    b = 0.5 * (m1 + m2)
    return (m0, b, b, m3)


def _plus_defect(x, rng, draw, lo, hi, limit=1.0) -> tuple:
    """x + k M for a draw M = draw(rng), with k = uniform(lo, hi) limit /
    max|M| drawn after M, so that the defect's max-norm is k max|M|."""
    m = draw(rng)
    k = rng.uniform(lo, hi) * limit / _max_abs(m)
    return tuple(t + k * z for t, z in zip(x, m))


def sample_detxe_case(rng) -> BoundReport:
    """One random determinant-perturbation check (norms up to ~10)."""
    X = _mat4(_rand4(rng, rng.uniform(0.0, 5.0)))
    D = _mat4(_rand4(rng, rng.uniform(0.0, 5.0)))
    return detxe_bound(X, D)


def sample_lemadet_case(mode: str, rng) -> tuple[BoundReport, int]:
    """One random in-hypothesis check of the given mode, and the number of
    draws it took.  The defect is planted by construction, so the
    hypothesis holds up to resampling: a draw outside it is redrawn, up to
    20 draws in all."""
    for attempts in range(1, 21):
        c, P = sample_group_element(rng)
        p = _entries4(P)
        pi = _inv4(p)
        # the moved object is the limit plus a planted defect, moved back
        # by (1/c, P^-1)
        if mode in ("PAE", "cE"):
            at = _rand4(rng)
            limit = _defect_limit(_det4(at), _max_abs(at))
            a = _star_congruence4(1 / c, pi, _plus_defect(
                at, rng, _rand4, 0.05, 0.95, limit))
            rep = _lemadet4(mode, at, at, a, a, c, p)
        elif mode == "PBF":
            bt = _rand_sym4(rng)
            limit = min(abs(_det4(bt)) / 6.0, 1.0)
            b = _transpose_congruence4(pi, _plus_defect(
                bt, rng, _rand_sym4, 0.05, 0.5, limit))
            rep = _lemadet4(mode, bt, bt, b, b, c, p)
        elif mode == "part3":
            at, bt = _rand4(rng), _rand_sym4(rng)
            limit = min(1.0, 1.0 / _max_abs(_inv4(at)),
                        _defect_limit(_det4(at), _max_abs(at)))
            a = _star_congruence4(1 / c, pi, _plus_defect(
                at, rng, _rand4, 0.05, 0.95, limit))
            b = _transpose_congruence4(pi, _plus_defect(
                bt, rng, _rand_sym4, 0.01, 0.3))
            rep = _lemadet4(mode, at, bt, a, b, c, p)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if rep.hypothesis_ok:
            return rep, attempts
    return rep, attempts  # give up; caller sees hypothesis_ok=False


# ---------------------------------------------------------------------------
# tabulated necessary conditions, first component (rows C1..C12)

def _close(z, w, tol=_MATCH_TOL) -> bool:
    return abs(complex(z) - complex(w)) <= tol


def _allclose4(m, t) -> bool:
    """``np.allclose(m, t, atol=_MATCH_TOL)`` on 4-tuples, with numpy's
    default rtol=1e-5 kept: an entry of t equal to 1 accepts an m entry
    off by about 1e-5, far more than _MATCH_TOL."""
    return all(abs(x - y) <= _MATCH_TOL + 1e-5 * abs(y) for x, y in zip(m, t))


def _free_entry(M, free, fixed):
    """M[free] when M's other three entries, in order, are close to
    ``fixed``, else None."""
    rest = [z for j, z in enumerate(M) if j != free]
    if all(_close(z, w) for z, w in zip(rest, fixed)):
        return complex(M[free])
    return None


def _pick(z, values):
    """The first of ``values`` close to z; None if there is none or z is
    None."""
    if z is None:
        return None
    return next((w for w in values if _close(z, w)), None)


def _match_alpha_diag0(M):
    """alpha (+) 0 with alpha in {0, 1}, else None."""
    return _pick(_free_entry(M, 0, (0, 0, 0)), (0.0, 1.0))


def _match_one_theta(M, closed=False):
    """diag(1, e^{i theta}) with theta in (0, pi), or in [0, pi] if
    ``closed``, else None."""
    z = _free_entry(M, 3, (1, 0, 0))
    if z is None or abs(abs(z) - 1.0) > _MATCH_TOL:
        return None
    th = cmath.phase(z)
    pad = 0.0 if closed else _MATCH_TOL
    return th if pad <= th <= math.pi - pad else None


def _match_swap_omega(M, allowed=(0.0, 1j)):
    """[[0,1],[1,omega]] with omega in ``allowed``, else None."""
    return _pick(_free_entry(M, 3, (0, 1, 1)), allowed)


def _match_tau(M, lo_open=False):
    """[[0,1],[tau,0]] with 0 <= tau < 1 (strictly positive if asked)."""
    t = _free_entry(M, 2, (0, 1, 0))
    if t is None or abs(t.imag) > _MATCH_TOL:
        return None
    tau = t.real
    low = tau > _MATCH_TOL if lo_open else tau >= -_MATCH_TOL
    return max(tau, 0.0) if low and tau < 1.0 - _MATCH_TOL else None


def _match_sym_discrete(M, combos):
    """[[alpha,beta],[beta,omega]] against a list of (alpha, beta, omega)."""
    if not _close(M[1], M[2]):
        return None
    for alpha, beta, omega in combos:
        if (_close(M[0], alpha) and _close(M[1], beta)
                and _close(M[3], omega)):
            return (alpha, beta, omega)
    return None


def _match_diag_sign(M):
    """diag(1, sigma), sigma in {1,-1}, else None."""
    return _pick(_free_entry(M, 3, (1, 0, 0)), (1.0, -1.0))


def _fit(row, types, *matches):
    """The matches, unless one of them is None or False: then the row's
    types do not fit.  A match of 0.0 fits."""
    if any(m is None or m is False for m in matches):
        raise ValueError(f"row {row}: {types} does not match the row's types")
    return matches


def table3_residuals(row: str, A_tilde, A, c, P) -> list:
    """Moduli of the tabulated residual expressions for one closure-graph
    row, minimizing jointly over the discrete sign index k in {0, 1}
    (only its parity matters)."""
    At, Am, p = _entries4(A_tilde), _entries4(A), _entries4(P)
    c = complex(c)
    if abs(abs(c) - 1.0) > 1e-9:
        raise ValidationError("c must be unimodular")
    x, y, u, v = p
    xc, yc, uc, vc = x.conjugate(), y.conjugate(), u.conjugate(), v.conjugate()
    row = str(row)

    def best_over_k(fn, ks=(0, 1)):
        cands = [[abs(e) for e in fn((-1.0) ** k)] for k in ks]
        return min(cands, key=max)

    if row == "C1":
        alpha, _ = _fit(row, "(alpha(+)0, I2)", _match_alpha_diag0(At),
                        _allclose4(Am, (1.0, 0.0, 0.0, 1.0)))
        return [abs(abs(x) ** 2 + abs(u) ** 2 - alpha / c),
                abs(y * y), abs(v * v)]

    if row == "C2":
        alpha, th = _fit(row, "(alpha(+)0, diag(1,e^{i theta}))",
                         _match_alpha_diag0(At), _match_one_theta(Am))
        e = cmath.exp(1j * th)
        return [abs(abs(x) ** 2 + e * abs(u) ** 2 - alpha / c),
                abs(abs(y) ** 2 + e * abs(v) ** 2),
                abs(math.sin(th) * abs(uc * v)),
                abs(xc * y + math.cos(th) * uc * v)]

    if row == "C3":
        om, th = _fit(row, "([[0,1],[1,omega]], diag(1,e^{i theta}))",
                      _match_swap_omega(At), _match_one_theta(Am))
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
        alpha, tau = _fit(row, "(alpha(+)0, [[0,1],[tau,0]])",
                          _match_alpha_diag0(At), _match_tau(Am))
        return [abs((yc * v).real), abs((1 - tau) * (yc * v).imag),
                abs(xc * v), abs(uc * y),
                abs((1 + tau) * (xc * u).real
                    + 1j * (1 - tau) * (xc * u).imag - alpha / c)]

    if row == "C5":
        om, tau = _fit(row, "([[0,1],[1,omega]], [[0,1],[tau,0]])",
                       _match_swap_omega(At), _match_tau(Am, lo_open=True))

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
        (alpha, beta, omega), _ = _fit(
            row, "([[alpha,beta],[beta,omega]], [[0,1],[1,0]])",
            _match_sym_discrete(At, combos),
            _match_swap_omega(Am, allowed=(0.0,)))

        def exprs(sign):
            return [2 * (yc * v).real - sign * omega,
                    2 * (xc * u).real - sign * alpha,
                    (xc * v + uc * y) - sign * beta]

        return best_over_k(exprs)

    if row == "C7":
        alpha, _ = _fit(row, "(alpha(+)0, [[0,1],[1,i]])",
                        _match_alpha_diag0(At),
                        _match_swap_omega(Am, allowed=(1j,)))
        return [abs(xc * v + uc * y), abs(uc * v), abs((yc * u).real),
                abs(v * v),
                abs(2 * (xc * u).real + 1j * abs(u) ** 2 - alpha / c)]

    if row == "C8":
        _fit(row, "(diag(1,e^{i theta~}), diag(1,e^{i theta}))",
             _match_one_theta(At), _match_one_theta(Am))
        return [abs(u * u), abs(y * y), abs(abs(x) ** 2 - 1),
                abs(abs(v) ** 2 - 1)]

    if row == "C9":
        combos = [(0.0, 1.0, 0.0), (0.0, 1.0, 1j),
                  (0.0, 0.0, 0.0), (1.0, 0.0, -1.0)]
        (alpha, beta, omega), _ = _fit(
            row, "([[alpha,beta],[beta,omega]], [[0,1],[1,i]])",
            _match_sym_discrete(At, combos),
            _match_swap_omega(Am, allowed=(1j,)))
        omega = complex(omega)

        def exprs(sign):
            return [2 * (xc * u).real - sign * alpha,
                    2 * (yc * v).real - sign * omega.real,
                    xc * v + uc * y - sign * beta,
                    u * u, abs(v) ** 2 - sign * omega.imag]

        return best_over_k(exprs)

    if row == "C10":
        taut, tau = _fit(row, "([[0,1],[tau~,0]], [[0,1],[tau,0]])",
                         _match_tau(At), _match_tau(Am))
        _fit(row, "tau range", tau > 0 or (tau == 0 and taut == 0))
        out = [abs(xc * u), abs(yc * v), abs(yc * u), abs(vc * x - 1.0 / c)]
        if tau > 0:
            out.append(min(abs(c - 1.0), abs(c + 1.0)))
        return out

    if row == "C11":
        sigma = _fit(row, "second component diag(1,sigma)",
                     _match_diag_sign(Am))[0]
        combos = [(1.0, 0.0, sigma), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)]
        alpha, _, omega = _fit(row, "first argument diag(alpha,omega)",
                               _match_sym_discrete(At, combos))[0]
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
        _fit(row, "([[0,1],[1,0]], diag(1,-1))",
             _match_sym_discrete(At, [(0.0, 1.0, 0.0)]),
             _match_diag_sign(Am) == -1.0)

        def exprs(sign):
            return [xc * y - uc * v - sign,
                    abs(x) ** 2 - abs(u) ** 2, abs(y) ** 2 - abs(v) ** 2]

        return best_over_k(exprs)

    # two further printed rows fall outside the C1..C12 indexing; they are
    # kept available under suffixed names (see the provenance notes)
    if row == "C12a":
        sigma_t, _ = _fit(row, "(diag(1,sigma), diag(1,e^{i theta}))",
                          _match_diag_sign(At),
                          _match_one_theta(Am, closed=True))
        ks = (0,) if sigma_t == 1.0 else (0, 1)

        # c P* A P = A~ with c = sign: the (2,2) entry gives
        # |y|^2 + sigma~ |v|^2 = sigma~ / c = sigma~ * sign.  Subtracting
        # sign alone would leave 2 at every exact move of diag(1, -1) onto
        # itself, such as (c, P) = (1, I) or (-1, [[0,1],[1,0]]); for
        # sigma~ = +1 the two are the same number.
        def exprs(sign):
            return [abs(x) ** 2 + sigma_t * abs(u) ** 2 - sign,
                    xc * y + sigma_t * uc * v,
                    abs(y) ** 2 + sigma_t * abs(v) ** 2 - sigma_t * sign,
                    c - sign]

        return best_over_k(exprs, ks=ks)

    if row == "C12b":
        alpha, _ = _fit(row, "(alpha(+)0, diag(1,0))", _match_alpha_diag0(At),
                        _allclose4(Am, (1.0, 0.0, 0.0, 0.0)))
        out = [abs(y * y), abs(abs(x) ** 2 - alpha)]
        if alpha == 1.0:
            if _gap(_star_congruence4(c, p, Am), At) <= 0.5:
                out.append(abs(c - 1.0))
        return out

    raise ValueError(f"unknown row {row!r}")


# ---------------------------------------------------------------------------
# tabulated necessary conditions, second component (rows D1..D5)

# each row's shape of B: its text, the entries (row-major) that vanish, the
# entry that does not, and the rank bound on the limit B~
_D_SHAPES = {
    "D1": ("[[0,b],[b,d]]", (0,), 1, 2),
    "D2": ("[[a,b],[b,0]]", (3,), 1, 2),
    "D3": ("0(+)d", (0, 1), 3, 1),
    "D4": ("[[0,b],[b,0]]", (0, 3), 1, 2),
    "D5": ("a(+)0", (1, 3), 0, 1),
}


def _shape_of_d_row(row, B):
    """The rank bound of the row's shape, once B is checked to have it."""
    _fit(row, "second component not symmetric", _close(B[1], B[2]))
    if row not in _D_SHAPES:
        raise ValueError(f"unknown row {row!r}")
    text, zero, nonzero, rank = _D_SHAPES[row]
    _fit(row, text, all(_close(B[j], 0) for j in zero)
         and not _close(B[nonzero], 0))
    return rank


def table4_residuals(row: str, B_tilde, B, P, F=None) -> BoundReport:
    """Defects of the tabulated congruence equations for one row of the
    symmetric-component table, minimizing over the sign index l, compared
    with the printed allowance on the auxiliary off-diagonal terms.

    The allowance is at least 64 ulps of max(1, |P|)^3 max(|B~|, |B|, |F|),
    the rounding of the observed defects, so that an exact congruence
    (F = 0, printed allowance 0) is not failed by its rounding."""
    row = str(row)
    Bt, Bm, p = _entries4(B_tilde), _entries4(B), _entries4(P)
    rank_bound = _shape_of_d_row(row, Bm)
    if F is None:
        Fm = [m - t for m, t in zip(_transpose_congruence4(p, Bm), Bt)]
    else:
        Fm = _entries4(F)
    at, bt, dt = Bt[0], Bt[1], Bt[3]
    e1, e2, e4 = Fm[0], Fm[1], Fm[3]
    x, y, u, v = p
    nF, nBt = _max_abs(Fm), _max_abs(Bt)
    detBt = _det4(Bt)
    if _is_singular(detBt, nBt):
        bound = math.sqrt(nF * (4 * nBt + 3))
    else:
        bound = nF * (4 * nBt + 2 + abs(detBt)) / abs(detBt)
    bound = max(bound, 64 * math.ulp(1.0) * max(1.0, _max_abs(p)) ** 3
                * max(nBt, _max_abs(Bm), nF))
    # the numeric rank of Bt at the relative cutoff 1e-9 (0 below 1e-9)
    s0, s1 = _singular_values(Bt)
    rank = 0 if s0 <= 1e-9 else 1 + (s1 > 1e-9 * s0)
    hyp = rank <= rank_bound
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
                o = max(abs(2 * Bm[1] * v * x - (t + bt)),
                        abs(2 * Bm[1] * u * y - (-t + bt)))
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

_MAX_DRAWS = 10_000


def sample_group_element(rng, cond_max: float = 1e3, spread: float = 1.0):
    """Random (c, P) with P of bounded condition number.

    A draw is kept when |det P| > 1e-9 and cond(P) = s0/s1 <= cond_max,
    tested as s0 <= cond_max * s1 on `core`'s closed-form singular values.
    cond(P) >= 1 always, so a ``cond_max`` below 1 or NaN, or a non-finite
    ``spread``, raise ``ValidationError`` before the first draw, and so
    does a run of ``_MAX_DRAWS`` draws with none kept (cond(P) = 1 needs a
    scaled unitary P, which the Gaussian draw never gives)."""
    import numpy as np

    if not cond_max >= 1:
        raise ValidationError(f"cond_max must be >= 1, got {cond_max!r}")
    if not math.isfinite(spread):
        raise ValidationError(f"spread must be finite, got {spread!r}")
    phi = rng.uniform(0.0, 2 * math.pi)
    for _ in range(_MAX_DRAWS):
        P = (np.eye(2)
             + spread * (rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2))) / math.sqrt(2))
        p = _entries4(P)
        s0, s1 = _singular_values(p)
        if abs(_det4(p)) > 1e-9 and s0 <= cond_max * s1:
            return cmath.exp(1j * phi), P
    raise ValidationError(
        f"no draw kept in {_MAX_DRAWS} with cond_max={cond_max!r} and "
        f"spread={spread!r}")


def _param_coords(fields, params):
    out = []
    for f in fields:
        val = getattr(params, f)
        if f in COMPLEX_FIELDS:
            out.extend([complex(val).real, complex(val).imag])
        else:
            out.append(float(val))
    return out


def _coords_to_params(fields, coords):
    kw = {}
    i = 0
    for f in fields:
        if f in COMPLEX_FIELDS:
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
    through ``validate_params`` and ``representative``, and a target with
    no free parameters reads its entries once.  c is recomputed only when
    the phase moves.

    One rule spares a block: the A-form of a zero/* cell and the B-form of
    a */zero cell are identically zero, and so is their move for finite P.
    Against x's exactly zero block the block's differences are zeros,
    which no gauge and no sum sees, so it is dropped (A's only where B's
    is not); every other block goes through the products.
    """
    if norm not in ("max", "spectral"):
        raise ValidationError(f"unknown norm {norm!r}")
    fields = param_fields(target)
    x00, x01, x10, x11 = x.A.entries
    y00, y01, y10, y11 = x.B.a, x.B.b, x.B.b, x.B.d
    drop_B = target.b_shape is BShape.ZERO and not (y00 or y01 or y11)
    drop_A = (target.a_label is ALabel.ZERO and not drop_B
              and not (x00 or x01 or x10 or x11))

    @functools.lru_cache(maxsize=8)
    def target_entries(coords):
        params = _coords_to_params(fields, coords)
        if validate_params(target, params):
            return None
        rep = representative(target, params)
        return (*rep.A.entries, rep.B.a, rep.B.b, rep.B.b, rep.B.d)

    held = None if fields else target_entries(())
    c_phase, c = math.nan, 0j

    def moved(vec):
        """The moved target minus x, block A then B but no dropped block,
        or None."""
        nonlocal c_phase, c
        p00, p01 = complex(vec[1], vec[2]), complex(vec[3], vec[4])
        p10, p11 = complex(vec[5], vec[6]), complex(vec[7], vec[8])
        if abs(p00 * p11 - p01 * p10) < 1e-12:
            return None
        entries = held or target_entries(tuple(vec[9:]))
        if entries is None:
            return None
        a00, a01, a10, a11, b00, b01, b10, b11 = entries
        if not drop_A:
            if vec[0] != c_phase:
                c_phase = vec[0]
                c = cmath.exp(1j * c_phase)
            # c P*
            s00, s01 = c * p00.conjugate(), c * p10.conjugate()
            s10, s11 = c * p01.conjugate(), c * p11.conjugate()
            # (c P*) A
            t00, t01 = s00 * a00 + s01 * a10, s00 * a01 + s01 * a11
            t10, t11 = s10 * a00 + s11 * a10, s10 * a01 + s11 * a11
            dA = (t00 * p00 + t01 * p10 - x00, t00 * p01 + t01 * p11 - x01,
                  t10 * p00 + t11 * p10 - x10, t10 * p01 + t11 * p11 - x11)
            if drop_B:
                return dA
        # P^T B
        u00, u01 = p00 * b00 + p10 * b10, p00 * b01 + p10 * b11
        u10, u11 = p01 * b00 + p11 * b10, p01 * b01 + p11 * b11
        dB = (u00 * p00 + u01 * p10 - y00, u00 * p01 + u01 * p11 - y01,
              u10 * p00 + u11 * p10 - y10, u10 * p01 + u11 * p11 - y11)
        return dB if drop_A else dA + dB

    if norm == "max":
        def objective(vec):
            d = moved(vec)
            return math.inf if d is None else max(map(abs, d))
    else:
        def objective(vec):
            d = moved(vec)
            if d is None:
                return math.inf
            if len(d) == 4:
                return _spectral_norm(*d)
            return max(_spectral_norm(*d[:4]), _spectral_norm(*d[4:]))

    def surrogate(vec):
        # smooth stand-in for the nonsmooth max-norm; coordinate descent
        # stalls far less often on it
        d = moved(vec)
        if d is None:
            return math.inf
        if len(d) == 4:
            d0, d1, d2, d3 = d
            return sum((d0.real * d0.real + d0.imag * d0.imag,
                        d1.real * d1.real + d1.imag * d1.imag,
                        d2.real * d2.real + d2.imag * d2.imag,
                        d3.real * d3.real + d3.imag * d3.imag))
        d0, d1, d2, d3, d4, d5, d6, d7 = d
        return sum((d0.real * d0.real + d0.imag * d0.imag,
                    d1.real * d1.real + d1.imag * d1.imag,
                    d2.real * d2.real + d2.imag * d2.imag,
                    d3.real * d3.real + d3.imag * d3.imag,
                    d4.real * d4.real + d4.imag * d4.imag,
                    d5.real * d5.real + d5.imag * d5.imag,
                    d6.real * d6.real + d6.imag * d6.imag,
                    d7.real * d7.real + d7.imag * d7.imag))

    return objective, surrogate


def _pattern_search(vec, fn, max_sweeps=25):
    """Coordinate pattern search on ``fn`` from ``vec``: returns (value,
    point).

    The step halves from 0.5 while it is at least 1e-9.  At each step a
    sweep polls every coordinate at +step and then at -step from wherever
    the +step poll left it, keeping each poll that lowers the value; the
    sweeps repeat, at most ``max_sweeps`` times, until one improves
    nothing.  A poll changes its coordinate in place and restores it when
    rejected.

    After an accepted +step poll, the -step poll is skipped when
    (x + step) - step rounds back to x: that is the point just left, and
    its value, the previous one, is strictly above the accepted value, so
    the poll could not be accepted.  When the rounding lands elsewhere the
    poll is made.  The result is the same as polling every time.

    A sweep that reaches, with nothing accepted yet, the coordinate just
    after the last accepted poll at this step ends there, and so do the
    sweeps at this step: the point and its value are those that every
    later poll of the previous sweep saw and rejected, so each poll left
    would repeat one of them.
    """
    vec = list(vec)
    val = fn(vec)
    step = 0.5
    while step >= 1e-9:
        # the coordinate after the last accepted poll at this step
        settled = None
        for _ in range(max_sweeps):
            improved = False
            for i in range(len(vec)):
                if i == settled and not improved:
                    break
                here = vec[i]
                vec[i] = up = here + step
                tv = fn(vec)
                if tv < val:
                    val, improved, settled = tv, True, i + 1
                    if up - step == here:
                        continue
                    here = up
                vec[i] = here - step
                tv = fn(vec)
                if tv < val:
                    val, improved, settled = tv, True, i + 1
                else:
                    vec[i] = here
            if not improved:
                break
        step *= 0.5
    return val, vec


def _bits(values) -> bytes:
    """The exact bits of complex values, as a table key."""
    return struct.pack(f"<{2 * len(values)}d",
                       *(v for z in values for v in (z.real, z.imag)))


# the seed-independent start's (value, point), or None where it is
# infeasible, by (the bits of x's seven entries, target, norm); the oldest
# entry goes first
_HELD_STARTS: dict = {}
_HELD_STARTS_MAX = 64


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
    sharp; see the provenance notes on the non-edge floors).  Each start
    is searched first on the smooth surrogate (the sum of squared moduli
    of the differences) and then on the objective in the chosen gauge.

    Each evaluation runs in Python complex scalars (``_distance_kernel``):
    the target's representative is memoised on the parameter coordinates,
    so ``representative`` runs only when the search moves a parameter,
    and the spectral gauge uses the closed-form largest singular value of
    a 2x2 matrix.  Two shortcuts leave every result bit for bit the same
    as evaluating every poll in full:

    * the search (``_pattern_search``) skips the -step poll that would
      return to the point an accepted +step poll just left, whose value
      is known to be larger, and ends a sweep at the coordinate from
      which it would only repeat polls that the previous sweep rejected;
    * a target form that is identically zero (the A-form of a zero/* cell,
      the B-form of a */zero cell) moves to exactly zero for finite P: the
      kernel drops that block where x's is exactly zero too, so the block
      costs no products.  That is its one zero-block rule: any other block
      goes through the products, a zero form's exact zeros included.

    Both keep the order of every reduction, ``sum`` included, and a
    dropped block adds only exact zeros to them, so the results match the
    full evaluation on every Python version.

    The start (1, I, generic) does not depend on the seed: its (value,
    point), or None, is held in ``_HELD_STARTS`` by (the bits of x's seven
    entries, target, norm), for the 64 latest keys at about 0.7 KB each.
    Warm ``starts`` and the restarts are searched on every call, and all
    are compared in the same order, so results are bit for bit those of an
    empty table; ``_HELD_STARTS.clear()`` empties it.
    """
    import numpy as np

    if budget < 1:
        raise ValidationError("budget must be >= 1")
    objective, surrogate = _distance_kernel(x, target, norm)
    fields = param_fields(target)

    def encode(c, P, params):
        return ([cmath.phase(complex(c))]
                + [w for z in _entries4(P) for w in (z.real, z.imag)]
                + _param_coords(fields, params))

    def search(vec):
        """(value, point) of the start vec, or None where it is infeasible."""
        if objective(vec) == math.inf:
            return None
        _sv, smoothed = _pattern_search(vec, surrogate)
        val, out = _pattern_search(smoothed, objective)
        return val, tuple(out)

    found = [search(encode(g.c, g.P, params)) for g, params in starts]
    key = (_bits((*x.A.entries, x.B.a, x.B.b, x.B.d)), target, norm)
    if key not in _HELD_STARTS:
        if len(_HELD_STARTS) >= _HELD_STARTS_MAX:
            del _HELD_STARTS[next(iter(_HELD_STARTS))]
        _HELD_STARTS[key] = search(
            encode(1.0, Mat2.identity(), generic_params(target)))
    found.append(_HELD_STARTS[key])
    for r in range(1, budget):
        rng = np.random.default_rng([seed, r])
        c, P = sample_group_element(rng, spread=0.7)
        params = generic_params(target)
        kw = {}
        for f in fields:
            val = getattr(params, f)
            if f in COMPLEX_FIELDS:
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
        found.append(search(encode(c, P, BundleParams(**kw))))

    best_val, best_vec = math.inf, None
    for result in found:
        if result is not None and result[0] < best_val:
            best_val, best_vec = result
    if best_vec is None:
        raise ValidationError(f"no feasible start found for {target}")
    c = cmath.exp(1j * best_vec[0])
    P = (best_vec[1] + 1j * best_vec[2], best_vec[3] + 1j * best_vec[4],
         best_vec[5] + 1j * best_vec[6], best_vec[7] + 1j * best_vec[8])
    g = GroupElement(c, _mat4(P))
    return best_val, (g, _coords_to_params(fields, best_vec[9:]))


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
    if dst in bundle_graph().successors(src_label):
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

    grid = tuple(s_grid) if s_grid is not None else default_grid()
    src = family.source_pair()
    ratios = []
    for s in grid:
        # the moved first component is c P* A P, so E = moved.A - src.A
        g, moved, _r = witness_eval(family, s)
        nE = _gap(moved.A.entries, src.A.entries)
        res = table3_residuals(row, src.A, family.target_instance_of_s(s).A,
                               g.c, g.P)
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
    import numpy as np

    u = np.random.default_rng([seed, t]).random(14).tolist()
    return [epsilon * math.sqrt(u[i]) * cmath.exp(1j * (2 * math.pi * u[i + 1]))
            for i in range(0, 14, 2)]


@functools.lru_cache(maxsize=1)
def _trial_perturbations(seed: int, trials: int, epsilon: float) -> tuple:
    """The perturbations of trials 0 .. trials - 1, entry t being
    `tuple(_trial_perturbation(seed, t, epsilon))`.  The stream does not
    depend on the centre, and every caller loops centres inside seeds, so
    the one held table serves a whole run."""
    return tuple(tuple(_trial_perturbation(seed, t, epsilon))
                 for t in range(trials))


@functools.lru_cache(maxsize=1)
def _trial_stage1(a_bits: bytes, seed: int, trials: int,
                  epsilon: float) -> tuple:
    """Stage 1 of the classifier on the perturbed A-part of trials 0 ..
    trials - 1 around the A whose entries' bits are a_bits: entry t is
    `classify._stage1` of A plus trial t's perturbation (0.65 KB), or the
    `ClassificationFailureError` it raised.  Centres that share an A share
    the table, and the callers visit them grouped by A."""
    from .classify import ClassificationFailureError, _stage1

    _trial_stage1.cache_clear()  # the last table goes before the next is built
    v = struct.unpack("<8d", a_bits)
    a0, a1, a2, a3 = [complex(re, im) for re, im in zip(v[::2], v[1::2])]

    def stage1(d):
        try:
            return _stage1((a0 + d[0], a1 + d[1], a2 + d[2], a3 + d[3]))
        except ClassificationFailureError as exc:
            return exc

    return tuple(stage1(d)
                 for d in _trial_perturbations(seed, trials, epsilon))


def monte_carlo_neighborhood(label: BundleLabel,
                             params: BundleParams | None,
                             epsilon: float, trials: int,
                             seed: int = 0) -> NeighborhoodReport:
    """Perturb the representative by entrywise noise uniform on the
    max-norm polydisc of radius epsilon, classify each sample, and check
    each observed label against closure reachability from the center.
    Ambiguous or failed classifications are counted separately and never
    reported as violations.

    Trial t's perturbation depends on (seed, t, epsilon) only, so every
    centre of a run with the same seed, trials and epsilon sees the same
    perturbations.  They are drawn once and the last table is held: about
    0.35 KB per trial, 70 KB at 200 trials.  Stage 1 sees only the A-part,
    so its results are held per centre A (`_trial_stage1`, 130 KB at 200
    trials), and each sample goes through `classify._classify_rest`: the
    counts are those of `classify_pair` on each sample."""
    from .classify import (AmbiguityError, ClassificationFailureError,
                           _classify_rest)

    if not (0 < epsilon <= 0.1):
        raise ValidationError("epsilon must lie in (0, 0.1]")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    params = params if params is not None else generic_params(label)
    center = representative(label, params)
    a00, a01, a10, a11 = center.A.entries
    b11, b12, b22 = center.B.a, center.B.b, center.B.d
    held = _trial_stage1(_bits(center.A.entries), seed, trials, epsilon)

    counts: dict = {}  # cell -> trials, in the order first seen
    violations: list = []
    ambiguous = failures = 0
    # reachability through a suspect edge still counts as reachable
    reachable = bundle_graph().successors(label)
    for t, (d, stage1) in enumerate(
            zip(_trial_perturbations(seed, trials, epsilon), held)):
        if isinstance(stage1, ClassificationFailureError):
            failures += 1
            continue
        try:
            cell, *_, notes = _classify_rest(
                (a00 + d[0], a01 + d[1], a10 + d[2], a11 + d[3]),
                (b11 + d[4], b12 + d[5], b22 + d[6]), stage1)
        except AmbiguityError:
            ambiguous += 1
            continue
        except ClassificationFailureError:
            failures += 1
            continue
        counts[cell] = counts.get(cell, 0) + 1
        if notes:
            ambiguous += 1
            continue
        if cell not in reachable:
            violations.append((t, str(cell)))
    return NeighborhoodReport(
        center=str(label), center_params=params.to_json(),
        epsilon=float(epsilon), trials=int(trials),
        histogram={str(c): n for c, n in counts.items()}, violations=violations,
        ambiguous=ambiguous, failures=failures)
