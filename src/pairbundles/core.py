"""Core 2x2 complex matrix kernel: the group, the action, norms, invariants.

Everything here is a small immutable value type plus pure functions.  All
other modules build on these.  A 2x2 matrix is the row-major 4-tuple
(m00, m01, m10, m11) of Python complex numbers: `Mat2` stores it, and the
action, the norms and the value types' checks compute on it.  This is the
one module that knows that storage: the private 4-tuple kernels below
serve `classify`, `numerics` and `witnesses` too, and `_entries4` converts
a value type, an array or nested lists at their API edge.  numpy enters
only to parse ndarray input and where a caller asks for an array (the
`array` properties).  Each of those places imports numpy itself:
importing this module, the action, norms and invariants on value types,
and a `Mat2` built from nested lists (`Mat2.from_json` included) do not
load numpy, while one built from an ndarray does.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields

__all__ = [
    "Mat2",
    "SymMat2",
    "GroupElement",
    "PairAB",
    "ValidationError",
    "apply_action",
    "apply_psi1",
    "apply_psi2",
    "max_norm",
    "pair_distance",
    "cosquare",
    "det_invariant",
    "group_compose",
    "group_inverse",
    "group_identity",
]

UNIT_CIRCLE_TOL = 1e-12
MIN_ABS_DET = 1e-300


class ValidationError(ValueError):
    """Raised when a constructor receives an invalid value."""


def _finite4(m) -> tuple:
    """m = (m00, m01, m10, m11) as a 4-tuple of Python complex, checked
    finite.  It is built at its exact size: `tuple(map(...))` would move a
    block from CPython's 10-tuple free list to the 4-tuple one per call."""
    m0, m1, m2, m3 = m
    m = (complex(m0), complex(m1), complex(m2), complex(m3))
    # cmath.isfinite(z) tests both float parts with math.isfinite
    if not all(map(cmath.isfinite, m)):
        raise ValidationError("matrix entries must be finite")
    return m


def _finite3(b) -> tuple:
    """b = (b11, b12, b22) as Python complex, checked finite as `SymMat2`
    checks its entries."""
    b = (complex(b[0]), complex(b[1]), complex(b[2]))
    if not all(map(cmath.isfinite, b)):
        SymMat2(*b)  # names the first non-finite entry
    return b


# ---------------------------------------------------------------------------
# scalar 2x2 kernels on row-major 4-tuples of Python complex numbers

def _entries4(M) -> tuple:
    """(m00, m01, m10, m11) of a Mat2, a SymMat2 or 2x2 array data (an
    ndarray, or nested lists or tuples), as Python complex."""
    if isinstance(M, Mat2):
        return M.entries
    if isinstance(M, SymMat2):
        return (M.a, M.b, M.b, M.d)
    if isinstance(M, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in M):
        if [len(r) for r in M] != [2, 2]:
            raise ValidationError(f"expected 2x2 matrix, got {M!r}")
        (m00, m01), (m10, m11) = M
        return (complex(m00), complex(m01), complex(m10), complex(m11))
    import numpy as np

    arr = np.asarray(M, dtype=complex)
    if arr.shape != (2, 2):
        raise ValidationError(f"expected 2x2 matrix, got shape {arr.shape}")
    return tuple(arr.ravel().tolist())


def _det4(m) -> complex:
    return m[0] * m[3] - m[1] * m[2]


def _inv4(m) -> tuple:
    """The inverse adj(M) / det M."""
    k = 1.0 / _det4(m)
    return (m[3] * k, -m[1] * k, -m[2] * k, m[0] * k)


def _mul4(x, y) -> tuple:
    """The matrix product x @ y."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + x1 * y2, x0 * y1 + x1 * y3,
            x2 * y0 + x3 * y2, x2 * y1 + x3 * y3)


def _star_congruence4(c, p, a) -> tuple:
    """c (P* A) P, with P* A formed first as in numpy's left-to-right
    product."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = (p0.conjugate(), p1.conjugate(), p2.conjugate(),
                      p3.conjugate())
    a0, a1, a2, a3 = a
    t0, t1 = q0 * a0 + q2 * a2, q0 * a1 + q2 * a3
    t2, t3 = q1 * a0 + q3 * a2, q1 * a1 + q3 * a3
    return (c * (t0 * p0 + t1 * p2), c * (t0 * p1 + t1 * p3),
            c * (t2 * p0 + t3 * p2), c * (t2 * p1 + t3 * p3))


def _transpose_congruence3(p, a, b, d) -> tuple:
    """(a', b', d') of (P^T B) P for B = [[a, b], [b, d]], re-symmetrized
    against round-off as `SymMat2.from_array` does."""
    p0, p1, p2, p3 = p
    t0, t1 = p0 * a + p2 * b, p0 * b + p2 * d
    t2, t3 = p1 * a + p3 * b, p1 * b + p3 * d
    return (t0 * p0 + t1 * p2,
            0.5 * ((t0 * p1 + t1 * p3) + (t2 * p0 + t3 * p2)),
            t2 * p1 + t3 * p3)


def _transpose_congruence4(p, b) -> tuple:
    """`_transpose_congruence3` for a symmetric B given by its 4-tuple, as a
    4-tuple."""
    m00, m01, m11 = _transpose_congruence3(p, b[0], b[1], b[3])
    return (m00, m01, m01, m11)


def _cosquare4(a) -> tuple:
    """The cosquare (A*)^{-1} A = adj(A*) A / conj(det A) of an invertible
    A, and its determinant det A / conj(det A)."""
    a0, a1, a2, a3 = a
    det = _det4(a)
    k = 1.0 / det.conjugate()
    C = _mul4((a3.conjugate() * k, -a2.conjugate() * k,
               -a1.conjugate() * k, a0.conjugate() * k), a)
    return C, det / det.conjugate()


def _max_abs(values) -> float:
    """Largest modulus; NaN if any modulus is NaN, as numpy's max is."""
    mods = list(map(abs, values))
    total = sum(mods)
    return total if total != total else max(mods)


def _gap(m, t) -> float:
    """Max-norm distance of two row-major 4-tuples."""
    return _max_abs([x - y for x, y in zip(m, t)])


def _spectral_norm(m00, m01, m10, m11) -> float:
    """Largest singular value of [[m00, m01], [m10, m11]]: the square root
    of the largest eigenvalue of the Hermitian M*M = [[h00, h01], [., h11]].
    Both terms under the outer root are nonnegative, so the result keeps
    full relative accuracy when the two singular values coincide."""
    h00 = m00.real * m00.real + m00.imag * m00.imag \
        + m10.real * m10.real + m10.imag * m10.imag
    h11 = m01.real * m01.real + m01.imag * m01.imag \
        + m11.real * m11.real + m11.imag * m11.imag
    h01 = m00.conjugate() * m01 + m10.conjugate() * m11
    return math.sqrt(0.5 * (h00 + h11)
                     + math.hypot(0.5 * (h00 - h11), abs(h01)))


def _singular_values(m):
    """Both singular values of a 2x2 matrix in closed form: sv[0] from M*M
    (`_spectral_norm`), sv[1] = |det M| / sv[0]."""
    s0 = _spectral_norm(*m)
    return s0, (abs(_det4(m)) / s0 if s0 > 0.0 else 0.0)


@dataclass(frozen=True)
class Mat2:
    """An arbitrary 2x2 complex matrix, stored as its row-major 4-tuple."""

    entries: tuple

    def __init__(self, entries):
        object.__setattr__(self, "entries", _finite4(_entries4(entries)))

    @property
    def array(self):
        """A fresh read-only 2x2 numpy array of the entries."""
        import numpy as np

        arr = np.array(self.entries, dtype=complex).reshape(2, 2)
        arr.flags.writeable = False
        return arr

    @staticmethod
    def zero() -> "Mat2":
        return _mat4((0.0, 0.0, 0.0, 0.0))

    @staticmethod
    def identity() -> "Mat2":
        return _mat4((1.0, 0.0, 0.0, 1.0))

    def to_json(self) -> list:
        m = self.entries
        return [[_c2j(m[0]), _c2j(m[1])], [_c2j(m[2]), _c2j(m[3])]]

    @staticmethod
    def from_json(doc) -> "Mat2":
        if not (isinstance(doc, list) and len(doc) == 2):
            raise ValidationError("Mat2 JSON must be a 2x2 nested array")
        return Mat2([[_j2c(z) for z in row] for row in doc])

    def __repr__(self):
        m = self.entries
        return f"Mat2({[[m[0], m[1]], [m[2], m[3]]]!r})"


def _mat4(m) -> Mat2:
    """The Mat2 of a row-major 4-tuple, with the constructor's finiteness
    check and without numpy."""
    M = object.__new__(Mat2)
    object.__setattr__(M, "entries", _finite4(m))
    return M


@dataclass(frozen=True)
class SymMat2:
    """A symmetric 2x2 complex matrix [[a, b], [b, d]] stored by entries."""

    a: complex
    b: complex
    d: complex

    def __post_init__(self):
        entries = (complex(self.a), complex(self.b), complex(self.d))
        for name, z in zip(("a", "b", "d"), entries):
            if not cmath.isfinite(z):
                raise ValidationError(f"SymMat2.{name} must be finite")
            object.__setattr__(self, name, z)

    @property
    def array(self):
        """A fresh 2x2 numpy array of the entries."""
        import numpy as np

        return np.array([[self.a, self.b], [self.b, self.d]], dtype=complex)

    @staticmethod
    def from_array(arr) -> "SymMat2":
        """Build from a (nearly) symmetric array, averaging the off-diagonal."""
        m = _entries4(arr)
        return SymMat2(m[0], 0.5 * (m[1] + m[2]), m[3])

    @staticmethod
    def zero() -> "SymMat2":
        return SymMat2(0.0, 0.0, 0.0)

    @staticmethod
    def identity() -> "SymMat2":
        return SymMat2(1.0, 0.0, 1.0)

    @staticmethod
    def diag(a, d) -> "SymMat2":
        return SymMat2(a, 0.0, d)

    def to_json(self) -> dict:
        return {"a": _c2j(self.a), "b": _c2j(self.b), "d": _c2j(self.d)}

    @staticmethod
    def from_json(doc) -> "SymMat2":
        _check_keys(doc, ("a", "b", "d"), "SymMat2")
        return SymMat2(_j2c(doc["a"]), _j2c(doc["b"]), _j2c(doc["d"]))


def _group4(c, p) -> tuple:
    """(c, P) as a Python complex and a row-major 4-tuple of Python complex,
    with `GroupElement`'s checks: |c| = 1 within UNIT_CIRCLE_TOL, P finite
    and |det P| > MIN_ABS_DET."""
    c = complex(c)
    if not abs(abs(c) - 1.0) <= UNIT_CIRCLE_TOL:
        raise ValidationError(f"|c| must be 1 (got |c| = {abs(c)!r})")
    p = _finite4(p)
    if abs(_det4(p)) <= MIN_ABS_DET:
        raise ValidationError("P must be invertible")
    return c, p


@dataclass(frozen=True)
class GroupElement:
    """A pair (c, P) with |c| = 1 and P invertible, acting on matrix pairs."""

    c: complex
    P: Mat2

    def __post_init__(self):
        P = self.P if isinstance(self.P, Mat2) else Mat2(self.P)
        object.__setattr__(self, "c", _group4(self.c, P.entries)[0])
        object.__setattr__(self, "P", P)

    def to_json(self) -> dict:
        return {"c": _c2j(self.c), "P": self.P.to_json()}

    @staticmethod
    def from_json(doc) -> "GroupElement":
        return GroupElement(_j2c(doc["c"]), Mat2.from_json(doc["P"]))


def _checked_group_element(c: complex, p: tuple) -> GroupElement:
    """The GroupElement of a (c, P) that `_group4` has already returned,
    built without checking it again."""
    g = object.__new__(GroupElement)
    P = object.__new__(Mat2)
    object.__setattr__(P, "entries", p)
    object.__setattr__(g, "c", c)
    object.__setattr__(g, "P", P)
    return g


@dataclass(frozen=True)
class PairAB:
    """The state (A, B) acted on by the group."""

    A: Mat2
    B: SymMat2

    def __post_init__(self):
        A = self.A if isinstance(self.A, Mat2) else Mat2(self.A)
        B = self.B if isinstance(self.B, SymMat2) else SymMat2.from_array(self.B)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def to_json(self) -> dict:
        return {"A": self.A.to_json(), "B": self.B.to_json()}

    @staticmethod
    def from_json(doc) -> "PairAB":
        _check_keys(doc, ("A", "B"), "PairAB")
        return PairAB(Mat2.from_json(doc["A"]), SymMat2.from_json(doc["B"]))


# ---------------------------------------------------------------------------
# JSON helpers: a complex scalar is encoded as [re, im]

def _c2j(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _check_keys(doc, keys, what) -> None:
    """A JSON object with exactly the given keys."""
    if not (isinstance(doc, dict) and set(doc) >= set(keys)):
        raise ValidationError(f"{what} JSON must have keys "
                              + ", ".join(f'"{k}"' for k in keys))
    unknown = ", ".join(sorted(map(str, set(doc) - set(keys))))
    if unknown:
        raise ValidationError(f"{what} JSON has unknown keys: {unknown}")


def _is_json_number(doc) -> bool:
    # bool is a subclass of int, but JSON's true and false are not numbers
    return isinstance(doc, (int, float)) and not isinstance(doc, bool)


def _j2f(doc) -> float:
    if not _is_json_number(doc):
        raise ValidationError(f"real scalar JSON must be a number, got {doc!r}")
    return float(doc)


def _j2c(doc) -> complex:
    if _is_json_number(doc):
        return complex(doc)
    if not (isinstance(doc, list) and len(doc) == 2
            and all(map(_is_json_number, doc))):
        raise ValidationError(f"complex scalar JSON must be [re, im], got {doc!r}")
    return complex(doc[0], doc[1])


def _record_json(record, *properties) -> dict:
    """The JSON object of a dataclass record: its fields in declaration
    order, then the named properties.  A value with a `to_json` writes
    itself, a tuple or list becomes a list and a dict a copy."""
    doc = {}
    for f in fields(record):
        v = getattr(record, f.name)
        if hasattr(v, "to_json"):
            v = v.to_json()
        elif isinstance(v, (tuple, list)):
            v = list(v)
        elif isinstance(v, dict):
            v = dict(v)
        doc[f.name] = v
    for name in properties:
        doc[name] = getattr(record, name)
    return doc


def dumps(obj, **kw) -> str:
    """Serialize any of the core value types (or a plain dict) to JSON.
    NaN and infinities raise ValueError: JSON has no such values."""
    import json

    if hasattr(obj, "to_json"):
        obj = obj.to_json()
    return json.dumps(obj, allow_nan=False, **kw)


# ---------------------------------------------------------------------------
# the action and its projections

def apply_psi1(g: GroupElement, A: Mat2) -> Mat2:
    """First projection of the action: A -> c P* A P."""
    return _mat4(_star_congruence4(g.c, _entries4(g.P), _entries4(A)))


def apply_psi2(P, B: SymMat2) -> SymMat2:
    """Second projection: B -> P^T B P (re-symmetrized against round-off),
    for P a Mat2 or 2x2 array data."""
    p = _entries4(P)
    if abs(_det4(p)) <= MIN_ABS_DET:
        raise ValidationError("P must be invertible")
    return SymMat2(*_transpose_congruence3(p, B.a, B.b, B.d))


def apply_action(g: GroupElement, x: PairAB) -> PairAB:
    """The full action (A, B) -> (c P* A P, P^T B P)."""
    return PairAB(apply_psi1(g, x.A), apply_psi2(g.P, x.B))


# ---------------------------------------------------------------------------
# norms and distances

def max_norm(M) -> float:
    """Largest entry modulus.  Satisfies ||XY|| <= 2 ||X|| ||Y|| for 2x2."""
    if isinstance(M, (Mat2, SymMat2)):
        return _max_abs(_entries4(M))
    import numpy as np

    return float(_max_abs(np.asarray(M, dtype=complex).ravel().tolist()))


def pair_distance(x: PairAB, y: PairAB) -> float:
    """Max of the two component max-norm distances."""
    xA, yA = _entries4(x.A), _entries4(y.A)
    xB, yB = x.B, y.B
    return _max_abs((xA[0] - yA[0], xA[1] - yA[1], xA[2] - yA[2],
                    xA[3] - yA[3], xB.a - yB.a, xB.b - yB.b, xB.d - yB.d))


# ---------------------------------------------------------------------------
# invariants

def cosquare(A: Mat2) -> Mat2:
    """(A*)^{-1} A; its similarity class classifies A up to the c^2 gauge."""
    a = _entries4(A)
    if abs(_det4(a)) <= MIN_ABS_DET:
        raise ValidationError("cosquare requires det A != 0")
    return _mat4(_cosquare4(a)[0])


# (sign, j, k, m, n) of a Laplace expansion of a 4x4 determinant along its
# top two rows: the minor of the top rows in columns j < k times the minor
# of the bottom rows in the complementary columns m < n
_LAPLACE_TERMS = ((1, 0, 1, 2, 3), (-1, 0, 2, 1, 3), (1, 0, 3, 1, 2),
                  (1, 1, 2, 0, 3), (-1, 1, 3, 0, 2), (1, 2, 3, 0, 1))


def det_invariant(x: PairAB, rtol: float = 1e-9) -> float:
    """det [[A, conj(B)], [B, conj(A)]] -- always real and action-invariant.
    Computed by `_LAPLACE_TERMS`' expansion, without numpy."""
    a0, a1, a2, a3 = x.A.entries
    B = x.B
    top = ((a0, a1, B.a.conjugate(), B.b.conjugate()),
           (a2, a3, B.b.conjugate(), B.d.conjugate()))
    bottom = ((B.a, B.b, a0.conjugate(), a1.conjugate()),
              (B.b, B.d, a2.conjugate(), a3.conjugate()))
    value = 0j
    for sign, j, k, m, n in _LAPLACE_TERMS:
        value += (sign * (top[0][j] * top[1][k] - top[0][k] * top[1][j])
                  * (bottom[0][m] * bottom[1][n] - bottom[0][n] * bottom[1][m]))
    if abs(value.imag) > rtol * (1.0 + abs(value)):
        raise ValidationError(
            f"determinant invariant has non-real residue {value.imag!r}"
        )
    return float(value.real)


# ---------------------------------------------------------------------------
# group structure

def group_identity() -> GroupElement:
    return GroupElement(1.0, Mat2.identity())


def group_compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Composition fixed by apply_action(g, apply_action(h, x)) ==
    apply_action(group_compose(h, g), x)."""
    return GroupElement(g.c * h.c, _mat4(_mul4(_entries4(g.P), _entries4(h.P))))


def group_inverse(g: GroupElement) -> GroupElement:
    c = complex(g.c)
    c_inv = c.conjugate() / abs(c) ** 2
    # renormalize onto the circle against round-off
    c_inv /= abs(c_inv)
    return GroupElement(c_inv, _mat4(_inv4(g.P.entries)))
