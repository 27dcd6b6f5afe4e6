"""Core 2x2 complex matrix kernel: the group, the action, norms, invariants.

Everything here is a small immutable value type backed by numpy arrays, plus
pure functions.  All other modules build on these.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

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


def _as_c2x2(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    if arr.shape != (2, 2):
        raise ValidationError(f"expected 2x2 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValidationError("matrix entries must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Mat2:
    """An arbitrary 2x2 complex matrix."""

    entries: np.ndarray

    def __init__(self, entries):
        object.__setattr__(self, "entries", _as_c2x2(entries))

    @property
    def array(self) -> np.ndarray:
        return self.entries

    def __eq__(self, other):
        return isinstance(other, Mat2) and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(self.entries.tobytes())

    @staticmethod
    def zero() -> "Mat2":
        return Mat2(np.zeros((2, 2)))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(np.eye(2))

    def to_json(self) -> list:
        return [[_c2j(z) for z in row] for row in self.entries.tolist()]

    @staticmethod
    def from_json(doc) -> "Mat2":
        if not (isinstance(doc, list) and len(doc) == 2):
            raise ValidationError("Mat2 JSON must be a 2x2 nested array")
        return Mat2([[_j2c(z) for z in row] for row in doc])

    def __repr__(self):
        return f"Mat2({self.entries.tolist()!r})"


@dataclass(frozen=True)
class SymMat2:
    """A symmetric 2x2 complex matrix [[a, b], [b, d]] stored by entries."""

    a: complex
    b: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "d"):
            z = complex(getattr(self, name))
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValidationError(f"SymMat2.{name} must be finite")
            object.__setattr__(self, name, z)

    @property
    def array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b, self.d]], dtype=complex)

    @staticmethod
    def from_array(arr) -> "SymMat2":
        """Build from a (nearly) symmetric array, averaging the off-diagonal."""
        arr = np.asarray(arr, dtype=complex)
        if arr.shape != (2, 2):
            raise ValidationError(f"expected 2x2 matrix, got shape {arr.shape}")
        return SymMat2(arr[0, 0], 0.5 * (arr[0, 1] + arr[1, 0]), arr[1, 1])

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
        if not (isinstance(doc, dict) and set(doc) >= {"a", "b", "d"}):
            raise ValidationError('SymMat2 JSON must have keys "a", "b", "d"')
        return SymMat2(_j2c(doc["a"]), _j2c(doc["b"]), _j2c(doc["d"]))


@dataclass(frozen=True)
class GroupElement:
    """A pair (c, P) with |c| = 1 and P invertible, acting on matrix pairs."""

    c: complex
    P: Mat2

    def __post_init__(self):
        c = complex(self.c)
        if abs(abs(c) - 1.0) > UNIT_CIRCLE_TOL:
            raise ValidationError(f"|c| must be 1 (got |c| = {abs(c)!r})")
        P = self.P if isinstance(self.P, Mat2) else Mat2(self.P)
        if abs(np.linalg.det(P.array)) <= MIN_ABS_DET:
            raise ValidationError("P must be invertible")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "P", P)

    def to_json(self) -> dict:
        return {"c": _c2j(self.c), "P": self.P.to_json()}

    @staticmethod
    def from_json(doc) -> "GroupElement":
        return GroupElement(_j2c(doc["c"]), Mat2.from_json(doc["P"]))


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
        return PairAB(Mat2.from_json(doc["A"]), SymMat2.from_json(doc["B"]))


# ---------------------------------------------------------------------------
# JSON helpers: a complex scalar is encoded as [re, im]

def _c2j(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _j2c(doc) -> complex:
    if isinstance(doc, (int, float)):
        return complex(doc)
    if not (isinstance(doc, list) and len(doc) == 2):
        raise ValidationError(f"complex scalar JSON must be [re, im], got {doc!r}")
    return complex(doc[0], doc[1])


def dumps(obj, **kw) -> str:
    """Serialize any of the core value types (or a plain dict) to JSON.
    NaN and infinities raise ValueError: JSON has no such values."""
    if hasattr(obj, "to_json"):
        obj = obj.to_json()
    return json.dumps(obj, allow_nan=False, **kw)


# ---------------------------------------------------------------------------
# the action and its projections

def apply_psi1(g: GroupElement, A: Mat2) -> Mat2:
    """First projection of the action: A -> c P* A P."""
    P = g.P.array
    return Mat2(g.c * (P.conj().T @ A.array @ P))


def apply_psi2(P: Union[Mat2, np.ndarray], B: SymMat2) -> SymMat2:
    """Second projection: B -> P^T B P (re-symmetrized against round-off)."""
    Pa = P.array if isinstance(P, Mat2) else np.asarray(P, dtype=complex)
    if abs(np.linalg.det(Pa)) <= MIN_ABS_DET:
        raise ValidationError("P must be invertible")
    return SymMat2.from_array(Pa.T @ B.array @ Pa)


def apply_action(g: GroupElement, x: PairAB) -> PairAB:
    """The full action (A, B) -> (c P* A P, P^T B P)."""
    return PairAB(apply_psi1(g, x.A), apply_psi2(g.P, x.B))


# ---------------------------------------------------------------------------
# norms and distances

def max_norm(M) -> float:
    """Largest entry modulus.  Satisfies ||XY|| <= 2 ||X|| ||Y|| for 2x2."""
    if isinstance(M, (Mat2, SymMat2)):
        M = M.array
    return float(np.max(np.abs(np.asarray(M, dtype=complex))))


def pair_distance(x: PairAB, y: PairAB) -> float:
    """Max of the two component max-norm distances."""
    return max(
        max_norm(x.A.array - y.A.array),
        max_norm(x.B.array - y.B.array),
    )


# ---------------------------------------------------------------------------
# invariants

def cosquare(A: Mat2) -> Mat2:
    """(A*)^{-1} A; its similarity class classifies A up to the c^2 gauge."""
    arr = A.array
    Astar = arr.conj().T
    if abs(np.linalg.det(Astar)) <= MIN_ABS_DET:
        raise ValidationError("cosquare requires det A != 0")
    return Mat2(np.linalg.solve(Astar, arr))


def det_invariant(x: PairAB, rtol: float = 1e-9) -> float:
    """det [[A, conj(B)], [B, conj(A)]] -- always real and action-invariant."""
    A = x.A.array
    B = x.B.array
    M = np.block([[A, B.conj()], [B, A.conj()]])
    value = np.linalg.det(M)
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
    return GroupElement(g.c * h.c, Mat2(g.P.array @ h.P.array))


def group_inverse(g: GroupElement) -> GroupElement:
    c = complex(g.c)
    c_inv = c.conjugate() / abs(c) ** 2
    # renormalize onto the circle against round-off
    c_inv /= abs(c_inv)
    return GroupElement(c_inv, Mat2(np.linalg.inv(g.P.array)))
