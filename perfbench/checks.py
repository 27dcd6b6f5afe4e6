"""Output checkers that do not rely on the program under test.

Each checker takes plain numbers and arrays and raises `CheckError` with a
reason when the program's output is wrong.  The group action, the norms
and the target representatives of the distance workload are computed
here with numpy alone.
"""
from __future__ import annotations

import cmath
import json
import math

import numpy as np

PARAM_TOL = 1e-6           # canonical parameters, absolute
LANDING_RTOL = 1e-7        # reducer applied to the input vs the representative
DISTANCE_RTOL = 1e-9       # reported distance vs recomputed distance
VERIFY_COUNTS = {"dims": 48, "bounds": 5, "graph": 46, "witness": 29}
RANK_DROP_MAX = (0.49, 0.51)
RANK_DROP_SPECTRAL_MIN = 0.99
PSI1_FLOOR_MIN = 1e-2


class CheckError(AssertionError):
    """The program's output failed an independent check."""


def act(c: complex, P: np.ndarray, A: np.ndarray, B: np.ndarray):
    """(c, P) . (A, B) = (c P* A P, P^T B P)."""
    P = np.asarray(P, dtype=complex)
    return c * P.conj().T @ A @ P, P.T @ B @ P


def max_norm(M) -> float:
    return float(np.abs(np.asarray(M)).max())


def spectral_norm(M) -> float:
    """Largest singular value of a 2x2 matrix, in closed form."""
    M = np.asarray(M, dtype=complex)
    fro2 = float((np.abs(M) ** 2).sum())
    det = abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    return math.sqrt(0.5 * (fro2 + math.sqrt(max(fro2 ** 2 - 4 * det ** 2,
                                                 0.0))))


def check_orbit(want_label: str, want_params: dict, A, B, got_label: str,
                got_params: dict, c: complex, P, rep_A, rep_B) -> None:
    """An input built from cell `want_label` by a group move.

    The label must be the cell, the parameters its canonical ones, and the
    returned reducer (c, P) must carry the input onto the representative
    (rep_A, rep_B) of the returned label and parameters.
    """
    if got_label != want_label:
        raise CheckError(f"label {got_label}, built from {want_label}")
    if set(got_params) != set(want_params):
        raise CheckError(f"parameters {sorted(got_params)}, "
                         f"expected {sorted(want_params)}")
    for name, want in want_params.items():
        if not abs(complex(got_params[name]) - complex(want)) <= PARAM_TOL:
            raise CheckError(f"{want_label}: {name} = {got_params[name]}, "
                             f"canonical {want}")
    if not abs(abs(c) - 1.0) <= 1e-12:
        raise CheckError(f"reducer has |c| = {abs(c)}")
    A2, B2 = act(c, P, np.asarray(A), np.asarray(B))
    scale = max(1.0, max_norm(A), max_norm(B))
    residual = max(max_norm(A2 - rep_A), max_norm(B2 - rep_B))
    if not residual <= LANDING_RTOL * scale:
        raise CheckError(f"{want_label}: reducer lands {residual:.3e} away "
                         f"from the representative")


def _reject_constant(name):
    raise CheckError(f"report holds the non-JSON constant {name}")


def check_verify(returncode: int, stdout: str) -> dict:
    """The JSON report of `pairbundles verify all`; returns the document."""
    if returncode != 0:
        raise CheckError(f"verify all exited with code {returncode}")
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    checks = doc.get("checks")
    if not isinstance(checks, list):
        raise CheckError("report has no list of checks")
    prefix = {"dims": "dim-", "bounds": "bound-", "graph": "mc-",
              "witness": "witness-"}
    seen = {suite: sum(str(c.get("id", "")).startswith(p) for c in checks)
            for suite, p in prefix.items()}
    if seen != VERIFY_COUNTS or doc.get("counts") != VERIFY_COUNTS:
        raise CheckError(f"check counts {seen}, reported {doc.get('counts')}, "
                         f"expected {VERIFY_COUNTS}")
    if len(checks) != sum(VERIFY_COUNTS.values()):
        raise CheckError(f"{len(checks)} checks, expected "
                         f"{sum(VERIFY_COUNTS.values())}")
    if len({c["id"] for c in checks}) != len(checks):
        raise CheckError("duplicate check ids")
    failing = [c["id"] for c in checks if c.get("pass") is not True]
    if failing or doc.get("failed") != [] or doc.get("pass") is not True:
        raise CheckError(f"failing checks {failing[:5]}, "
                         f"reported {doc.get('failed')}")
    for c in checks:
        if not isinstance(c.get("margin"), (int, float)):
            raise CheckError(f"{c['id']}: margin {c.get('margin')!r}")
    return doc


def target_representative(label: str, params: dict):
    """(A, B) of the bundles the distance workload measures against, from
    the normal forms of the paper; params maps field name to value."""
    zero = np.zeros((2, 2), dtype=complex)
    if label == "tau_form/zero":
        tau = params["tau"]
        if not 0.0 < tau < 1.0:
            raise CheckError(f"tau = {tau} outside (0, 1)")
        return np.array([[0, 1], [tau, 0]], dtype=complex), zero
    if label == "one_theta/zero":
        theta = params["theta"]
        if not 0.0 < theta < math.pi:
            raise CheckError(f"theta = {theta} outside (0, pi)")
        return np.diag([1.0, cmath.exp(1j * theta)]), zero
    fixed = {
        "one_plus_minus/zero": (np.diag([1.0, -1.0]), zero),
        "jordan_i/zero": (np.array([[0, 1], [1, 1j]]), zero),
        "one_zero/zero": (np.diag([1.0, 0.0]), zero),
        "zero/rank1": (zero, np.diag([1.0, 0.0])),
    }
    if label not in fixed:
        raise CheckError(f"no independent representative for {label}")
    if params:
        raise CheckError(f"{label} has no parameters, got {sorted(params)}")
    A, B = fixed[label]
    return np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)


def check_floor(src_A, src_B, target: str, norm: str, distance: float,
                c: complex, P, params: dict) -> None:
    """A distance returned with its witness point (c, P, params).

    The distance must be the recomputed gauge of the moved target
    representative minus the source, and it must respect the analytic
    separation of the non-edge.
    """
    if not abs(abs(c) - 1.0) <= 1e-12:
        raise CheckError(f"witness has |c| = {abs(c)}")
    gauge = {"max": max_norm, "spectral": spectral_norm}[norm]
    rep_A, rep_B = target_representative(target, params)
    A2, B2 = act(c, P, rep_A, rep_B)
    again = max(gauge(A2 - src_A), gauge(B2 - src_B))
    if not abs(again - distance) <= DISTANCE_RTOL * max(1.0, again):
        raise CheckError(f"-> {target}: reported {distance!r}, "
                         f"recomputed {again!r}")
    if target == "zero/rank1":
        lo, hi = (RANK_DROP_MAX if norm == "max"
                  else (RANK_DROP_SPECTRAL_MIN, math.inf))
        if not lo <= distance <= hi:
            raise CheckError(f"rank-drop floor {distance} ({norm} norm) "
                             f"outside [{lo}, {hi}]")
    elif not distance > PSI1_FLOOR_MIN:
        raise CheckError(f"-> {target}: floor {distance} <= {PSI1_FLOOR_MIN}")
