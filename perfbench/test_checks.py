"""Each checker accepts a right output and rejects deliberately wrong ones;
the tracer and the host-speed probe compute what they claim.

    python3 -m pytest -q perfbench
"""
import copy
import json
import math
import time
import types
from array import array

import numpy as np
import pytest

import checks
import probe
from spans import Tracer

# ---------------------------------------------------------------------------
# orbit-classify: identity/diag_ad = (I, diag(1, 2)) moved by (c0, P0)

C0 = np.exp(0.3j)
P0 = np.array([[1.2, 0.3 - 0.1j], [0.2j, 0.9]])
REP_A, REP_B = np.eye(2, dtype=complex), np.diag([1.0, 2.0]).astype(complex)
X_A, X_B = checks.act(C0, P0, REP_A, REP_B)
WANT = {"a": 1.0, "d": 2.0}


def orbit_output(**change):
    out = dict(got_label="identity/diag_ad", got_params=dict(WANT),
               c=np.conj(C0), P=np.linalg.inv(P0), rep_A=REP_A, rep_B=REP_B)
    out.update(change)
    return out


def test_orbit_accepts_the_exact_reducer():
    checks.check_orbit("identity/diag_ad", WANT, X_A, X_B, **orbit_output())


@pytest.mark.parametrize("change", [
    {"got_label": "identity/d_identity"},
    {"got_params": {"a": 1.0, "d": 2.001}},
    {"got_params": {"a": 1.0}},
    {"got_params": {"a": 1.0, "d": 2.0, "theta": 1.0}},
    {"P": np.linalg.inv(P0) * (1 + 1e-5)},
    {"c": 1.0001 * np.conj(C0)},
    {"rep_B": np.diag([1.0, 2.1])},
])
def test_orbit_rejects_wrong_output(change):
    with pytest.raises(checks.CheckError):
        checks.check_orbit("identity/diag_ad", WANT, X_A, X_B,
                           **orbit_output(**change))


# ---------------------------------------------------------------------------
# verify-all

def verify_report():
    ids = ([f"dim-{i}" for i in range(48)] + [f"bound-{i}" for i in range(5)]
           + [f"mc-{i}" for i in range(46)]
           + [f"witness-{i}" for i in range(29)])
    return {"seed": 0, "suites": ["dims", "bounds", "graph", "witness"],
            "counts": dict(checks.VERIFY_COUNTS),
            "checks": [{"id": i, "pass": True, "margin": 0.5} for i in ids],
            "failed": [], "pass": True}


def test_verify_accepts_a_passing_report():
    checks.check_verify(0, json.dumps(verify_report()))


def _failing_check(doc):
    doc["checks"][60]["pass"] = False
    doc["failed"] = [doc["checks"][60]["id"]]
    doc["pass"] = False


def _infinite_margin(doc):
    doc["checks"][50]["margin"] = math.inf


def _nan_margin(doc):
    doc["checks"][0]["margin"] = math.nan


def _missing_dim(doc):
    del doc["checks"][0]
    doc["counts"]["dims"] = 47


def _relabelled_suite(doc):
    doc["checks"][0]["id"] = "mc-extra"


@pytest.mark.parametrize("spoil", [_failing_check, _infinite_margin,
                                   _nan_margin, _missing_dim,
                                   _relabelled_suite])
def test_verify_rejects_wrong_report(spoil):
    doc = copy.deepcopy(verify_report())
    spoil(doc)
    with pytest.raises(checks.CheckError):
        checks.check_verify(0, json.dumps(doc))


def test_verify_rejects_exit_code_and_garbage():
    with pytest.raises(checks.CheckError):
        checks.check_verify(3, json.dumps(verify_report()))
    with pytest.raises(checks.CheckError):
        checks.check_verify(0, "Traceback (most recent call last):")


# ---------------------------------------------------------------------------
# nonedge-distance

THETA_A = np.diag([1.0, np.exp(1j)])
ZERO = np.zeros((2, 2), dtype=complex)
HALF = np.array([[1 / math.sqrt(2), 1 / math.sqrt(2)], [0.0, 1.0]])


def test_floor_accepts_recomputed_distances():
    # one_theta/zero (theta = 1) against tau_form/zero at P = I: distance 1
    checks.check_floor(THETA_A, ZERO, "tau_form/zero", "max", 1.0, 1.0,
                       np.eye(2), {"tau": 0.5})
    # rank drop: p p^T - I with p = (1, 1)/sqrt(2) is 1/2 entrywise and 1
    # in the spectral norm, the analytic floors
    checks.check_floor(ZERO, np.eye(2), "zero/rank1", "max", 0.5, 1.0, HALF,
                       {})
    checks.check_floor(ZERO, np.eye(2), "zero/rank1", "spectral", 1.0, 1.0,
                       HALF, {})


@pytest.mark.parametrize("case", [
    # reported distance is not the distance of the returned point
    (THETA_A, ZERO, "tau_form/zero", "max", 0.9, 1.0, np.eye(2),
     {"tau": 0.5}),
    # parameter outside the bundle
    (THETA_A, ZERO, "tau_form/zero", "max", 1.0, 1.0, np.eye(2),
     {"tau": 1.5}),
    # a psi1 floor at the source itself
    (np.array([[0, 1], [0.5, 0]]), ZERO, "tau_form/zero", "max", 0.0, 1.0,
     np.eye(2), {"tau": 0.5}),
    # rank-drop floors off the analytic values
    (ZERO, np.eye(2), "zero/rank1", "max", 1.0, 1.0, np.eye(2), {}),
    (ZERO, 0.5 * np.eye(2), "zero/rank1", "spectral", 0.5, 1.0, np.eye(2),
     {}),
    # |c| != 1
    (ZERO, np.eye(2), "zero/rank1", "max", 0.5, 1.1, HALF, {}),
])
def test_floor_rejects_wrong_output(case):
    with pytest.raises(checks.CheckError):
        checks.check_floor(*case)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(100):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert math.isclose(checks.spectral_norm(M),
                            np.linalg.svd(M, compute_uv=False)[0],
                            rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the tracer's self times

def test_tracer_self_time_excludes_children():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    tracer = Tracer()
    tracer.wrap(mod, "outer", "numerics.distance_to_bundle")
    tracer.wrap(mod, "inner", "normal_forms.representative")
    mod.outer()
    mod.outer()
    tracer.restore()
    assert len(tracer.start) == 8
    metrics = tracer.layer_metrics(rounds=2, mc_trials=200)
    assert metrics["numerics.distance_to_bundle.evals"] == 3
    assert metrics["normal_forms.representative.calls"] == 3
    dur, child = tracer._durations()
    outer = [i for i, p in enumerate(tracer.parent) if p < 0]
    for i in outer:
        assert 0 <= dur[i] - child[i] < dur[i]
    # a probe sample that ran inside the first outer span before its first
    # child is taken out of that span alone
    pause = 0.4 * (tracer.start[1] - tracer.start[0])
    pauses = types.SimpleNamespace(
        starts=array("d", [0.5 * (tracer.start[0] + tracer.start[1])]),
        times=array("d", [pause]))
    dur2, child2 = tracer._durations(pauses)
    assert dur2[0] == pytest.approx(dur[0] - pause, abs=1e-12)
    assert list(dur2[1:]) == list(dur[1:])
    assert list(child2) == list(child)


# ---------------------------------------------------------------------------
# the host-speed probe

def test_probe_rescales_to_the_reference_speed():
    p = probe.Probe("python")
    p.times.extend([2 * p.ref_s] * 10)  # host at half speed
    work, adjusted = p.split(1.0 + 20 * p.ref_s)
    assert work == pytest.approx(1.0)
    assert adjusted == pytest.approx(0.5)


@pytest.mark.parametrize("kind", sorted(probe.KERNELS))
def test_probe_samples_while_started(kind):
    p = probe.Probe(kind).start()
    t = time.perf_counter()
    while time.perf_counter() - t < 0.2:
        p.kernel()
    p.stop()
    elapsed = time.perf_counter() - t
    assert 5 <= len(p.times) <= 11
    work, _ = p.split(elapsed)
    assert 0 < work < elapsed
