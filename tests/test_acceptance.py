"""End-to-end acceptance checks for the whole package.

Each test is one headline property: numeric bundle dimensions, invariance
of the classifier under the group action, soundness of the closure graph
under perturbation, convergence of the degeneration catalog, the
determinant perturbation bounds, separation floors across declared
non-edges, and constancy of the orbit invariant.
"""

import time

import numpy as np
import pytest

from pairbundles.closure import bundle_graph
from pairbundles.classify import classify_pair
from pairbundles.core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    apply_action,
    det_invariant,
    max_norm,
)
from pairbundles.normal_forms import (
    CELLS,
    canonicalize_params,
    label_from_string as L,
    param_fields,
    representative,
    table_dimension,
)
from pairbundles.numerics import (
    bundle_dimension_numeric,
    generic_params,
    monte_carlo_neighborhood,
    nonedge_floor,
    psi2_orbit_dimension_numeric,
    sample_detxe_case,
    sample_group_element,
    sample_lemadet_case,
)
from pairbundles.witnesses import (
    CATALOG,
    witness_repair,
    witness_verify,
)

# the only families whose printed constants are known to be garbled
KNOWN_TYPO_FAMILIES = {"plus-minus-in-jordan", "plus-minus-in-swap-one-zero"}


def test_dimension_table_and_orbit_dims():
    t0 = time.monotonic()
    for cell in CELLS:
        assert bundle_dimension_numeric(cell) == table_dimension(cell), cell
    assert psi2_orbit_dimension_numeric(SymMat2.diag(1, 0)) == 2
    assert psi2_orbit_dimension_numeric(SymMat2.identity()) == 3
    assert time.monotonic() - t0 < 10.0


def _params_close(label, p, q, tol=1e-6):
    for name in param_fields(label):
        a, b = getattr(p, name), getattr(q, name)
        assert a is not None and b is not None, (label, name)
        assert abs(complex(a) - complex(b)) < tol, (label, name, a, b)


def test_classification_invariant_under_conjugation():
    t0 = time.monotonic()
    for k, cell in enumerate(CELLS):
        params = generic_params(cell)
        canon = canonicalize_params(cell, params)
        x = representative(cell, params)
        rng = np.random.default_rng(k)
        for _ in range(200):
            c, P = sample_group_element(rng, cond_max=1e3)
            g = GroupElement(c, Mat2(np.ascontiguousarray(P)))
            cls = classify_pair(apply_action(g, x))
            assert cls.label == cell, (cell, cls.label)
            _params_close(cell, canon, cls.params)
    assert time.monotonic() - t0 < 120.0


def test_closure_graph_soundness_monte_carlo():
    ambiguity_tally = {}
    for cell in CELLS:
        rep = monte_carlo_neighborhood(cell, None, 1e-3, 1000, seed=11)
        assert rep.violations == [], (cell, rep.violations[:5])
        assert rep.failures == 0, cell
        if rep.ambiguous:
            ambiguity_tally[str(cell)] = rep.ambiguous
    # ambiguity-flagged samples are excluded above; report them here
    print("ambiguity tally:", ambiguity_tally)


def test_witness_catalog_converges():
    repair_log = []
    for fam in CATALOG:
        rep = witness_verify(fam)
        if rep.status != "verified":
            fam, repair = witness_repair(fam)
            repair_log.append((fam.name, repair.status, fam.provenance))
            rep = witness_verify(fam)
        assert rep.status == "verified", (fam.name, rep.message)
        assert rep.residuals[-1] < 1e-4, fam.name
        for a, b in zip(rep.residuals, rep.residuals[1:]):
            assert b <= a * (1 + 1e-9) + 1e-15, fam.name
        assert len(rep.residuals) >= 12
    repaired = {name for name, _, _ in repair_log}
    assert repaired <= KNOWN_TYPO_FAMILIES, repaired
    for name, status, provenance in repair_log:
        assert status == "repaired"
        assert provenance  # the applied correction is recorded
    print("repair log:", repair_log)


@pytest.mark.parametrize("mode", ["PAE", "cE", "PBF", "part3"])
def test_determinant_bounds_hold(mode):
    rng = np.random.default_rng(2026)
    in_hypothesis = 0
    attempts = 0
    while in_hypothesis < 10_000:
        attempts += 1
        assert attempts <= 12_000, "hypothesis sampler starved"
        rep, _draws = sample_lemadet_case(mode, rng)
        if not rep.hypothesis_ok:
            continue
        in_hypothesis += 1
        assert rep.margin >= 0.0, (mode, attempts, rep.margin)


def test_determinant_expansion_bound_hold():
    rng = np.random.default_rng(2027)
    for t in range(100_000):
        rep = sample_detxe_case(rng)
        assert rep.margin >= 0.0, (t, rep.margin)


PSI1_NONEDGES = [
    ("one_theta/zero", "tau_form/zero"),
    ("tau_form/zero", "one_theta/zero"),
    ("identity/zero", "one_plus_minus/zero"),
    ("nilpotent/zero", "jordan_i/zero"),
    ("one_theta/zero", "one_zero/zero"),
]


def test_rank_drop_separation_floor():
    # the printed unit separation is realized in the largest-singular-value
    # gauge; the entrywise gauge gives exactly half of it
    ec = nonedge_floor(L("zero/rank2"), L("zero/rank1"), budget=4, seed=0,
                       norm="spectral")
    assert ec.floor >= 0.99
    assert not ec.flagged
    ec = nonedge_floor(L("zero/rank2"), L("zero/rank1"), budget=4, seed=0)
    assert 0.49 <= ec.floor <= 0.51


@pytest.mark.parametrize("src,dst", PSI1_NONEDGES)
def test_first_component_nonedge_floors(src, dst):
    for seed in range(10):
        ec = nonedge_floor(L(src), L(dst), budget=2, seed=seed)
        assert ec.floor > 1e-2, (src, dst, seed, ec.floor)
        assert ec.floor >= 1e-4, (src, dst, seed, ec.floor)
        assert not ec.flagged


def _sign_class(v, scale):
    return 0 if abs(v) <= 1e-10 * scale else (1 if v > 0 else -1)


def test_det_invariant_constant_along_orbit():
    bases = [
        representative(L("identity/diag_ad"), generic_params(L("identity/diag_ad"))),
        representative(L("one_plus_minus/diag_ad"),
                       generic_params(L("one_plus_minus/diag_ad"))),
        representative(L("one_theta/full_hermitian_like"),
                       generic_params(L("one_theta/full_hermitian_like"))),
        representative(L("tau_form/anti_diag"),
                       generic_params(L("tau_form/anti_diag"))),
        PairAB(Mat2(np.zeros((2, 2), dtype=complex)), SymMat2.zero()),
    ]
    rng = np.random.default_rng(5)
    moves_per_base = 2000
    for x in bases:
        v0 = det_invariant(x)
        scale = max(1.0, max_norm(x.A), max_norm(x.B)) ** 4
        s0 = _sign_class(v0, scale)
        for _ in range(moves_per_base):
            c, P_raw = sample_group_element(rng, cond_max=1e3)
            g = GroupElement(c, Mat2(np.ascontiguousarray(P_raw)))
            # the invariant is gauged to unimodular determinant; rescale
            P = P_raw / np.sqrt(abs(np.linalg.det(P_raw)))
            moved = apply_action(GroupElement(c, Mat2(np.ascontiguousarray(P))), x)
            v = det_invariant(moved)
            if s0 == 0:
                assert abs(v) <= 1e-8 * scale
            else:
                assert abs(v - v0) <= 1e-8 * abs(v0), (v0, v)
            assert _sign_class(v, scale) == s0
            # the sign is insensitive to the determinant gauge as well
            raw = det_invariant(apply_action(g, x))
            if s0 != 0:
                assert _sign_class(raw, scale) == s0
