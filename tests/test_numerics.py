import cmath
import math
import unittest

import numpy as np
import pytest

from pairbundles.core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    ValidationError,
    apply_action,
    max_norm,
)
from pairbundles.normal_forms import (
    CELLS,
    BundleParams,
    label_from_string as L,
    param_fields,
    representative,
    table_dimension,
    validate_params,
)
from pairbundles.numerics import (
    _distance_kernel,
    _param_coords,
    _spectral_norm,
    _trial_perturbation,
    bundle_dimension_numeric,
    detxe_bound,
    distance_to_bundle,
    generic_params,
    lemadet_verify,
    monte_carlo_neighborhood,
    nonedge_floor,
    nu_fit,
    psi2_orbit_dimension_numeric,
    sample_group_element,
    table3_residuals,
    table4_residuals,
)
from pairbundles.witnesses import witness_eval, witness_lookup


def _rand_mat(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2))
                    + 1j * rng.standard_normal((2, 2)))


def _rand_sym(rng, scale=1.0):
    M = _rand_mat(rng, scale)
    return (M + M.T) / 2


def _ge(c, P):
    return GroupElement(c, Mat2(np.ascontiguousarray(P)))


class TestDimensions(unittest.TestCase):
    def test_every_cell_matches_the_table(self):
        for cell in CELLS:
            self.assertEqual(bundle_dimension_numeric(cell),
                             table_dimension(cell), msg=str(cell))

    def test_named_values(self):
        self.assertEqual(bundle_dimension_numeric(L("zero/zero")), 0)
        self.assertEqual(
            bundle_dimension_numeric(L("identity/diag_ad"),
                                     BundleParams(a=1.0, d=3.0)), 11)
        self.assertEqual(
            bundle_dimension_numeric(L("one_theta/full_hermitian_like")), 14)

    def test_cutoff_stability_is_enforced(self):
        # same rank at cutoff, x10 and /10 for a generic cell
        for ratio in (1e-7, 1e-8, 1e-9):
            self.assertEqual(
                bundle_dimension_numeric(L("tau_form/phase_form"),
                                         cutoff_ratio=ratio), 14)

    def test_invalid_params_rejected(self):
        with self.assertRaises(ValidationError):
            bundle_dimension_numeric(L("one_theta/zero"),
                                     BundleParams(theta=4.0))

    def test_psi2_orbit_dimensions(self):
        self.assertEqual(psi2_orbit_dimension_numeric(SymMat2.diag(1, 0)), 2)
        self.assertEqual(psi2_orbit_dimension_numeric(SymMat2.identity()), 3)
        self.assertEqual(psi2_orbit_dimension_numeric(SymMat2.zero()), 0)


class TestDetxe(unittest.TestCase):
    def test_zero_perturbation(self):
        rep = detxe_bound(Mat2.identity(), Mat2.zero())
        self.assertEqual(rep.observed_value, 0.0)
        self.assertEqual(rep.bound_value, 0.0)

    def test_scalar_perturbation_matches_expansion(self):
        eps = 0.01
        rep = detxe_bound(np.eye(2), eps * np.eye(2))
        self.assertAlmostEqual(rep.observed_value, abs(2 * eps + eps ** 2),
                               places=14)
        self.assertAlmostEqual(rep.bound_value, eps * (4 + 2 * eps),
                               places=14)
        self.assertGreaterEqual(rep.margin, 0.0)

    def test_random_sampling(self):
        for t in range(2000):
            rng = np.random.default_rng([11, t])
            X = _rand_mat(rng, rng.uniform(0, 5))
            D = _rand_mat(rng, rng.uniform(0, 5))
            self.assertGreaterEqual(detxe_bound(X, D).margin, 0.0)


class TestLemadet(unittest.TestCase):
    def test_exact_identity_move(self):
        g = _ge(1.0, np.eye(2))
        pair = PairAB(Mat2.identity(), SymMat2.identity())
        for mode in ("PAE", "cE", "PBF", "part3"):
            rep = lemadet_verify(pair, pair, g, mode)
            self.assertTrue(rep.hypothesis_ok)
            self.assertEqual(rep.observed_value, 0.0)
            self.assertTrue(rep.ok, msg=mode)

    def test_hypothesis_short_circuit(self):
        # an enormous defect cannot satisfy any smallness hypothesis
        g = _ge(1.0, np.eye(2))
        rep = lemadet_verify(Mat2.identity(), Mat2(100 * np.eye(2)), g, "PAE")
        self.assertFalse(rep.hypothesis_ok)
        self.assertTrue(rep.ok)  # vacuously

    def test_unknown_mode(self):
        g = _ge(1.0, np.eye(2))
        with self.assertRaises(ValueError):
            lemadet_verify(Mat2.identity(), Mat2.identity(), g, "nope")

    def _in_hypothesis_sample(self, mode, t):
        rng = np.random.default_rng([17, t])
        c, P = sample_group_element(rng)
        Pi = np.linalg.inv(P)
        if mode in ("PAE", "cE"):
            At = _rand_mat(rng)
            limit = min(abs(np.linalg.det(At)) / (8 * max_norm(At) + 4), 1.0)
            E = _rand_mat(rng)
            E *= rng.uniform(0.05, 0.95) * limit / max_norm(E)
            A = (1 / c) * Pi.conj().T @ (At + E) @ Pi
            return lemadet_verify(Mat2(np.ascontiguousarray(At)),
                                  Mat2(np.ascontiguousarray(A)),
                                  _ge(c, P), mode)
        if mode == "PBF":
            Bt = _rand_sym(rng)
            F = _rand_sym(rng)
            limit = min(abs(np.linalg.det(Bt)) / 6.0, 1.0)
            F *= rng.uniform(0.05, 0.5) * limit / max_norm(F)
            B = Pi.T @ (Bt + F) @ Pi
            return lemadet_verify(SymMat2.from_array(Bt),
                                  SymMat2.from_array(B), _ge(c, P), mode)
        At, Bt = _rand_mat(rng), _rand_sym(rng)
        limit = min(1.0, 1.0 / max_norm(np.linalg.inv(At)),
                    abs(np.linalg.det(At)) / (8 * max_norm(At) + 4))
        E = _rand_mat(rng)
        E *= rng.uniform(0.05, 0.95) * limit / max_norm(E)
        F = _rand_sym(rng)
        F *= rng.uniform(0.01, 0.3) / max_norm(F)
        A = (1 / c) * Pi.conj().T @ (At + E) @ Pi
        B = Pi.T @ (Bt + F) @ Pi
        src = PairAB(Mat2(np.ascontiguousarray(At)), SymMat2.from_array(Bt))
        dst = PairAB(Mat2(np.ascontiguousarray(A)), SymMat2.from_array(B))
        return lemadet_verify(src, dst, _ge(c, P), "part3")

    def test_random_in_hypothesis_sampling(self):
        for mode in ("PAE", "cE", "PBF", "part3"):
            checked = 0
            t = 0
            while checked < 500:
                rep = self._in_hypothesis_sample(mode, t)
                t += 1
                if not rep.hypothesis_ok:
                    continue
                checked += 1
                self.assertGreaterEqual(rep.margin, 0.0,
                                        msg=f"{mode} trial {t}")


class TestTable3(unittest.TestCase):
    def test_c12_example(self):
        res = table3_residuals("C12", [[0, 1], [1, 0]],
                               np.diag([1.0, -1.0]), 1.0, np.eye(2))
        self.assertEqual(res, [1.0, 1.0, 1.0])

    def test_c1_known_values(self):
        res = table3_residuals("C1", np.diag([1.0, 0.0]), np.eye(2),
                               1.0, np.eye(2))
        self.assertEqual(res, [0.0, 0.0, 1.0])

    def test_c8_exact(self):
        At = np.diag([1.0, cmath.exp(1.0j)])
        res = table3_residuals("C8", At, At, 1.0, np.eye(2))
        self.assertEqual(max(res), 0.0)

    def test_row_type_mismatch(self):
        with self.assertRaises(ValueError):
            table3_residuals("C12", [[0, 1], [1, 0]], np.eye(2), 1.0,
                             np.eye(2))
        with self.assertRaises(ValueError):
            table3_residuals("C1", np.diag([2.0, 0.0]), np.eye(2), 1.0,
                             np.eye(2))

    def test_unknown_row(self):
        with self.assertRaises(ValueError):
            table3_residuals("C99", np.eye(2), np.eye(2), 1.0, np.eye(2))

    def test_witness_residuals_vanish_along_grid(self):
        # source [[0,1],[1,i]] degenerating inside the unitary-eigenvalue
        # family matches the swap-with-corner row with omega = i
        fam = witness_lookup(L("jordan_i/zero"), L("one_theta/zero"))
        src = fam.source_pair()
        vals = []
        for s in (0.1, 0.01):
            g, _, _ = witness_eval(fam, s)
            inst = fam.target_instance_of_s(s)
            res = table3_residuals("C3", src.A.array, inst.A.array,
                                   g.c, g.P.array)
            vals.append(max(res))
        self.assertLess(vals[1], vals[0])
        self.assertLess(vals[1], 2e-2)

    def test_nu_fit_bounds_the_grid(self):
        fam = witness_lookup(L("one_zero/zero"), L("tau_form/zero"))
        ec = nu_fit(fam, "C4")
        self.assertIsNotNone(ec.nu_estimate)
        self.assertGreater(ec.nu_estimate, 0.0)
        src = fam.source_pair()
        for s in ec.grid:
            g, _, _ = witness_eval(fam, s)
            inst = fam.target_instance_of_s(s)
            E = (g.c * g.P.array.conj().T @ inst.A.array @ g.P.array
                 - src.A.array)
            res = table3_residuals("C4", src.A.array, inst.A.array,
                                   g.c, g.P.array)
            self.assertLessEqual(
                max(res), ec.nu_estimate * math.sqrt(max_norm(E)) + 1e-12)


class TestTable4(unittest.TestCase):
    ROWS = {
        "D1": np.array([[0.0, 1.3], [1.3, 0.7]]),
        "D2": np.array([[0.9, -0.4], [-0.4, 0.0]]),
        "D3": np.diag([0.0, 2.0]),
        "D4": np.array([[0.0, 1.1], [1.1, 0.0]]),
        "D5": np.diag([1.7, 0.0]),
    }

    def test_exact_congruence_has_zero_defect(self):
        P = np.array([[1.0, 0.4j], [0.2, 1.1]])
        for row, B in self.ROWS.items():
            rep = table4_residuals(row, P.T @ B @ P, B, P)
            self.assertLess(rep.observed_value, 1e-10, msg=row)
            self.assertTrue(rep.hypothesis_ok, msg=row)

    def test_row_shape_mismatch(self):
        with self.assertRaises(ValueError):
            table4_residuals("D4", np.eye(2), np.diag([1.0, 2.0]), np.eye(2))

    def test_rank_violation_fails_hypothesis(self):
        # a nonsingular limit cannot precede a rank-one shape
        rep = table4_residuals("D3", np.eye(2), np.diag([0.0, 2.0]),
                               np.eye(2))
        self.assertFalse(rep.hypothesis_ok)

    def test_d4_diagonal_limit(self):
        P = np.array([[1.0, 0.4j], [0.2, 1.1]])
        rep = table4_residuals("D4", np.diag([2.0, 3.0]),
                               self.ROWS["D4"], P)
        self.assertEqual(rep.name, "D4")
        self.assertTrue(np.isfinite(rep.observed_value))

    def test_random_small_f_within_bound(self):
        # the printed allowance is only valid while det of the limit stays
        # moderate (for the catalogued normal forms it is O(1)); sample in
        # that regime
        B = self.ROWS["D1"]
        checked = 0
        for t in range(600):
            rng = np.random.default_rng([23, t])
            _, P = sample_group_element(rng, spread=0.35)
            F = _rand_sym(rng)
            F *= rng.uniform(1e-4, 1e-2) / max_norm(F)
            Bt = P.T @ B @ P - F
            if abs(np.linalg.det(Bt)) > 4.0:
                continue
            rep = table4_residuals("D1", Bt, B, P, F)
            if rep.hypothesis_ok:
                checked += 1
                self.assertGreaterEqual(rep.margin, 0.0, msg=f"trial {t}")
        self.assertGreater(checked, 300)


class TestDistance(unittest.TestCase):
    def test_representative_has_distance_zero(self):
        lab = L("identity/diag_ad")
        x = representative(lab, BundleParams(a=1.0, d=3.0))
        d, (g, params) = distance_to_bundle(x, lab, budget=1, seed=0)
        self.assertLessEqual(d, 1e-8)
        self.assertAlmostEqual(params.d, 3.0, places=6)

    def test_witness_point_gives_small_distance(self):
        fam = witness_lookup(L("one_zero/zero"), L("tau_form/zero"))
        s = 0.05
        g, _, resid = witness_eval(fam, s)
        x = fam.source_pair()
        tau = fam.target_instance_of_s(s).A.array[1, 0].real
        d, _ = distance_to_bundle(x, fam.target, budget=1, seed=0,
                                  starts=[(g, BundleParams(tau=tau))])
        self.assertLessEqual(d, resid + 1e-12)

    def test_budget_validation(self):
        with self.assertRaises(ValidationError):
            distance_to_bundle(representative(L("zero/zero")),
                               L("zero/rank1"), budget=0)


class TestNonedgeFloor(unittest.TestCase):
    def test_edge_input_is_an_error(self):
        with self.assertRaises(ValidationError):
            nonedge_floor(L("zero/zero"), L("zero/rank1"), budget=1)

    def test_rank_drop_floor(self):
        # entrywise gauge: the sharp separation is 1/2; the largest
        # singular value gauge realizes the printed unit separation
        ec = nonedge_floor(L("zero/rank2"), L("zero/rank1"), budget=3,
                           seed=0)
        self.assertGreaterEqual(ec.floor, 0.49)
        self.assertFalse(ec.flagged)
        ec = nonedge_floor(L("zero/rank2"), L("zero/rank1"), budget=3,
                           seed=0, norm="spectral")
        self.assertGreaterEqual(ec.floor, 0.99)

    def test_first_component_nonedge(self):
        ec = nonedge_floor(L("one_theta/zero"), L("tau_form/zero"),
                           budget=2, seed=1)
        self.assertGreater(ec.floor, 1e-2)
        self.assertGreater(ec.mu_estimate, 0.0)


class TestMonteCarlo(unittest.TestCase):
    def test_zero_center_sees_everything_legally(self):
        rep = monte_carlo_neighborhood(L("zero/zero"), None, 1e-3, 200,
                                       seed=0)
        self.assertEqual(rep.violations, [])
        self.assertGreaterEqual(sum(rep.histogram.values()), 190)

    def test_top_cell_is_stable(self):
        lab = L("one_theta/full_hermitian_like")
        rep = monte_carlo_neighborhood(lab, None, 1e-3, 200, seed=1)
        self.assertEqual(rep.violations, [])
        self.assertEqual(set(rep.histogram), {str(lab)})

    def test_argument_validation(self):
        with self.assertRaises(ValidationError):
            monte_carlo_neighborhood(L("zero/zero"), None, 0.5, 10)
        with self.assertRaises(ValidationError):
            monte_carlo_neighborhood(L("zero/zero"), None, 1e-3, 0)

    def test_report_serializes(self):
        rep = monte_carlo_neighborhood(L("zero/rank1"), None, 1e-3, 50,
                                       seed=2)
        doc = rep.to_json()
        self.assertEqual(doc["trials"], 50)
        self.assertTrue(doc["ok"])

    def test_trial_draw_is_the_scalar_uniform_stream(self):
        """One draw of 14 doubles per trial gives, bit for bit, the
        perturbations of 14 scalar uniform() calls, entry by entry for
        A00, A01, A10, A11, b11, b12, b22."""
        for seed, t, eps in ((0, 0, 1e-3), (1, 7, 1e-3), (3, 199, 0.1),
                             (12345, 4, 2.5e-2), (2, 1000, 1e-6)):
            rng = np.random.default_rng([seed, t])
            expected = []
            for _ in range(7):
                r = eps * math.sqrt(rng.uniform())
                angle = rng.uniform(0.0, 2 * math.pi)
                expected.append(r * cmath.exp(1j * angle))
            self.assertEqual(_trial_perturbation(seed, t, eps), expected)


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_generic_params_are_valid(cell):
    rep = representative(cell, generic_params(cell))
    assert rep.A.array.shape == (2, 2)


# ---------------------------------------------------------------------------
# the objective kernel of distance_to_bundle against a numpy recomputation

def _random_params(cell, rng):
    """Random parameters inside the cell's domain."""
    kw = {}
    for f in param_fields(cell):
        if f == "theta":
            kw[f] = rng.uniform(0.1, math.pi - 0.1)
        elif f == "tau":
            kw[f] = rng.uniform(0.05, 0.95)
        elif f == "phi":
            kw[f] = rng.uniform(-3.0, 3.0)
        elif f in ("zeta", "zeta_star"):
            kw[f] = complex(*rng.standard_normal(2))
        else:
            kw[f] = math.exp(rng.standard_normal())
    if "a" in kw and "d" in kw:  # a < d where the cell asks for it
        kw["a"], kw["d"] = sorted((kw["a"], kw["d"]))
    return BundleParams(**kw)


def _search_vector(cell, c, P, params):
    return ([cmath.phase(c)] + [w for z in P.ravel() for w in (z.real, z.imag)]
            + _param_coords(param_fields(cell), params))


def _numpy_objectives(x, cell, params, c, P, norm):
    """(objective, surrogate) recomputed with numpy 2x2 products."""
    rep = representative(cell, params)
    dA = c * P.conj().T @ rep.A.array @ P - x.A.array
    dB = P.T @ rep.B.array @ P - x.B.array
    gauge = ((lambda M: np.abs(M).max()) if norm == "max"
             else (lambda M: np.linalg.norm(M, 2)))
    return (max(gauge(dA), gauge(dB)),
            (np.abs(dA) ** 2).sum() + (np.abs(dB) ** 2).sum())


@pytest.mark.parametrize("norm", ["max", "spectral"])
@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_distance_kernel_matches_numpy(cell, norm):
    rng = np.random.default_rng([CELLS.index(cell), norm == "spectral"])
    x = PairAB(Mat2(_rand_mat(rng)), SymMat2.from_array(_rand_sym(rng)))
    objective, surrogate = _distance_kernel(x, cell, norm)
    for _ in range(20):
        c, P = sample_group_element(rng)
        params = _random_params(cell, rng)
        assert validate_params(cell, params) == []
        vec = _search_vector(cell, c, P, params)
        want_obj, want_sur = _numpy_objectives(x, cell, params, c, P, norm)
        assert abs(objective(vec) - want_obj) <= 1e-12 * want_obj
        assert abs(surrogate(vec) - want_sur) <= 1e-12 * want_sur
    singular = _search_vector(cell, 1.0, np.array([[1.0, 2.0], [2.0, 4.0]]),
                              _random_params(cell, rng))
    assert objective(singular) == math.inf
    assert surrogate(singular) == math.inf


@pytest.mark.parametrize("cell,params", [
    ("tau_form/zero", BundleParams(tau=1.2)),
    ("one_theta/zero", BundleParams(theta=0.0)),
    ("identity/diag_ad", BundleParams(a=2.0, d=2.0)),
    ("identity/diag_ad", BundleParams(a=3.0, d=2.0)),
    ("one_theta/full_hermitian_like",
     BundleParams(theta=1.0, a=1.0, d=2.0, zeta_star=0j)),
])
def test_distance_kernel_rejects_out_of_domain_params(cell, params):
    cell = L(cell)
    x = representative(cell, generic_params(cell))
    for norm in ("max", "spectral"):
        objective, surrogate = _distance_kernel(x, cell, norm)
        ok = _search_vector(cell, 1.0, np.eye(2), generic_params(cell))
        assert objective(ok) == 0.0
        bad = _search_vector(cell, 1.0, np.eye(2), params)
        assert objective(bad) == math.inf
        assert surrogate(bad) == math.inf


def _scaled_unitaries(count):
    for seed in range(count):
        rng = np.random.default_rng([31, seed])
        U = np.linalg.qr(_rand_mat(rng))[0]
        yield math.exp(rng.standard_normal()) * U


def test_spectral_closed_form_at_equal_singular_values():
    # the form sqrt((f + sqrt(f^2 - 4|det|^2)) / 2), f = |M|_F^2, loses
    # half the digits on these: f^2 - 4|det|^2 cancels to rounding noise
    cases = [*_scaled_unitaries(50), 3.0 * np.eye(2, dtype=complex),
             np.zeros((2, 2), dtype=complex)]
    for M in cases:
        want = np.linalg.norm(M, 2)
        got = _spectral_norm(*(complex(z) for z in M.ravel()))
        assert abs(got - want) <= 1e-14 * want, M


_FLOOR_JOBS = [(src, dst, 2, "max") for src, dst in (
    ("one_theta/zero", "tau_form/zero"),
    ("tau_form/zero", "one_theta/zero"),
    ("identity/zero", "one_plus_minus/zero"),
    ("nilpotent/zero", "jordan_i/zero"),
    ("one_theta/zero", "one_zero/zero"),
)] + [("zero/rank2", "zero/rank1", 4, norm) for norm in ("max", "spectral")]


@pytest.mark.parametrize("src,dst,budget,norm", _FLOOR_JOBS)
def test_distance_equals_gauge_at_returned_witness(src, dst, budget, norm):
    x = representative(L(src), generic_params(L(src)))
    d, (g, params) = distance_to_bundle(x, L(dst), budget=budget, seed=0,
                                        norm=norm)
    assert validate_params(L(dst), params) == []
    moved = apply_action(g, representative(L(dst), params))
    gauge = max_norm if norm == "max" else (lambda M: np.linalg.norm(M, 2))
    again = max(gauge(moved.A.array - x.A.array),
                gauge(moved.B.array - x.B.array))
    assert abs(d - again) <= 1e-12 * max(1.0, again)
