import cmath
import math
import unittest

import numpy as np
import pytest

from pairbundles import classify as classify_module
from pairbundles.classify import (
    AmbiguityError,
    Classification,
    ClassificationFailureError,
    classify_A,
    classify_B,
    classify_pair,
    stabilizer_reduce_B,
    _eigvec,
    _mean_split,
    _roots,
    _singular_values,
)
from pairbundles.core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    _cosquare4,
    apply_action,
    apply_psi1,
    apply_psi2,
    max_norm,
    pair_distance,
)
from pairbundles.normal_forms import (
    ALabel,
    BLabel,
    BShape,
    BundleLabel,
    BundleParams,
    CELLS,
    GENERIC_PARAMS,
    _SWAP_SHAPES,
    canonicalize_params,
    param_fields,
    representative,
    representative_A,
)


def rand_group_element(rng, max_cond=1e3):
    while True:
        P = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if np.linalg.cond(P) <= max_cond and abs(np.linalg.det(P)) > 1e-6:
            break
    c = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return GroupElement(c, Mat2(P))


class TestClassifyA(unittest.TestCase):
    def test_zero(self):
        label, _, _, res, _ = classify_A(Mat2.zero())
        self.assertIs(label, ALabel.ZERO)
        self.assertEqual(res, 0.0)

    def test_one_zero(self):
        label, _, g, res, _ = classify_A(Mat2(np.diag([3.0, 0.0])))
        self.assertIs(label, ALabel.ONE_ZERO)
        self.assertLess(res, 1e-12)

    def test_nilpotent(self):
        label, _, g, res, _ = classify_A(Mat2([[0.0, 2.0], [0.0, 0.0]]))
        self.assertIs(label, ALabel.NILPOTENT)
        self.assertLess(res, 1e-12)

    def test_identity_like(self):
        label, _, _, res, _ = classify_A(Mat2(2.5 * np.exp(0.3j) * np.eye(2)))
        self.assertIs(label, ALabel.IDENTITY)
        self.assertLess(res, 1e-12)

    def test_one_plus_minus(self):
        label, _, _, res, _ = classify_A(Mat2(np.diag([2.0, -0.5])))
        self.assertIs(label, ALabel.ONE_PLUS_MINUS)
        self.assertLess(res, 1e-12)

    def test_one_theta_recovers_angle(self):
        theta = 2.2
        label, params, _, res, _ = classify_A(
            Mat2(np.diag([1.0, cmath.exp(1j * theta)]))
        )
        self.assertIs(label, ALabel.ONE_THETA)
        self.assertAlmostEqual(params.theta, theta, places=10)
        self.assertLess(res, 1e-10)

    def test_tau_recovers_parameter(self):
        tau = 0.37
        label, params, _, res, _ = classify_A(Mat2([[0.0, 1.0], [tau, 0.0]]))
        self.assertIs(label, ALabel.TAU_FORM)
        self.assertAlmostEqual(params.tau, tau, places=10)
        self.assertLess(res, 1e-10)

    def test_jordan_form(self):
        label, _, _, res, _ = classify_A(Mat2([[0.0, 1.0], [1.0, 1j]]))
        self.assertIs(label, ALabel.JORDAN_I)
        self.assertLess(res, 1e-9)

    def test_congruence_invariance(self):
        # the label and the theta/tau parameter are invariants of the action
        cases = [
            (Mat2(np.diag([1.0, cmath.exp(1.3j)])), ALabel.ONE_THETA),
            (Mat2([[0.0, 1.0], [0.6, 0.0]]), ALabel.TAU_FORM),
            (Mat2([[0.0, 1.0], [1.0, 1j]]), ALabel.JORDAN_I),
            (Mat2(np.diag([1.0, -1.0])), ALabel.ONE_PLUS_MINUS),
            (Mat2(np.eye(2)), ALabel.IDENTITY),
        ]
        for A0, expect in cases:
            for trial in range(25):
                rng = np.random.default_rng([17, trial])
                g = rand_group_element(rng)
                A = apply_psi1(g, A0)
                label, params, gr, res, _ = classify_A(A)
                self.assertIs(label, expect, msg=str(expect))
                self.assertLess(res, 1e-7 * max(1.0, max_norm(A)))


class TestClassifyB(unittest.TestCase):
    def test_ranks(self):
        for B, expect in [
            (SymMat2.zero(), BLabel.ZERO),
            (SymMat2(1.0, 1j, -1.0), BLabel.RANK1),  # det = -1 - (i)^2 = 0
            (SymMat2.identity(), BLabel.RANK2),
        ]:
            label, P, res, _ = classify_B(B)
            self.assertIs(label, expect)
            self.assertLess(res, 1e-10)

    def test_reducer_lands_on_rank_form(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            B = SymMat2.from_array(M + M.T)
            label, P, res, _ = classify_B(B)
            target = np.diag([1.0, 1.0 if label is BLabel.RANK2 else 0.0])
            out = apply_psi2(P, B)
            self.assertLess(max_norm(Mat2(out.array - target)), 1e-8)


class TestStabilizerReduction(unittest.TestCase):
    """The stage-2 reducer must (a) stay in the stabilizer of the canonical
    A-form and (b) produce stabilizer-invariant canonical parameters."""

    A_LABELS = [ALabel.ONE_ZERO, ALabel.IDENTITY, ALabel.ONE_PLUS_MINUS,
                ALabel.ONE_THETA, ALabel.NILPOTENT, ALabel.TAU_FORM,
                ALabel.JORDAN_I]

    def random_stabilizer(self, a_label, rng, trial):
        """A random element of the stabilizer of the canonical A-form; for
        1(+)-1 an element of the c = -1 component on odd trials."""
        if a_label is ALabel.ONE_ZERO:
            x = np.exp(1j * rng.uniform(0, 2 * np.pi))
            u = rng.standard_normal() + 1j * rng.standard_normal()
            v = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
            return GroupElement(1.0, Mat2([[x, 0.0], [u, v]]))
        if a_label is ALabel.IDENTITY:
            M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            Q, _ = np.linalg.qr(M)
            return GroupElement(1.0, Mat2(Q))
        if a_label is ALabel.ONE_PLUS_MINUS:
            # boost times diagonal phases lies in the (1,1) unitary group;
            # the swap S12 then gives P* J P = -J, paid for by c = -1
            t = rng.uniform(-1.5, 1.5)
            H = np.array([[math.cosh(t), math.sinh(t)],
                          [math.sinh(t), math.cosh(t)]])
            D = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
            if trial % 2:
                return GroupElement(-1.0, Mat2(np.array([[0, 1], [1, 0]]) @ D @ H))
            return GroupElement(1.0, Mat2(D @ H))
        if a_label is ALabel.ONE_THETA:
            D = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
            return GroupElement(1.0, Mat2(D))
        if a_label is ALabel.NILPOTENT:
            c = np.exp(1j * rng.uniform(0, 2 * np.pi))
            x = rng.uniform(0.3, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            return GroupElement(c, Mat2(np.diag([x, 1.0 / (c * np.conj(x))])))
        if a_label is ALabel.TAU_FORM:
            p = rng.uniform(0.3, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            return GroupElement(1.0, Mat2(np.diag([p, 1.0 / np.conj(p)])))
        if a_label is ALabel.JORDAN_I:
            v = np.exp(1j * rng.uniform(0, 2 * np.pi))
            t = rng.uniform(-2.0, 2.0)
            return GroupElement(1.0, Mat2(v * np.array([[1.0, 1j * t], [0.0, 1.0]])))
        raise AssertionError(a_label)

    def test_random_stabilizers_fix_A(self):
        params = BundleParams(theta=1.0, tau=0.5)
        for a_label in self.A_LABELS:
            A0 = representative_A(a_label, params)
            for trial in range(20):
                rng = np.random.default_rng([23, trial])
                g = self.random_stabilizer(a_label, rng, trial)
                out = apply_psi1(g, A0)
                self.assertLess(max_norm(Mat2(out.array - A0.array)), 1e-10,
                                msg=str(a_label))

    def assert_invariant(self, a_label, B, g, msg):
        """B and its move by g reduce to one shape and one set of canonical
        parameters; returns the shape."""
        params = BundleParams(theta=1.0, tau=0.5)
        B2 = apply_psi2(g.P, B)
        s1, p1, _, _ = stabilizer_reduce_B(a_label, B, a_params=params)
        s2, p2, _, _ = stabilizer_reduce_B(a_label, B2, a_params=params)
        self.assertIs(s1, s2, msg=msg)
        lab = BundleLabel(a_label, s1)
        c1 = canonicalize_params(lab, p1)
        c2 = canonicalize_params(lab, p2)
        for f in param_fields(lab):
            if f in ("theta", "tau"):
                continue
            v1, v2 = getattr(c1, f), getattr(c2, f)
            self.assertLess(abs(complex(v1) - complex(v2)),
                            1e-7 * (1 + abs(complex(v1))),
                            msg=f"{msg}: {lab} {f}: {v1} vs {v2}")
        return s1

    def test_invariance_of_reduced_shape_and_params(self):
        # moving B by a random stabilizer element must not change the result
        for a_label in self.A_LABELS:
            for trial in range(25):
                rng = np.random.default_rng([29, trial])
                if a_label is ALabel.JORDAN_I:
                    # a generic symmetric B is off the catalogued strata for
                    # this class; start from an on-stratum point instead
                    B0 = SymMat2(rng.uniform(0.5, 2.0), 0.0,
                                 rng.standard_normal() + 1j * rng.standard_normal())
                    B = apply_psi2(self.random_stabilizer(a_label, rng, trial).P, B0)
                else:
                    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    B = SymMat2.from_array(M + M.T)
                g = self.random_stabilizer(a_label, rng, trial)
                self.assert_invariant(a_label, B, g, f"{a_label} trial {trial}")
        # every 1(+)-1 cell from its representative B; T moves the swap
        # cells' B from the [[0,1],[1,0]] frame into the J frame
        T = Mat2(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
        for cell in CELLS:
            if cell.a_label is not ALabel.ONE_PLUS_MINUS:
                continue
            B = representative(cell, canonicalize_params(cell, GENERIC_PARAMS)).B
            if cell.b_shape in _SWAP_SHAPES:
                B = apply_psi2(T, B)
            for trial in range(40):
                rng = np.random.default_rng([31, trial])
                g = self.random_stabilizer(ALabel.ONE_PLUS_MINUS, rng, trial)
                shape = self.assert_invariant(ALabel.ONE_PLUS_MINUS, B, g,
                                              f"{cell} trial {trial}")
                self.assertIs(shape, cell.b_shape, msg=f"{cell} trial {trial}")

    def test_jordan_off_catalog_input_fails_loudly(self):
        # over [[0,1],[1,i]] the shear needed for a general B is complex;
        # such inputs are genuinely off the catalogued strata
        for B, shear in (
            (SymMat2(1.0, 0.5, 0.0), "0.5j"),   # t = i b12/b11
            (SymMat2(0.0, 1.0, 0.5), "0.25j"),  # t = i b22/(2 b12)
        ):
            with self.assertRaisesRegex(ClassificationFailureError,
                                        rf"unreal shear {shear}\)"):
                stabilizer_reduce_B(ALabel.JORDAN_I, B)

    def test_tau_odd_half_turn_in_both_phase_branches(self):
        # phase(b_diag) - phase(b12) = 4 wraps to 4 - pi: one half-turn,
        # which the reducer pays for with c = -1
        a_params = BundleParams(tau=0.5)
        cases = (
            (SymMat2(0.0, 1.0, cmath.exp(4j)), BShape.OFF_DIAG_PHASE, None),
            (SymMat2(cmath.exp(4j), 1.0, 0.3 + 0.2j), BShape.PHASE_FORM,
             -0.3 - 0.2j),
        )
        for B, want_shape, want_zeta in cases:
            shape, params, g, _ = stabilizer_reduce_B(
                ALabel.TAU_FORM, B, a_params=a_params)
            self.assertIs(shape, want_shape)
            self.assertAlmostEqual(params.phi, 4.0 - math.pi, places=12)
            self.assertEqual(g.c, -1.0)
            if want_zeta is not None:
                self.assertLess(abs(params.zeta - want_zeta), 1e-12)
            label = BundleLabel(ALabel.TAU_FORM, shape)
            target = representative(label, BundleParams(
                tau=0.5, phi=params.phi, b=params.b, zeta=params.zeta)).B
            moved = apply_psi2(g.P, B)
            self.assertLess(max_norm(Mat2(moved.array - target.array)), 1e-12)


@pytest.mark.parametrize("label", CELLS, ids=str)
def test_round_trip_classification(label):
    p0 = canonicalize_params(label, GENERIC_PARAMS)
    x0 = representative(label, p0)
    for trial in range(10):
        rng = np.random.default_rng([CELLS.index(label), trial])
        g = rand_group_element(rng)
        x = apply_action(g, x0)
        cl = classify_pair(x)
        assert cl.label == label
        scale = max(1.0, max_norm(x.A), max_norm(x.B))
        assert cl.residual <= 1e-6 * scale
        for f in param_fields(label):
            v0 = complex(getattr(p0, f))
            v1 = complex(getattr(cl.params, f))
            assert abs(v1 - v0) <= 1e-6 * (1 + abs(v0)), (f, v0, v1)


@pytest.mark.parametrize("label", CELLS, ids=str)
def test_reducer_transports_input_to_representative(label):
    p0 = canonicalize_params(label, GENERIC_PARAMS)
    x0 = representative(label, p0)
    rng = np.random.default_rng([CELLS.index(label), 999])
    g = rand_group_element(rng, max_cond=50)
    x = apply_action(g, x0)
    cl = classify_pair(x)
    moved = apply_action(cl.reducer, x)
    target = representative(cl.label, cl.params)
    assert pair_distance(moved, target) <= 1e-7 * max(
        1.0, max_norm(x.A), max_norm(x.B)
    )


@pytest.mark.parametrize("label", CELLS, ids=str)
def test_residual_is_the_public_distance(label):
    """The tail computes on 4-tuples; its residual is still, bit for bit,
    the distance of the moved pair to the representative."""
    x0 = representative(label, canonicalize_params(label, GENERIC_PARAMS))
    rng = np.random.default_rng([CELLS.index(label), 7])
    x = apply_action(rand_group_element(rng, max_cond=10), x0)
    cl = classify_pair(x)
    assert cl.residual == pair_distance(apply_action(cl.reducer, x),
                                        representative(cl.label, cl.params))


def test_incomplete_parameters_raise(monkeypatch):
    """A stage-2 reducer that loses a parameter fails before the residual."""
    reduce_one_theta = classify_module._STAGE2[ALabel.ONE_THETA]

    def lossy(B, amb):
        shape, _, c, p = reduce_one_theta(B, amb)
        return shape, BundleParams(), c, p

    monkeypatch.setitem(classify_module._STAGE2, ALabel.ONE_THETA, lossy)
    label = BundleLabel(ALabel.ONE_THETA, BShape.FULL_HERMITIAN_LIKE)
    x = representative(label, canonicalize_params(label, GENERIC_PARAMS))
    with pytest.raises(ClassificationFailureError,
                       match=f"^incomplete parameters for {label}$"):
        classify_pair(x)


# ---------------------------------------------------------------------------
# the classifier's closed-form 2x2 helpers against numpy


def _e4(M):
    return tuple(complex(z) for z in np.asarray(M).ravel())


def _rand_vec(rng, scale=1.0):
    return scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2))


def _singular_value_cases():
    rng = np.random.default_rng(4242)
    for _ in range(50):
        yield math.exp(3.0 * rng.standard_normal()) * (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for _ in range(50):  # rank 1
        x, y = _rand_vec(rng), _rand_vec(rng, math.exp(rng.standard_normal()))
        yield np.outer(x, y.conj())
    yield np.outer([1.0, 0.0], [0.0, 2.0j])
    yield np.zeros((2, 2), dtype=complex)
    for _ in range(50):  # scaled unitary: sv[0] = sv[1]
        U = np.linalg.qr(rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))[0]
        yield math.exp(3.0 * rng.standard_normal()) * U


def test_closed_form_singular_values_match_svd():
    # both to 1e-12 of the norm sv[0]: relative for sv[0], and for sv[1]
    # wherever sv[1] = sv[0]
    for M in _singular_value_cases():
        want = np.linalg.svd(M, compute_uv=False)
        s0, s1 = _singular_values(_e4(M))
        assert abs(s0 - want[0]) <= 1e-12 * want[0], M
        assert abs(s1 - want[1]) <= 1e-12 * want[0], M


def test_null_vector_of_rank_one_matrices():
    rng = np.random.default_rng(4343)
    cases = [np.outer(_rand_vec(rng), _rand_vec(rng, math.exp(rng.standard_normal())))
             for _ in range(200)]
    cases += [np.outer([1.0, 0.0], [2.0, 1j]), np.outer([0.0, 1j], [2.0, 1j])]
    for X in cases:
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for shift in (0.0, lam):
            v = np.array(_eigvec(_e4(X + shift * np.eye(2)), shift))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
            # the shift rounds X's entries by up to eps |shift|
            bound = 1e-12 * (np.linalg.norm(X, 2) + abs(shift))
            assert np.linalg.norm(X @ v) <= bound, (X, shift)


def test_cosquare_eigenvalues_keep_relative_accuracy_at_small_tau():
    tau = 1e-8
    # the representative [[0, 1], [tau, 0]] itself: cosquare diag(tau, 1/tau)
    C, det_c = _cosquare4((0.0, 1.0, tau, 0.0))
    big, small = _roots(*_mean_split(C)[:2], det_c)
    assert abs(big - 1.0 / tau) <= 1e-15 / tau
    assert abs(small - tau) <= 1e-15 * tau
    # moved by (c, P): the eigenvalues are c^2 tau and c^2 / tau.  Rounding
    # the moved entries costs about eps cond(P)^2 / tau = 1e-7 relative; the
    # cancelling root lam_m - sqrt(disc) would lose every digit here
    for k in range(20):
        rng = np.random.default_rng([77, k])
        g = rand_group_element(rng, max_cond=10)
        A = apply_psi1(g, Mat2([[0.0, 1.0], [tau, 0.0]]))
        C, det_c = _cosquare4(_e4(A.array))
        big, small = _roots(*_mean_split(C)[:2], det_c)
        c2 = g.c * g.c
        assert abs(big - c2 / tau) <= 1e-6 / tau
        assert abs(small - c2 * tau) <= 1e-6 * tau


def test_cosquare_eigenvalues_match_numpy():
    rng = np.random.default_rng(4444)
    for _ in range(100):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C, det_c = _cosquare4(_e4(A))
        want = np.linalg.eigvals(np.linalg.solve(A.conj().T, A))
        bound = 1e-10 * np.linalg.cond(A) ** 2
        for lam in _roots(*_mean_split(C)[:2], det_c):
            assert min(abs(want - lam)) <= bound * abs(lam)


class TestToleranceHandling(unittest.TestCase):
    def test_gray_band_is_annotated(self):
        # a singular value sitting just inside the rank threshold
        A = Mat2(np.diag([1.0, 3e-7]))
        label, _, _, _, amb = classify_A(A)
        self.assertIs(label, ALabel.ONE_ZERO)
        self.assertTrue(amb)

    def test_decisive_input_not_annotated(self):
        label, _, _, _, amb = classify_A(Mat2(np.diag([1.0, cmath.exp(1.0j)])))
        self.assertIs(label, ALabel.ONE_THETA)
        self.assertEqual(amb, ())

    def test_boundary_ties_break_to_lower_dimension(self):
        # exactly at the boundary the lower-dimensional label wins
        A = Mat2(np.diag([1.0, 1e-13]))
        label, _, _, _, amb = classify_A(A)
        self.assertIs(label, ALabel.ONE_ZERO)
        self.assertEqual(amb, ())  # far below the gray band

    def test_classification_json(self):
        cl = classify_pair(representative(
            BundleLabel(ALabel.IDENTITY, BShape.DIAG_AD), BundleParams(a=1.0, d=2.0)
        ))
        doc = cl.to_json()
        self.assertEqual(doc["label"], "identity/diag_ad")
        self.assertIn("reducer", doc)


class TestTakagiOracle(unittest.TestCase):
    """Independent check of the symmetric factorization used by stage 2."""

    def test_factorization_against_svd(self):
        from pairbundles._takagi import takagi

        rng = np.random.default_rng(77)
        for k in range(300):
            M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            B = M + M.T
            if k % 3 == 0:  # exercise rank deficiency
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                B = np.outer(v, v)
            if k % 7 == 0:  # exercise equal singular values
                B = rng.standard_normal() * np.exp(1j * rng.uniform(0, 6)) * np.eye(2)
            s, U = takagi(B)
            sv = np.linalg.svd(B, compute_uv=False)
            assert np.allclose(s, sv, atol=1e-10 * max(1, sv[0]))
            assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-10)
            assert np.allclose(U @ np.diag(s) @ U.T, B, atol=1e-9 * max(1, sv[0]))


class TestOneThetaGridOracle(unittest.TestCase):
    def test_closed_form_reduction_matches_grid_search(self):
        # brute force over the diagonal phase stabilizer of 1 (+) e^{i theta}:
        # the closed form must achieve (up to refinement error) the minimal
        # distance to the canonical-form set found by the grid
        rng = np.random.default_rng(99)
        for _ in range(10):
            M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            B = SymMat2.from_array(M + M.T)
            shape, params, g, _ = stabilizer_reduce_B(
                ALabel.ONE_THETA, B, a_params=BundleParams(theta=1.0)
            )
            self.assertIs(shape, BShape.FULL_HERMITIAN_LIKE)
            lab = BundleLabel(ALabel.ONE_THETA, shape)
            cp = canonicalize_params(lab, params)
            target = SymMat2(cp.a, cp.zeta_star, cp.d).array
            best = np.inf
            grid = np.linspace(0, 2 * math.pi, 181)
            for f1 in grid:
                for f2 in grid:
                    D = Mat2(np.diag([cmath.exp(1j * f1), cmath.exp(1j * f2)]))
                    out = apply_psi2(D, B).array
                    best = min(best, max_norm(Mat2(out - target)))
            # grid spacing ~0.035 rad; the achievable defect scales with it
            self.assertLess(best, 0.12)
            achieved = max_norm(Mat2(apply_psi2(g.P, B).array - target))
            self.assertLess(achieved, 1e-9 * max(1.0, max_norm(B)))
