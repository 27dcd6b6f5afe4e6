import cmath
import itertools
import math
import unittest
from dataclasses import replace

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
    _eigh2,
    _eigvec,
    _mean_split,
    _roots,
    _singular_values,
    _sqrtm2_symmetric,
    _takagi,
    _top_singular,
)
from pairbundles.core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    _cosquare4,
    _mul4,
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
    _representative_A_entries,
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


def _bits(entries):
    return [(z.real.hex(), z.imag.hex()) for z in entries]


class TestClassifyB(unittest.TestCase):
    def assert_is_stage2_over_zero_A(self, B, label, P, amb):
        """classify_B is stage 2 over the zero A-form: the same shape, the
        same bits of P and the same notes."""
        shape, _, g, amb2 = stabilizer_reduce_B(ALabel.ZERO, B)
        self.assertEqual(shape.value, label.value)
        self.assertEqual(_bits(g.P.entries), _bits(P.entries))
        self.assertEqual(amb2, amb)

    def test_ranks(self):
        # exact forms reduce to within rounding; a near input's residual is
        # its distance, 1e-7, to the form it is snapped to
        for B, expect, note, res_max in [
            (SymMat2.zero(), BLabel.ZERO, None, 1e-10),
            (SymMat2(1e-7, 0.0, 0.0), BLabel.ZERO, "B near zero", 2e-7),
            # det = -1 - (i)^2 = 0
            (SymMat2(1.0, 1j, -1.0), BLabel.RANK1, None, 1e-10),
            (SymMat2(1.0, 0.0, 1e-7), BLabel.RANK1, "B near rank-1 boundary",
             2e-7),
            (SymMat2.identity(), BLabel.RANK2, None, 1e-10),
        ]:
            label, P, res, amb = classify_B(B)
            self.assertIs(label, expect)
            self.assertLess(res, res_max)
            self.assertEqual(amb, (note,) if note else ())
            self.assert_is_stage2_over_zero_A(B, label, P, amb)

    def test_reducer_lands_on_rank_form(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            B = SymMat2.from_array(M + M.T)
            label, P, res, amb = classify_B(B)
            target = np.diag([1.0, 1.0 if label is BLabel.RANK2 else 0.0])
            out = apply_psi2(P, B)
            self.assertLess(max_norm(Mat2(out.array - target)), 1e-8)
            self.assert_is_stage2_over_zero_A(B, label, P, amb)


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


# One B entry at 0.5x and 2x the stage-2 zero threshold 1e-6 max|b| (here
# max|b| = 1): below it the shape treats the entry as zero, above it as
# nonzero.  ROADMAP item 3b moves these edges on purpose.
@pytest.mark.parametrize("a_label, b, k, below, above", [
    (ALabel.ONE_ZERO, (1.0, 0.0, None), 2, BShape.DIAG_A0, BShape.DIAG_A_ONE),
    (ALabel.ONE_ZERO, (1.0, None, 0.0), 1, BShape.DIAG_A0, BShape.SWAP),
    (ALabel.ONE_THETA, (1.0, None, 1.0), 1, BShape.DIAG_AD,
     BShape.FULL_HERMITIAN_LIKE),
    (ALabel.TAU_FORM, (None, 1.0, 1.0), 0, BShape.OFF_DIAG_PHASE,
     BShape.PHASE_FORM),
    (ALabel.NILPOTENT, (1.0, None, 1.0), 1, BShape.DIAG_A_ONE,
     BShape.ZETA_B_ONE),
    (ALabel.JORDAN_I, (None, 0.0, 1.0), 0, BShape.ZERO_D, BShape.DIAG_A_ZETA),
], ids=["one_zero-b22", "one_zero-b12", "one_theta-b12", "tau_form-b11",
        "nilpotent-b12", "jordan_i-b11"])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_stage2_zero_rule_at_its_edge(a_label, b, k, below, above, factor):
    entries = list(b)
    entries[k] = factor * 1e-6 * cmath.exp(0.7j)
    shape = stabilizer_reduce_B(a_label, SymMat2(*entries),
                                a_params=GENERIC_PARAMS)[0]
    assert shape is (below if factor < 1 else above)


def test_diagonal_pattern_tables_are_the_form_records():
    """Over 1 (+) e^{i theta}, the tau-form and the nilpotent form the
    stage-2 shape is the one whose form has exactly B's nonzero entries:
    each of the 8 patterns belongs to one cell.  A zeta may be 0, so
    tau_form/phase_form and tau_form/one_zeta each hold two patterns."""
    from pairbundles.normal_forms import _representative_B_entries

    for a_label in (ALabel.ONE_THETA, ALabel.TAU_FORM, ALabel.NILPOTENT):
        patterns = {}
        for cell in CELLS:
            if cell.a_label is a_label:
                zetas = ((GENERIC_PARAMS.zeta, 0.0) if "zeta" in param_fields(
                    cell) else (GENERIC_PARAMS.zeta,))
                for zeta in zetas:
                    b = _representative_B_entries(cell.b_shape, {
                        **vars(GENERIC_PARAMS), "zeta": zeta})
                    patterns.setdefault(tuple(z != 0 for z in b), []).append(
                        cell.b_shape)
        plans = classify_module._STAGE2[a_label].args[0]
        assert {key: plan[0] for key, plan in plans.items()} == {
            key: shapes[0] for key, shapes in patterns.items()}, a_label
        assert all(len(shapes) == 1 for shapes in patterns.values()), a_label
        assert sorted(patterns) == sorted(itertools.product((False, True),
                                                            repeat=3))
    tau = classify_module._STAGE2[ALabel.TAU_FORM].args[0]
    assert tau[(True, True, False)][0] is BShape.PHASE_FORM
    assert tau[(True, False, False)][0] is BShape.ONE_ZETA


def test_perturbed_representatives_raise_only_classifier_errors():
    """Complex noise of size eps on all seven entries of every cell's
    generic representative, 60 draws per eps: each call returns a
    classification or raises AmbiguityError or ClassificationFailureError.
    The draws include near-defective 1(+)-1 inputs around
    swap_off_diag_b_one, where the intertwiner once divided by zero."""
    from pairbundles.numerics import generic_params

    rng = np.random.default_rng(7)
    leaks = []
    for cell in CELLS:
        x0 = representative(cell, generic_params(cell))
        e0 = (*x0.A.entries, x0.B.a, x0.B.b, x0.B.d)
        for eps in (1e-11, 1e-9, 1e-7, 1e-5, 1e-3):
            for _ in range(60):
                noise = eps * (rng.standard_normal(7)
                               + 1j * rng.standard_normal(7))
                e = [complex(z + w) for z, w in zip(e0, noise)]
                x = PairAB(Mat2([e[0:2], e[2:4]]), SymMat2(*e[4:]))
                try:
                    classify_pair(x)
                except (AmbiguityError, ClassificationFailureError):
                    pass
                except Exception as exc:  # collect every leak, then fail
                    leaks.append((str(cell), eps, repr(exc)))
    assert leaks == []


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

    def lossy(b, amb):
        shape, _, c, p = reduce_one_theta(b, amb)
        return shape, {}, c, p

    monkeypatch.setitem(classify_module._STAGE2, ALabel.ONE_THETA, lossy)
    label = BundleLabel(ALabel.ONE_THETA, BShape.FULL_HERMITIAN_LIKE)
    x = representative(label, canonicalize_params(label, GENERIC_PARAMS))
    with pytest.raises(ClassificationFailureError,
                       match=f"^incomplete parameters for {label}$"):
        classify_pair(x)


@pytest.mark.parametrize("s", [3e-9, 1e-9])
def test_singular_reducer_is_a_classification_failure(s):
    """Along plus-minus-in-jordan-zero-d at tiny s (A near 1(+)-1, B about
    1e-17 [[1, 1], [1, 1]]) stage 2 builds a singular P: the group check's
    message comes out as the classifier's failure on a valid pair."""
    from pairbundles.witnesses import CATALOG, witness_eval

    fam = next(f for f in CATALOG if f.name == "plus-minus-in-jordan-zero-d")
    with pytest.raises(ClassificationFailureError,
                       match="^P must be invertible$") as info:
        classify_pair(witness_eval(fam, s)[1])
    assert type(info.value.__cause__).__name__ == "ValidationError"


def test_one_stage1_result_serves_several_B_parts_unchanged():
    """`_classify4` is `_classify_rest` after `_stage1`, and the rest only
    reads a stage-1 result: one result, shared by several B-parts (each
    cell's own, one of each rank and a zero-entry one), gives each the
    outcome of its own `_classify4`, bit for bit, and stays as it was."""
    bs = ((1.0, 0.5, 2.0), (1.0, 1.0, 1.0), (0j, 0j, 0j), (0j, 1.0, 0j))

    def outcome(fn, *args):
        try:
            return repr(fn(*args))
        except (AmbiguityError, ClassificationFailureError, ValueError) as exc:
            return repr(exc)

    for cell in CELLS:
        x = representative(cell, canonicalize_params(cell, GENERIC_PARAMS))
        a = x.A.entries
        s1 = classify_module._stage1(a)
        before = repr(s1)
        assert type(s1[4]) is tuple
        for b in ((x.B.a, x.B.b, x.B.d),) + bs:
            assert (outcome(classify_module._classify_rest, a, b, s1)
                    == outcome(classify_module._classify4, a, b)), (cell, b)
        assert repr(s1) == before, cell


def test_singular_stage2_reducer_after_an_ambiguous_stage1(monkeypatch):
    """With stage 1 inside its ambiguity zone, a stage-2 reducer that
    fails the group check makes the snap ambiguous, as any other stage-2
    failure does."""
    def singular(b, amb):
        return BShape.ZERO, {}, 1.0, (1.0, 1.0, 1.0, 1.0)

    monkeypatch.setitem(classify_module._STAGE2, ALabel.ONE_ZERO, singular)
    x = PairAB(Mat2(np.diag([1.0, 3e-7])), SymMat2(1.0, 0.0, 2.0))
    with pytest.raises(AmbiguityError, match="ONE_ZERO"):
        classify_pair(x)
    with pytest.raises(ClassificationFailureError,
                       match="^P must be invertible$"):
        classify_pair(PairAB(Mat2(np.diag([1.0, 0.0])),
                             SymMat2(1.0, 0.0, 2.0)))


def test_singular_composed_reducer_is_a_classification_failure(monkeypatch):
    """Two checked stages whose product underflows to a singular P fail
    the composed check as the classifier's failure."""
    stage2 = classify_module._stabilizer_reduce3

    def tiny(*args):
        shape, params, c, p, a_target = stage2(*args)
        return shape, params, c, tuple(1e-160 * z for z in p), a_target

    monkeypatch.setattr(classify_module, "_stabilizer_reduce3", tiny)
    with pytest.raises(ClassificationFailureError,
                       match="^P must be invertible$"):
        classify_pair(representative(CELLS[0], GENERIC_PARAMS))


def test_non_finite_moved_B_is_a_classification_failure():
    """Stage 1 scales A = 1e-5 I up by about 316, which overflows a finite
    B of 1e306."""
    x = PairAB(Mat2(1e-5 * np.eye(2)), SymMat2(1e306, 0.0, 1e306))
    with pytest.raises(ClassificationFailureError,
                       match=r"^SymMat2\.a must be finite$"):
        classify_pair(x)


@pytest.mark.parametrize("A, b, sigma", [
    (1e-150 * np.eye(2), (1e200, 0.0, 1e200), "nan"),
    (np.zeros((2, 2)), (1e155, 0.0, 1e155), "nan"),
    (np.zeros((2, 2)), (1e200, 1e200, 1.0), "inf"),
])
def test_overflowing_singular_values_of_B_are_a_classification_failure(
        A, b, sigma):
    """Over A = 0, a B with entries past 1e154 overflows B*B: the singular
    values come out non-finite, and classify_B fails by name instead of
    dividing by a zero sigma_2 or returning a non-finite reducer."""
    x = PairAB(Mat2(A), SymMat2(*b))
    with pytest.raises(ClassificationFailureError,
                       match=f"^singular values of B overflow to {sigma}$"):
        classify_pair(x)


def test_overflow_after_an_ambiguous_stage1_is_ambiguous():
    """A = diag(1e-7, 0) sits in the "A near zero" band, so the overflow
    failure of 1e303 I over the zero class makes the snap ambiguous."""
    x = PairAB(Mat2(np.diag([1e-7, 0.0])), SymMat2(1e303, 0.0, 1e303))
    with pytest.raises(AmbiguityError, match="A near zero") as info:
        classify_pair(x)
    cause = info.value.__context__
    assert isinstance(cause, ClassificationFailureError)
    assert str(cause) == "singular values of B overflow to nan"


# The scaled representatives that the classifier labels wrongly with no
# note (ROADMAP item 3): at t = 1e-8 each one comes out zero/zero, and at
# t = 1e8 each one comes out as a neighbouring cell of the same A-class.
_SILENT_AT_SCALE = {(1e-8, cell) for cell in (
    "tau_form/one_zeta", "tau_form/zero_one", "tau_form/anti_diag",
    "tau_form/zero", "nilpotent/diag_a_one", "nilpotent/anti_diag",
    "nilpotent/one_zero", "nilpotent/zero_one", "nilpotent/zero",
    "identity/zero", "one_plus_minus/anti_diag", "one_plus_minus/zero",
    "one_plus_minus/swap_one_zero", "one_zero/diag_a_one", "one_zero/swap",
    "one_zero/zero_one", "one_zero/diag_a0", "one_zero/zero", "zero/rank2",
    "zero/rank1")} | {(1e8, cell) for cell in (
    "nilpotent/zeta_b_one", "nilpotent/off_diag_b_one",
    "nilpotent/diag_a_one", "nilpotent/one_b_zero", "one_zero/diag_a_one")}


@pytest.mark.parametrize("t, cell", [
    pytest.param(t, cell, id=f"{t:g}-{cell}", marks=pytest.mark.xfail(
        strict=True, reason="silent wrong label at this scale (item 3)"))
    if (t, str(cell)) in _SILENT_AT_SCALE
    else pytest.param(t, cell, id=f"{t:g}-{cell}")
    for t in (1e-8, 1e-4, 1e4, 1e8) for cell in CELLS])
def test_exact_scaling_gives_no_silent_wrong_label(t, cell):
    """(1, sqrt(t) I) is a group element, so the scaled representative
    lies in the cell's own orbit.  The classifier may give the cell's
    label, a label with an ambiguity note, or one of its two errors, but
    never another label with no note."""
    g = GroupElement(1.0, Mat2([[math.sqrt(t), 0], [0, math.sqrt(t)]]))
    x = apply_action(g, representative(
        cell, canonicalize_params(cell, GENERIC_PARAMS)))
    try:
        cls = classify_pair(x)
    except (AmbiguityError, ClassificationFailureError):
        return
    assert cls.label == cell or cls.ambiguous, f"silent {cls.label}"


@pytest.mark.parametrize("k, cell", list(enumerate(CELLS)),
                         ids=[str(cell) for cell in CELLS])
def test_returned_reducer_is_the_checked_group_element(k, cell):
    """classify_pair builds its reducer without checking it again; on 20
    seeded moves it equals the public GroupElement of the same entries,
    with the same repr and hash, and its P holds Python complex numbers.
    The public constructor's checks are TestGroupCheck's in test_core."""
    from pairbundles.numerics import generic_params, sample_group_element

    x0 = representative(cell, generic_params(cell))
    rng = np.random.default_rng([0, 1, k])
    for _ in range(20):
        c, P = sample_group_element(rng, cond_max=1e3)
        g = classify_pair(apply_action(GroupElement(c, Mat2(P)), x0)).reducer
        e = g.P.entries
        public = GroupElement(g.c, Mat2([[e[0], e[1]], [e[2], e[3]]]))
        assert type(g) is GroupElement and type(g.P) is Mat2
        assert g == public and hash(g) == hash(public)
        assert repr(g) == repr(public)
        assert all(type(z) is complex for z in (g.c, *e))


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


def _kernel_cases(kind, seed):
    """Random, exactly rank-1 and equal-singular-value 2x2 matrices of a
    kind ("general", "hermitian" or "symmetric"), each at the scales 1,
    1e-8 and 1e8."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x, y = _rand_vec(rng), _rand_vec(rng)
        U = np.linalg.qr(rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))[0]
        r = math.exp(rng.standard_normal())
        if kind == "general":
            cases = [M, np.outer(x, y.conj()), r * U]
        elif kind == "hermitian":
            cases = [M, np.outer(x, x.conj()),
                     U @ np.diag([r, -r]) @ U.conj().T, r * np.eye(2)]
        else:
            cases = [M, np.outer(x, x), r * U @ U.T,
                     r * cmath.exp(1j * rng.uniform(0, 6)) * np.eye(2)]
        for C in cases:
            # numpy's products are symmetric only up to rounding
            if kind == "hermitian":
                C = 0.5 * (C + C.conj().T)
            elif kind == "symmetric":
                C = 0.5 * (C + C.T)
            for scale in (1.0, 1e-8, 1e8):
                yield scale * C.astype(complex)


def _same_up_to_phase(u, w):
    z = np.vdot(w, u)
    return np.linalg.norm(u - (z / abs(z)) * w)


def test_top_singular_pair_matches_svd():
    for M in _kernel_cases("general", 4545):
        U, sv, Vh = np.linalg.svd(M)
        s0, v = _top_singular(_e4(M))
        v = np.array(v)
        assert abs(s0 - sv[0]) <= 1e-12 * sv[0]
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        # v attains sv[0], also where every unit vector does
        assert abs(np.linalg.norm(M @ v) - sv[0]) <= 1e-12 * sv[0]
        if sv[0] - sv[1] > 1e-3 * sv[0]:
            assert _same_up_to_phase(v, Vh[0].conj()) <= 1e-10, M


def test_hermitian_eigenpairs_match_eigh():
    for H in _kernel_cases("hermitian", 4646):
        d, W = np.linalg.eigh(H)
        norm = max(abs(d))
        got_d, vecs = _eigh2(_e4(H))
        Q = np.array(vecs).T
        assert np.allclose(got_d, d, rtol=0.0, atol=1e-12 * norm), H
        assert np.allclose(Q.conj().T @ Q, np.eye(2), rtol=0.0, atol=1e-14)
        assert np.abs(H @ Q - Q @ np.diag(got_d)).max() <= 1e-12 * norm, H
        if d[1] - d[0] > 1e-3 * norm:
            for k in range(2):
                assert _same_up_to_phase(Q[:, k], W[:, k]) <= 1e-10, H


def test_symmetric_square_root_squares_back():
    # rank-1 inputs x x^T have the root x x^T / sqrt(x^T x)
    for C in _kernel_cases("symmetric", 4747):
        X = np.array(_sqrtm2_symmetric(_e4(C))).reshape(2, 2)
        assert np.array_equal(X, X.T)
        assert np.abs(X @ X - C).max() <= 1e-12 * np.abs(C).max(), C


def test_takagi_factors_at_every_scale():
    for B in _kernel_cases("symmetric", 4848):
        s, U = _takagi(_e4(B))
        U = np.array(U).reshape(2, 2)
        sv = np.linalg.svd(B, compute_uv=False)
        assert np.allclose(s, sv, rtol=0.0, atol=1e-12 * sv[0])
        assert np.allclose(U.conj().T @ U, np.eye(2), rtol=0.0, atol=1e-10)
        assert np.abs(U @ np.diag(s) @ U.T - B).max() <= 1e-10 * sv[0], B


def test_classify_pair_calls_no_numpy_linalg(monkeypatch):
    """Every cell's moved generic representative classifies with numpy's
    svd, eig, eigh, inv and qr unavailable; the moves are drawn first,
    because the sampler calls numpy.linalg.cond."""
    from pairbundles.numerics import generic_params, sample_group_element

    moved = []
    for k, cell in enumerate(CELLS):
        x0 = representative(cell, generic_params(cell))
        rng = np.random.default_rng([0, 1, k])
        for _ in range(3):
            c, P = sample_group_element(rng, cond_max=10)
            moved.append((cell, apply_action(GroupElement(c, Mat2(P)), x0)))

    def unavailable(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("svd", "eig", "eigh", "inv", "qr"):
        monkeypatch.setattr(np.linalg, name, unavailable)
    for cell, x in moved:
        assert classify_pair(x).label == cell


@pytest.mark.parametrize("k, cell", list(enumerate(CELLS)),
                         ids=[str(cell) for cell in CELLS])
def test_public_stages_compose_to_classify_pair(k, cell):
    """On 20 seeded moves of the cell, classify_A, then stabilizer_reduce_B
    on the moved B, then the canonical merged parameters give
    classify_pair's label, parameters and reducer bit for bit (repr tells
    the sign of a zero)."""
    from pairbundles.numerics import generic_params, sample_group_element

    x0 = representative(cell, generic_params(cell))
    rng = np.random.default_rng([0, 1, k])
    for _ in range(20):
        c, P = sample_group_element(rng, cond_max=10)
        x = apply_action(GroupElement(c, Mat2(P)), x0)
        a_label, a_params, g1, _, _ = classify_A(x.A)
        shape, b_params, g2, _ = stabilizer_reduce_B(
            a_label, apply_psi2(g1.P, x.B), a_params)
        label = BundleLabel(a_label, shape)
        merged = {name: v for p in (a_params, b_params)
                  for name, v in vars(p).items() if v is not None}
        params = canonicalize_params(label, BundleParams(**merged))
        got = classify_pair(x)
        assert got.label == label == cell
        assert repr(got.params) == repr(params)
        assert repr(got.reducer.c) == repr(g1.c * g2.c)
        assert repr(got.reducer.P.entries) == repr(
            _mul4(g1.P.entries, g2.P.entries))


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
        def takagi(B):
            s, U = _takagi(tuple(B.ravel().tolist()))
            return np.array(s), np.array(U).reshape(2, 2)

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


def test_cell_records_are_the_catalogue():
    """One record per cell: the cell itself and its parameter fields."""
    records = classify_module._CELL_RECORDS
    assert list(records) == [(c.a_label, c.b_shape) for c in CELLS]
    for (a_label, b_shape), (cell, fields) in records.items():
        assert (cell.a_label, cell.b_shape) == (a_label, b_shape)
        assert fields == param_fields(cell)


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_classified_parameters_are_canonical(cell):
    """The parameters that `classify_pair` returns are a fixed point of
    `canonicalize_params`, on moved representatives (at the generic
    parameters and at parameters off the canonical domain) and on Monte
    Carlo samples around them; the tail does not canonicalize, so the
    stage-2 reducer's one decision must."""
    from pairbundles.numerics import _trial_perturbation

    k = CELLS.index(cell)
    p0 = canonicalize_params(cell, GENERIC_PARAMS)
    # a half turn of phi, a negated zeta_star, and the parameters of the
    # other side of each identification
    p1 = replace(p0, phi=p0.phi + math.pi, zeta=-p0.zeta,
                 zeta_star=-p0.zeta_star)
    seen = 0
    for j, params in enumerate((p0, p1)):
        x0 = representative(cell, params)
        e0 = (*x0.A.entries, x0.B.a, x0.B.b, x0.B.d)
        inputs = []
        for t in range(10):
            inputs.append(apply_action(rand_group_element(
                np.random.default_rng([k, j, t]), max_cond=30), x0))
            e = [u + v for u, v in zip(e0, _trial_perturbation(t, k, 1e-3))]
            inputs.append(PairAB(Mat2([e[0:2], e[2:4]]), SymMat2(*e[4:])))
        for x in inputs:
            try:
                cl = classify_pair(x)
            except (AmbiguityError, ClassificationFailureError):
                continue
            assert canonicalize_params(cl.label, cl.params) == cl.params, cl
            seen += 1
    assert seen >= 30, seen


@pytest.mark.parametrize("a", [1.0, 0.5])
@pytest.mark.parametrize("zeta_star", [1.0, -1.0, 2.0, 1.0 - 1e-17j])
def test_real_zeta_star_representatives_classify_to_their_cell(a, zeta_star):
    """one_theta/full_hermitian_like at a real zeta_star: the stage-2
    reducer and the canonical rule once disagreed there, and the
    representative failed verification with residual 2 |zeta_star|."""
    cell = BundleLabel(ALabel.ONE_THETA, BShape.FULL_HERMITIAN_LIKE)
    cl = classify_pair(representative(
        cell, replace(GENERIC_PARAMS, a=a, zeta_star=zeta_star)))
    assert cl.label == cell
    assert cl.residual <= 1e-12
    assert abs(cl.params.zeta_star - abs(zeta_star.real)) <= 1e-12
    assert canonicalize_params(cell, cl.params) == cl.params


@pytest.mark.parametrize("shape", [BShape.PHASE_FORM, BShape.OFF_DIAG_PHASE])
@pytest.mark.parametrize("phi, want_phi, half_turn", [
    (0.0, 0.0, False), (1e-17, 1e-17, False), (-1e-17, 0.0, False),
    (math.pi, 0.0, True)])
def test_tau_phases_at_the_half_turn_boundary(shape, phi, want_phi,
                                              half_turn):
    """The tau-form's phase cells at phi in {0, +-1e-17, pi}: phi wraps
    into [0, pi), and a removed half turn costs c = -1 and negates zeta."""
    cell = BundleLabel(ALabel.TAU_FORM, shape)
    cl = classify_pair(representative(cell, replace(GENERIC_PARAMS, phi=phi)))
    assert cl.label == cell
    assert cl.params.phi == want_phi
    assert cl.reducer.c == (-1.0 if half_turn else 1.0)
    if shape is BShape.PHASE_FORM:
        want_zeta = -GENERIC_PARAMS.zeta if half_turn else GENERIC_PARAMS.zeta
        assert abs(cl.params.zeta - want_zeta) <= 1e-15
    assert cl.residual <= 1e-15


def test_the_tail_reuses_the_stabilizer_check_A_target(monkeypatch):
    """The A-target that stage 2's stabilizer check returns is, bit for
    bit, the representative's A-part at the merged parameters, on every
    cell's representative and on Monte Carlo samples around it."""
    from pairbundles.numerics import _trial_perturbation

    seen = []
    stage2 = classify_module._stabilizer_reduce3

    def spy(*args):
        out = stage2(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(classify_module, "_stabilizer_reduce3", spy)
    cells = set()
    for cell in CELLS:
        x = representative(cell, canonicalize_params(cell, GENERIC_PARAMS))
        a, b = x.A.entries, (x.B.a, x.B.b, x.B.d)
        for t in range(-1, 20):
            d = (0j,) * 7 if t < 0 else _trial_perturbation(0, t, 1e-3)
            seen.clear()
            try:
                label, params, *_ = classify_module._classify4(
                    tuple(u + v for u, v in zip(a, d)),
                    tuple(u + v for u, v in zip(b, d[4:])))
            except (AmbiguityError, ClassificationFailureError):
                continue
            (shape, _, _, _, a_target), = seen
            want = _representative_A_entries(label.a_label, params,
                                             shape in _SWAP_SHAPES)
            assert repr(a_target) == repr(want), (cell, t)
            cells.add(label)
    assert cells == set(CELLS)


# ---------------------------------------------------------------------------
# the verification tail takes `core._gap` and `core._max_abs` in place

_ENTRIES = (0.0, -0.0, complex(-0.0, -0.0), 1.5 - 2j, -3.0, 1e308 + 1e308j,
            math.inf, -math.inf, complex(0.0, -math.inf), math.nan,
            complex(math.nan, 1.0))
_I4 = (1 + 0j, 0j, 0j, 1 + 0j)


@pytest.mark.parametrize("c, p", [
    (1.0, _I4),
    (1j, (2.0, 0j, 0j, 0.5j)),
    (cmath.exp(0.3j), (0.6, 0.8, -0.8, 0.6)),
    # P* A P overflows, to inf - inf off the diagonal for finite A
    (1.0, (1e200, 1e200, 1e200, -1e200)),
], ids=["identity", "diagonal", "rotation", "overflowing"])
def test_stabilizer_defect_is_the_gap_bit_for_bit(monkeypatch, c, p):
    """On A-forms with NaN, infinite and signed-zero entries, the defect
    is `core._gap` of the moved A-form and its target: the check passes
    at a tolerance equal to it and raises, naming it, one step below.  A
    NaN defect passes any tolerance, as NaN > tol is false; the residual
    check fails it later."""
    from pairbundles.core import _gap, _group4, _star_congruence4

    monkeypatch.setitem(classify_module._STAGE2, ALabel.IDENTITY,
                        lambda b, amb: (BShape.ZERO, {}, c, p))
    reduce3 = classify_module._stabilizer_reduce3
    rng = np.random.default_rng(11)
    b = (1.0, 0.0, 1.0)
    for _ in range(300):
        a0 = tuple(_ENTRIES[k] for k in rng.integers(len(_ENTRIES), size=4))
        want = _gap(_star_congruence4(*_group4(c, p), a0), a0)
        if want != want:
            reduce3(ALabel.IDENTITY, {}, a0, -math.inf, b, [])
            continue
        reduce3(ALabel.IDENTITY, {}, a0, want, b, [])
        with pytest.raises(ClassificationFailureError) as info:
            reduce3(ALabel.IDENTITY, {}, a0, math.nextafter(want, -math.inf),
                    b, [])
        assert str(info.value) == (
            f"stage-2 reducer leaves the stabilizer of {ALabel.IDENTITY} "
            f"(defect {want:.3e})"), a0


def _tail_cases():
    """(a, b) pairs for a planted one_theta/diag_ad tail whose residual is
    |b12|: the pair's largest modulus L = 1e3 in each of the six places
    that are not b12, with b12 at 1e-5 L and one step above it; and
    A-parts with NaN, infinite and signed-zero entries."""
    L = 1e3
    for k in (0, 1, 2, 3, 4, 6):
        for b12 in (1e-5 * L, math.nextafter(1e-5 * L, math.inf)):
            a = [0.5, -0.0, 0.25j, -1.0]
            b = [2.0, b12, 3.0]
            if k < 4:
                a[k] = complex(0.6 * L, -0.8 * L)
            else:
                b[k - 4] = L
            yield tuple(a), tuple(b)
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = tuple(_ENTRIES[k] for k in rng.integers(len(_ENTRIES), size=4))
        yield a, (2.0, (-0.0, 0.0, 1e-9)[rng.integers(3)], 3.0)


def test_tail_residual_and_scale_are_the_max_abs_bit_for_bit(monkeypatch):
    """With stage 1 and stage 2 planted so that the residual is |b12| for
    finite A, every outcome of the tail is the one of `core._gap` and
    `core._max_abs`: the returned residual bit for bit, or the failure
    that names it.  At b12 = 1e-5 L the check passes and one step above
    it fails, so the scale is the pair's max-norm L wherever L sits."""
    from pairbundles.core import (_gap, _max_abs, _star_congruence4,
                                  _transpose_congruence3)

    label = BundleLabel(ALabel.ONE_THETA, BShape.DIAG_AD)
    monkeypatch.setitem(
        classify_module._STAGE2, ALabel.ONE_THETA,
        lambda b, amb: (BShape.DIAG_AD, {"a": b[0].real, "d": b[2].real},
                        1 + 0j, _I4))
    passed = failed = 0
    for a, b in _tail_cases():
        stage1 = (ALabel.ONE_THETA, {"theta": 1.0}, 1 + 0j, _I4, (), a, 1e-7)
        rep_b = (b[0].real, 0.0, b[2].real)
        want = _gap(_star_congruence4(1 + 0j, _I4, a)
                    + _transpose_congruence3(_I4, *b), a + rep_b)
        scale = max(1.0, _max_abs(a + b))
        if want <= 1e-5 * scale:
            got = classify_module._classify_rest(a, b, stage1)
            assert got[0] == label and got[4].hex() == want.hex(), (a, b)
            passed += 1
            continue
        with pytest.raises(ClassificationFailureError) as info:
            classify_module._classify_rest(a, b, stage1)
        assert str(info.value) == (f"classification of {label} failed "
                                   f"verification (residual {want:.3e})")
        failed += 1
    assert passed >= 6 + 5 and failed >= 6 + 50


@pytest.mark.parametrize("p, message", [
    # c P* A P overflows to inf on the diagonal
    ((1e200, 0j, 0j, 1e200),
     "stage-2 reducer leaves the stabilizer of ALabel.IDENTITY (defect inf)"),
    # P* P's off-diagonal is inf - inf: a NaN defect passes the stabilizer
    # check, and the NaN residual fails the pair
    ((1e200, 1e200, 1e200, -1e200),
     "classification of identity/zero failed verification (residual nan)"),
], ids=["inf", "nan"])
def test_an_overflowing_stage2_reducer_fails_with_its_message(
        monkeypatch, p, message):
    monkeypatch.setitem(classify_module._STAGE2, ALabel.IDENTITY,
                        lambda b, amb: (BShape.ZERO, {}, 1.0, p))
    x = representative(BundleLabel(ALabel.IDENTITY, BShape.ZERO),
                       GENERIC_PARAMS)
    with pytest.raises(ClassificationFailureError) as info:
        classify_pair(x)
    assert str(info.value) == message
