import cmath
import math
import unittest

import numpy as np
import pytest

from pairbundles.core import ValidationError, max_norm
from pairbundles.normal_forms import (
    ANGLE_FIELDS,
    COMPLEX_FIELDS,
    ALabel,
    BShape,
    BundleLabel,
    BundleParams,
    CELLS,
    GENERIC_PARAMS,
    PROVENANCE_NOTES,
    _A_FORMS,
    _B_FORMS,
    _param_violations,
    _wrap_phase_halfturn,
    canonicalize_params,
    label_from_string,
    param_fields,
    representative,
    table_dimension,
    validate_params,
)


class TestCatalog(unittest.TestCase):
    def test_cell_count(self):
        self.assertEqual(len(CELLS), 46)

    def test_dimension_spot_checks(self):
        self.assertEqual(
            table_dimension(BundleLabel(ALabel.ONE_THETA, BShape.FULL_HERMITIAN_LIKE)), 14
        )
        self.assertEqual(
            table_dimension(BundleLabel(ALabel.IDENTITY, BShape.DIAG_AD)), 11
        )
        self.assertEqual(table_dimension(BundleLabel(ALabel.ZERO, BShape.ZERO)), 0)
        self.assertEqual(
            table_dimension(BundleLabel(ALabel.TAU_FORM, BShape.PHASE_FORM)), 14
        )

    def test_invalid_cell_rejected(self):
        with self.assertRaises(ValueError):
            BundleLabel(ALabel.ZERO, BShape.PHASE_FORM)

    def test_every_cell_has_representative(self):
        for label in CELLS:
            x = representative(label, GENERIC_PARAMS)
            self.assertTrue(np.all(np.isfinite(x.A.array.view(float))))

    def test_provenance_notes_attach_to_real_cells(self):
        for label in PROVENANCE_NOTES:
            self.assertIn(label, CELLS)

    def test_serialization(self):
        lab = BundleLabel(ALabel.ONE_THETA, BShape.ANTI_DIAG)
        self.assertEqual(str(lab), "one_theta/anti_diag")
        self.assertEqual(label_from_string("one_theta/anti_diag"), lab)
        with self.assertRaises(ValidationError):
            label_from_string("bogus/label")


class TestRepresentatives(unittest.TestCase):
    def test_identity_diag_ad(self):
        x = representative(
            BundleLabel(ALabel.IDENTITY, BShape.DIAG_AD), BundleParams(a=1.0, d=3.0)
        )
        assert np.allclose(x.A.array, np.eye(2))
        assert np.allclose(x.B.array, np.diag([1.0, 3.0]))

    def test_zero_zero(self):
        x = representative(BundleLabel(ALabel.ZERO, BShape.ZERO))
        assert max_norm(x.A) == 0.0 and max_norm(x.B) == 0.0

    def test_one_theta_anti_diag(self):
        x = representative(
            BundleLabel(ALabel.ONE_THETA, BShape.ANTI_DIAG),
            BundleParams(theta=math.pi / 2, b=2.0),
        )
        assert np.allclose(x.A.array, np.diag([1.0, 1j]))
        assert np.allclose(x.B.array, [[0, 2], [2, 0]])

    def test_tau_form(self):
        x = representative(
            BundleLabel(ALabel.TAU_FORM, BShape.ONE_ZETA),
            BundleParams(tau=0.25, zeta=1 - 2j),
        )
        assert np.allclose(x.A.array, [[0, 1], [0.25, 0]])
        assert np.allclose(x.B.array, np.diag([1.0, 1 - 2j]))

    def test_swap_representative_cells_use_antidiagonal_A(self):
        for shape in (BShape.SWAP_ONE_DE_ITHETA, BShape.SWAP_OFF_DIAG_B_ONE,
                      BShape.SWAP_ONE_ZERO):
            x = representative(
                BundleLabel(ALabel.ONE_PLUS_MINUS, shape), GENERIC_PARAMS
            )
            assert np.allclose(x.A.array, [[0, 1], [1, 0]])

    def test_diagonal_one_plus_minus(self):
        x = representative(
            BundleLabel(ALabel.ONE_PLUS_MINUS, BShape.ANTI_DIAG), BundleParams(b=1.5)
        )
        assert np.allclose(x.A.array, np.diag([1.0, -1.0]))

    def test_nilpotent_and_jordan_A_parts(self):
        x = representative(BundleLabel(ALabel.NILPOTENT, BShape.ZERO))
        assert np.allclose(x.A.array, [[0, 1], [0, 0]])
        y = representative(BundleLabel(ALabel.JORDAN_I, BShape.ZERO))
        assert np.allclose(y.A.array, [[0, 1], [1, 1j]])


class TestValidation(unittest.TestCase):
    def test_tau_domain(self):
        lab = BundleLabel(ALabel.TAU_FORM, BShape.ZERO)
        v = validate_params(lab, BundleParams(tau=0.0))
        self.assertTrue(any("tau" in s for s in v))
        self.assertEqual(validate_params(lab, BundleParams(tau=0.5)), [])

    def test_theta_domain(self):
        lab = BundleLabel(ALabel.ONE_THETA, BShape.FULL_HERMITIAN_LIKE)
        ok = BundleParams(theta=math.pi / 3, a=1.0, b=1.0, d=1.0, zeta_star=1j)
        self.assertEqual(validate_params(lab, ok), [])
        bad = BundleParams(theta=math.pi, a=1.0, d=1.0, zeta_star=1j)
        self.assertTrue(validate_params(lab, bad))

    def test_a_less_than_d(self):
        lab = BundleLabel(ALabel.IDENTITY, BShape.DIAG_AD)
        v = validate_params(lab, BundleParams(a=2.0, d=2.0))
        self.assertTrue(any("d_identity" in s for s in v))

    def test_non_finite_values_are_refused_by_name(self):
        inf, nan = math.inf, math.nan
        for label, kw, says in (
            ("one_zero/diag_a0", {"a": inf}, "a must be finite"),
            ("one_zero/diag_a0", {"a": nan}, "a must be finite"),
            ("one_zero/diag_a0", {"a": -inf}, "a must be positive"),
            ("one_theta/anti_diag", {"theta": 1.0, "b": inf},
             "b must be finite"),
            ("identity/d_identity", {"d": inf}, "d must be finite"),
            ("tau_form/phase_form",
             {"tau": 0.5, "phi": nan, "b": 1.0, "zeta": 1j},
             "phi must be finite"),
            ("tau_form/phase_form",
             {"tau": 0.5, "phi": 0.7, "b": 1.0, "zeta": complex(0, inf)},
             "zeta must be finite"),
            ("nilpotent/zeta_b_one", {"zeta_star": complex(nan, 0), "b": 1.0},
             "zeta_star must be finite"),
            ("tau_form/zero", {"tau": inf}, "tau must lie in (0, 1)"),
            ("one_theta/zero", {"theta": nan}, "theta must lie in (0, pi)"),
        ):
            self.assertEqual(validate_params(label_from_string(label),
                                             BundleParams(**kw)), [says])

    def test_missing_param_reported(self):
        lab = BundleLabel(ALabel.ONE_THETA, BShape.ANTI_DIAG)
        v = validate_params(lab, BundleParams(theta=1.0))
        self.assertTrue(any("b" in s for s in v))

    def test_representative_rejects_bad_params(self):
        with self.assertRaises(ValidationError):
            representative(
                BundleLabel(ALabel.TAU_FORM, BShape.ZERO), BundleParams(tau=2.0)
            )


class TestCanonicalization(unittest.TestCase):
    def test_zeta_star_sign(self):
        lab = BundleLabel(ALabel.ONE_THETA, BShape.FULL_HERMITIAN_LIKE)
        p = canonicalize_params(
            lab, BundleParams(theta=1.0, a=1.0, d=1.0, zeta_star=-2.0)
        )
        self.assertEqual(p.zeta_star, 2.0)

    def test_zeta_star_sign_is_an_invariant_over_nilpotent(self):
        # the nilpotent stabilizer cannot flip the sign of zeta*, so no
        # identification applies there
        lab = BundleLabel(ALabel.NILPOTENT, BShape.ZETA_B_ONE)
        p = canonicalize_params(lab, BundleParams(zeta_star=-2.0, b=1.0))
        self.assertEqual(p.zeta_star, -2.0)

    def test_zeta_star_arg_range(self):
        lab = BundleLabel(ALabel.ONE_THETA, BShape.FULL_HERMITIAN_LIKE)
        for z in (1 + 1j, -1 - 1j, -3j, 5j, -1.0, 1.0, cmath.exp(2.9j)):
            p = canonicalize_params(
                lab, BundleParams(theta=1.0, a=1.0, d=1.0, zeta_star=z)
            )
            ang = cmath.phase(p.zeta_star)
            self.assertTrue(0 <= ang < math.pi or ang == 0.0)
            # equivalent inputs map to equal outputs
            q = canonicalize_params(
                lab, BundleParams(theta=1.0, a=1.0, d=1.0, zeta_star=-z)
            )
            self.assertEqual(p.zeta_star, q.zeta_star)

    def test_zeta_star_sign_is_idempotent_at_the_real_axis(self):
        # the argument of -1 + 1e-17i rounds to pi; the rule reads the
        # signs of the parts, so that value stays and its negation maps to it
        lab = BundleLabel(ALabel.ONE_THETA, BShape.FULL_HERMITIAN_LIKE)
        for z in (1 - 1e-17j, -1 + 1e-17j, -1 - 1e-17j, 1 + 1e-17j, 1.0,
                  -1.0, complex(-1.0, -0.0), complex(1.0, -0.0), 2.0,
                  complex(-0.0, 1e-300), complex(0.0, -1e-300)):
            p = canonicalize_params(
                lab, BundleParams(theta=1.0, a=1.0, d=1.0, zeta_star=z))
            self.assertIn(p.zeta_star, (z, -z))
            self.assertEqual(repr(canonicalize_params(lab, p)), repr(p), z)
        p = canonicalize_params(
            lab, BundleParams(theta=1.0, a=1.0, d=1.0, zeta_star=1 - 1e-17j))
        self.assertEqual(p.zeta_star, -1 + 1e-17j)

    def test_phi_mod_pi(self):
        lab = BundleLabel(ALabel.TAU_FORM, BShape.OFF_DIAG_PHASE)
        p = canonicalize_params(lab, BundleParams(tau=0.5, b=1.0, phi=4.0))
        self.assertAlmostEqual(p.phi, 4.0 - math.pi, places=12)
        # fmod leaves -1e-20, which + pi rounds up to pi: the upper guard
        self.assertEqual(_wrap_phase_halfturn(-1e-20), 0.0)

    def test_phase_form_joint_identification(self):
        lab = BundleLabel(ALabel.TAU_FORM, BShape.PHASE_FORM)
        p0 = BundleParams(tau=0.5, phi=0.3, b=1.0, zeta=2 + 1j)
        p1 = BundleParams(tau=0.5, phi=0.3 + math.pi, b=1.0, zeta=-(2 + 1j))
        c0 = canonicalize_params(lab, p0)
        c1 = canonicalize_params(lab, p1)
        self.assertAlmostEqual(c0.phi, c1.phi, places=12)
        self.assertAlmostEqual(abs(c0.zeta - c1.zeta), 0.0, places=12)

    def test_sort_a_d(self):
        lab = BundleLabel(ALabel.IDENTITY, BShape.DIAG_AD)
        p = canonicalize_params(lab, BundleParams(a=3.0, d=1.0))
        self.assertEqual((p.a, p.d), (1.0, 3.0))

    def test_idempotent(self):
        for lab in CELLS:
            p0 = canonicalize_params(lab, GENERIC_PARAMS)
            p1 = canonicalize_params(lab, p0)
            self.assertEqual(p0, p1, msg=str(lab))


class TestParamFields(unittest.TestCase):
    def test_counts_match_dimension_gaps(self):
        # the number of free real parameters of each cell is
        # dim(bundle) - dim(orbit at generic params); spot-check the two
        # 14-dimensional cells which carry 6 and 5 real parameters
        full = BundleLabel(ALabel.ONE_THETA, BShape.FULL_HERMITIAN_LIKE)
        self.assertEqual(param_fields(full), ("theta", "a", "d", "zeta_star"))
        phase = BundleLabel(ALabel.TAU_FORM, BShape.PHASE_FORM)
        self.assertEqual(param_fields(phase), ("tau", "phi", "b", "zeta"))

    def test_zero_cells_have_no_params(self):
        self.assertEqual(param_fields(BundleLabel(ALabel.ZERO, BShape.ZERO)), ())
        self.assertEqual(param_fields(BundleLabel(ALabel.ONE_ZERO, BShape.SWAP)), ())


@pytest.mark.parametrize("label", CELLS, ids=str)
def test_representative_matches_declared_shape(label):
    """The B-part of every representative has zeros exactly where the shape
    declares them (with generic parameters)."""
    x = representative(label, GENERIC_PARAMS)
    B = x.B
    zero_positions = {
        BShape.ZERO: ("a", "b", "d"),
        BShape.DIAG_AD: ("b",),
        BShape.ANTI_DIAG: ("a", "d"),
        BShape.DIAG_A0: ("b", "d"),
        BShape.ZERO_D: ("a", "b"),
        BShape.ONE_ZETA: ("b",),
        BShape.ZERO_ONE: ("a", "b"),
        BShape.DIAG_A_ZETA: ("b",),
        BShape.DIAG_A_ONE: ("b",),
        BShape.ONE_ZERO: ("b", "d"),
        BShape.D_IDENTITY: ("b",),
        BShape.SWAP: ("a", "d"),
        BShape.RANK1: ("b", "d"),
        BShape.RANK2: ("b",),
        BShape.SWAP_ONE_ZERO: ("b", "d"),
        BShape.SWAP_ONE_DE_ITHETA: ("b",),
        BShape.OFF_DIAG_PLUS_D: ("a",),
        BShape.A_PLUS_OFF_DIAG: ("d",),
        BShape.OFF_DIAG_PHASE: ("a",),
        BShape.OFF_DIAG_B_ONE: ("a",),
        BShape.ONE_B_ZERO: ("d",),
        BShape.ZETA_B_ONE: (),
        BShape.SWAP_OFF_DIAG_B_ONE: ("a",),
        BShape.FULL_HERMITIAN_LIKE: (),
        BShape.PHASE_FORM: (),
    }
    for name in zero_positions[label.b_shape]:
        assert getattr(B, name) == 0


# every form record: (fields, form) with an id naming its table and key
_FORM_RECORDS = [pytest.param(*record, id=f"{part}-{key.value}")
                 for part, table in (("A", _A_FORMS), ("B", _B_FORMS))
                 for key, record in table.items()]


@pytest.mark.parametrize("fields, form", _FORM_RECORDS)
def test_form_records_are_affine_in_each_field(fields, form):
    """With e the identity, each form record has equal first differences in
    each field, so the exact tangent ranks may take a derivative as the
    record at 1 minus the record at 0.  A form quadratic in a field fails
    here."""
    p = vars(GENERIC_PARAMS)
    for name in fields:
        for steps in (((0, 1, 2), (0, 1j, 2j)) if name in COMPLEX_FIELDS
                      else ((0, 1, 2),)):
            f0, f1, f2 = (form({**p, name: v}, lambda v: v) for v in steps)
            assert ([y - x for x, y in zip(f0, f1)]
                    == [y - x for x, y in zip(f1, f2)]), name


@pytest.mark.parametrize("fields, form", _FORM_RECORDS)
def test_angles_enter_the_form_records_only_through_e(fields, form):
    """An angle's value reaches a form only as e(angle), and e sees nothing
    else, so the angle's derivative is i e^{iv} times e's coefficient."""
    seen = []

    def e(v):
        seen.append(v)
        return 0.0

    values = [form({**vars(GENERIC_PARAMS), **dict.fromkeys(ANGLE_FIELDS, x)},
                   e) for x in (0.125, 0.375)]
    assert values[0] == values[1]
    assert set(seen) <= {0.125, 0.375}
    assert bool(seen) == bool(ANGLE_FIELDS & set(fields))


_BAD_VALUES = (None, 0.0, -1.0, math.inf, math.nan)


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_validate_params_is_the_dict_validator(cell):
    """`validate_params` and the dict validator give the same messages in
    the same order: for valid parameters, for each field set to each of
    None, 0, a negative, inf and nan, for every field at once set to each
    of them, and for a >= d; a name left out of the dict reads as None."""
    fields = param_fields(cell)
    good = vars(canonicalize_params(cell, GENERIC_PARAMS))
    cases = [good, {**good, "a": 3.0, "d": 2.0}, {**good, "a": 2.0, "d": 2.0}]
    for bad in _BAD_VALUES:
        cases += [{**good, name: bad} for name in fields]
        cases.append({**good, **dict.fromkeys(fields, bad)})
    for p in cases:
        given = {k: v for k, v in p.items() if v is not None}
        assert (_param_violations(cell, given, fields)
                == validate_params(cell, BundleParams(**p))), (cell, p)
    assert _param_violations(cell, good, fields) == []


def test_the_dict_validator_names_each_field_in_order():
    cell = label_from_string("one_theta/full_hermitian_like")
    fields = param_fields(cell)
    assert _param_violations(cell, {"a": 0.0, "zeta_star": 0j}, fields) == [
        "theta is required", "a must be positive", "d is required",
        "zeta_star must be nonzero"]
    nan = dict.fromkeys(fields, math.nan)
    assert _param_violations(cell, nan, fields) == [
        "theta must lie in (0, pi)", "a must be finite", "d must be finite",
        "zeta_star must be finite"]
    diag = label_from_string("one_plus_minus/diag_ad")
    assert _param_violations(diag, {"a": 2.0, "d": 2.0},
                             param_fields(diag)) == [
        "a<d required; use d_identity label for a=d"]
