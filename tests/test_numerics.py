import cmath
import dataclasses
import functools
import importlib.util
import itertools
import json
import math
import pathlib
import re
import struct
import time
import unittest

import numpy as np
import pytest

from pairbundles.core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    ValidationError,
    _det4,
    _entries4,
    _singular_values,
    apply_action,
    dumps,
    max_norm,
)
from pairbundles.closure import bundle_graph, shape_min_rank, shape_rank
from pairbundles.normal_forms import (
    CELLS,
    ALabel,
    BShape,
    BundleParams,
    label_from_string as L,
    param_fields,
    representative,
    representative_A,
    table_dimension,
    validate_params,
)
from pairbundles import numerics
from pairbundles.numerics import (
    _coords_to_params,
    _distance_kernel,
    _param_coords,
    _spectral_norm,
    _trial_perturbation,
    _trial_perturbations,
    _trial_stage1,
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
from pairbundles.witnesses import (
    CATALOG,
    witness_eval,
    witness_lookup,
    witness_repair,
)


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
        # the rank is that of the given point, however far out its values
        for a in (1e-300, 1e300):
            self.assertEqual(bundle_dimension_numeric(
                L("one_zero/diag_a0"), BundleParams(a=a)), 6)

    def test_every_cell_matches_the_table_at_a_second_point(self):
        # the bundle dimension is constant on the bundle; these values share
        # nothing with GENERIC_PARAMS
        second = BundleParams(theta=2.0, tau=0.25, a=0.75, b=3.0, d=2.5,
                              phi=-1.0, zeta=-0.5 + 0.125j,
                              zeta_star=2.0 - 1.0j)
        for cell in CELLS:
            params = BundleParams(**{f: getattr(second, f)
                                     for f in param_fields(cell)})
            self.assertEqual(bundle_dimension_numeric(cell, params),
                             table_dimension(cell), msg=str(cell))

    def test_non_finite_params_rejected(self):
        with self.assertRaises(ValidationError):
            bundle_dimension_numeric(L("one_zero/diag_a0"),
                                     BundleParams(a=math.inf))

    def test_invalid_params_rejected(self):
        with self.assertRaises(ValidationError):
            bundle_dimension_numeric(L("one_theta/zero"),
                                     BundleParams(theta=4.0))

    def test_psi2_orbit_dimensions(self):
        self.assertEqual(psi2_orbit_dimension_numeric(SymMat2.diag(1, 0)), 2)
        self.assertEqual(psi2_orbit_dimension_numeric(SymMat2.identity()), 3)
        self.assertEqual(psi2_orbit_dimension_numeric(SymMat2.zero()), 0)
        # nonsingular, however small its second singular value
        self.assertEqual(
            psi2_orbit_dimension_numeric(SymMat2.diag(1, 1e-12)), 3)


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

    def test_bare_b_data_is_read_as_its_symmetric_part(self):
        # as PairAB and SymMat2.from_array read an array B
        P = np.array([[1.0, 0.3j], [0.1, 0.9]])
        Pi = np.linalg.inv(P)
        skew = np.array([[0.0, 1e-3], [-1e-3, 0.0]])
        Bt = np.array([[1.0, 0.2], [0.2, 2.0]])
        B = Pi.T @ (Bt + np.diag([1e-3, -2e-3])) @ Pi + skew
        Bt = Bt + 1j * skew
        want = lemadet_verify(SymMat2.from_array(Bt), SymMat2.from_array(B),
                              _ge(1.0, P), "PBF")
        self.assertTrue(want.hypothesis_ok)
        for src, dst in ((Bt, B), (Bt.tolist(), B.tolist())):
            self.assertEqual(lemadet_verify(src, dst, _ge(1.0, P), "PBF"),
                             want)

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


# ---------------------------------------------------------------------------
# every table-3 row against the catalogue's degeneration families

_TABLE3_ROWS = tuple(f"C{k}" for k in range(1, 13)) + ("C12a", "C12b")
# the garbled families enter in their repaired form
_REPAIRED = tuple(witness_repair(f)[0] for f in CATALOG)


def _table3_max_residual(row, fam, s):
    g, _, _ = witness_eval(fam, s)
    return max(table3_residuals(row, fam.source_pair().A.array,
                                fam.target_instance_of_s(s).A.array,
                                g.c, g.P.array))


def _table3_matches():
    """(row, family) for every family whose A-forms fit the row's types."""
    out = []
    for fam in _REPAIRED:
        for row in _TABLE3_ROWS:
            try:
                _table3_max_residual(row, fam, 0.1)
            except ValueError:
                continue
            out.append((row, fam))
    return out


_TABLE3_MATCHES = _table3_matches()


def test_table3_rows_reached_by_the_catalogue():
    assert len(_REPAIRED) == 29
    assert len(_TABLE3_MATCHES) == 30
    assert set(_TABLE3_ROWS) - {row for row, _ in _TABLE3_MATCHES} == {
        "C8", "C12", "C12b"}


@pytest.mark.parametrize("row, fam", [
    pytest.param(row, fam, id=f"{row}-{fam.name}")
    for row, fam in _TABLE3_MATCHES])
def test_table3_residual_vanishes_along_family(row, fam):
    coarse = _table3_max_residual(row, fam, 0.1)
    fine = _table3_max_residual(row, fam, 1e-3)
    assert fine <= 2e-2 * coarse or fine <= 1e-12


@pytest.mark.parametrize("c, P", [(1.0, [[1, 0], [0, 1]]),
                                  (-1.0, [[0, 1], [1, 0]])])
def test_c12a_exact_moves_of_plus_minus_diag(c, P):
    """c P* A P = A for A = diag(1, -1), so sigma~ = -1 and c = sign; the
    (2,2) entry gives |y|^2 - |v|^2 = sigma~ * sign, and every residual of
    the row is exactly zero."""
    A = [[1, 0], [0, -1]]
    assert table3_residuals("C12a", A, A, c, P) == [0.0, 0.0, 0.0, 0.0]


_D1M1 = [[1, 0], [0, -1]]
_SWAP = [[0, 1], [1, 0]]
_TAU0 = [[0, 1], [0, 0]]
# (row, A~, A, the types they do not fit)
_TABLE3_TYPES = [
    ("C1", [[2, 0], [0, 0]], np.eye(2), "(alpha(+)0, I2)"),
    ("C2", np.diag([1, 0]), np.eye(2), "(alpha(+)0, diag(1,e^{i theta}))"),
    ("C3", np.diag([1, 0]), np.diag([1, 1j]),
     "([[0,1],[1,omega]], diag(1,e^{i theta}))"),
    ("C4", np.diag([1, 0]), _SWAP, "(alpha(+)0, [[0,1],[tau,0]])"),
    ("C5", _SWAP, _TAU0, "([[0,1],[1,omega]], [[0,1],[tau,0]])"),
    ("C6", [[1, 2], [2, 0]], _SWAP,
     "([[alpha,beta],[beta,omega]], [[0,1],[1,0]])"),
    ("C7", np.diag([1, 0]), _SWAP, "(alpha(+)0, [[0,1],[1,i]])"),
    ("C8", np.diag([1, 1j]), _D1M1,
     "(diag(1,e^{i theta~}), diag(1,e^{i theta}))"),
    ("C9", _SWAP, _SWAP, "([[alpha,beta],[beta,omega]], [[0,1],[1,i]])"),
    ("C10", np.diag([1, 0]), _TAU0, "([[0,1],[tau~,0]], [[0,1],[tau,0]])"),
    ("C10", [[0, 1], [0.5, 0]], _TAU0, "tau range"),
    ("C11", np.diag([1, 0]), np.diag([1, 1j]),
     "second component diag(1,sigma)"),
    ("C11", _SWAP, _D1M1, "first argument diag(alpha,omega)"),
    ("C12", _SWAP, np.eye(2), "([[0,1],[1,0]], diag(1,-1))"),
    ("C12a", np.diag([1, 0]), np.eye(2),
     "(diag(1,sigma), diag(1,e^{i theta}))"),
    ("C12b", np.diag([1, 0]), np.eye(2), "(alpha(+)0, diag(1,0))"),
]
_TABLE4_SHAPES = {"D1": "[[0,b],[b,d]]", "D2": "[[a,b],[b,0]]",
                  "D3": "0(+)d", "D4": "[[0,b],[b,0]]", "D5": "a(+)0"}


def _mismatch_cases():
    """(engine, row, first form, second form, message) for every row."""
    fits = "does not match the row's types"
    for row, At, A, what in _TABLE3_TYPES:
        yield table3_residuals, row, At, A, f"row {row}: {what} {fits}"
    # symmetry is checked first, so an unknown row reports it too
    for row in (*_TABLE4_SHAPES, "D9"):
        yield (table4_residuals, row, np.eye(2), [[0, 1], [0.5, 0]],
               f"row {row}: second component not symmetric {fits}")
    for row, what in _TABLE4_SHAPES.items():
        for B in (np.eye(2), np.zeros((2, 2))):
            yield (table4_residuals, row, np.eye(2), B,
                   f"row {row}: {what} {fits}")
    for engine in (table3_residuals, table4_residuals):
        for row in ("C99", "D9"):
            yield engine, row, np.eye(2), np.eye(2), f"unknown row {row!r}"


@pytest.mark.parametrize("engine, row, first, second, msg", [
    pytest.param(*case, id=f"{case[0].__name__[:6]}-{case[1]}-{k}")
    for k, case in enumerate(_mismatch_cases())])
def test_mismatch_message(engine, row, first, second, msg):
    rest = (1.0, np.eye(2)) if engine is table3_residuals else (np.eye(2),)
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        engine(row, first, second, *rest)


@pytest.mark.parametrize("row, A", [
    ("C1", [[1.0, 0.0], [0.0, 1.0]]),
    ("C12b", [[1.0, 0.0], [0.0, 0.0]]),
])
def test_identity_matchers_use_the_one_matching_rule(row, A):
    """C1 and C12b test "A is I2" and "A is diag(1, 0)" by the rule of every
    row: each entry within 1e-9 of the form's, a diagonal 1 as a zero."""
    def residuals(j, k, delta):
        M = np.array(A, dtype=complex)
        M[j, k] += delta
        return table3_residuals(row, np.diag([1.0, 0.0]), M, 1.0, np.eye(2))

    assert residuals(0, 0, 9e-10)
    assert residuals(0, 1, 9e-10)
    for j, k, delta in ((0, 0, 9e-6), (0, 1, 2e-9), (1, 0, 2e-9j)):
        with pytest.raises(ValueError, match=f"^row {row}: .* does not match"):
            residuals(j, k, delta)


@pytest.mark.parametrize("name, label, swap_rep", [
    ("_ZERO", ALabel.ZERO, False),
    ("_ONE_ZERO", ALabel.ONE_ZERO, False),
    ("_IDENTITY", ALabel.IDENTITY, False),
    ("_ONE_PLUS_MINUS", ALabel.ONE_PLUS_MINUS, False),
    ("_JORDAN_I", ALabel.JORDAN_I, False),
    ("_SWAP", ALabel.ONE_PLUS_MINUS, True),
])
def test_table3_forms_are_the_representatives(name, label, swap_rep):
    form = getattr(numerics, name)
    assert form == representative_A(label, swap_rep=swap_rep).entries


def test_symmetric_rows_match_each_entry():
    """C6, C9, C11 and C12 match their first argument entry by entry, as
    every row does, not by "symmetric, and its upper triangle matches": an
    off-diagonal pair 1 +- 8e-10 is within 1e-9 of the form's 1s, and a
    pair 1 + 8e-10, 1 + 1.5e-9 is not, though the two differ by less."""
    Am, P = np.diag([1.0, -1.0]), np.eye(2)
    At = [[0, 1 + 8e-10], [1 - 8e-10, 0]]
    assert table3_residuals("C12", At, Am, 1.0, P) == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="^row C12: "):
        table3_residuals("C12", [[0, 1 + 8e-10], [1 + 1.5e-9, 0]], Am, 1.0, P)


def test_c3_at_omega_zero():
    """C3 at omega = 0, A~ = [[0,1],[1,0]], which no family reaches."""
    res = table3_residuals("C3", _SWAP, np.diag([1.0, cmath.exp(1j)]),
                           1.0, np.eye(2))
    assert res == [1.0, 1.0, 1.0, math.sin(1.0)]


@pytest.mark.parametrize("A, c, P, residuals", [
    ([[1, 0], [0, -1]], 1.0, [[1, 0], [0, 1]], [0.0, 0.0, 0.0, 0.0]),
    ([[1, 0], [0, -1]], -1.0, [[0, 1], [1, 0]], [0.0, 0.0, 0.0, 0.0]),
    ([[1, 0], [0, 1]], 1.0, [[1, 0], [0, 1]], [0.0, 0.0, 0.0, 0.0]),
    ([[1, 0], [0, 1]], 1.0, [[0, 1], [1, 0]], [0.0, 0.0, 0.0, 0.0]),
    # x = y = v = 1, u = 0: x~ y + u~ v = 1 and |y|^2 + |v|^2 - 1 = 1
    ([[1, 0], [0, 1]], 1.0, [[1, 1], [0, 1]], [0.0, 1.0, 1.0, 0.0]),
])
def test_c11_at_alpha_one_and_omega_sigma(A, c, P, residuals):
    """A~ = A = diag(1, sigma): the (2,2) entry of c P* A P = A~ gives
    |y|^2 + sigma |v|^2 = omega / c, so every exact self-move has zero
    residuals, for sigma = -1 as for sigma = 1."""
    assert table3_residuals("C11", A, A, c, P) == residuals


@pytest.mark.parametrize("c", [math.nan, complex(1.0, math.nan), 2.0])
def test_table3_refuses_a_c_off_the_unit_circle(c):
    with pytest.raises(ValidationError, match="^c must be unimodular$"):
        table3_residuals("C1", np.diag([1.0, 0.0]), np.eye(2), c, np.eye(2))


def test_engines_take_value_types_arrays_and_lists():
    """Mat2/SymMat2, ndarrays and nested lists give the same reports."""
    X = np.array([[1.0, 0.5j], [-0.2, 2.0]])
    D = np.array([[0.01, 0.0], [0.02j, -0.01]])
    P = np.array([[1.0, 0.4j], [0.2, 1.1]])
    B = TestTable4.ROWS["D1"]
    Bt = P.T @ B @ P
    for conv in (Mat2, np.asarray, np.ndarray.tolist):
        assert detxe_bound(conv(X), conv(D)) == detxe_bound(X, D)
        assert (table3_residuals("C4", conv(np.diag([1.0, 0.0])),
                                 conv(np.array([[0, 1], [0.5, 0]])), 1.0,
                                 conv(P))
                == table3_residuals("C4", np.diag([1.0, 0.0]),
                                    [[0, 1], [0.5, 0]], 1.0, P))
        assert (table4_residuals("D1", conv(Bt), conv(B), conv(P))
                == table4_residuals("D1", Bt, B, P))
    assert (table4_residuals("D1", Bt, SymMat2.from_array(B), P)
            == table4_residuals("D1", Bt, B, P))


def test_verification_engines_call_no_numpy_inv_or_det(monkeypatch, capsys):
    """The bounds suite, witness evaluation over the catalogue, the pinned
    table matches, nu_fit and group_inverse all run with numpy.linalg.inv
    and numpy.linalg.det unavailable: their 2x2 arithmetic is core's."""
    from pairbundles.cli import main
    from pairbundles.core import group_inverse
    from pairbundles.witnesses import witness_verify

    def unavailable(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("inv", "det"):
        monkeypatch.setattr(np.linalg, name, unavailable)
    assert main(["verify", "bounds", "--trials", "20"]) == 0
    assert '"pass": true' in capsys.readouterr().out
    statuses = [witness_verify(f).status for f in CATALOG]
    assert statuses.count("verified") == 27
    for row, fam in _TABLE3_MATCHES:
        _table3_max_residual(row, fam, 0.1)
    P = np.array([[1.0, 0.4j], [0.2, 1.1]])
    for row, B in TestTable4.ROWS.items():
        assert table4_residuals(row, P.T @ B @ P, B, P).hypothesis_ok
    fam = witness_lookup(L("one_zero/zero"), L("tau_form/zero"))
    assert nu_fit(fam, "C4").nu_estimate > 0.0
    g = _ge(1j, np.array([[1.0, 2.0], [0.5j, 3.0]]))
    want = np.array([[3.0, -2.0], [-0.5j, 1.0]]) / (3.0 - 1j)
    assert max_norm(group_inverse(g).P.array - want) <= 1e-15


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

    def test_exact_congruence_passes_with_its_rounding(self):
        """An exact congruence passes although its observed defect is
        rounding: with F = 0 the printed allowance is 0, and D2's observed
        6.9e-17 used to fail it.  The floor stays at rounding size."""
        P = np.array([[1.0, 0.4j], [0.2, 1.1]])
        for row, B in self.ROWS.items():
            for F in (None, np.zeros((2, 2))):
                rep = table4_residuals(row, P.T @ B @ P, B, P, F)
                self.assertTrue(rep.ok, msg=row)
                self.assertLess(rep.bound_value, 1e-13, msg=row)
        B = self.ROWS["D2"]
        rep = table4_residuals("D2", P.T @ B @ P, B, P, np.zeros((2, 2)))
        self.assertGreater(rep.observed_value, 0.0)

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

    def test_source_with_params(self):
        """A (label, params) source, and a (label, None) one for the
        generic parameters, give the label's floor; the report is JSON."""
        src, dst = L("one_theta/zero"), L("tau_form/zero")
        ec = nonedge_floor(src, dst, budget=1)
        for pair in ((src, generic_params(src)), (src, None)):
            self.assertEqual(nonedge_floor(pair, dst, budget=1), ec)
        doc = json.loads(dumps(ec))
        self.assertEqual(doc["src"], str(src))
        self.assertEqual(doc["floor"], ec.floor)
        self.assertEqual(doc["detail"], {"seed": 0, "budget": 1,
                                         "norm": "max"})


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

    def test_trial_table_is_the_per_trial_stream(self):
        """Entry t of the held table is trial t's perturbation, bit for bit
        (repr tells the sign of a zero), as a tuple of tuples."""
        for seed, trials, eps in ((0, 5, 1e-3), (3, 17, 0.1),
                                  (12345, 1, 2.5e-2)):
            _trial_perturbations.cache_clear()
            table = _trial_perturbations(seed, trials, eps)
            self.assertIs(type(table), tuple)
            self.assertTrue(all(type(row) is tuple for row in table))
            self.assertEqual(repr(table), repr(tuple(
                tuple(_trial_perturbation(seed, t, eps))
                for t in range(trials))))

    def test_reports_do_not_depend_on_the_held_table(self):
        """Every report equals its cold one, made with both held tables
        emptied: from warm tables, with centres of different A-forms
        interleaved, over CELLS reversed, and after a run with another
        seed, epsilon or trial count.  That run moves the histograms."""
        centres = [L(s) for s in ("jordan_i/zero", "one_plus_minus/diag_ad",
                                  "one_zero/zero", "tau_form/zero")]
        # one_theta, tau_form, one_theta: the third centre shares its A
        # with the first, whose stage-1 table the second one's replaced
        interleaved = [L(s) for s in ("one_theta/zero", "tau_form/zero_one",
                                      "one_theta/anti_diag")]

        def reports(cells, seed=5, eps=1e-2, trials=40):
            return [monte_carlo_neighborhood(c, None, eps, trials,
                                             seed=seed).to_json()
                    for c in cells]

        cold = {}
        for c in CELLS:
            _trial_perturbations.cache_clear()
            _trial_stage1.cache_clear()
            cold[c] = reports([c])[0]
        for cells in (centres, interleaved, CELLS[::-1]):
            self.assertEqual(reports(cells), [cold[c] for c in cells])
        for seed, eps, trials in ((6, 1e-2, 40), (5, 1e-1, 40),
                                  (5, 1e-2, 30)):
            # the run ends on a one_theta centre, so the next one finds a
            # held stage-1 table of its A under the other key
            other = reports(centres + interleaved, seed, eps, trials)
            self.assertNotEqual([r["histogram"] for r in other],
                                [cold[c]["histogram"]
                                 for c in centres + interleaved])
            for cells in (interleaved, centres):
                self.assertEqual(reports(cells), [cold[c] for c in cells],
                                 (seed, eps, trials))


def _reference_report(cell, epsilon, trials, seed, failing=()):
    """The counts of `monte_carlo_neighborhood`'s report, from the public
    `classify_pair` on each trial's `_trial_perturbation` around the
    centre; a trial in failing counts as a failure, as when stage 1 raises
    on it."""
    from pairbundles.classify import (AmbiguityError,
                                      ClassificationFailureError,
                                      classify_pair)

    center = representative(cell, generic_params(cell))
    a00, a01, a10, a11 = center.A.entries
    b0 = center.B
    reachable = bundle_graph().successors(cell)
    histogram, violations, ambiguous, failures = {}, [], 0, 0
    for t in range(trials):
        d = _trial_perturbation(seed, t, epsilon)
        x = PairAB(Mat2([[a00 + d[0], a01 + d[1]], [a10 + d[2], a11 + d[3]]]),
                   SymMat2(b0.a + d[4], b0.b + d[5], b0.d + d[6]))
        try:
            if t in failing:
                raise ClassificationFailureError("stage 1 failed")
            cls = classify_pair(x)
        except AmbiguityError:
            ambiguous += 1
            continue
        except ClassificationFailureError:
            failures += 1
            continue
        name = str(cls.label)
        histogram[name] = histogram.get(name, 0) + 1
        if cls.ambiguous:
            ambiguous += 1
        elif cls.label not in reachable:
            violations.append((t, name))
    return histogram, violations, ambiguous, failures


def _counts(rep):
    return rep.histogram, rep.violations, rep.ambiguous, rep.failures


@pytest.mark.parametrize("epsilon", [1e-2, 0.1])
def test_monte_carlo_is_classify_pair_on_each_trial(epsilon):
    """At every centre, in CELLS order, the report's histogram, violations,
    ambiguous and failure counts are those of `classify_pair` on the same
    trial draws."""
    seed, trials = 3, 40
    ambiguous = 0
    for cell in CELLS:
        rep = monte_carlo_neighborhood(cell, None, epsilon, trials, seed=seed)
        assert _counts(rep) == _reference_report(cell, epsilon, trials,
                                                 seed), cell
        ambiguous += rep.ambiguous
    # the draws reach the ambiguity bands
    assert ambiguous > 0


def test_a_stage1_failure_fails_its_trial_at_each_centre_of_that_A(
        monkeypatch):
    """Stage 1 raising on chosen trials around the one A of the eight
    one_theta centres makes those trials failures at each of them and at
    no other centre, visited in CELLS order and reversed."""
    from pairbundles import classify
    from pairbundles.classify import ClassificationFailureError

    seed, epsilon, trials, failing = 4, 1e-2, 30, {0, 11, 29}
    theta = L("one_theta/zero")
    a = representative(theta, generic_params(theta)).A.entries
    planted = {tuple(x + y for x, y in zip(
        a, _trial_perturbation(seed, t, epsilon))) for t in failing}
    real = classify._stage1

    def stage1(a):
        if a in planted:
            raise ClassificationFailureError("planted")
        return real(a)

    monkeypatch.setattr(classify, "_stage1", stage1)
    _trial_stage1.cache_clear()
    shared = [c for c in CELLS if c.a_label is ALabel.ONE_THETA]
    assert len(shared) == 8
    for cells in (CELLS, CELLS[::-1]):
        failures = 0
        for cell in cells:
            rep = monte_carlo_neighborhood(cell, None, epsilon, trials,
                                           seed=seed)
            assert _counts(rep) == _reference_report(
                cell, epsilon, trials, seed,
                failing if cell in shared else ()), cell
            failures += rep.failures
        assert failures == len(shared) * len(failing)


def test_monte_carlo_counts_each_trial_outcome(monkeypatch, capsys):
    """An AmbiguityError and a noted label count as ambiguous, a
    ClassificationFailureError as a failure, and only a decided label
    outside the centre's successors as a violation, which makes the report
    fail and `mc` exit 3."""
    from pairbundles import classify, cli
    from pairbundles.classify import AmbiguityError, ClassificationFailureError

    top, low = L("one_theta/full_hermitian_like"), L("zero/zero")

    def label(cell, note=()):
        return cell, generic_params(cell), 1.0, (1.0, 0.0, 0.0, 1.0), 0.0, note

    cycle = (AmbiguityError(["top", "low"]), ClassificationFailureError("off"),
             label(top, ("near a wall",)), label(low), label(top))
    calls = []

    def fake_classify_rest(a, b, stage1):
        out = cycle[len(calls) % len(cycle)]
        calls.append((a, b))
        if isinstance(out, Exception):
            raise out
        return out

    monkeypatch.setattr(classify, "_classify_rest", fake_classify_rest)
    _trial_perturbations.cache_clear()
    _trial_stage1.cache_clear()
    rep = monte_carlo_neighborhood(L("zero/rank1"), None, 1e-3, 10, seed=0)
    assert (rep.ambiguous, rep.failures) == (4, 2)
    assert rep.violations == [(3, "zero/zero"), (8, "zero/zero")]
    assert rep.histogram == {str(top): 4, "zero/zero": 2}
    assert rep.ok is False and rep.to_json()["ok"] is False

    calls.clear()
    assert cli.main(["mc", "zero/rank1", "--trials", "10"]) == 3
    assert json.loads(capsys.readouterr().out) == json.loads(
        json.dumps(rep.to_json()))


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


# the benchmark's floor jobs, as the outcome corpus records them
_spec = importlib.util.spec_from_file_location(
    "outcome_corpus",
    pathlib.Path(__file__).resolve().parents[1] / "tools" / "outcome_corpus.py")
_outcome_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_outcome_corpus)
_FLOOR_JOBS = _outcome_corpus.FLOOR_JOBS


# the last two jobs draw random starts for complex and phase fields
@pytest.mark.parametrize("src,dst,budget,norm", _FLOOR_JOBS + [
    ("tau_form/zero", "tau_form/phase_form", 2, "max"),
    ("one_theta/zero", "one_theta/full_hermitian_like", 2, "max"),
])
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


# ---------------------------------------------------------------------------
# the search and its kernel against the plain loop they replaced: each poll
# copies the vector and is evaluated in full, and both reductions run over
# all eight differences

def _reference_search(vec, fn, max_sweeps=25, *, min_step=1e-9, rtol=0.0,
                      first=0):
    vec = list(vec)
    val = fn(vec)
    step = 0.5
    while step >= min_step and step >= rtol * val:
        for _ in range(max_sweeps):
            improved = False
            for i in range(first, len(vec)):
                for sgn in (1.0, -1.0):
                    trial = list(vec)
                    trial[i] += sgn * step
                    tv = fn(trial)
                    if tv < val:
                        vec, val = trial, tv
                        improved = True
            if not improved:
                break
        step *= 0.5
    return val, vec


def _reference_kernel(x, target, norm):
    fields = param_fields(target)
    x00, x01, x10, x11 = x.A.entries
    y00, y01, y10, y11 = x.B.a, x.B.b, x.B.b, x.B.d

    @functools.lru_cache(maxsize=8)
    def target_entries(coords):
        params = _coords_to_params(fields, coords)
        if validate_params(target, params):
            return None
        rep = representative(target, params)
        return (*rep.A.entries, rep.B.a, rep.B.b, rep.B.b, rep.B.d)

    def moved(vec):
        p00, p01 = complex(vec[1], vec[2]), complex(vec[3], vec[4])
        p10, p11 = complex(vec[5], vec[6]), complex(vec[7], vec[8])
        if abs(p00 * p11 - p01 * p10) < 1e-12:
            return None
        entries = target_entries(tuple(vec[9:]))
        if entries is None:
            return None
        a00, a01, a10, a11, b00, b01, b10, b11 = entries
        c = cmath.exp(1j * vec[0])
        s00, s01 = c * p00.conjugate(), c * p10.conjugate()
        s10, s11 = c * p01.conjugate(), c * p11.conjugate()
        t00, t01 = s00 * a00 + s01 * a10, s00 * a01 + s01 * a11
        t10, t11 = s10 * a00 + s11 * a10, s10 * a01 + s11 * a11
        u00, u01 = p00 * b00 + p10 * b10, p00 * b01 + p10 * b11
        u10, u11 = p01 * b00 + p11 * b10, p01 * b01 + p11 * b11
        return (t00 * p00 + t01 * p10 - x00, t00 * p01 + t01 * p11 - x01,
                t10 * p00 + t11 * p10 - x10, t10 * p01 + t11 * p11 - x11,
                u00 * p00 + u01 * p10 - y00, u00 * p01 + u01 * p11 - y01,
                u10 * p00 + u11 * p10 - y10, u10 * p01 + u11 * p11 - y11)

    def objective(vec):
        d = moved(vec)
        if d is None:
            return math.inf
        if norm == "max":
            return max(map(abs, d))
        return max(_spectral_norm(*d[:4]), _spectral_norm(*d[4:]))

    def surrogate(vec):
        d = moved(vec)
        if d is None:
            return math.inf
        return sum(z.real * z.real + z.imag * z.imag for z in d)

    return objective, surrogate


def _bits(value):
    """Hex digits of every float in a search result, so that == is exact."""
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, BundleParams):
        return _bits(dataclasses.astuple(value))
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    return value


def _result_bits(result):
    d, (g, params) = result
    return _bits((d, complex(g.c), g.P.entries, params))


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("src,dst,budget,norm", _FLOOR_JOBS + [
    ("identity/diag_ad", "one_theta/diag_ad", 1, "max"),
    ("one_theta/diag_ad", "identity/diag_ad", 1, "spectral"),
    ("identity/diag_ad", "one_theta/zero", 1, "max"),
    ("one_zero/diag_a_one", "zero/rank1", 1, "spectral"),
    ("one_zero/diag_a_one", "zero/rank1", 1, "max"),
])
def test_search_matches_reference_loop(monkeypatch, src, dst, budget, norm,
                                       seed):
    """Floor, c, P and parameters are bit-identical to the full loop.  On
    seed 4 the identity -> one_plus_minus floor comes from a random
    start.  The floor jobs drop a zero block; the last three cases hold a
    zero target form against a non-zero block of x.  The spectral
    one_zero search stays at its start, where both blocks gauge 1, so only
    the max one shows an A-block dropped by mistake."""
    x = representative(L(src), generic_params(L(src)))
    got = distance_to_bundle(x, L(dst), budget=budget, seed=seed, norm=norm)
    numerics._HELD_STARTS.clear()
    monkeypatch.setattr(numerics, "_distance_kernel", _reference_kernel)
    monkeypatch.setattr(numerics, "_pattern_search", _reference_search)
    want = distance_to_bundle(x, L(dst), budget=budget, seed=seed, norm=norm)
    assert _result_bits(got) == _result_bits(want)


def test_pattern_search_polls_where_the_return_step_rounds_elsewhere():
    """(0.1 + 0.5) - 0.5 rounds to 0.09999999999999998, not 0.1: that -step
    poll is a new point and must be made, and here it wins."""
    back = (0.1 + 0.5) - 0.5
    assert back != 0.1
    table = {(0.1, 0.0): 1.0, (0.6, 0.0): 0.5, (back, 0.0): 0.25,
             (0.6, 0.5): 0.3}

    def fn(vec):
        return table.get(tuple(vec), 2.0)

    want = _reference_search([0.1, 0.0], fn)
    assert want == (0.25, [back, 0.0])
    assert numerics._pattern_search([0.1, 0.0], fn) == want


def _search_cases():
    """(start, fn, max_sweeps) of seeded deterministic test functions."""
    rng = np.random.default_rng(2026)
    for k in range(6):
        n = 3 + k
        centre = rng.standard_normal(n)
        M = rng.standard_normal((n, n))
        H = M @ M.T + np.eye(n)

        def quadratic(vec, centre=centre, H=H):
            d = np.asarray(vec) - centre
            return float(d @ H @ d)

        def walled(vec, centre=centre):
            # inf outside a box, and a kink at |v_0| = 0.3
            if max(map(abs, vec)) > 1.5:
                return math.inf
            return sum(abs(v - c) for v, c in zip(vec, centre)) \
                + (abs(vec[0]) < 0.3)

        start = list(rng.uniform(-1.0, 1.0, n))
        for fn in (quadratic, walled):
            yield start, fn, 5 + k


def test_pattern_search_matches_reference_loop_on_test_functions():
    for start, fn, max_sweeps in _search_cases():
        want = _reference_search(start, fn, max_sweeps=max_sweeps)
        got = numerics._pattern_search(start, fn, max_sweeps=max_sweeps)
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("min_step,first", [(1e-6, 0), (1e-9, 1),
                                             (1e-3, 2)])
def test_pattern_search_honours_step_floor_and_first_coordinate(min_step,
                                                                first):
    """Also with a floor relative to the value at a level's start."""
    for (start, fn, max_sweeps), rtol in itertools.product(
            _search_cases(), (0.0, 2e-6, 1e-3)):
        want = _reference_search(start, fn, max_sweeps=max_sweeps,
                                 min_step=min_step, rtol=rtol, first=first)
        got = numerics._pattern_search(start, fn, max_sweeps=max_sweeps,
                                       min_step=min_step, rtol=rtol,
                                       first=first)
        assert _bits(got) == _bits(want)
        assert got[1][:first] == list(start[:first])


# the search as it was before its sweeps ended early: every sweep polls
# every coordinate, skipping only the -step poll back to the point left
def _full_sweep_search(vec, fn, max_sweeps=25, *, min_step=1e-9, rtol=0.0,
                       first=0):
    vec = list(vec)
    val = fn(vec)
    step = 0.5
    while step >= min_step and step >= rtol * val:
        for _ in range(max_sweeps):
            improved = False
            for i in range(first, len(vec)):
                here = vec[i]
                vec[i] = up = here + step
                tv = fn(vec)
                if tv < val:
                    val, improved = tv, True
                    if up - step == here:
                        continue
                    here = up
                vec[i] = here - step
                tv = fn(vec)
                if tv < val:
                    val, improved = tv, True
                else:
                    vec[i] = here
            if not improved:
                break
        step *= 0.5
    return val, vec


def _counted(search, counts):
    """search with each of its evaluations counted in counts[0]."""
    def run(vec, fn, max_sweeps=25, *, min_step=1e-9, rtol=0.0, first=0):
        def counted_fn(v):
            counts[0] += 1
            return fn(v)
        return search(vec, counted_fn, max_sweeps, min_step=min_step,
                      rtol=rtol, first=first)
    return run


def test_early_sweep_end_repeats_no_result_and_saves_evaluations():
    """Ending a sweep where it would only repeat rejected polls changes no
    (value, point) and never adds an evaluation."""
    saved = 0
    for start, fn, max_sweeps in _search_cases():
        new, old = [0], [0]
        got = _counted(numerics._pattern_search, new)(start, fn, max_sweeps)
        want = _counted(_full_sweep_search, old)(start, fn, max_sweeps)
        assert _bits(got) == _bits(want)
        assert new[0] <= old[0]
        saved += old[0] - new[0]
    assert saved > 0


@pytest.mark.parametrize("src,dst,budget,norm", [
    ("one_theta/zero", "tau_form/zero", 2, "max"),
    ("zero/rank2", "zero/rank1", 4, "spectral"),
])
def test_early_sweep_end_in_distance_search(monkeypatch, src, dst, budget,
                                            norm):
    x = representative(L(src), generic_params(L(src)))
    runs = {}
    for search in (numerics._pattern_search, _full_sweep_search):
        numerics._HELD_STARTS.clear()
        counts = [0]
        monkeypatch.setattr(numerics, "_pattern_search",
                            _counted(search, counts))
        result = distance_to_bundle(x, L(dst), budget=budget, seed=0,
                                    norm=norm)
        runs[search] = (_result_bits(result), counts[0])
    (got, new), (want, old) = runs.values()
    assert got == want
    assert new < old


def _polling_from(search, forced):
    """search with every run polling from coordinate forced on."""
    def run(vec, fn, max_sweeps=25, *, min_step=1e-9, rtol=0.0, first=0):
        return search(vec, fn, max_sweeps, min_step=min_step, rtol=rtol,
                      first=forced)
    return run


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("src,dst,norm", [
    ("zero/rank2", "zero/rank1", "max"),
    ("zero/rank2", "zero/rank1", "spectral"),
    ("one_zero/diag_a_one", "zero/rank1", "max"),
    ("one_zero/diag_a_one", "zero/rank1", "spectral"),
    ("identity/diag_ad", "zero/rank2", "max"),
    ("one_theta/zero", "zero/zero", "max"),
])
def test_phase_of_c_is_not_polled_against_a_zero_a_form(monkeypatch, src,
                                                        dst, norm, seed):
    """A zero/* target's A-form is identically zero, so every poll of the
    phase of c returns the current value: skipping them keeps every
    result bit and saves evaluations.  The zero/rank2 source drops the A
    block; the other sources face the zero form with a nonzero one."""
    x = representative(L(src), generic_params(L(src)))
    runs = []
    for search in (numerics._pattern_search,
                   _polling_from(numerics._pattern_search, 0)):
        numerics._HELD_STARTS.clear()
        counts = [0]
        monkeypatch.setattr(numerics, "_pattern_search",
                            _counted(search, counts))
        result = distance_to_bundle(x, L(dst), budget=2, seed=seed,
                                    norm=norm)
        runs.append((_result_bits(result), counts[0]))
    (got, new), (want, old) = runs
    assert got == want
    assert new < old


# ---------------------------------------------------------------------------
# the held seed-independent start of distance_to_bundle

def _floor_case(src, dst):
    return representative(L(src), generic_params(L(src))), L(dst)


def test_held_start_gives_the_results_of_a_cleared_table():
    """The floor jobs with the seeds looped outside them, as the benchmark
    runs them, are bit for bit the calls on a cleared table."""
    cases = [(*_floor_case(src, dst), budget, norm)
             for src, dst, budget, norm in _FLOOR_JOBS]
    held = [(seed, case, _result_bits(distance_to_bundle(
                case[0], case[1], budget=case[2], seed=seed, norm=case[3])))
            for seed in range(6) for case in cases]
    assert len(numerics._HELD_STARTS) == len(cases)
    for seed, (x, target, budget, norm), got in held:
        numerics._HELD_STARTS.clear()
        want = distance_to_bundle(x, target, budget=budget, seed=seed,
                                  norm=norm)
        assert got == _result_bits(want), (str(target), norm, seed)


def _recording(search, starts):
    """search with the start of each of its runs appended to starts."""
    def run(vec, fn, max_sweeps=25, *, min_step=1e-9, rtol=0.0, first=0):
        starts.append(tuple(vec))
        return search(vec, fn, max_sweeps, min_step=min_step, rtol=rtol,
                      first=first)
    return run


@pytest.mark.parametrize("src,dst,budget,norm", [
    ("one_theta/zero", "tau_form/zero", 2, "max"),
    ("zero/rank2", "zero/rank1", 4, "spectral"),
])
def test_seed_independent_start_is_searched_once_per_key(
        monkeypatch, src, dst, budget, norm):
    x, target = _floor_case(src, dst)
    starts = []
    monkeypatch.setattr(numerics, "_pattern_search",
                        _recording(numerics._pattern_search, starts))
    runs = []
    for seed in range(6):
        before = len(starts)
        distance_to_bundle(x, target, budget=budget, seed=seed, norm=norm)
        runs.append(len(starts) - before)
    # two runs per start: on the surrogate, then on the objective
    assert runs == [2 * budget] + [2 * (budget - 1)] * 5
    seedless = tuple([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
                     + numerics._param_coords(param_fields(target),
                                              generic_params(target)))
    # its two runs are the first call's first two, and no later run starts
    # there
    assert starts[0] == seedless
    assert seedless not in starts[2:]


def _stub_search(calls):
    """A search that makes no poll: the start's value and the start."""
    def run(vec, fn, max_sweeps=25, *, min_step=1e-9, rtol=0.0, first=0):
        calls[0] += 1
        return fn(vec), list(vec)
    return run


def test_held_start_misses_on_norm_target_and_zero_sign(monkeypatch):
    calls = [0]
    monkeypatch.setattr(numerics, "_pattern_search", _stub_search(calls))
    x, target = _floor_case("one_theta/zero", "tau_form/zero")
    a00, a01, a10, a11 = x.A.entries
    assert a01 == 0 and math.copysign(1.0, a01.real) == 1.0
    flipped = PairAB(Mat2(((a00, complex(-0.0, a01.imag)), (a10, a11))), x.B)
    anew = PairAB(Mat2(((a00, a01), (a10, a11))),
                  SymMat2(x.B.a, x.B.b, x.B.d))

    def runs(pair, dst=target, norm="max"):
        before = calls[0]
        distance_to_bundle(pair, dst, budget=1, seed=3, norm=norm)
        return calls[0] - before

    assert runs(x) == 2
    assert runs(anew) == 0
    assert runs(x, norm="spectral") == 2
    assert runs(x, dst=L("one_zero/zero")) == 2
    assert runs(flipped) == 2
    assert len(numerics._HELD_STARTS) == 4


def test_warm_starts_run_and_win_ties_over_the_held_start(monkeypatch):
    calls = [0]
    monkeypatch.setattr(numerics, "_pattern_search", _stub_search(calls))
    x = PairAB(Mat2(((1.0, 0.0), (0.0, 0.0))), SymMat2(0.0, 0.0, 0.0))
    target = L("zero/zero")
    # every (c, P) moves zero/zero's zero pair to zero, so each start ties
    d_held, (g_held, _p) = distance_to_bundle(x, target, budget=1)
    assert (d_held, calls[0]) == (1.0, 2)
    warm = GroupElement(1.0, Mat2(((2.0, 0.0), (0.0, 3.0))))
    d, (g, _p) = distance_to_bundle(x, target, budget=3,
                                    starts=[(warm, BundleParams())])
    assert d == d_held
    # the warm start and the two random ones, not the held one
    assert calls[0] == 2 + 2 * 3
    assert g.P.entries == warm.P.entries
    assert g_held.P.entries == (1, 0, 0, 1)


def test_held_table_keeps_its_bound_and_drops_the_oldest(monkeypatch):
    calls = [0]
    monkeypatch.setattr(numerics, "_pattern_search", _stub_search(calls))
    bound = numerics._HELD_STARTS_MAX
    pairs = [PairAB(Mat2(((float(k), 0.0), (0.0, 0.0))),
                    SymMat2(1.0, 0.0, 1.0)) for k in range(1, bound + 6)]
    for pair in pairs:
        distance_to_bundle(pair, L("zero/rank1"), budget=1)
        assert len(numerics._HELD_STARTS) <= bound
    assert len(numerics._HELD_STARTS) == bound
    before = calls[0]
    distance_to_bundle(pairs[-1], L("zero/rank1"), budget=1)
    assert calls[0] == before
    distance_to_bundle(pairs[0], L("zero/rank1"), budget=1)
    assert calls[0] == before + 2


# ---------------------------------------------------------------------------
# the step floors of distance_to_bundle's two passes

@pytest.mark.parametrize("src,dst,budget,norm,first", [
    ("one_theta/zero", "tau_form/zero", 2, "max", 0),
    ("identity/diag_ad", "one_theta/diag_ad", 1, "spectral", 0),
    ("zero/rank2", "zero/rank1", 4, "spectral", 1),
    ("one_theta/zero", "zero/zero", 1, "max", 1),
])
def test_each_pass_gets_its_step_floor(monkeypatch, src, dst, budget, norm,
                                       first):
    """The smoothing pass on the surrogate stops below step 1e-6, the
    polish on the objective below 1e-9 or 2e-6 times its value; both poll
    from coordinate 1 (past the phase of c) exactly on a zero/* target."""
    x, target = _floor_case(src, dst)
    passes = []
    search = numerics._pattern_search

    def recording(vec, fn, max_sweeps=25, *, min_step=1e-9, rtol=0.0,
                  first=0):
        passes.append((max_sweeps, min_step, rtol, first))
        return search(vec, fn, max_sweeps, min_step=min_step, rtol=rtol,
                      first=first)

    monkeypatch.setattr(numerics, "_pattern_search", recording)
    numerics._HELD_STARTS.clear()
    distance_to_bundle(x, target, budget=budget, seed=0, norm=norm)
    assert passes == [(25, 1e-6, 0.0, first),
                      (25, 1e-9, 2e-6, first)] * budget


def _polish_levels(start, fn):
    """fn wrapped to record the polish's levels as [step, value at the
    level's start, value at its end]: each poll moves one coordinate of
    the last accepted point by the step (up to the rounding of x + step),
    and a poll is accepted exactly when it lowers the value."""
    levels, point, best = [], list(start), [None]

    def run(vec):
        value = fn(vec)
        if best[0] is None:
            best[0] = value
            return value
        moved = [abs(v - p) for v, p in zip(vec, point) if v != p]
        assert len(moved) == 1
        step = 2.0 ** round(math.log2(moved[0]))
        if not levels or step != levels[-1][0]:
            assert not levels or step == levels[-1][0] / 2
            levels.append([step, best[0], best[0]])
        if value < best[0]:
            best[0] = levels[-1][2] = value
            point[:] = vec
        return value

    return run, levels


@pytest.mark.parametrize("src,dst,budget,norm", [
    ("one_theta/zero", "tau_form/zero", 2, "max"),
    ("identity/zero", "one_plus_minus/zero", 2, "max"),
    ("zero/rank2", "zero/rank1", 4, "spectral"),
    ("identity/zero", "identity/zero_d", 2, "max"),
])
def test_polish_runs_each_level_its_relative_floor_allows(monkeypatch, src,
                                                          dst, budget, norm):
    """Each polish level that runs has step >= max(1e-9, 2e-6 * the value
    at its start), and the next level, the first that fails the rule, does
    not run.  The floor jobs end at a step of about 1e-6 (their values are
    0.1-1), the near-zero identity/zero -> identity/zero_d search at the
    last step >= 1e-9."""
    x, target = _floor_case(src, dst)
    runs = []
    search = numerics._pattern_search

    def recording(vec, fn, max_sweeps=25, *, min_step=1e-9, rtol=0.0,
                  first=0):
        if rtol:
            fn, levels = _polish_levels(vec, fn)
            runs.append(levels)
        return search(vec, fn, max_sweeps, min_step=min_step, rtol=rtol,
                      first=first)

    monkeypatch.setattr(numerics, "_pattern_search", recording)
    numerics._HELD_STARTS.clear()
    distance_to_bundle(x, target, budget=budget, seed=0, norm=norm)
    assert len(runs) == budget
    for levels in runs:
        assert levels[0][0] == 0.5
        for step, start_value, _end in levels:
            assert step >= max(1e-9, 2e-6 * start_value)
        step, _start, end_value = levels[-1]
        assert step / 2 < max(1e-9, 2e-6 * end_value)


def test_polish_keeps_the_1e_9_floor_on_near_zero_hits():
    """Below a value of 5e-4 the relative floor is under 1e-9, so these
    searches return the bits they returned with the 1e-9 floor alone."""
    for dst, want in (("identity/zero_d", "0x1.08544fbc86d85p-30"),
                      ("one_theta/zero", "0x1.ffffffffffeabp-21")):
        x, target = _floor_case("identity/zero", dst)
        numerics._HELD_STARTS.clear()
        d, _best = distance_to_bundle(x, target, budget=2, seed=0)
        assert d.hex() == want, dst


# the floor jobs' floors at seeds 0-2 before the smoothing pass stopped at
# step 1e-6, as the outcome corpus recorded them
_EARLIER_FLOORS = {
    ("one_theta/zero", "tau_form/zero", "max"): ["0x1.c4390c2c2a351p-2"] * 3,
    ("tau_form/zero", "one_theta/zero", "max"): ["0x1.0b0290d0d8089p-3"] * 3,
    ("identity/zero", "one_plus_minus/zero", "max"):
        ["0x1.0330ec6b045dcp-1"] * 3,
    ("nilpotent/zero", "jordan_i/zero", "max"): ["0x1.0000000000000p-2"] * 3,
    ("one_theta/zero", "one_zero/zero", "max"): ["0x1.23b5dfcc02273p-1"] * 3,
    ("zero/rank2", "zero/rank1", "max"):
        ["0x1.0000000995764p-1", "0x1.0000000f7aa0cp-1",
         "0x1.0000000390348p-1"],
    ("zero/rank2", "zero/rank1", "spectral"): ["0x1.fffffffffffffp-1"] * 3,
}


@pytest.mark.parametrize("src,dst,budget,norm", _FLOOR_JOBS)
def test_floor_rises_at_most_2e_3_over_the_earlier_floor(src, dst, budget,
                                                         norm):
    """Each floor is an upper bound on a distance, so a lower one is no
    fault (it is a finding); a rise past the search's own rounding
    sensitivity (1.2e-3 relative) is."""
    x, target = _floor_case(src, dst)
    for seed, earlier in enumerate(_EARLIER_FLOORS[(src, dst, norm)]):
        floor, _best = distance_to_bundle(x, target, budget=budget,
                                          seed=seed, norm=norm)
        assert floor <= float.fromhex(earlier) * (1 + 2e-3), seed


@pytest.mark.parametrize("kw,name", [
    ({"cond_max": 0.5}, "cond_max"),
    ({"cond_max": 0.0}, "cond_max"),
    ({"cond_max": -1.0}, "cond_max"),
    ({"cond_max": math.nan}, "cond_max"),
    ({"spread": math.inf}, "spread"),
    ({"spread": -math.inf}, "spread"),
    ({"spread": math.nan}, "spread"),
])
def test_sample_group_element_rejects_values_that_never_return(kw, name):
    class NoDraws:
        def __getattr__(self, attr):
            raise AssertionError(f"drew {attr} before validating")

    with pytest.raises(ValidationError, match=f"^{name} must be"):
        sample_group_element(NoDraws(), **kw)


def test_sample_group_element_gives_up_after_its_draw_cap():
    """cond(P) = 1 needs a scaled unitary P, which no Gaussian draw gives:
    cond_max=1 raises after numerics._MAX_DRAWS draws instead of looping."""
    class Counted:
        def __init__(self):
            self.rng, self.normals = np.random.default_rng(0), 0

        def uniform(self, *args):
            return self.rng.uniform(*args)

        def standard_normal(self, size):
            self.normals += int(np.prod(size))
            return self.rng.standard_normal(size)

    rng = Counted()
    start = time.perf_counter()
    with pytest.raises(ValidationError,
                       match=r"cond_max=1\.0 and spread=1\.0$"):
        sample_group_element(rng, cond_max=1.0)
    assert time.perf_counter() - start < 1.0
    assert rng.normals == 8 * numerics._MAX_DRAWS


def _sample_by_numpy_cond(rng, cond_max, spread):
    """The sampler's keep rule as numpy's condition number states it."""
    phi = rng.uniform(0.0, 2 * math.pi)
    while True:
        P = (np.eye(2)
             + spread * (rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2))) / math.sqrt(2))
        if (abs(_det4(_entries4(P))) > 1e-9
                and np.linalg.cond(P) <= cond_max):
            return cmath.exp(1j * phi), P


@pytest.mark.parametrize("cond_max", [10, 30, 1e3])
@pytest.mark.parametrize("spread", [1.0, 0.7, 0.35])
def test_sample_group_element_keeps_the_draws_numpy_cond_keeps(
        spread, cond_max):
    for seed in range(200):
        c, P = sample_group_element(np.random.default_rng([seed, 5]),
                                    cond_max=cond_max, spread=spread)
        want_c, want_P = _sample_by_numpy_cond(
            np.random.default_rng([seed, 5]), cond_max, spread)
        assert c == want_c and P.tobytes() == want_P.tobytes(), seed


def test_sample_group_element_at_the_edges_of_its_domain():
    c, P = sample_group_element(np.random.default_rng(0), cond_max=1.0,
                                spread=0.0)
    assert abs(abs(c) - 1.0) <= 1e-15
    assert P.tolist() == [[1, 0], [0, 1]]
    c, P = sample_group_element(np.random.default_rng(0), cond_max=math.inf)
    want = sample_group_element(np.random.default_rng(0), cond_max=1e300)
    assert (c, P.tolist()) == (want[0], want[1].tolist())


def _draw_by_numpy_arrays(rng, cond_max, spread):
    """The draw as a numpy array expression, kept by `core`'s closed-form
    singular values: the sampler before it drew on scalars."""
    phi = rng.uniform(0.0, 2 * math.pi)
    while True:
        P = (np.eye(2)
             + spread * (rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2))) / math.sqrt(2))
        p = _entries4(P)
        s0, s1 = _singular_values(p)
        if abs(_det4(p)) > 1e-9 and s0 <= cond_max * s1:
            return cmath.exp(1j * phi), P


@pytest.mark.parametrize("cond_max", [10, 1e3])
@pytest.mark.parametrize("spread", [0.7, 1.0, 3.0])
def test_scalar_group_draw_is_numpys_array_arithmetic_bit_for_bit(
        spread, cond_max):
    """`_group_draw` forms each entry on Python scalars; every entry, the
    sign of a zero included, is the bit of numpy's array expression, so the
    same draws are kept, and `sample_group_element` returns the same
    complex128 array."""
    def bits(values):
        return struct.pack(f"<{2 * len(values)}d", *(
            w for z in values for w in (z.real, z.imag)))

    for seed in range(500):
        want_c, want_P = _draw_by_numpy_arrays(
            np.random.default_rng([seed, 9]), cond_max, spread)
        c, p = numerics._group_draw(np.random.default_rng([seed, 9]),
                                    cond_max, spread)
        assert all(type(z) is complex for z in p)
        assert c == want_c and bits(p) == want_P.tobytes(), seed
        c, P = sample_group_element(np.random.default_rng([seed, 9]),
                                    cond_max=cond_max, spread=spread)
        assert (P.dtype, P.shape) == (want_P.dtype, want_P.shape)
        assert c == want_c and P.tobytes() == want_P.tobytes(), seed


def _edge_params(cell):
    """Parameters on both sides of the cell's domain boundary."""
    tiny = 5e-324
    fields = param_fields(cell)
    if fields == ("theta",):
        inside = (tiny, math.nextafter(math.pi, 0.0))
        outside = (0.0, -tiny, math.pi)
        name = "theta"
    elif fields == ("tau",):
        inside = (tiny, math.nextafter(1.0, 0.0))
        outside = (0.0, 1.0, -tiny)
        name = "tau"
    else:
        return [], []
    return ([BundleParams(**{name: v}) for v in inside],
            [BundleParams(**{name: v}) for v in outside])


def _kernel_sources(rng):
    """Random pairs (both constant blocks nonzero), representatives with
    exact zero components, and pairs with one or two zero forms."""
    zero = Mat2(np.zeros((2, 2)))
    rand_A = Mat2(_rand_mat(rng))
    rand_B = SymMat2.from_array(_rand_sym(rng))
    yield PairAB(rand_A, rand_B)
    yield PairAB(Mat2(_rand_mat(rng, 1e-3)),
                 SymMat2.from_array(_rand_sym(rng, 1e3)))
    yield PairAB(zero, rand_B)
    yield PairAB(rand_A, SymMat2(0, 0, 0))
    yield PairAB(Mat2(((0.0, -0.0), (0j, complex(-0.0, 0.0)))),
                 SymMat2(0, -0.0, 0))
    for name in ("one_theta/diag_ad", "nilpotent/zero", "zero/rank2",
                 "jordan_i/zero_d"):
        yield representative(L(name), generic_params(L(name)))


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_zero_labels_name_the_zero_forms(cell):
    """The kernel reads which target form is identically zero from the
    label: ALabel.ZERO and BShape.ZERO, and no other label, give a zero
    form, at the generic parameters and at random ones."""
    rng = np.random.default_rng([78, CELLS.index(cell)])
    for params in (generic_params(cell), _random_params(cell, rng)):
        rep = representative(cell, params)
        assert (not any(rep.A.entries)) == (cell.a_label is ALabel.ZERO)
        assert (not any((rep.B.a, rep.B.b, rep.B.d))) == \
            (cell.b_shape is BShape.ZERO)


@pytest.mark.parametrize("norm", ["max", "spectral"])
@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_kernel_matches_reference_kernel(cell, norm):
    """Objective and surrogate equal the full evaluation bit for bit, on
    random points, on both sides of |det P| = 1e-12 and of the parameter
    domain, and with the phase of c at +0.0 and -0.0.  The kernel's one
    zero-block rule: a zero/* or */zero target drops its zero block where
    x's block is zero too (one block where both are), and computes every
    other block by the products, a zero form's included."""
    rng = np.random.default_rng([77, CELLS.index(cell), norm == "spectral"])
    inside, outside = _edge_params(cell)
    for x in _kernel_sources(rng):
        objective, surrogate = _distance_kernel(x, cell, norm)
        ref_objective, ref_surrogate = _reference_kernel(x, cell, norm)
        vecs = []
        for _ in range(12):
            c, P = sample_group_element(rng)
            vecs.append(_search_vector(cell, c, P, _random_params(cell, rng)))
        params = generic_params(cell)
        for phase in (0.0, -0.0, 0.0):
            vecs.append(_search_vector(cell, 1.0, np.eye(2), params))
            vecs[-1][0] = phase
        for delta, feasible in ((0.999e-12, False), (1.001e-12, True)):
            P = np.array([[1.0, 2.0], [2.0, 4.0 + delta]])
            vecs.append(_search_vector(cell, 1j, P, params))
            assert (ref_objective(vecs[-1]) < math.inf) == feasible
        for p, feasible in [(p, True) for p in inside] + \
                [(p, False) for p in outside]:
            vecs.append(_search_vector(cell, -1.0, np.eye(2), p))
            assert (ref_objective(vecs[-1]) < math.inf) == feasible
        # one pass in order, so the memo and the cached c see every change
        for vec in vecs:
            assert _bits(objective(vec)) == _bits(ref_objective(vec)), vec
            assert _bits(surrogate(vec)) == _bits(ref_surrogate(vec)), vec


# ---------------------------------------------------------------------------
# the derived shape ranks against the numeric rank of sampled B-forms

# the first catalogued cell of each shape
_CELL_OF_SHAPE = {cell.b_shape: cell for cell in reversed(CELLS)}

# a valid parameter at which each shape that is not rank-pure drops to
# rank 1: the determinant of its form vanishes there
_DEGENERATE = {
    BShape.ONE_ZETA: lambda p: {"zeta": 0j},
    BShape.DIAG_A_ZETA: lambda p: {"zeta": 0j},
    BShape.ZETA_B_ONE: lambda p: {"zeta_star": complex(p.b ** 2)},
    BShape.FULL_HERMITIAN_LIKE: lambda p: {
        "zeta_star": complex(math.sqrt(p.a * p.d))},
    BShape.PHASE_FORM: lambda p: {
        "zeta": p.b ** 2 * cmath.exp(-1j * p.phi)},
}


def _numeric_rank(cell, params):
    B = representative(cell, params).B.array
    sv = np.linalg.svd(B, compute_uv=False)
    return int(np.sum(sv > 1e-9 * max(1.0, sv[0])))


def test_every_shape_has_a_cell():
    assert set(_CELL_OF_SHAPE) == set(BShape)
    assert set(_DEGENERATE) == {s for s in BShape if shape_rank(s) is None}


@pytest.mark.parametrize("shape", list(BShape), ids=lambda s: s.value)
def test_derived_rank_matches_sampled_forms(shape):
    cell = _CELL_OF_SHAPE[shape]
    rng = np.random.default_rng([2026, list(BShape).index(shape)])
    draws = [_random_params(cell, rng) for _ in range(20)]
    assert all(validate_params(cell, p) == [] for p in draws)
    ranks = {_numeric_rank(cell, p) for p in draws}
    if shape not in _DEGENERATE:
        assert ranks == {shape_rank(shape)}
        assert shape_min_rank(shape) == shape_rank(shape)
        return
    assert ranks == {2}
    assert shape_min_rank(shape) == 1
    for p in draws:
        degenerate = dataclasses.replace(p, **_DEGENERATE[shape](p))
        assert validate_params(cell, degenerate) == []
        assert _numeric_rank(cell, degenerate) == 1


def _count_constructions(monkeypatch):
    """Count the constructions of the checked value types: each call of
    the `__init__` of `BundleParams`, `GroupElement`, `PairAB` and
    `Classification`, and each unchecked `GroupElement` that the classifier
    and the witness engine build through `_checked_group_element`."""
    from collections import Counter

    from pairbundles import classify, core, witnesses

    counts = Counter()
    for cls in (BundleParams, GroupElement, PairAB, classify.Classification):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    for module in (classify, witnesses):
        def checked(c, p, _build=core._checked_group_element):
            counts["GroupElement"] += 1
            return _build(c, p)

        monkeypatch.setattr(module, "_checked_group_element", checked)
    return counts


def test_monte_carlo_builds_no_value_type_per_trial(monkeypatch):
    """A Monte Carlo report builds the same value types for 10 trials as
    for 40: each trial runs on raw tuples and dicts."""
    counts = _count_constructions(monkeypatch)
    centres = ("one_theta/full_hermitian_like", "tau_form/phase_form",
               "one_plus_minus/diag_ad", "nilpotent/zeta_b_one", "zero/zero")

    def built(trials):
        _trial_perturbations.cache_clear()
        _trial_stage1.cache_clear()
        counts.clear()
        reports = [monte_carlo_neighborhood(L(c), None, 0.1, trials, seed=2)
                   for c in centres]
        return dict(counts), reports

    few, _ = built(10)
    many, reports = built(40)
    assert few == many
    assert few["PairAB"] == len(centres)
    assert sum(sum(r.histogram.values()) for r in reports) > 100


def test_witness_verify_builds_no_pair_per_grid_point(monkeypatch):
    """`witness_verify` builds the same value types on a 3-point grid as
    on the 14-point default grid, and one PairAB, the source's."""
    from pairbundles.witnesses import default_grid, witness_verify

    counts = _count_constructions(monkeypatch)
    for fam in CATALOG:
        built = []
        for grid in (default_grid()[:3], default_grid()):
            counts.clear()
            witness_verify(fam, grid)
            built.append(dict(counts))
        assert built[0] == built[1], fam.name
        assert built[0]["PairAB"] == 1, fam.name
