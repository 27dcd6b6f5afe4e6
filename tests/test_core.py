import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbundles.core import (
    GroupElement,
    Mat2,
    PairAB,
    SymMat2,
    ValidationError,
    apply_action,
    apply_psi1,
    apply_psi2,
    cosquare,
    det_invariant,
    group_compose,
    group_identity,
    group_inverse,
    max_norm,
    pair_distance,
    _cosquare4,
    _det4,
    _entries4,
    _group4,
    _max_abs,
    _mul4,
    _record_json,
    _star_congruence4,
    _transpose_congruence3,
)
from pairbundles.normal_forms import (BundleParams, label_from_string,
                                      representative)
import pairbundles


def rand_complex_matrix(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))


def rand_group_element(rng, max_cond=1e3, scale=1.0, unit_det=False):
    while True:
        P = rand_complex_matrix(rng, scale)
        if abs(np.linalg.det(P)) > 1e-8 and np.linalg.cond(P) <= max_cond:
            break
    if unit_det:
        P = P / math.sqrt(abs(np.linalg.det(P)))
    c = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return GroupElement(c, Mat2(P))


class TestConstructors:
    def test_mat2_rejects_nan(self):
        with pytest.raises(ValidationError):
            Mat2([[np.nan, 0], [0, 0]])

    def test_mat2_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            Mat2(np.zeros((3, 3)))

    @pytest.mark.parametrize("rows", [
        [[1, 2], [3]], [[1, 2]], [[1, 2], [3, 4], [5, 6]], [1, 2, 3, 4],
        ((1, 2), (3, 4, 5)), [],
    ])
    def test_mat2_rejects_ragged_nested_lists(self, rows):
        with pytest.raises(ValidationError, match="expected 2x2 matrix"):
            Mat2(rows)

    @pytest.mark.parametrize("rows", [
        [[1, -2], [0, 3]],
        [[0.1, -0.0], [1e-300, 2.5]],
        ((1 + 2j, -0.0j), (complex(-0.0, 0.0), 3j)),
        [[True, False], [1, 0.5]],
        [[np.float32(0.1), np.int64(7)],
         [np.complex64(1 + 1j), np.float64(-0.0)]],
        # rows that are ndarrays go through numpy
        [np.array([1.5, -0.0]), np.array([2j, 3])],
    ])
    def test_nested_lists_parse_like_numpy(self, rows):
        # bit for bit: repr tells the signs of zeros apart
        got = _entries4(rows)
        want = np.asarray(rows, dtype=complex).ravel().tolist()
        assert all(type(z) is complex for z in got)
        assert list(map(repr, got)) == list(map(repr, want))

    def test_mat2_immutable(self):
        m = Mat2.identity()
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_mat2_owns_its_entries(self):
        # the caller's array stays writable, and writing into it, or into the
        # array a view was taken from, leaves the Mat2 and its hash alone
        P = np.eye(2, dtype=complex)
        m = Mat2(P)
        P[0, 0] = 2.0
        Q = np.eye(3, dtype=complex)
        v = Mat2(Q[:2, :2])
        h = hash(v)
        Q[0, 0] = 5.0
        assert m == Mat2.identity() and v == Mat2.identity()
        assert hash(v) == h

    def test_mat2_hash_agrees_with_equality(self):
        # 0.0 == -0.0, so the two matrices are equal and must hash alike
        m, n = Mat2([[0.0, 0], [0, 1]]), Mat2([[-0.0, 0], [0, 1]])
        assert m == n
        assert hash(m) == hash(n)
        assert len({m, n}) == 1

    def test_mat2_array_is_a_read_only_copy(self):
        m = Mat2([[1, 2j], [3, 4]])
        arr = m.array
        assert arr.shape == (2, 2) and arr.dtype == complex
        assert arr.tolist() == [[1, 2j], [3, 4]]
        assert not arr.flags.writeable
        assert m.entries == (1, 2j, 3, 4)

    def test_symmat2_from_array_averages_offdiag(self):
        B = SymMat2.from_array([[1.0, 2.0 + 1e-12j], [2.0, 3.0]])
        assert B.b == pytest.approx(2.0 + 0.5e-12j)

    def test_symmat2_rejects_inf(self):
        with pytest.raises(ValidationError):
            SymMat2(np.inf, 0, 0)

    def test_group_element_unit_circle(self):
        with pytest.raises(ValidationError):
            GroupElement(2.0, Mat2.identity())
        GroupElement(np.exp(0.3j), Mat2.identity())  # fine

    def test_group_element_singular_P(self):
        with pytest.raises(ValidationError):
            GroupElement(1.0, Mat2(np.zeros((2, 2))))


class TestGroupCheck:
    """GroupElement and the classifier's raw core share one check of (c, P),
    `core._group4`, with the same messages."""

    @pytest.mark.parametrize("c, P, message", [
        (2.0, [[1, 0], [0, 1]], r"^\|c\| must be 1 \(got \|c\| = 2\.0\)$"),
        (1.0, [[1, 2], [2, 4]], "^P must be invertible$"),
        (1.0, [[1, 0], [0, math.nan]], "^matrix entries must be finite$"),
        (1j, [[1, math.inf], [0, 1]], "^matrix entries must be finite$"),
        # |c| - 1 is NaN, which no comparison with the tolerance passes
        (math.nan, [[1, 0], [0, 1]], r"^\|c\| must be 1 \(got \|c\| = nan\)$"),
        (complex(1.0, math.nan), [[1, 0], [0, 1]],
         r"^\|c\| must be 1 \(got \|c\| = nan\)$"),
    ], ids=["unit-circle", "singular", "nan", "inf", "nan-c", "nan-imag-c"])
    def test_same_message(self, c, P, message):
        with pytest.raises(ValidationError, match=message):
            GroupElement(c, P)
        with pytest.raises(ValidationError, match=message):
            _group4(c, [z for row in P for z in row])

    @pytest.mark.parametrize("c", ["NaN", "[1.0, NaN]"])
    def test_from_json_refuses_a_nan_c(self, c):
        """Python's json reads NaN, and a NaN c fails the check as it fails
        every comparison; accepted, it would fail `dumps` later."""
        doc = json.loads(f'{{"c": {c}, "P": [[1, 0], [0, 1]]}}')
        with pytest.raises(ValidationError, match=r"^\|c\| must be 1 "):
            GroupElement.from_json(doc)

    def test_returns_python_complex(self):
        c, p = _group4(-1, (1.0, 0, 0, 2))
        assert (c, p) == (-1, (1, 0, 0, 2))
        assert all(type(z) is complex for z in (c, *p))


class TestValueTypeChecks:
    """What each value type rejects: its scalar checks must reject exactly
    these inputs."""

    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(math.nan, 0.0),
                                     complex(0.0, math.inf), complex(0.0, math.nan),
                                     complex(-math.inf, 1.0)])
    def test_mat2_rejects_non_finite_real_and_imaginary_parts(self, bad):
        for pos in range(4):
            entries = np.eye(2, dtype=complex)
            entries.ravel()[pos] = bad
            with pytest.raises(ValidationError, match="must be finite"):
                Mat2(entries)

    def test_mat2_accepts_transposed_view(self):
        # a Fortran-ordered array is a valid matrix, not a layout error
        M = np.array([[1.0, 2.0j], [3.0, 4.0]])
        assert np.array_equal(Mat2(M.T).array, M.T)

    @pytest.mark.parametrize("name", ["a", "b", "d"])
    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_symmat2_names_the_non_finite_field(self, name, bad):
        kw = {"a": 1.0, "b": 0.0, "d": 1.0, name: bad}
        with pytest.raises(ValidationError, match=f"SymMat2.{name} must be finite"):
            SymMat2(**kw)

    def test_determinant_floor_of_group_element_and_psi2(self):
        # |det| = 1e-320 (subnormal) is below MIN_ABS_DET = 1e-300
        tiny = Mat2(1e-160 * np.eye(2))
        with pytest.raises(ValidationError, match="invertible"):
            GroupElement(1.0, tiny)
        with pytest.raises(ValidationError, match="invertible"):
            apply_psi2(tiny, SymMat2.identity())
        small = Mat2(1e-100 * np.eye(2))
        assert GroupElement(1.0, small).P == small
        assert apply_psi2(small, SymMat2.identity()).a == pytest.approx(1e-200)


def _rand_entries(rng, scale=1.0):
    return tuple(complex(z) for z in rand_complex_matrix(rng, scale).ravel())


def test_scalar_kernels_match_numpy():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        scale = math.exp(3.0 * rng.standard_normal())
        p, a = _rand_entries(rng), _rand_entries(rng, scale)
        b, d, e = (complex(z) for z in rand_complex_matrix(rng, scale).ravel()[:3])
        P, A, B = (np.array(m).reshape(2, 2) for m in (p, a, (b, e, e, d)))
        c = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        bound = 1e-12 * max_norm(P) ** 2 * max(max_norm(A), max_norm(B))
        want = c * P.conj().T @ A @ P
        assert max_norm(np.subtract(_star_congruence4(c, p, a), want.ravel())) <= bound
        want = P.T @ B @ P
        got = _transpose_congruence3(p, b, e, d)
        assert max_norm(np.subtract(got, (want[0, 0], want[0, 1], want[1, 1]))) <= bound
        assert abs(got[1] - want[1, 0]) <= bound
        assert max_norm(np.subtract(_mul4(p, a), (P @ A).ravel())) <= bound
        assert abs(_det4(a) - np.linalg.det(A)) <= 1e-12 * max_norm(A) ** 2
        assert _max_abs(a) == max_norm(A)
    assert math.isnan(_max_abs((1.0, math.nan, 2.0)))
    assert _max_abs((1.0, -math.inf)) == math.inf


class TestActionExamples:
    # identity acts trivially
    def test_identity_action(self):
        x = PairAB(Mat2.identity(), SymMat2.zero())
        y = apply_action(group_identity(), x)
        assert pair_distance(x, y) == 0.0

    # (1, diag(s, 1/s)) on (1(+)0, 0_2) -> (s^2 (+) 0, 0_2)
    def test_diag_scaling(self):
        s = 1.7
        g = GroupElement(1.0, Mat2(np.diag([s, 1 / s])))
        x = PairAB(Mat2(np.diag([1.0, 0.0])), SymMat2.zero())
        y = apply_action(g, x)
        assert np.allclose(y.A.array, np.diag([s * s, 0.0]))
        assert max_norm(y.B) == 0.0

    # (1, [[1,1],[0,1]]) on (I_2, 0(+)1) -> ([[1,1],[1,2]], 0(+)1)
    def test_shear(self):
        g = GroupElement(1.0, Mat2([[1, 1], [0, 1]]))
        x = PairAB(Mat2.identity(), SymMat2(0.0, 0.0, 1.0))
        y = apply_action(g, x)
        assert np.allclose(y.A.array, [[1, 1], [1, 2]])
        assert np.allclose(y.B.array, [[0, 0], [0, 1]])

    # (-1, I_2) on 1(+)-1
    def test_psi1_scalar(self):
        g = GroupElement(-1.0, Mat2.identity())
        A = apply_psi1(g, Mat2(np.diag([1.0, -1.0])))
        assert np.allclose(A.array, np.diag([-1.0, 1.0]))

    # the 1(+)0 -> [[0,1],[tau,0]] degeneration step
    def test_psi1_tau_family(self):
        tau, s = 0.5, 0.25
        P = Mat2((1 / math.sqrt(1 + tau)) * np.array([[1, 0], [1, s]]))
        A = Mat2([[0.0, 1.0], [tau, 0.0]])
        out = apply_psi1(GroupElement(1.0, P), A)
        expect = [[1.0, s / (1 + tau)], [s * tau / (1 + tau), 0.0]]
        assert np.allclose(out.array, expect)

    def test_psi2_swap(self):
        P = Mat2([[0, 1], [1, 0]])
        B = apply_psi2(P, SymMat2.diag(2.0, 5.0))
        assert (B.a, B.b, B.d) == (5.0, 0.0, 2.0)

    def test_psi2_scaling(self):
        t = 3.0
        B = apply_psi2(Mat2(np.diag([1.0, t])), SymMat2.identity())
        assert (B.a, B.b, B.d) == (1.0, 0.0, t * t)

    def test_psi2_singular_P(self):
        with pytest.raises(ValidationError):
            apply_psi2(Mat2([[1, 0], [0, 0]]), SymMat2.identity())


class TestNorms:
    def test_max_norm_zero(self):
        assert max_norm(Mat2.zero()) == 0.0

    def test_max_norm_entries(self):
        assert max_norm(Mat2([[3, -4j], [0, 1]])) == 4.0

    def test_submultiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            X = rand_complex_matrix(rng, 3.0)
            Y = rand_complex_matrix(rng, 3.0)
            assert max_norm(X @ Y) <= 2 * max_norm(X) * max_norm(Y) + 1e-12

    def test_pair_distance_examples(self):
        x = PairAB(Mat2.identity(), SymMat2.zero())
        assert pair_distance(x, x) == 0.0
        eps = 1e-3
        y = PairAB(Mat2.identity(), SymMat2.diag(eps, eps))
        assert pair_distance(x, y) == pytest.approx(eps)
        z0 = PairAB(Mat2.zero(), SymMat2.zero())
        z1 = PairAB(Mat2([[0, 1], [0, 0]]), SymMat2.zero())
        assert pair_distance(z0, z1) == 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pair_distance_triangle(self, seed):
        rng = np.random.default_rng(seed)
        pts = [
            PairAB(Mat2(rand_complex_matrix(rng)),
                   SymMat2.from_array((lambda m: m + m.T)(rand_complex_matrix(rng))))
            for _ in range(3)
        ]
        x, y, z = pts
        assert pair_distance(x, z) <= pair_distance(x, y) + pair_distance(y, z) + 1e-12


class TestCosquare:
    def test_identity(self):
        assert np.allclose(cosquare(Mat2.identity()).array, np.eye(2))

    def test_tau_form(self):
        tau = 0.3
        C = cosquare(Mat2([[0, 1], [tau, 0]]))
        assert np.allclose(C.array, np.diag([tau, 1 / tau]))

    def test_jordan_block(self):
        C = cosquare(Mat2([[0, 1], [1, 1j]]))
        assert np.allclose(C.array, [[1, 2j], [0, 1]])

    def test_singular_rejected(self):
        with pytest.raises(ValidationError):
            cosquare(Mat2([[1, 0], [0, 0]]))

    def test_similarity_covariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            A = rand_complex_matrix(rng)
            P = rand_complex_matrix(rng)
            if abs(np.linalg.det(A)) < 1e-3 or np.linalg.cond(P) > 50:
                continue
            lhs = cosquare(Mat2(P.conj().T @ A @ P)).array
            rhs = np.linalg.solve(P, cosquare(Mat2(A)).array @ P)
            assert np.allclose(lhs, rhs, atol=1e-8 * max(1, max_norm(rhs)))

    def test_scalar_covariance(self):
        rng = np.random.default_rng(12)
        A = rand_complex_matrix(rng)
        c = np.exp(0.4j)
        assert np.allclose(cosquare(Mat2(c * A)).array, c**2 * cosquare(Mat2(A)).array)

    def test_adjugate_form_matches_numpy_solve(self):
        rng = np.random.default_rng(4444)
        for _ in range(100):
            A = rand_complex_matrix(rng)
            C, det_c = _cosquare4(tuple(complex(z) for z in A.ravel()))
            want = np.linalg.solve(A.conj().T, A)
            bound = 1e-12 * np.linalg.cond(A) ** 2
            assert np.abs(np.subtract(C, want.ravel())).max() <= bound
            assert abs(det_c - np.linalg.det(want)) <= bound
            assert abs(abs(det_c) - 1.0) <= 1e-15


class TestDetInvariant:
    def test_identity_zero(self):
        assert det_invariant(PairAB(Mat2.identity(), SymMat2.zero())) == pytest.approx(1.0)

    def test_zero_identity(self):
        assert det_invariant(PairAB(Mat2.zero(), SymMat2.identity())) == pytest.approx(1.0)

    def test_orbit_constancy_unit_det(self):
        # the raw determinant scales by |det P|^4; it is constant exactly
        # along the |det P| = 1 subgroup, and its sign along the full group
        rng = np.random.default_rng(21)
        for _ in range(300):
            A = rand_complex_matrix(rng)
            B = rand_complex_matrix(rng)
            x = PairAB(Mat2(A), SymMat2.from_array(B + B.T))
            v0 = det_invariant(x)
            g = rand_group_element(rng, unit_det=True)
            v1 = det_invariant(apply_action(g, x))
            assert v1 == pytest.approx(v0, rel=1e-8, abs=1e-8)

    def test_sign_constancy_full_group(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            A = rand_complex_matrix(rng)
            B = rand_complex_matrix(rng)
            x = PairAB(Mat2(A), SymMat2.from_array(B + B.T))
            v0 = det_invariant(x)
            g = rand_group_element(rng)
            v1 = det_invariant(apply_action(g, x))
            scale = abs(np.linalg.det(g.P.array)) ** 4
            assert v1 == pytest.approx(v0 * scale, rel=1e-7, abs=1e-9)
            if abs(v0) > 1e-9:
                assert np.sign(v1) == np.sign(v0)

    @pytest.mark.parametrize("cell, params, want", [
        # 1 - d^2; numpy's LU determinant gave -2.9999999999999996
        ("identity/zero_d", {"d": 2.0}, -3.0),
        ("one_zero/zero_one", {}, -1.0),
        ("nilpotent/zero", {}, 0.0),
    ])
    def test_exact_on_representatives(self, cell, params, want):
        x = representative(label_from_string(cell), BundleParams(**params))
        assert det_invariant(x) == want

    def test_matches_the_block_determinant(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            B = rand_complex_matrix(rng)
            x = PairAB(Mat2(rand_complex_matrix(rng)),
                       SymMat2.from_array(B + B.T))
            A, B = x.A.array, x.B.array
            M = np.block([[A, B.conj()], [B, A.conj()]])
            assert det_invariant(x) == pytest.approx(
                np.linalg.det(M).real, rel=1e-12, abs=1e-12)


class TestGroup:
    def test_compose_identity(self):
        rng = np.random.default_rng(31)
        g = rand_group_element(rng)
        h = group_compose(group_identity(), g)
        assert np.allclose(h.P.array, g.P.array) and h.c == pytest.approx(g.c)

    def test_inverse_diag(self):
        g = GroupElement(1.0, Mat2(np.diag([2.0, 1.0])))
        gi = group_inverse(g)
        assert np.allclose(gi.P.array, np.diag([0.5, 1.0]))

    def test_composition_law(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            g = rand_group_element(rng, scale=2.0)
            h = rand_group_element(rng, scale=2.0)
            A = rand_complex_matrix(rng, 0.5)
            B = rand_complex_matrix(rng, 0.5)
            x = PairAB(Mat2(A), SymMat2.from_array(B + B.T))
            lhs = apply_action(g, apply_action(h, x))
            rhs = apply_action(group_compose(h, g), x)
            assert pair_distance(lhs, rhs) <= 1e-10 * max(
                1.0, max_norm(lhs.A), max_norm(lhs.B)
            )

    def test_inverse_law(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            g = rand_group_element(rng)
            gid = group_compose(g, group_inverse(g))
            assert np.allclose(gid.P.array, np.eye(2), atol=1e-9)
            assert abs(gid.c - 1.0) < 1e-9


class TestJson:
    def test_roundtrip_pair(self):
        x = PairAB(Mat2([[1 + 2j, 3], [0, -1j]]), SymMat2(0.5, 1j, -2.0))
        doc = json.loads(json.dumps(x.to_json()))
        y = PairAB.from_json(doc)
        assert pair_distance(x, y) == 0.0

    def test_roundtrip_group(self):
        g = GroupElement(np.exp(0.123456789012345j), Mat2([[1, 2], [3, 4 + 1j]]))
        doc = json.loads(json.dumps(g.to_json()))
        h = GroupElement.from_json(doc)
        assert np.allclose(g.P.array, h.P.array) and abs(g.c - h.c) < 1e-15

    def test_every_written_document_is_accepted(self):
        from pairbundles.normal_forms import CELLS, representative
        from pairbundles.numerics import generic_params

        for cell in CELLS:
            x = representative(cell, generic_params(cell))
            doc = json.loads(json.dumps(x.to_json()))
            assert PairAB.from_json(doc) == x
            assert SymMat2.from_json(doc["B"]) == x.B

    @pytest.mark.parametrize("build, doc", [
        (PairAB.from_json, {"A": [[1, 0], [0, 1]],
                            "B": {"a": 1, "b": 0, "d": 2}, "C": 0}),
        (PairAB.from_json, {"A": [[1, 0], [0, 1]]}),
        (PairAB.from_json, [[1, 0], [0, 1]]),
        (SymMat2.from_json, {"a": 1, "b": 0, "d": 2, "e": 0}),
        (SymMat2.from_json, {"a": 1, "b": 0}),
    ], ids=["pair-unknown", "pair-missing", "pair-array", "sym-unknown",
            "sym-missing"])
    def test_documents_take_exactly_their_keys(self, build, doc):
        with pytest.raises(ValidationError):
            build(doc)

    def test_record_json_writes_fields_in_order_then_properties(self):
        """A value with to_json writes itself, a tuple or list becomes a
        list and a dict a copy; the named properties come last."""
        from dataclasses import dataclass

        from pairbundles.numerics import BoundReport

        @dataclass
        class Record:
            g: GroupElement
            grid: tuple
            hits: list
            detail: dict
            residual: float

            @property
            def ok(self):
                return self.residual < 1

        g = GroupElement(1j, Mat2.identity())
        rec = Record(g, (0.5, 0.25), [(1, "x")], {"seed": 0}, 0.5)
        doc = _record_json(rec, "ok")
        assert list(doc) == ["g", "grid", "hits", "detail", "residual", "ok"]
        assert doc == {"g": g.to_json(), "grid": [0.5, 0.25],
                       "hits": [(1, "x")], "detail": {"seed": 0},
                       "residual": 0.5, "ok": True}
        assert doc["hits"] is not rec.hits and doc["detail"] is not rec.detail
        assert list(BoundReport(True, 1.0, 0.5, 0.5, name="D1").to_json()) == [
            "hypothesis_ok", "bound_value", "observed_value", "margin", "name",
            "ok"]

    def test_seventeen_digit_roundtrip(self):
        v = 0.1234567890123456789
        m = Mat2([[v, 0], [0, 0]])
        m2 = Mat2.from_json(json.loads(json.dumps(m.to_json())))
        assert m2.array[0, 0] == m.array[0, 0]


# In a fresh interpreter: the bytes that tracemalloc sees held after 5,000
# builds, of each exact-size helper, then of the `tuple(map(...))` build
# they replace, which CPython allocates at its length-hint size 10 and
# shrinks to 4, moving one block from the 10-tuple free list to the 4-tuple
# one until that list holds its cap of 2,000 blocks.  `_trial_stage1` runs
# on a stand-in stage 1, 25 tables of 200 trials.
_HELD_BYTES = r"""
import json, tracemalloc
from pairbundles import classify, core, numerics

def held(fn, calls):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(calls):
            fn(k)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

m4, nested = (1.0, 2j, 3.0, 4j), [[1.0, 2j], [3.0, 4j]]
classify._stage1 = lambda a: None
numerics._trial_perturbations(0, 200, 1e-3)
out = {
    "_finite4": held(lambda k: core._finite4(m4), 5000),
    "_entries4": held(lambda k: core._entries4(nested), 5000),
    "_trial_stage1": held(lambda k: numerics._trial_stage1(
        numerics._bits((complex(k), 0j, 0j, 1j)), 0, 200, 1e-3), 25),
    "tuple(map(...))": held(lambda k: tuple(map(complex, m4)), 5000),
}
print(json.dumps(out))
"""


def test_four_tuples_are_built_at_exact_size():
    """`core._finite4`, `core._entries4` on nested lists and
    `numerics._trial_stage1`'s per-trial sums hold no tuple free-list
    blocks; skipped where the `tuple(map(...))` build holds none either."""
    src = pathlib.Path(pairbundles.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _HELD_BYTES],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    held = json.loads(proc.stdout)
    reference = held.pop("tuple(map(...))")
    assert all(n < 16_000 for n in held.values()), held
    if reference < 64_000:
        pytest.skip(f"this interpreter keeps no tuple free list ({reference} "
                    "bytes held by the tuple(map(...)) build)")
