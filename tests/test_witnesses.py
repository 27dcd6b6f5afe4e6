import dataclasses
import json
import math
import unittest
import warnings

import numpy as np
import pytest

from pairbundles import cli
from pairbundles.closure import SuspectEdgeWarning, bundle_graph
from pairbundles.core import (GroupElement, Mat2, ValidationError,
                              apply_action, pair_distance)
from pairbundles.normal_forms import label_from_string as L
from pairbundles.witnesses import (
    CATALOG,
    DEFAULT_S_MAX,
    WitnessFamily,
    default_grid,
    witness_eval,
    witness_lookup,
    witness_repair,
    witness_verify,
)


def _by_name(name):
    for f in CATALOG:
        if f.name == name:
            return f
    raise KeyError(name)


class TestCatalogShape(unittest.TestCase):
    def test_names_unique(self):
        names = [f.name for f in CATALOG]
        self.assertEqual(len(names), len(set(names)))

    def test_every_family_realizes_an_edge(self):
        g = bundle_graph()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SuspectEdgeWarning)
            for f in CATALOG:
                self.assertTrue(g.is_path(f.source_label, f.target),
                                msg=f.name)

    def test_edges_are_proper(self):
        for f in CATALOG:
            self.assertNotEqual(f.source_label, f.target, msg=f.name)

    def test_ships_unverified(self):
        # a family carries no trust status of its own; the catalog does not
        # pre-trust any printed constants, and only a report says whether
        # a family converges
        fields = {f.name for f in dataclasses.fields(WitnessFamily)}
        self.assertNotIn("status", fields)
        for f in CATALOG:
            self.assertIn(witness_verify(f).status,
                          ("unverified", "verified", "refuted"))


class TestLookup(unittest.TestCase):
    def test_lookup_hit(self):
        f = witness_lookup(L("one_zero/zero"), L("tau_form/zero"))
        self.assertIsNotNone(f)
        self.assertEqual(f.name, "one-zero-in-tau")

    def test_lookup_printed_swap_family(self):
        f = witness_lookup(L("one_plus_minus/zero"),
                           L("one_plus_minus/swap_one_zero"))
        self.assertIsNotNone(f)
        # the catalog keeps the printed constants, typo and all
        P = f.P_of_s(0.1)
        assert np.allclose(P, 0.5 * np.array([[0.2, 10.0], [0.2, -10.0]]))

    def test_lookup_miss(self):
        self.assertIsNone(
            witness_lookup(L("one_theta/zero"), L("tau_form/zero")))


class TestEval(unittest.TestCase):
    def test_tau_family_residual_value(self):
        # residual of [[1, s/(1+tau)], [s tau/(1+tau), 0]] against 1 (+) 0
        f = _by_name("one-zero-in-tau")
        _, _, r = witness_eval(f, 0.1)
        self.assertAlmostEqual(r, 0.1 / 1.5, places=12)

    def test_convergence_order_from_two_scales(self):
        f = _by_name("one-zero-in-tau")
        r1 = witness_eval(f, 0.1)[2]
        r2 = witness_eval(f, 0.01)[2]
        self.assertAlmostEqual(r1 / r2, 10.0, delta=0.5)

    def test_s_domain(self):
        f = CATALOG[0]
        with self.assertRaises(ValidationError):
            witness_eval(f, 0.0)
        with self.assertRaises(ValidationError):
            witness_eval(f, DEFAULT_S_MAX * 1.01)
        with self.assertRaises(ValidationError):
            witness_eval(f, -0.1)

    def test_target_parameters_outside_the_domain_are_refused(self):
        # the instance is the target's representative at q(s), so a q(s)
        # outside the target's domain is refused by name
        f = dataclasses.replace(_by_name("jordan-in-tau"),
                                target_params_of_s=lambda s: {"tau": 1 + s})
        with self.assertRaises(ValidationError) as cm:
            witness_eval(f, 0.1)
        self.assertEqual(str(cm.exception), "invalid parameters for "
                         "tau_form/zero: tau must lie in (0, 1)")

    def test_group_element_is_returned(self):
        g, moved, r = witness_eval(_by_name("jordan-in-one-theta"), 0.1)
        self.assertAlmostEqual(abs(g.c), 1.0, places=12)
        self.assertEqual(moved.A.array.shape, (2, 2))


class TestVerify(unittest.TestCase):
    def test_grid_of_length_one_rejected(self):
        with self.assertRaises(ValueError) as cm:
            witness_verify(CATALOG[0], s_grid=[0.1])
        self.assertIn("insufficient grid", str(cm.exception))

    def test_default_grid_is_geometric(self):
        g = default_grid()
        self.assertGreaterEqual(len(g), 12)
        for a, b in zip(g, g[1:]):
            self.assertAlmostEqual(b / a, 0.5, places=12)
        self.assertEqual(g[0], 0.3)

    def test_verified_families(self):
        for name in ("rank1-in-rank2", "jordan-in-tau",
                     "identity-scalar-in-anti-diag",
                     "nilpotent-off-diag-b-one-in-phase-form"):
            f = _by_name(name)
            rep = witness_verify(f)
            self.assertEqual(rep.status, "verified", msg=rep.message)
            self.assertEqual(rep.family, f.name)
            self.assertLess(rep.residuals[-1], 1e-4)
            # a tol at the final residual is missed, but not by 100x
            at_tol = witness_verify(f, tol=rep.residuals[-1])
            self.assertEqual(at_tol.status, "unverified", msg=at_tol.message)
            self.assertEqual(at_tol.message,
                             f"final residual {rep.residuals[-1]:.3e} >= "
                             f"{rep.residuals[-1]}")

    def test_report_is_serializable(self):
        rep = witness_verify(_by_name("rank1-in-rank2"))
        doc = rep.to_json()
        self.assertEqual(len(doc["residuals"]), len(doc["s_grid"]))

    def test_wrong_source_is_refuted(self):
        # evaluating the rank-2 family against a far-away source
        f = dataclasses.replace(
            _by_name("rank1-in-rank2"),
            source=(L("one_plus_minus/zero"),
                    _by_name("rank1-in-rank2").source[1]))
        rep = witness_verify(f)
        self.assertEqual(rep.status, "refuted")


class TestRepair(unittest.TestCase):
    def test_scale_typo_family(self):
        f = _by_name("plus-minus-in-jordan")
        self.assertEqual(witness_verify(f).status, "refuted")
        g, rep = witness_repair(f)
        self.assertEqual(rep.status, "repaired")
        self.assertIn("scaled by t=1.414213562", g.provenance)
        self.assertEqual(witness_verify(g).status, "verified")
        self.assertEqual(witness_repair(f)[1], rep)  # sticky after re-verify

    def test_transposition_typo_family(self):
        f = _by_name("plus-minus-in-swap-one-zero")
        self.assertEqual(witness_verify(f).status, "refuted")
        g, rep = witness_repair(f)
        self.assertEqual(rep.status, "repaired")
        self.assertIn("transposed", g.provenance)
        self.assertEqual(witness_verify(g).status, "verified")

    def test_verified_family_returned_unchanged(self):
        f = _by_name("jordan-in-tau")
        witness_verify(f)
        g, rep = witness_repair(f)
        self.assertIs(g, f)
        self.assertEqual(rep.status, "verified")

    def test_unrepairable_family_is_refuted(self):
        f = dataclasses.replace(
            _by_name("rank1-in-rank2"),
            source=(L("one_plus_minus/zero"),
                    _by_name("rank1-in-rank2").source[1]))
        g, rep = witness_repair(f)
        self.assertIs(g, f)
        self.assertEqual(rep.status, "refuted")


def test_witness_edges_keep_their_certificates():
    """`closure` cannot import `witnesses` when it loads, so it restates
    its three witness edges by hand: each must still be a catalogued
    family that ends verified or repaired, as its provenance says."""
    from pairbundles.closure import _WITNESS_EDGES

    statuses = {}
    for src, dst, provenance in _WITNESS_EDGES:
        family = witness_lookup(L(src), L(dst))
        assert family is not None, (src, dst)
        fixed, report = witness_repair(family)
        assert witness_verify(fixed).status == "verified", family.name
        assert ("(constants repaired)" in provenance) == \
            (report.status == "repaired"), family.name
        statuses[family.name] = report.status
    assert statuses == {"plus-minus-in-swap-one-zero": "repaired",
                        "plus-minus-in-jordan": "repaired",
                        "jordan-in-tau": "verified"}


@pytest.mark.parametrize("family", CATALOG, ids=lambda f: f.name)
def test_full_catalog_verifies_after_repair(family):
    """Every family ends verified or repaired, monotone along the grid."""
    rep = witness_verify(family)
    if rep.status != "verified":
        family, repair = witness_repair(family)
        rep = witness_verify(family)
        assert repair.status == "repaired"
    assert rep.status == "verified", rep.message
    assert rep.residuals[-1] < 1e-4
    for a, b in zip(rep.residuals, rep.residuals[1:]):
        assert b <= a * (1 + 1e-9) + 1e-15


def test_catalog_is_never_mutated(capsys):
    before = [dataclasses.replace(f) for f in CATALOG]
    with pytest.raises(dataclasses.FrozenInstanceError):
        CATALOG[0].provenance = "edited"
    outputs = []
    for _ in range(2):
        assert cli.main(["verify", "witness"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert [c["status"] for c in outputs[0]["checks"]].count("repaired") == 2
    assert list(CATALOG) == before


def _value_type_eval(f, s):
    """A family at s through the value types: the `GroupElement` of (c(s),
    P(s)), `apply_action` on the target's representative at q(s) and
    `pair_distance` to the source's.  It does not check s."""
    g = GroupElement(f.c_of_s(s), Mat2(f.P_of_s(s)))
    moved = apply_action(g, f.target_instance_of_s(s))
    return g, moved, pair_distance(moved, f.source_pair())


@pytest.mark.parametrize("family", CATALOG, ids=lambda f: f.name)
def test_verify_residuals_are_witness_eval_bit_for_bit(family):
    """For each family and its repaired form, `witness_verify`'s residuals
    are `witness_eval`'s, and those of the value-type evaluation, bit for
    bit; `witness_eval` returns the value types' group element and moved
    pair."""
    fams = [family]
    repaired, report = witness_repair(family)
    if report.status == "repaired":
        fams.append(repaired)
    for fam in fams:
        grid = default_grid()
        got = [r.hex() for r in witness_verify(fam).residuals]
        assert got == [witness_eval(fam, s)[2].hex() for s in grid]
        for s in grid:
            g, moved, r = witness_eval(fam, s)
            g0, moved0, r0 = _value_type_eval(fam, s)
            assert r.hex() == r0.hex()
            assert repr(g) == repr(g0) and repr(moved) == repr(moved0)


def _message(fn, *args):
    with pytest.raises(ValidationError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("name, change, s, says", [
    ("one-zero-in-tau", {}, 0.5, "s must lie in (0, 0.3] (got 0.5)"),
    ("one-zero-in-tau", {"P_of_s": lambda s: [[1, 1], [1, 1]]}, 0.1,
     "P must be invertible"),
    ("one-zero-in-tau", {"P_of_s": lambda s: [[math.inf, 0], [0, 1]]}, 0.1,
     "matrix entries must be finite"),
    ("one-zero-in-tau", {"c_of_s": lambda s: 2.0}, 0.1,
     "|c| must be 1 (got |c| = 2.0)"),
    ("jordan-in-tau", {"target_params_of_s": lambda s: {"tau": 1 + s}}, 0.1,
     "invalid parameters for tau_form/zero: tau must lie in (0, 1)"),
    ("jordan-in-tau", {"target_params_of_s": lambda s: {}}, 0.1,
     "invalid parameters for tau_form/zero: tau is required"),
    ("one-zero-in-one-theta", {"P_of_s": lambda s: [[1e200, 0], [0, 1]]},
     0.1, "matrix entries must be finite"),
    ("rank1-in-rank2", {"P_of_s": lambda s: [[1e200, 0], [0, 1e-200]]}, 0.1,
     "SymMat2.a must be finite"),
    ("one-zero-in-tau", {"c_of_s": lambda s: math.nan}, 0.1,
     "|c| must be 1 (got |c| = nan)"),
])
def test_witness_core_refuses_as_the_value_types_do(name, change, s, says):
    """`witness_verify` and `witness_eval` give the text of the value
    types' ValidationError, for an s outside (0, 0.3], a singular or
    non-finite P(s), a c(s) off the unit circle or NaN, an invalid q(s),
    and a moved A or B that overflows."""
    fam = dataclasses.replace(_by_name(name), **change)
    assert _message(witness_eval, fam, s) == says
    assert _message(witness_verify, fam, (s, 0.01)) == says
    if 0.0 < s <= DEFAULT_S_MAX:
        assert _message(_value_type_eval, fam, s) == says


def test_an_unknown_target_parameter_is_refused():
    fam = dataclasses.replace(_by_name("jordan-in-tau"),
                              target_params_of_s=lambda s: {"tau": 0.5,
                                                            "rho": 1.0})
    for fn, arg in ((witness_eval, 0.1), (witness_verify, (0.1, 0.01)),
                    (_value_type_eval, 0.1)):
        with pytest.raises(TypeError, match="rho"):
            fn(fam, arg)
