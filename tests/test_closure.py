import json
import unittest
import warnings

import pytest

from pairbundles.closure import (
    PSI1_GRAPH,
    PSI2_GRAPH,
    SuspectEdgeWarning,
    bundle_graph,
    is_path,
    is_path_psi1,
    is_path_psi2,
    path_edges,
    shape_min_rank,
    shape_rank,
)
from pairbundles.normal_forms import (
    ALabel,
    BLabel,
    BShape,
    CELLS,
    label_from_string as L,
    table_dimension,
)


def _distances(edges, src):
    """Edge count of a shortest path from src to each node it reaches."""
    dist, frontier = {src: 0}, [src]
    while frontier:
        nxt = []
        for x in frontier:
            for s, d in edges:
                if s == x and d not in dist:
                    dist[d] = dist[x] + 1
                    nxt.append(d)
        frontier = nxt
    return dist


def _warshall(nodes, edges):
    """Reflexive-transitive closure by Warshall's algorithm."""
    reach = {x: {x} | {d for s, d in edges if s == x} for x in nodes}
    for k in nodes:
        for x in nodes:
            if k in reach[x]:
                reach[x] |= reach[k]
    return reach


class TestPsi2(unittest.TestCase):
    def test_chain(self):
        self.assertTrue(is_path_psi2(BLabel.ZERO, BLabel.RANK1))
        self.assertTrue(is_path_psi2(BLabel.ZERO, BLabel.RANK2))
        self.assertTrue(is_path_psi2(BLabel.RANK1, BLabel.RANK2))
        self.assertFalse(is_path_psi2(BLabel.RANK2, BLabel.RANK1))
        self.assertFalse(is_path_psi2(BLabel.RANK1, BLabel.ZERO))

    def test_reflexive(self):
        for x in BLabel:
            self.assertTrue(is_path_psi2(x, x))

    def test_successor_sets(self):
        self.assertEqual(PSI2_GRAPH.successors(BLabel.ZERO), set(BLabel))
        self.assertEqual(PSI2_GRAPH.predecessors(BLabel.ZERO), {BLabel.ZERO})


class TestPsi1(unittest.TestCase):
    def test_generators_and_closure(self):
        self.assertTrue(is_path_psi1(ALabel.ZERO, ALabel.ONE_ZERO))
        self.assertTrue(is_path_psi1(ALabel.ONE_ZERO, ALabel.TAU_FORM))
        self.assertTrue(is_path_psi1(ALabel.ZERO, ALabel.JORDAN_I))
        self.assertTrue(is_path_psi1(ALabel.JORDAN_I, ALabel.ONE_THETA))

    def test_non_edges(self):
        self.assertFalse(is_path_psi1(ALabel.ONE_THETA, ALabel.TAU_FORM))
        self.assertFalse(is_path_psi1(ALabel.TAU_FORM, ALabel.ONE_THETA))
        self.assertFalse(is_path_psi1(ALabel.IDENTITY, ALabel.TAU_FORM))
        self.assertFalse(is_path_psi1(ALabel.NILPOTENT, ALabel.JORDAN_I))
        self.assertFalse(is_path_psi1(ALabel.IDENTITY, ALabel.ONE_PLUS_MINUS))

    def test_reflexive_transitive(self):
        for x in ALabel:
            self.assertTrue(is_path_psi1(x, x))
            for y in PSI1_GRAPH.successors(x):
                for z in PSI1_GRAPH.successors(y):
                    self.assertTrue(is_path_psi1(x, z))

    def test_edges_increase_dimension(self):
        # the (A, 0) cell dimension measures the A-part bundle dimension
        def dim(a):
            return table_dimension(L(f"{a.value}/zero"))
        for s, d in PSI1_GRAPH.edges:
            self.assertLess(dim(s), dim(d))


class TestShapeRanks(unittest.TestCase):
    def test_pure_shapes(self):
        self.assertEqual(shape_rank(BShape.ZERO), 0)
        self.assertEqual(shape_rank(BShape.SWAP_ONE_ZERO), 1)
        self.assertEqual(shape_rank(BShape.ANTI_DIAG), 2)
        self.assertEqual(shape_rank(BShape.OFF_DIAG_PHASE), 2)

    def test_parameter_dependent_shapes(self):
        for shape in (BShape.ONE_ZETA, BShape.DIAG_A_ZETA, BShape.ZETA_B_ONE,
                      BShape.FULL_HERMITIAN_LIKE, BShape.PHASE_FORM):
            self.assertIsNone(shape_rank(shape))
            self.assertEqual(shape_min_rank(shape), 1)


class TestPairGraph(unittest.TestCase):
    def setUp(self):
        self.g = bundle_graph()

    def test_zero_pair_reaches_everything(self):
        self.assertEqual(self.g.successors(L("zero/zero")),
                         set(CELLS))

    def test_zero_pair_has_no_proper_predecessor(self):
        self.assertEqual(self.g.predecessors(L("zero/zero")),
                         {L("zero/zero")})

    def test_stated_exclusions(self):
        self.assertFalse(is_path(L("one_zero/zero"), L("zero/rank2")))
        self.assertFalse(is_path(L("one_zero/zero"), L("zero/rank1")))
        self.assertFalse(is_path(L("one_zero/diag_a0"), L("jordan_i/zero")))
        for cell in CELLS:
            if cell.a_label is ALabel.ONE_THETA:
                self.assertFalse(is_path(cell, L("tau_form/phase_form")))
            if cell.a_label is ALabel.NILPOTENT:
                self.assertFalse(
                    is_path(cell, L("one_theta/full_hermitian_like")))

    def test_generic_cells_reached_from_almost_everywhere(self):
        full = L("one_theta/full_hermitian_like")
        phase = L("tau_form/phase_form")
        for cell in CELLS:
            if cell.a_label not in (ALabel.TAU_FORM, ALabel.NILPOTENT):
                self.assertIn(full, self.g.successors(cell))
            if cell.a_label not in (ALabel.ONE_THETA, ALabel.IDENTITY):
                self.assertIn(phase, self.g.successors(cell))

    def test_reflexive(self):
        for cell in CELLS:
            self.assertTrue(self.g.needs_suspect_edge(cell, cell) is False)
            self.assertIn(cell, self.g.successors(cell))

    def test_transitive(self):
        for x in CELLS:
            sx = self.g.successors(x)
            for y in sx:
                self.assertLessEqual(self.g.successors(y), sx)

    def test_dimension_monotone(self):
        for x in CELLS:
            for y in self.g.successors(x):
                if x != y:
                    self.assertLess(table_dimension(x), table_dimension(y),
                                    msg=f"{x} -> {y}")

    def test_projections(self):
        for x in CELLS:
            for y in self.g.successors(x):
                self.assertTrue(is_path_psi1(x.a_label, y.a_label),
                                msg=f"{x} -> {y}")
                r = shape_rank(y.b_shape)
                if r is not None:
                    self.assertLessEqual(shape_min_rank(x.b_shape), r,
                                         msg=f"{x} -> {y}")

    def test_successors_predecessors_agree_with_is_path(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SuspectEdgeWarning)
            for x in CELLS:
                sx = self.g.successors(x)
                for y in CELLS:
                    self.assertEqual(y in sx, self.g.is_path(x, y))
                    self.assertEqual(x in self.g.predecessors(y),
                                     self.g.is_path(x, y))

    def test_filtered_edges(self):
        got = {(str(e.src), str(e.dst)) for e, _ in self.g.filtered_edges}
        self.assertEqual(got, {
            ("one_zero/swap", "nilpotent/anti_diag"),
            ("tau_form/anti_diag", "nilpotent/zeta_b_one"),
            ("nilpotent/zero", "one_plus_minus/swap_one_zero"),
        })

    def test_suspect_reachability_warns(self):
        src, dst = L("tau_form/zero"), L("tau_form/zero_one")
        self.assertTrue(self.g.needs_suspect_edge(src, dst))
        with pytest.warns(SuspectEdgeWarning):
            self.assertTrue(self.g.is_path(src, dst))

    def test_strict_reachability_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SuspectEdgeWarning)
            self.assertTrue(is_path(L("zero/zero"), L("identity/diag_ad")))
            self.assertTrue(
                is_path(L("one_theta/zero"), L("one_theta/a_plus_off_diag")))


class TestPathEdges(unittest.TestCase):
    def test_chain_is_consistent(self):
        g = bundle_graph()
        src, dst = L("one_plus_minus/zero"), L("jordan_i/diag_a_zeta")
        chain = path_edges(src, dst)
        self.assertIsNotNone(chain)
        self.assertEqual(chain[0].src, src)
        self.assertEqual(chain[-1].dst, dst)
        for a, b in zip(chain, chain[1:]):
            self.assertEqual(a.dst, b.src)
        for e in chain:
            self.assertIn(e, g.base_edges)

    def test_trivial_and_missing(self):
        self.assertEqual(path_edges(L("zero/zero"), L("zero/zero")), [])
        self.assertIsNone(path_edges(L("one_theta/zero"), L("zero/zero")))


class TestEveryPair(unittest.TestCase):
    """Every ordered pair of the 46 cells, against searches made here."""

    def test_pair_graph(self):
        g = bundle_graph()
        base = set(g.base_edges)
        edges = [(e.src, e.dst) for e in g.base_edges]
        strict = [(e.src, e.dst) for e in g.base_edges if not e.suspect]
        dists = {x: _distances(edges, x) for x in CELLS}
        for src in CELLS:
            dist = dists[src]
            strict_reach = _distances(strict, src)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.assertEqual(g.successors(src), set(dist))
                self.assertEqual(g.predecessors(src),
                                 {x for x in CELLS if src in dists[x]})
            for dst in CELLS:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    reachable = g.is_path(src, dst)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    needs = g.needs_suspect_edge(src, dst)
                    chain = g.path_edges(src, dst)
                self.assertEqual(reachable, dst in dist)
                self.assertEqual(needs, dst in dist
                                 and dst not in strict_reach)
                self.assertEqual([w.category for w in caught],
                                 [SuspectEdgeWarning] if needs else [])
                if not reachable:
                    self.assertIsNone(chain)
                    continue
                self.assertEqual(len(chain), dist[dst])
                self.assertLessEqual(set(chain), base)
                self.assertEqual([src] + [e.dst for e in chain],
                                 [e.src for e in chain] + [dst])

    def test_projection_graphs(self):
        for graph in (PSI1_GRAPH, PSI2_GRAPH):
            reach = _warshall(graph.nodes, graph.edges)
            for x in graph.nodes:
                self.assertEqual(graph.successors(x), reach[x])
                self.assertEqual(graph.predecessors(x),
                                 {y for y in graph.nodes if x in reach[y]})
                for y in graph.nodes:
                    self.assertEqual(graph.is_path(x, y), y in reach[x])


class TestExport(unittest.TestCase):
    def test_json_round_trip(self):
        data = json.loads(bundle_graph().to_json())
        self.assertEqual(len(data["nodes"]), 46)
        self.assertEqual(len(data["filtered_edges"]), 3)
        for entry in data["edges"]:
            self.assertTrue(entry["provenance"])

    def test_dot_contains_all_nodes(self):
        dot = bundle_graph().to_dot()
        for cell in CELLS:
            self.assertIn(str(cell), dot)
