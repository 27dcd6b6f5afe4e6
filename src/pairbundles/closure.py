"""Reachability ("path") queries between bundles of pairs.

Three closure graphs are provided:

* the congruence action on B alone (rank chain 0 -> 1 -> 2),
* the *-congruence action on A alone (eight A-labels, explicit generator
  edges),
* the combined action on pairs (A, B) over the 46-cell catalog.

The pair graph is built from explicit data only: three families of rules
with stated exclusions, a hand-entered edge list transcribed from the
source graph figure (with per-edge provenance strings), and a handful of
edges certified by printed degeneration families.  Beyond that, only the
reflexive-transitive closure is taken -- no edge is ever inferred.  A
consistency filter removes entered edges that contradict the two
projection graphs or strict dimension monotonicity; everything filtered
is kept around for audit in ``ClosureGraphPsi.filtered_edges``.

Several figure cells are garbled in the source (duplicated, truncated or
mislabelled nodes).  Edges touching a reconstructed node carry
``suspect=True``.  Only ``is_path`` warns: it emits a
:class:`SuspectEdgeWarning` when every realizing path runs through a
suspect edge.  ``successors``, ``predecessors``, ``path_edges`` and
``needs_suspect_edge`` never warn.

All three graphs answer their queries from one breadth-first search
(``_search``) per root over their edges, taken in order.  The pair graph
runs it twice, over all base edges and over the non-suspect ones; its
``path_edges`` chain is the first-discovery chain of the first search, a
shortest one.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

from .core import _record_json
from .normal_forms import (
    COMPLEX_FIELDS,
    GENERIC_PARAMS,
    ALabel,
    BLabel,
    BShape,
    BundleLabel,
    CELLS,
    _B_FORMS,
    _representative_B_entries,
    label_from_string,
    table_dimension,
)

__all__ = [
    "SuspectEdgeWarning",
    "Edge",
    "ClosureGraphPsi2",
    "ClosureGraphPsi1",
    "ClosureGraphPsi",
    "PSI2_GRAPH",
    "PSI1_GRAPH",
    "shape_rank",
    "shape_min_rank",
    "is_path_psi2",
    "is_path_psi1",
    "bundle_graph",
    "is_path",
    "successors",
    "predecessors",
    "path_edges",
]


class SuspectEdgeWarning(UserWarning):
    """Raised (as a warning) when reachability relies on a garbled-row edge."""


# ---------------------------------------------------------------------------
# reachability: one breadth-first search serves all three graphs
# ---------------------------------------------------------------------------

def _search(nodes, arcs) -> dict:
    """Breadth-first search from every node over (src, dst, edge) arcs,
    taken in order.  For each root: {reached node: the edge that first
    reached it}, with the root itself mapped to None."""
    out_arcs = {x: [] for x in nodes}
    for src, dst, edge in arcs:
        out_arcs[src].append((dst, edge))
    trees = {}
    for root in nodes:
        tree = {root: None}
        queue = [root]
        for x in queue:
            for dst, edge in out_arcs[x]:
                if dst not in tree:
                    tree[dst] = edge
                    queue.append(dst)
        trees[root] = tree
    return trees


class _Graph:
    """Reflexive-transitive closure of `edges` over `nodes`, answered from
    one search tree per root."""

    nodes: tuple
    edges: tuple

    def __init__(self) -> None:
        self._tree = _search(self.nodes,
                             [(s, d, (s, d)) for s, d in self.edges])

    def is_path(self, src, dst) -> bool:
        return dst in self._tree[src]

    def successors(self, src) -> set:
        return set(self._tree[src])

    def predecessors(self, dst) -> set:
        return {x for x in self.nodes if dst in self._tree[x]}


# ---------------------------------------------------------------------------
# congruence action on B alone: rank is a complete invariant, and the
# closure order is the rank chain 0 -> 1 -> 2
# ---------------------------------------------------------------------------

class ClosureGraphPsi2(_Graph):
    """Reflexive-transitive closure of the chain Zero -> Rank1 -> Rank2."""

    nodes = tuple(BLabel)
    edges = ((BLabel.ZERO, BLabel.RANK1), (BLabel.RANK1, BLabel.RANK2))


PSI2_GRAPH = ClosureGraphPsi2()


def is_path_psi2(src: BLabel, dst: BLabel) -> bool:
    return PSI2_GRAPH.is_path(src, dst)


# ---------------------------------------------------------------------------
# *-congruence action on A alone
# ---------------------------------------------------------------------------

_PSI1_GENERATORS: tuple[tuple[ALabel, ALabel], ...] = (
    (ALabel.ZERO, ALabel.ONE_ZERO),
    (ALabel.ONE_ZERO, ALabel.IDENTITY),
    (ALabel.ONE_ZERO, ALabel.ONE_PLUS_MINUS),
    (ALabel.ONE_ZERO, ALabel.NILPOTENT),
    (ALabel.IDENTITY, ALabel.ONE_THETA),
    (ALabel.ONE_PLUS_MINUS, ALabel.JORDAN_I),
    (ALabel.NILPOTENT, ALabel.TAU_FORM),
    (ALabel.JORDAN_I, ALabel.ONE_THETA),
    (ALabel.JORDAN_I, ALabel.TAU_FORM),
)


class ClosureGraphPsi1(_Graph):
    """Reflexive-transitive closure of the A-part generator edges."""

    nodes = tuple(ALabel)
    edges = _PSI1_GENERATORS


PSI1_GRAPH = ClosureGraphPsi1()


def is_path_psi1(src: ALabel, dst: ALabel) -> bool:
    return PSI1_GRAPH.is_path(src, dst)


# ---------------------------------------------------------------------------
# B-shape ranks.  A shape is "rank pure" when every member has the same
# rank regardless of parameter values; shapes carrying a free complex
# entry (zeta or zeta*) can drop rank on a thin subset and are not pure.
# ---------------------------------------------------------------------------

@functools.cache
def _generic_rank(shape: BShape) -> int:
    """Rank of the shape's form at the generic parameters."""
    b11, b12, b22 = _representative_B_entries(shape, vars(GENERIC_PARAMS))
    if b11 == b12 == b22 == 0:
        return 0
    return 1 if b11 * b22 - b12 * b12 == 0 else 2


def _rank_pure(shape: BShape) -> bool:
    return COMPLEX_FIELDS.isdisjoint(_B_FORMS[shape][0])


def shape_rank(shape: BShape) -> int | None:
    """Rank of the shape if rank-pure, else None."""
    return _generic_rank(shape) if _rank_pure(shape) else None


def shape_min_rank(shape: BShape) -> int:
    """Smallest rank attained over the shape's parameter range."""
    return _generic_rank(shape) if _rank_pure(shape) else 1


# ---------------------------------------------------------------------------
# pair graph data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    src: BundleLabel
    dst: BundleLabel
    provenance: str
    suspect: bool = False


def _L(s: str) -> BundleLabel:
    return label_from_string(s)


def _rule_edges() -> list[Edge]:
    """The three families of blanket rules with their stated exclusions."""
    out: list[Edge] = []

    def add(src, dst, prov):
        if src != dst:
            out.append(Edge(src, dst, prov))

    zz = _L("zero/zero")
    oz = _L("one_zero/zero")
    oa0 = _L("one_zero/diag_a0")
    for dst in CELLS:
        add(zz, dst, "rule: the zero pair degenerates from every bundle")
        if dst.a_label is not ALabel.ZERO:
            add(oz, dst,
                "rule: (1(+)0, 0) reaches every bundle whose A-part is "
                "nonzero")
            if dst.b_shape is not BShape.ZERO:
                add(oa0, dst,
                    "rule: (1(+)0, a(+)0) reaches every bundle with nonzero "
                    "A-part and nonzero B-part")

    zr1 = _L("zero/rank1")
    zr2 = _L("zero/rank2")
    osw = _L("one_zero/swap")
    for dst in CELLS:
        if dst.b_shape is not BShape.ZERO:
            add(zr1, dst,
                "rule: (0, 1(+)0) reaches every bundle with nonzero B-part")
        if _generic_rank(dst.b_shape) == 2:
            add(zr2, dst,
                "rule: (0, I_2) reaches every bundle whose B-part is "
                "generically nonsingular")
            if dst.a_label is not ALabel.ZERO:
                add(osw, dst,
                    "rule: (1(+)0, [[0,1],[1,0]]) reaches every bundle with "
                    "nonzero A-part and generically nonsingular B-part")

    phase = _L("tau_form/phase_form")
    full = _L("one_theta/full_hermitian_like")
    for src in CELLS:
        if src.a_label not in (ALabel.ONE_THETA, ALabel.IDENTITY):
            add(src, phase,
                "rule: the generic tau-form bundle is reached from every "
                "source except those with A-part 1(+)e^{i theta} (theta=0 "
                "included)")
        if src.a_label not in (ALabel.TAU_FORM, ALabel.NILPOTENT):
            add(src, full,
                "rule: the generic 1(+)e^{i theta} bundle is reached from "
                "every source except those with A-part [[0,1],[tau,0]] "
                "(tau=0 included)")
    return out


# Transcription of the source graph figure.  Left panel: the
# 1(+)e^{i theta} / Jordan-like side; right panel: the tau-form /
# nilpotent side.  One entry per drawn arrow; arrows touching a garbled
# node carry suspect=True and a note.
#
# Reconstructed nodes:
#   * left panel "I_2, 0(+)dI_2"  -> (identity, d I_2)           [garble]
#   * right panel top "[[0,1],[1,i]], 1(+)zeta": the literal print repeats
#     the left panel's Jordan node, but three of its in-arrows would then
#     contradict the A-part projection graph; read as the otherwise missing
#     (tau_form, 1(+)zeta) cell, which makes every in-arrow consistent and
#     two of them match printed degeneration families.
#   * right panel "[[0,1],[0,0]], 0(+)" (truncated) -> (nilpotent, 0(+)1)
#   * right panel duplicated "[[0,1],[0,0]], 0_2" in the dim-8 row, with
#     tau-form successors -> (tau_form, 0_2)
_FIGURE_EDGES: tuple[tuple[str, str, bool, str], ...] = (
    # -- left panel --
    ("identity/diag_ad", "one_theta/diag_ad", False, ""),
    ("identity/diag_ad", "one_theta/a_plus_off_diag", False, ""),
    ("identity/diag_ad", "one_theta/off_diag_plus_d", False, ""),
    ("one_plus_minus/diag_ad", "one_theta/diag_ad", False, ""),
    ("one_plus_minus/diag_ad", "one_theta/a_plus_off_diag", False, ""),
    ("one_plus_minus/diag_ad", "one_theta/off_diag_plus_d", False, ""),
    ("one_plus_minus/swap_one_de_itheta", "jordan_i/diag_a_zeta", False, ""),
    ("one_zero/diag_a_one", "one_theta/off_diag_plus_d", False, ""),
    ("one_zero/diag_a_one", "one_theta/a_plus_off_diag", False, ""),
    ("one_theta/anti_diag", "one_theta/a_plus_off_diag", False, ""),
    ("one_theta/anti_diag", "one_theta/off_diag_plus_d", False, ""),
    ("one_theta/diag_a0", "one_theta/a_plus_off_diag", False, ""),
    ("one_theta/zero_d", "one_theta/off_diag_plus_d", False, ""),
    ("jordan_i/anti_diag", "jordan_i/diag_a_zeta", False, ""),
    ("jordan_i/anti_diag", "one_theta/off_diag_plus_d", False, ""),
    ("jordan_i/anti_diag", "one_theta/a_plus_off_diag", False, ""),
    ("one_plus_minus/swap_off_diag_b_one", "jordan_i/diag_a_zeta", False, ""),
    ("one_plus_minus/swap_off_diag_b_one", "one_plus_minus/diag_ad",
     False, ""),
    ("one_theta/zero", "one_theta/diag_a0", False, ""),
    ("one_theta/zero", "one_theta/anti_diag", False, ""),
    ("one_theta/zero", "one_theta/zero_d", False, ""),
    ("one_plus_minus/zero_d", "one_theta/diag_a0", False, ""),
    ("one_plus_minus/zero_d", "one_theta/zero_d", False, ""),
    ("one_plus_minus/zero_d", "one_plus_minus/diag_ad", False, ""),
    ("one_plus_minus/d_identity", "jordan_i/anti_diag", False, ""),
    ("one_plus_minus/d_identity", "one_plus_minus/swap_one_de_itheta",
     False, ""),
    ("one_plus_minus/d_identity", "one_plus_minus/diag_ad", False, ""),
    ("one_plus_minus/d_identity", "one_plus_minus/swap_off_diag_b_one",
     False, ""),
    ("identity/zero_d", "identity/diag_ad", False, ""),
    ("identity/zero_d", "one_theta/anti_diag", False, ""),
    ("identity/d_identity", "one_theta/anti_diag", True,
     "source node printed as 'I_2, 0(+)dI_2'"),
    ("identity/d_identity", "identity/diag_ad", True,
     "source node printed as 'I_2, 0(+)dI_2'"),
    ("jordan_i/zero_d", "jordan_i/anti_diag", False, ""),
    ("jordan_i/zero_d", "one_theta/zero_d", False, ""),
    ("one_plus_minus/anti_diag", "one_plus_minus/swap_one_de_itheta",
     False, ""),
    ("one_zero/zero_one", "identity/zero_d", False, ""),
    ("one_zero/zero_one", "one_zero/diag_a_one", False, ""),
    ("one_plus_minus/swap_one_zero", "one_plus_minus/swap_off_diag_b_one",
     False, ""),
    ("one_plus_minus/swap_one_zero", "jordan_i/zero_d", False, ""),
    ("one_plus_minus/swap_one_zero", "one_plus_minus/anti_diag", False, ""),
    ("jordan_i/zero", "jordan_i/zero_d", False, ""),
    ("jordan_i/zero", "one_theta/zero", False, ""),
    # -- right panel --
    ("one_plus_minus/swap_one_de_itheta", "tau_form/one_zeta", True,
     "target node reconstructed as (tau_form, 1(+)zeta)"),
    ("nilpotent/one_b_zero", "nilpotent/zeta_b_one", False, ""),
    ("tau_form/zero_one", "tau_form/off_diag_phase", False, ""),
    ("tau_form/zero_one", "tau_form/one_zeta", True,
     "target node reconstructed as (tau_form, 1(+)zeta)"),
    ("jordan_i/anti_diag", "tau_form/one_zeta", True,
     "target node reconstructed as (tau_form, 1(+)zeta)"),
    ("one_plus_minus/swap_off_diag_b_one", "tau_form/one_zeta", True,
     "target node reconstructed as (tau_form, 1(+)zeta); matches the "
     "printed degeneration family for this edge"),
    ("one_plus_minus/swap_off_diag_b_one", "tau_form/off_diag_phase",
     False, ""),
    ("nilpotent/off_diag_b_one", "tau_form/off_diag_phase", False, ""),
    ("nilpotent/off_diag_b_one", "nilpotent/zeta_b_one", False, ""),
    ("nilpotent/diag_a_one", "nilpotent/zeta_b_one", False, ""),
    ("nilpotent/diag_a_one", "tau_form/one_zeta", True,
     "target node reconstructed as (tau_form, 1(+)zeta)"),
    ("tau_form/anti_diag", "tau_form/off_diag_phase", False,
     "arrow drawn twice in the source"),
    ("tau_form/anti_diag", "nilpotent/zeta_b_one", True,
     "as printed; contradicts the A-part projection graph"),
    ("jordan_i/zero_d", "tau_form/zero_one", False, ""),
    ("nilpotent/one_zero", "nilpotent/one_b_zero", False, ""),
    ("nilpotent/one_zero", "nilpotent/off_diag_b_one", False, ""),
    ("nilpotent/one_zero", "nilpotent/diag_a_one", False, ""),
    ("nilpotent/anti_diag", "nilpotent/one_b_zero", False, ""),
    ("nilpotent/anti_diag", "nilpotent/off_diag_b_one", False, ""),
    ("nilpotent/anti_diag", "tau_form/anti_diag", False, ""),
    ("nilpotent/zero_one", "nilpotent/off_diag_b_one", True,
     "source node printed truncated ('..., 0(+)')"),
    ("nilpotent/zero_one", "nilpotent/diag_a_one", True,
     "source node printed truncated ('..., 0(+)')"),
    ("tau_form/zero", "tau_form/zero_one", True,
     "source node printed as a duplicate (nilpotent, 0_2); reconstructed "
     "from its tau-form successors"),
    ("tau_form/zero", "tau_form/anti_diag", True,
     "source node printed as a duplicate (nilpotent, 0_2); reconstructed "
     "from its tau-form successors"),
    ("one_plus_minus/swap_one_zero", "one_plus_minus/swap_one_de_itheta",
     False, ""),
    ("nilpotent/zero", "tau_form/zero", True,
     "target is the reconstructed duplicate node"),
    ("nilpotent/zero", "one_plus_minus/swap_one_zero", True,
     "as printed; contradicts the A-part projection graph"),
    ("nilpotent/zero", "nilpotent/zero_one", False, ""),
    ("nilpotent/zero", "nilpotent/anti_diag", False, ""),
)


def _figure_edges() -> list[Edge]:
    out = []
    for src, dst, suspect, note in _FIGURE_EDGES:
        prov = f"graph figure arrow {src} -> {dst}"
        if note:
            prov += f" ({note})"
        out.append(Edge(_L(src), _L(dst), prov, suspect))
    return out


# Edges not drawn in the figure and not covered by the rules, but
# certified by printed closed-form degeneration families.
_WITNESS_EDGES: tuple[tuple[str, str, str], ...] = (
    ("one_plus_minus/zero", "one_plus_minus/swap_one_zero",
     "degeneration family P(s) = (1/2)[[2s, 1/s], [2s, -1/s]] "
     "(constants repaired)"),
    ("one_plus_minus/zero", "jordan_i/zero",
     "A-part degeneration family P(s) = (1/2)[[1/s, 1/s], [s, -s]] "
     "(constants repaired)"),
    ("jordan_i/zero", "tau_form/zero",
     "A-part degeneration family A(s) = [[0, 1], [1 - s, 0]] with "
     "P(s) = (1/(2 sqrt(s)))[[s, -2i], [-is, 2]] (constants corrected; "
     "the printed ones do not converge)"),
)


def _witness_edges() -> list[Edge]:
    return [Edge(_L(s), _L(d), p) for s, d, p in _WITNESS_EDGES]


# ---------------------------------------------------------------------------
# the pair graph
# ---------------------------------------------------------------------------

def _edge_violation(src: BundleLabel, dst: BundleLabel) -> str | None:
    """Reason the entered edge contradicts an invariant, or None."""
    if src == dst:
        return "self-loop"
    if table_dimension(src) >= table_dimension(dst):
        return (f"dimension monotonicity: dim {table_dimension(src)} !< "
                f"{table_dimension(dst)}")
    if not is_path_psi1(src.a_label, dst.a_label):
        return (f"A-part projection: no path {src.a_label.value} -> "
                f"{dst.a_label.value}")
    r = shape_rank(dst.b_shape)
    if r is not None and shape_min_rank(src.b_shape) > r:
        return (f"B-part projection: rank {shape_min_rank(src.b_shape)} !<= "
                f"{r}")
    return None


class ClosureGraphPsi(_Graph):
    """Reflexive-transitive closure over the 46-cell catalog."""

    nodes = CELLS

    def __init__(self) -> None:
        raw = _rule_edges() + _figure_edges() + _witness_edges()
        # dedupe on (src, dst); an edge is suspect only if every entry
        # recording it is suspect
        seen: dict[tuple[BundleLabel, BundleLabel], Edge] = {}
        for e in raw:
            key = (e.src, e.dst)
            prev = seen.get(key)
            if prev is None:
                seen[key] = e
            elif prev.suspect and not e.suspect:
                seen[key] = e
        self.base_edges = []
        self.filtered_edges = []
        for e in seen.values():
            reason = _edge_violation(e.src, e.dst)
            if reason is None:
                self.base_edges.append(e)
            else:
                self.filtered_edges.append((e, reason))
        arcs = [(e.src, e.dst, e) for e in self.base_edges]
        self._tree = _search(CELLS, arcs)
        self._strict = _search(CELLS, [a for a in arcs if not a[2].suspect])

    # -- queries ----------------------------------------------------------
    def is_path(self, src: BundleLabel, dst: BundleLabel) -> bool:
        if self.needs_suspect_edge(src, dst):
            warnings.warn(
                f"path {src} -> {dst} exists only through suspect "
                f"(garbled-row) edges",
                SuspectEdgeWarning,
                stacklevel=2,
            )
        return super().is_path(src, dst)

    def needs_suspect_edge(self, src: BundleLabel, dst: BundleLabel) -> bool:
        return dst in self._tree[src] and dst not in self._strict[src]

    def path_edges(self, src: BundleLabel,
                   dst: BundleLabel) -> list[Edge] | None:
        """A shortest chain of base edges realizing the path, if any: the
        first-discovery chain of the breadth-first search from src."""
        tree = self._tree[src]
        if dst not in tree:
            return None
        chain = []
        while dst != src:
            chain.append(tree[dst])
            dst = tree[dst].src
        return chain[::-1]

    # -- export -----------------------------------------------------------
    def to_json(self) -> str:
        import json

        return json.dumps({
            "nodes": [str(c) for c in CELLS],
            "edges": [_record_json(e) for e in self.base_edges],
            "filtered_edges": [
                {"src": str(e.src), "dst": str(e.dst),
                 "provenance": e.provenance, "reason": reason}
                for e, reason in self.filtered_edges
            ],
        }, indent=2)

    def to_dot(self) -> str:
        lines = ["digraph closure {", "  rankdir=BT;"]
        for c in CELLS:
            lines.append(
                f'  "{c}" [label="{c}\\n{table_dimension(c)}"];')
        for e in self.base_edges:
            style = ' [style=dashed, color=red]' if e.suspect else ""
            lines.append(f'  "{e.src}" -> "{e.dst}"{style};')
        lines.append("}")
        return "\n".join(lines)


@functools.cache
def bundle_graph() -> ClosureGraphPsi:
    return ClosureGraphPsi()


def is_path(src: BundleLabel, dst: BundleLabel) -> bool:
    return bundle_graph().is_path(src, dst)


def successors(src: BundleLabel) -> set[BundleLabel]:
    return bundle_graph().successors(src)


def predecessors(dst: BundleLabel) -> set[BundleLabel]:
    return bundle_graph().predecessors(dst)


def path_edges(src: BundleLabel, dst: BundleLabel) -> list[Edge] | None:
    return bundle_graph().path_edges(src, dst)
