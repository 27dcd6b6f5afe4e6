"""Dump and compare classifier and optimizer outcomes on a fixed, seeded
corpus.

The corpus has 46,068 `classify_pair` calls:

- every cell's generic representative moved by 100 group moves for each
  seed S = 0-2 and cond_max in {10, 1e3}, with (c, P) drawn from
  `default_rng([S, 1, k])` for the k-th cell, as the benchmark's
  `orbit-classify` draws them;
- the epsilon = 1e-3 Monte Carlo trials around every generic representative
  for seeds 0-1, 200 trials each, as `monte_carlo_neighborhood` draws them;
- 68 exact representatives at the canonical boundaries of the 22 cells over
  1 (+) e^{i theta}, the tau-form and the nilpotent form: the generic
  representative with each combination of `BOUNDARY_VALUES` for the
  parameters the cell has (phi on and near 0, pi/2 and pi, real,
  imaginary and zero zeta, real zeta_star, and two values of a).

The draws and the group action are computed here with numpy, so the inputs
depend on the package under test only through its cell list, generic
parameters and representatives.  Per call the dump records the label, the
canonical parameters, the ambiguity notes, the reducer (c, P) and the
residual, or the error type and message.

The dump also records the package's own `monte_carlo_neighborhood` report
around every generic representative for the same seeds, trials and
epsilon: its histogram, violations and ambiguous and failure counts.  A
change in how the package draws its trials shows there even when the
classifier's outcomes on the corpus above do not change.  Between the
seed-0 and seed-1 blocks come the reports of five centres at (seed,
trials, epsilon) = (0, 50, 1e-3), then (0, 50, 1e-2), then (1, 50, 1e-2).
Each setting changes one of the three from the call before it, and these
centres' reports move with each, so a held trial table that is keyed on
less than all three shows here.

Last come the `distance_to_bundle` results of the benchmark's seven
separation floors (the five psi1 non-edges with budget 2 in the max norm,
and zero/rank2 -> zero/rank1 with budget 4 in both norms) for optimizer
seeds 0-2: the floor, the group element (c, P) and the target's
parameters.  JSON keeps every float exactly, so these must match bit for
bit.

Then come the catalogue and closure facts that the classifier's outcomes do
not show: for each cell its parameter fields, tabulated and numeric
dimensions and generic representative; for each B-shape its rank and
minimum rank; for each cell of the pair graph its sorted successors, those
among them that only a suspect edge reaches, its sorted predecessors, and
the `path_edges` chain to each successor as (src, dst) pairs.  These too
must match exactly.

Then come the six texts of `pairbundles closure export` (psi1, psi2 and
psi, each as json and dot), which must match exactly.

Then, for each witness family of the catalogue, the status and residuals
of `witness_repair`'s report: the `witness_verify` residuals of the family
in its repaired form (the family itself when it verifies).  They must
match bit for bit, so a changed instance, P(s) or c(s) shows here.

Last come the verification engines' numbers:

- the `verify bounds` checks for seeds 0-1 with 200 trials each;
- the `table3_residuals` at s = 0.1 of every (row, family) pair of rows
  C1-C12, C12a, C12b and the catalogue's families (the garbled ones in
  their repaired form) whose A-forms fit the row's types: 30 pairs today;
- the `table4_residuals` of rows D1-D5, each at an exact congruence and at
  a perturbed one;
- the `nu_fit` of the one_zero/zero -> tau_form/zero family for row C4.

Their floats may differ by PARAM_RTOL (1 + |v|), since these engines may
round differently; everything else in them (check ids, pass flags, skipped
and redraw counts, hypothesis flags, which pairs match) must match exactly.

Last of all come the 128 checks of `pairbundles verify all --seed S
--trials 200` for S = 0-1, as the CLI prints them, keyed by check id.
Every field of every check must match as text, the sign of a zero
included, and `compare` names each changed field by its check id.  The
checks have no timing field to leave out.

In all, a dump holds 46,655 records: 46,068 calls, 107 Monte Carlo reports,
21 distance results, 46 cells, 25 shapes, 46 closure records, 6 export
texts, 29 witness reports, 10 bound checks, 30 table-3 residual lists, 10
table-4 reports, 1 nu fit and 256 `verify all` checks.

    PYTHONPATH=src python tools/outcome_corpus.py dump OUT.json
    python tools/outcome_corpus.py compare BASE.json HEAD.json

`compare` exits 1 when any label, note list, error type, message, Monte
Carlo report, distance result, catalogue fact, export text, witness report
or `verify all` check field differs, or when a parameter or a float of the
verification engines differs by more than 1e-8 (1 + |v|).  The calls'
reducers and residuals do not fail the compare, since a reducer may differ
by an element of the stabilizer; `compare` prints how many calls differ in
them bit for bit, so that a change meant to keep every output shows that
it did.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np

MOVE_SEEDS = (0, 1, 2)
COND_MAXES = (10.0, 1e3)
MOVES_PER_CELL = 100
MC_SEEDS = (0, 1)
MC_TRIALS = 200
MC_EPSILON = 1e-3
# (seed, trials, epsilon) settings between the seed-0 and seed-1 report
# blocks, each one component away from the call before it, and centres whose
# reports move with every component
MC_STEPS = ((0, 50, 1e-3), (0, 50, 1e-2), (1, 50, 1e-2))
MC_STEP_CENTRES = ("jordan_i/zero", "one_plus_minus/diag_ad",
                   "one_plus_minus/swap_one_zero", "one_zero/zero",
                   "zero/zero")
PARAM_RTOL = 1e-8
MAX_REPORTED = 20
# (source, target, budget, norm) of the benchmark's nonedge-distance sweep;
# tests/test_numerics.py runs the same list, and tests/test_outcome_corpus.py
# checks it against perfbench/run.py
FLOOR_JOBS = [(src, dst, 2, "max") for src, dst in (
    ("one_theta/zero", "tau_form/zero"),
    ("tau_form/zero", "one_theta/zero"),
    ("identity/zero", "one_plus_minus/zero"),
    ("nilpotent/zero", "jordan_i/zero"),
    ("one_theta/zero", "one_zero/zero"),
)] + [("zero/rank2", "zero/rank1", 4, norm) for norm in ("max", "spectral")]
FLOOR_SEEDS = (0, 1, 2)
BOUND_SEEDS = (0, 1)
BOUND_TRIALS = 200
VERIFY_SEEDS = (0, 1)
VERIFY_TRIALS = 200
TABLE3_ROWS = tuple(f"C{k}" for k in range(1, 13)) + ("C12a", "C12b")
TABLE3_S = 0.1
# the shapes of tests/test_numerics.py's TestTable4.ROWS, a congruence P
# and a symmetric defect for the perturbed limit
TABLE4_ROWS = {
    "D1": [[0.0, 1.3], [1.3, 0.7]],
    "D2": [[0.9, -0.4], [-0.4, 0.0]],
    "D3": [[0.0, 0.0], [0.0, 2.0]],
    "D4": [[0.0, 1.1], [1.1, 0.0]],
    "D5": [[1.7, 0.0], [0.0, 0.0]],
}
TABLE4_P = [[1.0, 0.4j], [0.2, 1.1]]
TABLE4_DEFECT = [[3e-3, -2e-3j], [-2e-3j, 5e-3]]
# the boundary values that a canonical identification or a zero entry
# decides, each put into the generic representative of every cell over
# 1 (+) e^{i theta}, the tau-form and the nilpotent form that has the
# parameter (the largest float below pi stands for pi - 1e-16, which rounds
# to pi)
BOUNDARY_VALUES = {
    "phi": (0.0, 1e-17, -1e-17, math.pi / 2, math.nextafter(math.pi, 0.0),
            math.pi, -math.pi / 2, 3.0),
    "zeta": (0.3, 0.4j, 0.0),
    "zeta_star": (1.0, -1.0, 2.0, 1.0 - 1e-17j),
    "a": (1.0, 0.5),
}
BOUNDARY_A_LABELS = ("one_theta", "tau_form", "nilpotent")


def _group_move(rng, cond_max):
    """A random (c, P) with cond(P) <= cond_max, drawn as
    `numerics.sample_group_element` draws it."""
    phi = rng.uniform(0.0, 2 * math.pi)
    while True:
        P = np.eye(2) + (rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
        det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
        if abs(det) > 1e-9 and np.linalg.cond(P) <= cond_max:
            return cmath.exp(1j * phi), P


def _disc(rng, radius):
    r = radius * math.sqrt(rng.uniform())
    return r * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))


def corpus():
    """Yield (case id, PairAB) for every call of the corpus."""
    from pairbundles.core import Mat2, PairAB, SymMat2
    from pairbundles.normal_forms import CELLS, param_fields, representative
    from pairbundles.numerics import generic_params

    centres = [representative(cell, generic_params(cell)) for cell in CELLS]
    for seed in MOVE_SEEDS:
        for cond_max in COND_MAXES:
            for k, (cell, x0) in enumerate(zip(CELLS, centres)):
                A0, B0 = x0.A.array, x0.B.array
                rng = np.random.default_rng([seed, 1, k])
                for m in range(MOVES_PER_CELL):
                    c, P = _group_move(rng, cond_max)
                    A = c * P.conj().T @ A0 @ P
                    B = P.T @ B0 @ P
                    yield (f"move {cell} seed={seed} cond_max={cond_max:g} #{m}",
                           PairAB(Mat2(A), SymMat2.from_array(B)))
    for seed in MC_SEEDS:
        for cell, x0 in zip(CELLS, centres):
            A0, B0 = x0.A.array, x0.B.array
            for t in range(MC_TRIALS):
                rng = np.random.default_rng([seed, t])
                dA = np.array([[_disc(rng, MC_EPSILON) for _ in range(2)]
                               for _ in range(2)])
                db = [_disc(rng, MC_EPSILON) for _ in range(3)]
                yield (f"mc {cell} seed={seed} #{t}",
                       PairAB(Mat2(A0 + dA),
                              SymMat2(B0[0, 0] + db[0], B0[0, 1] + db[1],
                                      B0[1, 1] + db[2])))
    for cell in CELLS:
        if cell.a_label.value not in BOUNDARY_A_LABELS:
            continue
        fields = [f for f in param_fields(cell) if f in BOUNDARY_VALUES]
        for values in itertools.product(*(BOUNDARY_VALUES[f] for f in fields)):
            params = replace(generic_params(cell), **dict(zip(fields, values)))
            yield (" ".join([f"boundary {cell}", *(
                       f"{f}={v!r}" for f, v in zip(fields, values))]),
                   representative(cell, params))


def mc_reports():
    """Yield (case id, report fields) of the package's Monte Carlo reports."""
    from pairbundles.normal_forms import CELLS, label_from_string
    from pairbundles.numerics import monte_carlo_neighborhood

    def report(cell, seed, trials, epsilon):
        rep = monte_carlo_neighborhood(cell, None, epsilon, trials,
                                       seed=seed).to_json()
        return {k: rep[k] for k in ("histogram", "violations", "ambiguous",
                                    "failures")}

    for seed in MC_SEEDS:
        for cell in CELLS:
            yield (f"mc-report {cell} seed={seed}",
                   report(cell, seed, MC_TRIALS, MC_EPSILON))
        if seed == MC_SEEDS[0]:
            for step, trials, epsilon in MC_STEPS:
                for name in MC_STEP_CENTRES:
                    yield (f"mc-report {name} seed={step} trials={trials} "
                           f"epsilon={epsilon:g}",
                           report(label_from_string(name), step, trials,
                                  epsilon))


def distance_results():
    """Yield (case id, result fields) of the floor jobs' distance searches."""
    from pairbundles.normal_forms import label_from_string, representative
    from pairbundles.numerics import distance_to_bundle, generic_params

    for src, dst, budget, norm in FLOOR_JOBS:
        src_label = label_from_string(src)
        x = representative(src_label, generic_params(src_label))
        for seed in FLOOR_SEEDS:
            floor, (g, params) = distance_to_bundle(
                x, label_from_string(dst), budget=budget, seed=seed,
                norm=norm)
            yield (f"distance {src} -> {dst} budget={budget} norm={norm} "
                   f"seed={seed}",
                   {"floor": floor, "group_element": g.to_json(),
                    "params": params.to_json()})


def catalogue_facts():
    """Yield (case id, facts) of every cell, B-shape and source cell."""
    from pairbundles.closure import bundle_graph, shape_min_rank, shape_rank
    from pairbundles.normal_forms import (CELLS, BShape, param_fields,
                                          representative, table_dimension)
    from pairbundles.numerics import (bundle_dimension_numeric,
                                      generic_params)

    for cell in CELLS:
        yield (f"cell {cell}",
               {"param_fields": list(param_fields(cell)),
                "table_dimension": table_dimension(cell),
                "bundle_dimension_numeric": bundle_dimension_numeric(cell),
                "representative":
                    representative(cell, generic_params(cell)).to_json()})
    for shape in BShape:
        yield (f"shape {shape.value}",
               {"shape_rank": shape_rank(shape),
                "shape_min_rank": shape_min_rank(shape)})
    graph = bundle_graph()
    for src in CELLS:
        succ = sorted(graph.successors(src), key=str)
        yield (f"closure {src}",
               {"successors": [str(dst) for dst in succ],
                "needs_suspect_edge": [str(dst) for dst in succ
                                       if graph.needs_suspect_edge(src, dst)],
                "predecessors": sorted(map(str, graph.predecessors(src))),
                "path_edges": {str(dst): [[str(e.src), str(e.dst)]
                                          for e in graph.path_edges(src, dst)]
                               for dst in succ}})


def export_texts():
    """Yield (case id, text) of `closure export` for each graph and
    format."""
    from pairbundles.cli import main

    for which in ("psi1", "psi2", "psi"):
        for fmt in ("json", "dot"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["closure", "export", which, "--format", fmt])
            yield f"export {which} {fmt}", out.getvalue()


def witness_reports():
    """Yield (case id, report fields) of every family's repair report."""
    from pairbundles.witnesses import CATALOG, witness_repair

    for f in CATALOG:
        _fam, report = witness_repair(f)
        yield (f"witness {f.name}",
               {"status": report.status, "residuals": list(report.residuals)})


def bound_checks():
    """Yield (case id, check fields) of `verify bounds` for each seed."""
    from pairbundles.cli import _suite_bounds

    for seed in BOUND_SEEDS:
        args = argparse.Namespace(seed=seed, trials=BOUND_TRIALS)
        for check in _suite_bounds(args):
            fields = {k: v for k, v in check.items() if k != "id"}
            yield f"bound {check['id']} seed={seed}", fields


def table3_results():
    """Yield (case id, residuals) of every (row, family) match."""
    from pairbundles.numerics import table3_residuals
    from pairbundles.witnesses import CATALOG, witness_eval, witness_repair

    for fam in (witness_repair(f)[0] for f in CATALOG):
        src_A = fam.source_pair().A
        g, _moved, _r = witness_eval(fam, TABLE3_S)
        inst_A = fam.target_instance_of_s(TABLE3_S).A
        for row in TABLE3_ROWS:
            try:
                res = table3_residuals(row, src_A, inst_A, g.c, g.P)
            except ValueError:
                continue
            yield f"table3 {row} {fam.name} s={TABLE3_S}", res


def table4_results():
    """Yield (case id, report) of every row at both limits.  The report's
    `ok` is left out: it is margin >= 0, and at an exact congruence the
    margin is rounding noise of either sign (for D2 the bound is 0 or a
    few ulps, against an observed 7e-17)."""
    from pairbundles.numerics import table4_residuals

    P = np.array(TABLE4_P)
    for row, rows in TABLE4_ROWS.items():
        B = np.array(rows)
        exact = P.T @ B @ P
        for limit, Bt in (("exact", exact),
                          ("perturbed", exact + np.array(TABLE4_DEFECT))):
            report = table4_residuals(row, Bt, B, P).to_json()
            del report["ok"]
            yield f"table4 {row} {limit}", report


def nu_fit_results():
    """Yield (case id, constants) of the nu fit."""
    from pairbundles.normal_forms import label_from_string
    from pairbundles.numerics import nu_fit
    from pairbundles.witnesses import witness_lookup

    fam = witness_lookup(label_from_string("one_zero/zero"),
                         label_from_string("tau_form/zero"))
    yield f"nu_fit C4 {fam.name}", nu_fit(fam, "C4").to_json()


def verify_checks():
    """Yield (case id, check fields) of every check that `pairbundles
    verify all` prints for each seed."""
    from pairbundles.cli import main

    for seed in VERIFY_SEEDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["verify", "all", "--seed", str(seed),
                  "--trials", str(VERIFY_TRIALS)])
        for check in json.loads(out.getvalue())["checks"]:
            fields = {k: v for k, v in check.items() if k != "id"}
            yield f"verify {check['id']} seed={seed}", fields


def dump(out_path: str) -> int:
    import pairbundles
    from pairbundles.classify import (AmbiguityError,
                                      ClassificationFailureError,
                                      classify_pair)

    records = []
    for case, x in corpus():
        try:
            cl = classify_pair(x)
        except (AmbiguityError, ClassificationFailureError) as exc:
            records.append({"case": case, "error": type(exc).__name__,
                            "message": str(exc)})
            continue
        records.append({"case": case, "label": str(cl.label),
                        "params": cl.params.to_json(),
                        "notes": list(cl.ambiguous),
                        "reducer": cl.reducer.to_json(),
                        "residual": cl.residual})
    for case, report in mc_reports():
        records.append({"case": case, "report": report})
    for case, result in distance_results():
        records.append({"case": case, "distance": result})
    for case, facts in catalogue_facts():
        records.append({"case": case, "facts": facts})
    for case, text in export_texts():
        records.append({"case": case, "export": text})
    for case, report in witness_reports():
        records.append({"case": case, "witness": report})
    for results in (bound_checks, table3_results, table4_results,
                     nu_fit_results):
        for case, values in results():
            records.append({"case": case, "values": values})
    for case, fields in verify_checks():
        records.append({"case": case, "verify": fields})
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=0)
    print(f"{len(records)} records of {pairbundles.__file__} -> {out_path}",
          file=sys.stderr)
    return 0


def _as_complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _close_values(v0, v1) -> bool:
    """Floats within PARAM_RTOL (1 + |v|) of each other (NaN matches NaN,
    an infinity only itself); anything else exactly, nested alike."""
    if isinstance(v0, float) and isinstance(v1, float):
        if v0 == v1 or (math.isnan(v0) and math.isnan(v1)):
            return True
        return (math.isfinite(v0)
                and abs(v1 - v0) <= PARAM_RTOL * (1.0 + abs(v0)))
    if isinstance(v0, dict) and isinstance(v1, dict):
        return v0.keys() == v1.keys() and all(
            _close_values(v0[k], v1[k]) for k in v0)
    if isinstance(v0, list) and isinstance(v1, list):
        return len(v0) == len(v1) and all(map(_close_values, v0, v1))
    return type(v0) is type(v1) and v0 == v1


def differences(base: list, head: list):
    """Yield one line per differing call."""
    if len(base) != len(head):
        yield f"corpus sizes differ: {len(base)} vs {len(head)}"
    for r0, r1 in zip(base, head):
        case = r0["case"]
        if r1["case"] != case:
            yield f"case order differs: {case!r} vs {r1['case']!r}"
            return
        for key in ("label", "notes", "error", "message", "report"):
            if r0.get(key) != r1.get(key):
                yield f"{case}: {key} {r0.get(key)!r} -> {r1.get(key)!r}"
        # compared as text, so that even the sign of a zero counts
        for key in ("distance", "facts", "export", "witness"):
            d0, d1 = r0.get(key), r1.get(key)
            if json.dumps(d0) != json.dumps(d1):
                yield f"{case}: {key} {d0!r} -> {d1!r}"
        # one line per changed field of a `verify all` check, as text
        c0, c1 = r0.get("verify") or {}, r1.get("verify") or {}
        for name in [*c0, *(k for k in c1 if k not in c0)]:
            f0, f1 = c0.get(name), c1.get(name)
            if json.dumps(f0) != json.dumps(f1):
                yield f"{case}: {name} {f0!r} -> {f1!r}"
        v0, v1 = r0.get("values"), r1.get("values")
        if not _close_values(v0, v1):
            yield f"{case}: values {v0!r} -> {v1!r}"
        p0, p1 = r0.get("params", {}), r1.get("params", {})
        if set(p0) != set(p1):
            yield f"{case}: parameters {sorted(p0)} -> {sorted(p1)}"
            continue
        for name in p0:
            v0, v1 = _as_complex(p0[name]), _as_complex(p1[name])
            if abs(v1 - v0) > PARAM_RTOL * (1.0 + abs(v0)):
                yield f"{case}: {name} {v0!r} -> {v1!r}"


def reducer_differences(base: list, head: list) -> int:
    """The number of paired records whose reducer or residual differ as
    text, the sign of a zero included."""
    return sum(json.dumps([r0.get("reducer"), r0.get("residual")])
               != json.dumps([r1.get("reducer"), r1.get("residual")])
               for r0, r1 in zip(base, head))


def compare(base_path: str, head_path: str) -> int:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(head_path) as fh:
        head = json.load(fh)
    diffs = list(differences(base, head))
    for line in diffs[:MAX_REPORTED]:
        print(line)
    if len(diffs) > MAX_REPORTED:
        print(f"... {len(diffs) - MAX_REPORTED} more")
    print(f"{len(diffs)} differences in {len(base)} records")
    print(f"{reducer_differences(base, head)} records differ bit for bit in "
          "the reducer or residual (information only)")
    return 1 if diffs else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    q = sub.add_parser("dump", help="run the corpus and write its outcomes")
    q.add_argument("out")
    q = sub.add_parser("compare", help="exit 1 if two dumps differ")
    q.add_argument("base")
    q.add_argument("head")
    args = p.parse_args(argv)
    if args.cmd == "dump":
        return dump(args.out)
    return compare(args.base, args.head)


if __name__ == "__main__":
    sys.exit(main())
