"""Command-line front end.

All randomness flows from a single --seed, so reports are reproducible
across machines and worker counts.  Each sampling loop derives one
generator per trial:

* the bound suites draw default_rng([seed, stream, trial]), where stream
  is a fixed number per suite;
* the Monte Carlo checks (`verify graph`, `mc`) draw
  default_rng([seed, trial]);
* `dist` draws default_rng([seed, r]) for its r-th random start.

Exit codes: 0 pass, 1 usage/IO error, 2 classification ambiguity,
3 verification failure.  An invalid argument, parameter or input document
raises `ValidationError` wherever it is found, and `main` alone turns it
into one line on stderr and exit 1.
"""

import argparse
import csv
import io
import json
import math
import sys
import warnings

from . import core
from .closure import PSI1_GRAPH, PSI2_GRAPH, SuspectEdgeWarning, bundle_graph
from .core import PairAB, ValidationError
from .normal_forms import (
    ALabel,
    BShape,
    BundleLabel,
    CELLS,
    BundleParams,
    label_from_string,
    param_fields,
    representative,
    table_dimension,
)
from .numerics import (
    bundle_dimension_numeric,
    distance_to_bundle,
    monte_carlo_neighborhood,
    psi2_orbit_dimension_numeric,
    sample_detxe_case,
    sample_lemadet_case,
)
from .witnesses import (
    CATALOG,
    _repair_from,
    witness_eval,
    witness_lookup,
    witness_repair,
    witness_verify,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AMBIGUOUS = 2
EXIT_VERIFY = 3

# fixed per-suite stream numbers for the seed scheme
_STREAMS = {"detxe": 1, "PAE": 2, "cE": 3, "PBF": 4, "part3": 5}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_pair(args) -> PairAB:
    try:
        if getattr(args, "input", None):
            with open(args.input) as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read the pair document: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}")  # includes line/col
    try:
        return PairAB.from_json(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"invalid pair document: {exc}")


def _params_arg(args, label) -> BundleParams | None:
    raw = getattr(args, "params", None)
    if not raw:
        return None
    try:
        params = BundleParams.from_json(json.loads(raw))
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"invalid --params: {exc}")
    unused = sorted(set(params.to_json()) - set(param_fields(label)))
    if unused:
        raise ValidationError(f"invalid --params: parameters not used by "
                              f"{label}: {', '.join(unused)}")
    return params


def _check_sampling_args(args) -> None:
    """Refuse out-of-range sampling options before any work starts."""
    if getattr(args, "trials", 1) < 1:
        raise ValidationError("--trials must be >= 1")
    if not 0 < getattr(args, "epsilon", 1e-3) <= 0.1:
        raise ValidationError("--epsilon must lie in (0, 0.1]")
    if not 0 < getattr(args, "tol", 1.0) < math.inf:
        raise ValidationError("--tol must be finite and > 0")
    if getattr(args, "seed", 0) < 0:
        raise ValidationError("--seed must be >= 0")


def _emit(doc, args) -> None:
    """Write a document as JSON, or `verify`'s checks as CSV rows."""
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "status", "margin"])
        for row in doc["checks"]:
            writer.writerow([row["id"],
                             "pass" if row["pass"] else "fail",
                             row["margin"]])
        text = buf.getvalue()
    else:
        text = core.dumps(doc, indent=2) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    """Write text to --output when given, else to stdout."""
    out = getattr(args, "output", None)
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write --output: {exc}")


# ---------------------------------------------------------------------------
# simple commands

def cmd_classify(args) -> int:
    """`classify`, and `reduce`, which also emits the representative."""
    from .classify import (AmbiguityError, ClassificationFailureError,
                           classify_pair)

    x = _read_pair(args)
    try:
        cls = classify_pair(x)
    except AmbiguityError as exc:
        _emit({"ambiguous": list(exc.candidates), "error": str(exc)}, args)
        return EXIT_AMBIGUOUS
    except ClassificationFailureError as exc:
        _emit({"error": str(exc)}, args)
        return EXIT_VERIFY
    doc = cls.to_json()
    if args.cmd == "reduce":
        doc["representative"] = representative(cls.label, cls.params).to_json()
    _emit(doc, args)
    return EXIT_OK


def cmd_dim(args) -> int:
    label = label_from_string(args.label)
    got = bundle_dimension_numeric(label, _params_arg(args, label))
    want = table_dimension(label)
    _emit({"label": str(label), "dimension": got, "table": want,
           "agrees": got == want}, args)
    return EXIT_OK if got == want else EXIT_VERIFY


# ---------------------------------------------------------------------------
# closure graph commands

def cmd_closure(args) -> int:
    g = bundle_graph()
    if args.closure_cmd == "path":
        src, dst = label_from_string(args.src), label_from_string(args.dst)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SuspectEdgeWarning)
            reachable = g.is_path(src, dst)
            chain = g.path_edges(src, dst) if reachable else None
        doc = {
            "src": str(src), "dst": str(dst), "is_path": reachable,
            "warnings": [str(w.message) for w in caught],
            "edges": None if chain is None else [
                {"src": str(e.src), "dst": str(e.dst),
                 "provenance": e.provenance} for e in chain],
        }
        _emit(doc, args)
        return EXIT_OK
    if args.closure_cmd == "successors":
        src = label_from_string(args.src)
        succ = sorted(str(s) for s in g.successors(src))
        _emit({"src": str(src), "successors": succ}, args)
        return EXIT_OK
    # export
    which, fmt = args.which, args.format
    if which == "psi":
        text = g.to_json() if fmt == "json" else g.to_dot()
    elif which == "psi1":
        text = _export(
            "psi1", [{"label": a.value, "dim": _a_dim(a)} for a in ALabel],
            sorted((s.value, d.value) for s, d in PSI1_GRAPH.edges), fmt)
    else:
        text = _export(
            "psi2", [{"label": b.value, "rank": b.rank}
                     for b in PSI2_GRAPH.nodes],
            [(s.value, d.value) for s, d in PSI2_GRAPH.edges], fmt)
    _write(text, args)
    return EXIT_OK


def _a_dim(a: ALabel) -> int:
    return table_dimension(BundleLabel(a, BShape.ZERO))


def _export(name: str, nodes: list, edges: list, fmt: str) -> str:
    """A graph as JSON (nodes as dicts with a "label", edges as (src, dst)
    label pairs) or as a DOT digraph, in which a node's "dim" joins its
    label."""
    if fmt == "json":
        return json.dumps({
            "nodes": nodes,
            "edges": [{"src": s, "dst": d} for s, d in edges],
        }, indent=2) + "\n"
    lines = [f"digraph {name} {{"]
    for n in nodes:
        label = n["label"]
        dim = f' [label="{label} (dim {n["dim"]})"]' if "dim" in n else ""
        lines.append(f'  "{label}"{dim};')
    lines += [f'  "{s}" -> "{d}";' for s, d in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# witness commands

def cmd_witness(args) -> int:
    _check_sampling_args(args)
    src, dst = label_from_string(args.src), label_from_string(args.dst)
    fam = witness_lookup(src, dst)
    if fam is None:
        raise ValidationError(f"no catalogued family for {src} -> {dst}")
    if args.witness_cmd == "eval":
        g, moved, residual = witness_eval(fam, args.s)
        _emit({"name": fam.name, "s": args.s, "residual": residual,
               "group_element": g.to_json(), "moved": moved.to_json()},
              args)
        return EXIT_OK
    if args.witness_cmd == "verify":
        report = witness_verify(fam, tol=args.tol)
        _emit(report.to_json(), args)
        return EXIT_OK if report.status == "verified" else EXIT_VERIFY
    # repair
    fam2, repair = witness_repair(fam, tol=args.tol)
    report = witness_verify(fam2, tol=args.tol)
    _emit({"name": fam2.name, "status": repair.status,
           "provenance": fam2.provenance,
           "verify": report.to_json()}, args)
    ok = repair.status in ("verified", "repaired")
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# verification suites

def _suite_dims(args):
    checks = []
    for cell in CELLS:
        got = bundle_dimension_numeric(cell)
        want = table_dimension(cell)
        checks.append({"id": f"dim-{cell}", "pass": got == want,
                       "margin": float(-abs(got - want))})
    for B, want in ((core.SymMat2.diag(1, 0), 2),
                    (core.SymMat2.identity(), 3)):
        got = psi2_orbit_dimension_numeric(B)
        checks.append({"id": f"dim-psi2-orbit-rank{want - 1}",
                       "pass": got == want,
                       "margin": float(-abs(got - want))})
    return checks


def _margin(value: float, reason: str) -> dict:
    """The margin fields of a check: JSON has no infinity, so a margin
    that no sample or residual bounds is null, with the reason."""
    if math.isfinite(value):
        return {"margin": value}
    return {"margin": None, "margin_reason": reason}


def _suite_bounds(args):
    import numpy as np

    checks = []
    trials = args.trials
    worst = math.inf
    bad = 0
    for t in range(trials):
        rep = sample_detxe_case(
            np.random.default_rng([args.seed, _STREAMS["detxe"], t]))
        worst = min(worst, rep.margin)
        bad += rep.margin < 0
    checks.append({"id": "bound-detxe", "pass": bad == 0, "margin": worst,
                   "samples": trials, "skipped": 0})
    for mode in ("PAE", "cE", "PBF", "part3"):
        worst = math.inf
        bad = skipped = redraws = 0
        for t in range(trials):
            rep, attempts = sample_lemadet_case(
                mode, np.random.default_rng([args.seed, _STREAMS[mode], t]))
            redraws += attempts - 1
            if not rep.hypothesis_ok:
                skipped += 1
                continue
            worst = min(worst, rep.margin)
            bad += rep.margin < 0
        checks.append({"id": f"bound-lemadet-{mode}", "pass": bad == 0,
                       **_margin(worst, "every sample skipped"),
                       "samples": trials, "skipped": skipped,
                       "redraws": redraws})
    return checks


def _suite_graph(args):
    checks = []
    for cell in CELLS:
        rep = monte_carlo_neighborhood(cell, None, args.epsilon, args.trials,
                                       seed=args.seed)
        checks.append({"id": f"mc-{cell}", "pass": not rep.violations,
                       "margin": float(-len(rep.violations)),
                       "failures": rep.failures, "ambiguous": rep.ambiguous})
    return checks


def _suite_witness(args):
    checks = []
    for fam in CATALOG:
        report = witness_verify(fam, tol=args.tol)
        if report.status != "verified":
            fam, report = _repair_from(fam, report, args.tol)
        ok = report.status in ("verified", "repaired")
        margin = (args.tol - report.residuals[-1]) if report.residuals else \
            -math.inf
        checks.append({"id": f"witness-{fam.name}", "pass": ok,
                       **_margin(margin, "no residuals"),
                       "status": report.status})
    return checks


def cmd_verify(args) -> int:
    _check_sampling_args(args)
    suites = {
        "dims": _suite_dims,
        "bounds": _suite_bounds,
        "graph": _suite_graph,
        "witness": _suite_witness,
    }
    wanted = list(suites) if args.suite == "all" else [args.suite]
    if "graph" in wanted:
        # the graph suite classifies.  Compiled before the bound suites load
        # numpy, the classifier leaves its compile memory to later
        # allocations: with no bytecode cache, `verify all` peaks 1 MB lower
        from . import classify  # noqa: F401
    checks = []
    counts = {}
    for name in wanted:
        suite_checks = suites[name](args)
        counts[name] = len(suite_checks)
        checks.extend(suite_checks)
    failed = [c["id"] for c in checks if not c["pass"]]
    doc = {
        "seed": args.seed,
        "suites": wanted,
        "counts": counts,
        "checks": checks,
        "failed": failed,
        "pass": not failed,
    }
    _emit(doc, args)
    return EXIT_OK if not failed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# distance / Monte Carlo

def cmd_dist(args) -> int:
    _check_sampling_args(args)
    x = _read_pair(args)
    target = label_from_string(args.target)
    d, (g, params) = distance_to_bundle(x, target, budget=args.budget,
                                        seed=args.seed)
    _emit({"target": str(target), "distance": d,
           "group_element": g.to_json(), "params": params.to_json()}, args)
    return EXIT_OK


def cmd_mc(args) -> int:
    _check_sampling_args(args)
    label = label_from_string(args.label)
    rep = monte_carlo_neighborhood(label, _params_arg(args, label),
                                   args.epsilon, args.trials, seed=args.seed)
    _emit(rep.to_json(), args)
    return EXIT_OK if rep.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> _Parser:
    p = _Parser(prog="pairbundles", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, pair_input=False):
        sp.add_argument("--output", help="write the report here")
        if pair_input:
            sp.add_argument("--input", help="pair JSON file (default stdin)")

    sp = sub.add_parser("classify", help="classify a pair from JSON")
    common(sp, pair_input=True)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("reduce", help="classify and emit the reduction")
    common(sp, pair_input=True)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("dim", help="numeric bundle dimension")
    sp.add_argument("label")
    sp.add_argument("--params", help="params as JSON")
    common(sp)
    sp.set_defaults(fn=cmd_dim)

    sp = sub.add_parser("closure", help="closure graph queries")
    csub = sp.add_subparsers(dest="closure_cmd", required=True)
    q = csub.add_parser("path")
    q.add_argument("src")
    q.add_argument("dst")
    common(q)
    q = csub.add_parser("successors")
    q.add_argument("src")
    common(q)
    q = csub.add_parser("export")
    q.add_argument("which", choices=("psi1", "psi2", "psi"))
    q.add_argument("--format", choices=("json", "dot"), default="json")
    q.add_argument("--output")
    sp.set_defaults(fn=cmd_closure)

    sp = sub.add_parser("witness", help="degeneration families")
    wsub = sp.add_subparsers(dest="witness_cmd", required=True)
    for name in ("eval", "verify", "repair"):
        q = wsub.add_parser(name)
        q.add_argument("src")
        q.add_argument("dst")
        if name == "eval":
            q.add_argument("--s", type=float, required=True)
        else:
            q.add_argument("--tol", type=float, default=1e-4)
        common(q)
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("verify", help="verification suites")
    sp.add_argument("suite", choices=("dims", "bounds", "graph", "witness",
                                      "all"))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--epsilon", type=float, default=1e-3)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("dist", help="distance to a bundle")
    sp.add_argument("target")
    sp.add_argument("--budget", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, pair_input=True)
    sp.set_defaults(fn=cmd_dist)

    sp = sub.add_parser("mc", help="Monte Carlo neighborhood check")
    sp.add_argument("label")
    sp.add_argument("--params", help="params as JSON")
    sp.add_argument("--epsilon", type=float, default=1e-3)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=cmd_mc)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
