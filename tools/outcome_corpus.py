"""Dump and compare classifier outcomes on a fixed, seeded corpus.

The corpus has 46,000 `classify_pair` calls:

- every cell's generic representative moved by 100 group moves for each
  seed S = 0-2 and cond_max in {10, 1e3}, with (c, P) drawn from
  `default_rng([S, 1, k])` for the k-th cell, as the benchmark's
  `orbit-classify` draws them;
- the epsilon = 1e-3 Monte Carlo trials around every generic representative
  for seeds 0-1, 200 trials each, as `monte_carlo_neighborhood` draws them.

The draws and the group action are computed here with numpy, so the inputs
depend on the package under test only through its cell list, generic
parameters and representatives.  Per call the dump records the label, the
canonical parameters and the ambiguity notes, or the error type and message.

The dump also records the package's own `monte_carlo_neighborhood` report
around every generic representative for the same seeds, trials and
epsilon: its histogram, violations and ambiguous and failure counts.  A
change in how the package draws its trials shows there even when the
classifier's outcomes on the corpus above do not change.

    PYTHONPATH=src python tools/outcome_corpus.py dump OUT.json
    python tools/outcome_corpus.py compare BASE.json HEAD.json

`compare` exits 1 when any label, note list, error type, message or Monte
Carlo report differs, or when a parameter differs by more than
1e-8 (1 + |v|).  Reducers are not compared: they may differ by an element
of the stabilizer.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

MOVE_SEEDS = (0, 1, 2)
COND_MAXES = (10.0, 1e3)
MOVES_PER_CELL = 100
MC_SEEDS = (0, 1)
MC_TRIALS = 200
MC_EPSILON = 1e-3
PARAM_RTOL = 1e-8
MAX_REPORTED = 20


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
    from pairbundles.normal_forms import CELLS, representative
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


def mc_reports():
    """Yield (case id, report fields) of the package's Monte Carlo reports."""
    from pairbundles.normal_forms import CELLS
    from pairbundles.numerics import monte_carlo_neighborhood

    for seed in MC_SEEDS:
        for cell in CELLS:
            rep = monte_carlo_neighborhood(cell, None, MC_EPSILON, MC_TRIALS,
                                           seed=seed).to_json()
            yield (f"mc-report {cell} seed={seed}",
                   {k: rep[k] for k in ("histogram", "violations",
                                        "ambiguous", "failures")})


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
                        "notes": list(cl.ambiguous)})
    for case, report in mc_reports():
        records.append({"case": case, "report": report})
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=0)
    print(f"{len(records)} records of {pairbundles.__file__} -> {out_path}",
          file=sys.stderr)
    return 0


def _as_complex(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


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
        p0, p1 = r0.get("params", {}), r1.get("params", {})
        if set(p0) != set(p1):
            yield f"{case}: parameters {sorted(p0)} -> {sorted(p1)}"
            continue
        for name in p0:
            v0, v1 = _as_complex(p0[name]), _as_complex(p1[name])
            if abs(v1 - v0) > PARAM_RTOL * (1.0 + abs(v0)):
                yield f"{case}: {name} {v0!r} -> {v1!r}"


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
    return 1 if diffs else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    q = sub.add_parser("dump", help="classify the corpus and write outcomes")
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
