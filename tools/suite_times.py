"""Time `pairbundles verify all`'s four suites and one `_classify_rest`
call for two source trees, in alternating fresh interpreters.

Usage: python3 tools/suite_times.py BASE_SRC HEAD_SRC [--pairs N]
                                    [--seed S] [--trials T]

Each run is a fresh `python3` with PYTHONPATH set to one tree.  It times
the suites as `verify all --seed S --trials T` runs them (dims, bounds,
graph, witness, in that order, each once, after loading the classifier as
`cmd_verify` does), then the mean time of one `classify._classify_rest`
call over the graph suite's epsilon = 1e-3 trials of seed S around the 46
generic representatives, with stage 1 computed beforehand.  The pairs
alternate which tree runs first.  Printed per metric: the median of each
tree, the change of the medians and in how many pairs the head is lower.
Standard library only; each tree needs its own dependencies (numpy).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

_CHILD = r"""
import json, sys, time
seed, trials = int(sys.argv[1]), int(sys.argv[2])
from pairbundles import cli
args = cli.build_parser().parse_args(
    ["verify", "all", "--seed", str(seed), "--trials", str(trials)])
from pairbundles import classify, numerics
from pairbundles.normal_forms import CELLS
out = {}
for name in ("dims", "bounds", "graph", "witness"):
    t0 = time.perf_counter()
    getattr(cli, "_suite_" + name)(args)
    out[name + "_s"] = time.perf_counter() - t0
calls = []
for cell in CELLS:
    x = numerics.representative(cell, numerics.generic_params(cell))
    a, b = x.A.entries, (x.B.a, x.B.b, x.B.d)
    for t in range(trials):
        d = numerics._trial_perturbation(seed, t, 1e-3)
        at = tuple(u + v for u, v in zip(a, d))
        try:
            s1 = classify._stage1(at)
        except classify.ClassificationFailureError:
            continue
        calls.append((at, tuple(u + v for u, v in zip(b, d[4:])), s1))
errors = (classify.AmbiguityError, classify.ClassificationFailureError)
rest = classify._classify_rest
t0 = time.perf_counter()
for at, bt, s1 in calls:
    try:
        rest(at, bt, s1)
    except errors:
        pass
out["classify_rest_us"] = 1e6 * (time.perf_counter() - t0) / len(calls)
print(json.dumps(out))
"""


def _run(src: str, seed: int, trials: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _CHILD, str(seed),
                           str(trials)], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=200)
    args = ap.parse_args(argv)
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for which in order:
            runs[which].append(_run(getattr(args, which), args.seed,
                                    args.trials))
    print("\n".join(summary(runs["base"], runs["head"])))
    return 0


def summary(base_runs: list, head_runs: list) -> list:
    """One line per metric: both medians, their change, and in how many
    pairs (base_runs[i], head_runs[i]) the head is lower."""
    lines = []
    for key in base_runs[0]:
        base = [r[key] for r in base_runs]
        head = [r[key] for r in head_runs]
        mb, mh = statistics.median(base), statistics.median(head)
        lower = sum(h < b for b, h in zip(base, head))
        lines.append(f"{key:18s} base {mb:10.4f}  head {mh:10.4f}  "
                     f"{100.0 * (mh - mb) / mb:+6.1f}%  "
                     f"lower in {lower} of {len(base)}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
