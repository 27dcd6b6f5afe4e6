"""Time `pairbundles verify all`'s four suites, one `_classify_rest` call
and the distance floor jobs for two source trees, in alternating fresh
interpreters.

Usage: python3 tools/suite_times.py BASE_SRC HEAD_SRC [--pairs N]
                                    [--seed S] [--trials T]

Each run is a fresh `python3` with PYTHONPATH set to one tree.  It times
the suites as `verify all --seed S --trials T` runs them (dims, bounds,
graph, witness, in that order, each once, after loading the classifier as
`cmd_verify` does), then the mean time of one `classify._classify_rest`
call over the graph suite's epsilon = 1e-3 trials of seed S around the 46
generic representatives, with stage 1 computed beforehand, and last the
total time of `distance_to_bundle` on the outcome corpus's `FLOOR_JOBS`
(tools/outcome_corpus.py) for optimizer seeds 0-1, as `floors_s`.  After
the timed floors the child empties `numerics._HELD_STARTS` and runs the
same jobs again with the two functions of `numerics._distance_kernel`
(objective and surrogate) wrapped, untimed, to count their evaluations as
`floor_evals`.  The search is deterministic, so that count is the same on
every run of a tree and shows a change in the search's work without the
host's timing noise.  (perfbench's `numerics.distance_to_bundle.evals`
counts something else: the `representative` calls under a distance
search, which are misses of the kernel's parameter memo, not
evaluations.)  The pairs alternate which tree runs first.  Printed per
metric: the median of each tree, the change of the medians and in how many
pairs the head is lower.  Standard library only; each tree needs its own
dependencies (numpy).
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
import importlib.util
spec = importlib.util.spec_from_file_location("outcome_corpus", sys.argv[3])
corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus)
from pairbundles.normal_forms import label_from_string as L
jobs = [(numerics.representative(L(src), numerics.generic_params(L(src))),
         L(dst), budget, norm) for src, dst, budget, norm in corpus.FLOOR_JOBS]
t0 = time.perf_counter()
for opt_seed in (0, 1):
    for x, target, budget, norm in jobs:
        numerics.distance_to_bundle(x, target, budget=budget, seed=opt_seed,
                                    norm=norm)
out["floors_s"] = time.perf_counter() - t0
evals = 0
kernel = numerics._distance_kernel
def counted(fn):
    def run(vec):
        global evals
        evals += 1
        return fn(vec)
    return run
numerics._distance_kernel = lambda *a: tuple(map(counted, kernel(*a)))
numerics._HELD_STARTS.clear()
for opt_seed in (0, 1):
    for x, target, budget, norm in jobs:
        numerics.distance_to_bundle(x, target, budget=budget, seed=opt_seed,
                                    norm=norm)
out["floor_evals"] = evals
print(json.dumps(out))
"""
_CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "outcome_corpus.py")


def _run(src: str, seed: int, trials: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _CHILD, str(seed),
                           str(trials), _CORPUS], env=env,
                          capture_output=True, text=True, check=True)
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
