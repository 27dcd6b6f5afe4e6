"""Seeded benchmark for pairbundles.

    python3 perfbench/run.py --workload orbit-classify --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 0            # every workload, untraced and traced

One workload per invocation: it builds its inputs from --seed, repeats
whole rounds of the same operations until --seconds have passed, checks
every output with perfbench/checks.py and prints one line per metric,
then, as the last line, a JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, with
times rescaled to a reference host speed (perfbench/probe.py); --trace 1
the per-layer metrics from a traced run (perfbench/spans.py).  A results
file with the machine facts goes to .perfbench_out/BENCH_<workload>.json.
See perfbench/README.md for what each workload and metric is for.
"""
from __future__ import annotations

import os

# one worker thread: set before numpy loads its BLAS
_ONE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")}
os.environ.update(_ONE_THREAD)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from child import peak_rss_mb  # noqa: E402
from probe import Probe  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
CHILD = ROOT / "perfbench" / "child.py"

SETUP_RUNS = 11
CHILD_TIMEOUT_S = 150

# orbit-classify: moves of condition number <= 10; above about 60 the
# classifier fails on some seeds (see CHANGES.md)
MOVES_PER_CELL = 100
COND_MAX = 10.0
# verify-all: one round runs the CLI with seeds 2S and 2S + 1
VERIFY_TRIALS = 200
VERIFY_SEEDS = 2
# nonedge-distance: the psi1 non-edges of tests/test_acceptance.py
PSI1_NONEDGES = (
    ("one_theta/zero", "tau_form/zero"),
    ("tau_form/zero", "one_theta/zero"),
    ("identity/zero", "one_plus_minus/zero"),
    ("nilpotent/zero", "jordan_i/zero"),
    ("one_theta/zero", "one_zero/zero"),
)
FLOOR_SEEDS = 6


def metric_units(trace: bool) -> dict:
    """Metric name -> unit of the --trace 0 or --trace 1 metrics, in the
    order of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(_ONE_THREAD)
    return env


def params_dict(params) -> dict:
    return {k: v for k, v in vars(params).items() if v is not None}


def run_child(out_json: Path, *args: str) -> tuple[dict, object]:
    """perfbench/child.py in a fresh interpreter: (its OUT.json, process)."""
    proc = subprocess.run([sys.executable, str(CHILD), str(out_json), *args],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    doc = json.loads(out_json.read_text()) if proc.returncode == 0 else None
    return doc, proc


def measure_setup() -> float:
    """Median adjusted seconds for a fresh interpreter to import the
    package and build the closure graph."""
    times = []
    for _ in range(SETUP_RUNS):
        doc, proc = run_child(OUT_DIR / "setup.json", "setup")
        if doc is None:
            raise RuntimeError(f"setup child failed: {proc.stderr[-500:]}")
        times.append(doc["adjusted_s"])
    return statistics.median(times)


def timed(probe: Probe, fn):
    """(program seconds, adjusted seconds, fn()), with the probe running."""
    since = len(probe.times)
    probe.start()
    t = time.perf_counter()
    try:
        outs = fn()
    finally:
        elapsed = time.perf_counter() - t
        probe.stop()
    return (*probe.split(elapsed, since), outs)


# ---------------------------------------------------------------------------
# workloads: each builds its inputs from the seed; run_round(probe, traced)
# performs one round of operations and returns (program seconds, adjusted
# seconds, outputs), see `timed`; check returns (failed, errors) for the
# outputs of a round.

class OrbitClassify:
    """Every generic representative moved by seeded group elements."""

    def __init__(self, seed: int) -> None:
        from pairbundles import classify, normal_forms as nf, numerics
        from pairbundles.core import Mat2, PairAB, SymMat2

        self.classify = classify
        self.representative = nf.representative
        self.cases = []
        for k, cell in enumerate(nf.CELLS):
            generic = numerics.generic_params(cell)
            x0 = nf.representative(cell, generic)
            want = params_dict(nf.canonicalize_params(cell, generic))
            rng = np.random.default_rng([seed, 1, k])
            for _ in range(MOVES_PER_CELL):
                c, P = numerics.sample_group_element(rng, cond_max=COND_MAX)
                A, B = checks.act(c, P, x0.A.array, x0.B.array)
                x = PairAB(Mat2(A), SymMat2.from_array(B))
                self.cases.append((str(cell), want, x))

    def run_round(self, probe: Probe, traced: bool):
        classify_mod = self.classify
        errors = (classify_mod.AmbiguityError,
                  classify_mod.ClassificationFailureError)

        def one_round():
            outs = []
            for _cell, _want, x in self.cases:
                try:
                    outs.append(classify_mod.classify_pair(x))
                except errors as exc:
                    outs.append(exc)
            return outs
        return timed(probe, one_round)

    def check(self, outs):
        failed, errors = 0, []
        for (cell, want, x), out in zip(self.cases, outs):
            if isinstance(out, Exception):
                failed += 1
                continue
            rep = self.representative(out.label, out.params)
            try:
                checks.check_orbit(cell, want, x.A.array, x.B.array,
                                   str(out.label), params_dict(out.params),
                                   out.reducer.c, out.reducer.P.array,
                                   rep.A.array, rep.B.array)
            except checks.CheckError as exc:
                errors.append(str(exc))
        return failed, errors


class VerifyAll:
    """`pairbundles verify all` in a fresh process, as a user runs it.

    An operation is one invocation.  The Monte Carlo trials inside it that
    raise are swallowed by the CLI; the traced run counts them as
    `numerics.mc_trial.failures`.  They stay out of `failed` because their
    number changes with the seed, and `failed` must be the same share of
    `attempted` on every seed.
    """

    def __init__(self, seed: int) -> None:
        self.argvs = [["verify", "all", "--seed", str(cli_seed),
                       "--trials", str(VERIFY_TRIALS)]
                      for cli_seed in range(VERIFY_SEEDS * seed,
                                            VERIFY_SEEDS * (seed + 1))]
        self.layers: list[dict] = []
        self.peak_rss_mb = 0.0

    def run_round(self, probe: Probe, traced: bool):
        # each child runs its own probe
        work, adjusted, outs = 0.0, 0.0, []
        for argv in self.argvs:
            doc, proc = run_child(OUT_DIR / "trace-verify-all.json"
                                  if traced else OUT_DIR / "verify-all.json",
                                  "cli", *["--trace"] * traced, *argv)
            outs.append(proc)
            if doc is None:
                continue
            if traced:
                self.layers.append(doc["layers"])
            self.peak_rss_mb = max(self.peak_rss_mb, doc["peak_rss_mb"])
            work, adjusted = work + doc["work_s"], adjusted + doc["adjusted_s"]
        return work, adjusted, outs

    def check(self, outs):
        errors = []
        for proc in outs:
            try:
                checks.check_verify(proc.returncode, proc.stdout)
            except checks.CheckError as exc:
                errors.append(f"{exc}; stderr: {proc.stderr[-300:]}")
        return 0, errors


class NonedgeDistance:
    """Distance floors across declared non-edges (no classification).

    One operation is a sweep: the floor of every non-edge for one optimizer
    seed, each a distance search from the source representative.  A round
    is FLOOR_SEEDS sweeps.
    """

    def __init__(self, seed: int) -> None:
        from pairbundles import numerics
        from pairbundles.normal_forms import label_from_string, representative

        self.numerics = numerics
        self.opt_seeds = [FLOOR_SEEDS * seed + j for j in range(FLOOR_SEEDS)]
        jobs = [(src, dst, 2, "max") for src, dst in PSI1_NONEDGES]
        jobs += [("zero/rank2", "zero/rank1", 4, norm)
                 for norm in ("max", "spectral")]
        self.cases = []
        for src, dst, budget, norm in jobs:
            src_label = label_from_string(src)
            x = representative(src_label, numerics.generic_params(src_label))
            self.cases.append((x, dst, label_from_string(dst), budget, norm))

    def run_round(self, probe: Probe, traced: bool):
        work, adjusted, outs = 0.0, 0.0, []
        for opt_seed in self.opt_seeds:
            w, a, sweep = timed(probe, lambda: [
                self.numerics.distance_to_bundle(
                    x, target, budget=budget, seed=opt_seed, norm=norm)
                for x, _dst, target, budget, norm in self.cases])
            work, adjusted = work + w, adjusted + a
            outs.append(sweep)
        return work, adjusted, outs

    def check(self, outs):
        errors = []
        for sweep in outs:
            for (x, dst, _t, _b, norm), (d, (g, params)) in zip(self.cases,
                                                                sweep):
                try:
                    checks.check_floor(x.A.array, x.B.array, dst, norm, d,
                                       g.c, g.P.array, params_dict(params))
                except checks.CheckError as exc:
                    errors.append(str(exc))
        return 0, errors


WORKLOADS = {
    "orbit-classify": OrbitClassify,
    "verify-all": VerifyAll,
    "nonedge-distance": NonedgeDistance,
}


# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    units = metric_units(trace)
    setup_s = None if trace else measure_setup()
    wl = WORKLOADS[name](seed)
    in_process = name != "verify-all"
    probe = Probe("numpy")
    tracer = Tracer().install() if trace and in_process else None
    work, adjusted, errors = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            round_work, round_adjusted, outs = wl.run_round(probe, trace)
            work.append(round_work)
            adjusted.append(round_adjusted)
            attempted += len(outs)
            round_failed, round_errors = wl.check(outs)
            failed += round_failed
            errors += round_errors
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "errors": errors[:10], "round_work_s": work,
        "round_adjusted_s": adjusted, "work_s": statistics.median(work),
        "adjusted_s": statistics.median(adjusted),
    }
    if trace:
        if tracer is not None:
            values = tracer.layer_metrics(len(work), VERIFY_TRIALS, probe)
            tracer.write_csv(OUT_DIR / f"trace-{name}.csv")
        elif wl.layers:
            values = {k: statistics.median(m[k] for m in wl.layers)
                      for k in wl.layers[0]}
        else:  # every traced child failed; the errors say why
            values = dict.fromkeys(units, 0.0)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": result["adjusted_s"],
            "peak_rss_mb": peak_rss_mb() if in_process else wl.peak_rss_mb,
        }
    result["metrics"] = {k: {"value": values[k], "unit": unit}
                         for k, unit in units.items()}
    return result


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_results(tag: str, args, results: dict) -> Path:
    path = OUT_DIR / f"BENCH_{tag}.json"
    doc = {
        "git_sha": git_sha(),
        "machine": {"cores": os.cpu_count(), "numpy": np.__version__,
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "seed": args.seed, "seconds": args.seconds, "workloads": results,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def print_metrics(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}")
    for err in result["errors"]:
        print(f"{workload}: CHECK FAILED: {err}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (default: all, both modes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "pairbundles" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    if args.workload:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        print_metrics(args.workload, result)
        write_results(args.workload + ".trace" * args.trace, args,
                      {args.workload: result})
        print(json.dumps({k: result[k] for k in ("correct", "attempted",
                                                 "failed", "metrics")}))
        return 0

    # every workload, untraced then traced, each in a fresh process
    results, metrics, every = {}, {}, []
    for name in WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            every.append(json.loads(lines[-1]))
            metrics.update({f"{name}.{k}": v
                            for k, v in every[-1]["metrics"].items()})
            tag = name + ".trace" * trace
            results[name][tag] = json.loads(
                (OUT_DIR / f"BENCH_{tag}.json").read_text())["workloads"][name]
        overhead = 100.0 * (results[name][name + ".trace"]["adjusted_s"]
                            / results[name][name]["adjusted_s"] - 1.0)
        results[name]["trace_overhead_pct"] = overhead
        print(f"{name} trace_overhead_pct {overhead:.3g} %")
    path = write_results("all", args, results)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": all(r["correct"] for r in every),
                      "attempted": sum(r["attempted"] for r in every),
                      "failed": sum(r["failed"] for r in every),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
