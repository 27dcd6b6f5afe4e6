"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces program functions at the module attributes through
which the program calls them, so the program itself is not edited.  Each
call records a span (name, start, end, parent) in flat arrays; a layer's
self time is its span's duration minus the durations of its direct child
spans.
"""
from __future__ import annotations

import csv
import importlib
import statistics
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name).  One span name may be reached through
# several module attributes: each module binds its own copy of an import.
WRAP_POINTS = (
    ("pairbundles.classify", "classify_pair", "classify.classify_pair"),
    ("pairbundles.classify", "classify_A", "classify.classify_A"),
    ("pairbundles.classify", "stabilizer_reduce_B",
     "classify.stabilizer_reduce_B"),
    ("pairbundles.classify", "apply_action", "core.apply_action"),
    ("pairbundles.witnesses", "apply_action", "core.apply_action"),
    ("pairbundles.classify", "representative", "normal_forms.representative"),
    ("pairbundles.numerics", "representative", "normal_forms.representative"),
    ("pairbundles.witnesses", "representative",
     "normal_forms.representative"),
    ("pairbundles.closure.ClosureGraphPsi", "is_path", "closure.is_path"),
    ("pairbundles.numerics", "monte_carlo_neighborhood",
     "numerics.monte_carlo_neighborhood"),
    ("pairbundles.cli", "monte_carlo_neighborhood",
     "numerics.monte_carlo_neighborhood"),
    ("pairbundles.numerics", "distance_to_bundle",
     "numerics.distance_to_bundle"),
    ("pairbundles.cli", "sample_detxe_case", "numerics.bounds_sample"),
    ("pairbundles.cli", "sample_lemadet_case", "numerics.bounds_sample"),
    ("pairbundles.cli", "bundle_dimension_numeric",
     "numerics.bundle_dimension_numeric"),
    ("pairbundles.cli", "witness_verify", "witnesses.witness_verify"),
    ("pairbundles.cli", "witness_repair", "witnesses.witness_repair"),
)


def _tally_classify(counts: Counter, out) -> None:
    # a raised error leaves out None
    counts["classify.undecided"] += out is None or bool(out.ambiguous)


def _tally_mc(counts: Counter, out) -> None:
    if out is not None:
        counts["mc.failures"] += out.failures
        counts["mc.ambiguous"] += out.ambiguous


# span name -> how the outcome of a call is counted
TALLIES = {"classify.classify_pair": _tally_classify,
           "numerics.monte_carlo_neighborhood": _tally_mc}


def _median(values):
    return statistics.median(values) if values else 0.0


def _resolve(path: str):
    """Import 'pkg.mod' or 'pkg.mod.Class' and return the object."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Records spans of wrapped calls until `restore` is called."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()  # outcomes, see TALLIES
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> "Tracer":
        for owner_path, attr, name in WRAP_POINTS:
            self.wrap(_resolve(owner_path), attr, name)
        return self

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        tally = TALLIES.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end[idx] = clock()
                stack.pop()
                if tally is not None:
                    tally(counts, out)

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def _durations(self, pauses=None):
        """Duration and summed direct-child duration of every span.  The
        handler runs of a probe (`pauses`, see probe.py) lie wholly inside
        or outside each span, and are taken out of the spans they lie in."""
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        dur = end - start
        if pauses is not None and len(pauses.times):
            at = np.frombuffer(pauses.starts)
            spent = np.concatenate([[0.0], np.cumsum(pauses.times)])
            dur -= (spent[np.searchsorted(at, end)]
                    - spent[np.searchsorted(at, start)])
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur, child

    def layer_metrics(self, rounds: int, mc_trials: int,
                      pauses=None) -> dict:
        """Per-layer metrics: median per-call times in microseconds and
        call counts per round of the workload; a Monte Carlo call runs
        mc_trials trials.  `pauses` is the probe that ran meanwhile."""
        dur, child = self._durations(pauses)
        by_name: dict[str, list[int]] = {n: [] for n in self.names}
        for i, nid in enumerate(self.name_id):
            by_name[self.names[nid]].append(i)

        def spans(name):
            return by_name.get(name, [])

        def self_us(name):
            return _median([(dur[i] - child[i]) * 1e6 for i in spans(name)])

        def per_round(name):
            return len(spans(name)) / rounds

        dist = set(spans("numerics.distance_to_bundle"))
        evals = Counter(self.parent[i]
                        for i in spans("normal_forms.representative")
                        if self.parent[i] in dist)
        pair_calls = spans("classify.classify_pair")
        pair_us = [dur[i] * 1e6 for i in pair_calls]
        return {
            "core.apply_action.us": self_us("core.apply_action"),
            "normal_forms.representative.us":
                self_us("normal_forms.representative"),
            "normal_forms.representative.calls":
                per_round("normal_forms.representative"),
            "classify.classify_pair.us": _median(pair_us),
            "classify.classify_pair.p99_us":
                float(np.percentile(pair_us, 99)) if pair_us else 0.0,
            "classify.classify_A.us": self_us("classify.classify_A"),
            "classify.stabilizer_reduce_B.us":
                self_us("classify.stabilizer_reduce_B"),
            "classify.tail.us": self_us("classify.classify_pair"),
            "classify.classify_pair.calls": per_round("classify.classify_pair"),
            "classify.decided_ratio":
                (1.0 - self.counts["classify.undecided"] / len(pair_calls))
                if pair_calls else 0.0,
            "closure.is_path.us": self_us("closure.is_path"),
            "closure.is_path.calls": per_round("closure.is_path"),
            "numerics.mc_trial.us": _median(
                [dur[i] / mc_trials * 1e6
                 for i in spans("numerics.monte_carlo_neighborhood")]),
            "numerics.mc_trial.failures": self.counts["mc.failures"] / rounds,
            "numerics.mc_trial.ambiguous":
                self.counts["mc.ambiguous"] / rounds,
            "numerics.distance_to_bundle.evals": sum(evals.values()) / rounds,
            "numerics.distance_to_bundle.eval_us": _median(
                [dur[i] / evals[i] * 1e6 for i in dist if evals[i]]),
            "numerics.bounds_sample.us": self_us("numerics.bounds_sample"),
            "numerics.bundle_dimension_numeric.us":
                self_us("numerics.bundle_dimension_numeric"),
            "witnesses.witness_verify.us": self_us("witnesses.witness_verify"),
            "witnesses.witness_repair.calls":
                per_round("witnesses.witness_repair"),
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent"])
            t0 = self.start[0] if len(self.start) else 0.0
            for i, (nid, s, e, p) in enumerate(zip(self.name_id, self.start,
                                                   self.end, self.parent)):
                out.writerow([i, self.names[nid], f"{s - t0:.9f}",
                              f"{e - t0:.9f}", p])
