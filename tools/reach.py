"""Census of the function lines that the console commands, the benchmark
workloads and the tests reach.

A row is a function of a module under SRC: a def or a lambda at module
level or in a class body, with every function, lambda and comprehension
nested in it.  Its executable lines are the lines that its code objects'
`co_lines` name; module-level code, class bodies and the comprehensions
among them are left out, since importing runs them.  A line is reached
when `sys.settrace` sees a function frame run it (a function's first line
counts when it is called).  Each column is traced in a fresh interpreter
that imports the package with the tracer on, so work done at import
counts, and no cache that one column fills hides lines from another:

- sweep: the console commands of `sweep_argvs`: `verify all` in JSON
  and CSV; `classify`, `reduce` and `dist` on every cell's generic
  representative; `closure path` between every two cells, `successors`
  of every cell and `export` of the three graphs in both formats; `dim`
  and `mc` on every cell; `witness eval`, `verify` and `repair` on every
  family;
- orbit-classify, verify-all, nonedge-distance: the program calls of one
  round of each benchmark workload at seed 0, on inputs that
  perfbench/run.py's workload classes build (untraced);
- tier1 (only with --tier1): the tier-1 tests next to SRC (SRC/../tests)
  run by pytest in-process.  Tests that start a subprocess are not
  traced.

Usage: python3 tools/reach.py [SRC] [--columns NAME,...] [--tier1]
                              [--functions]

SRC defaults to src.  The report gives the executable lines, the lines
each column reaches, their union, what tier-1 adds, and the lines that
no column reaches, then one row per module; --functions adds one row per
function, with the line numbers that no column reaches.
"""
import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("sweep", "orbit-classify", "verify-all", "nonedge-distance")
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


# ---------------------------------------------------------------------------
# the rows

def _code_lines(code) -> set:
    """The lines of a code object and of every code object nested in it."""
    lines = {line for _s, _e, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= _code_lines(const)
    return lines


def _rows_of(code, prefix=""):
    """(qualname, first line, lines) of the functions that a module or
    class body defines, class bodies searched in turn."""
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name in _COMPREHENSIONS:
            continue
        if const.co_flags & inspect.CO_OPTIMIZED:
            yield (prefix + const.co_name, const.co_firstlineno,
                   _code_lines(const))
        else:  # a class body
            yield from _rows_of(const, prefix + const.co_name + ".")


def function_rows(src) -> dict:
    """{(module path relative to src, qualname, first line): lines} of every
    function of every module under src."""
    src = Path(os.path.abspath(src))
    rows = {}
    for path in sorted(src.rglob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        rel = str(path.relative_to(src))
        for name, first, lines in _rows_of(code):
            rows[(rel, name, first)] = lines
    return rows


# ---------------------------------------------------------------------------
# tracing

class LineTracer:
    """Records the lines that function frames of files under src run, as
    {file path relative to src: set of lines}."""

    def __init__(self, src) -> None:
        self.root = os.path.abspath(src) + os.sep
        self.hits: dict = {}

    def _call(self, frame, event, arg):
        code = frame.f_code
        path = code.co_filename
        if not (code.co_flags & inspect.CO_OPTIMIZED
                and path.startswith(self.root)):
            return None
        lines = self.hits.get(path)
        if lines is None:
            lines = self.hits[path] = set()
        add = lines.add
        add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line
        return line

    @contextlib.contextmanager
    def tracing(self):
        previous = sys.gettrace()
        sys.settrace(self._call)
        try:
            yield self
        finally:
            sys.settrace(previous)

    def reached(self) -> dict:
        n = len(self.root)
        return {path[n:]: lines for path, lines in self.hits.items()}


def _quiet(fn, *args):
    """fn(*args) with its standard output dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _import_package() -> None:
    import pairbundles

    pkg = Path(pairbundles.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"pairbundles.{path.stem}")


def sweep_argvs(workdir: Path) -> list:
    """The console commands of the sweep, with each cell's generic
    representative written as a pair document under workdir."""
    from pairbundles import core
    from pairbundles.normal_forms import CELLS, representative
    from pairbundles.numerics import generic_params
    from pairbundles.witnesses import CATALOG

    argvs = [["verify", "all", "--seed", "0"],
             ["verify", "all", "--seed", "0", "--format", "csv"]]
    for k, cell in enumerate(CELLS):
        doc = workdir / f"pair{k}.json"
        doc.write_text(core.dumps(representative(
            cell, generic_params(cell)).to_json()))
        argvs += [["classify", "--input", str(doc)],
                  ["reduce", "--input", str(doc)],
                  ["dist", str(cell), "--input", str(doc), "--budget", "2"],
                  ["closure", "successors", str(cell)],
                  ["dim", str(cell)],
                  ["mc", str(cell), "--trials", "20"]]
        argvs += [["closure", "path", str(cell), str(dst)] for dst in CELLS]
    for which in ("psi1", "psi2", "psi"):
        for fmt in ("json", "dot"):
            argvs.append(["closure", "export", which, "--format", fmt])
    for fam in CATALOG:
        src, dst = str(fam.source_label), str(fam.target)
        argvs += [["witness", "eval", src, dst, "--s", "0.1"],
                  ["witness", "verify", src, dst],
                  ["witness", "repair", src, dst]]
    return argvs


def _perfbench_workload(name: str):
    """perfbench/run.py's workload object for name, built at seed 0."""
    sys.path.insert(1, str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    return run.WORKLOADS[name](0)


def _workload_calls(name: str, wl) -> None:
    """The program calls of one round of a benchmark workload, as its
    run_round makes them, without the probe or a child process."""
    if name == "orbit-classify":
        classify = wl.classify
        for _cell, _want, x in wl.cases:
            try:
                classify.classify_pair(x)
            except (classify.AmbiguityError,
                    classify.ClassificationFailureError):
                pass
    elif name == "verify-all":
        from pairbundles import cli

        for argv in wl.argvs:
            _quiet(cli.main, argv)
    else:
        for opt_seed in wl.opt_seeds:
            for x, _dst, target, budget, norm in wl.cases:
                wl.numerics.distance_to_bundle(x, target, budget=budget,
                                               seed=opt_seed, norm=norm)


def collect(column: str, src) -> dict:
    """{"reached": {file: sorted lines}, "note": str} of one column, run in
    an interpreter that imports the package from src (see `_run_column`)."""
    tracer = LineTracer(src)
    with tracer.tracing():
        _import_package()
    if column == "tier1":
        import pytest

        with tracer.tracing():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                pytest.main([str(Path(src).parent / "tests"), "-q", "-p",
                             "no:cacheprovider"])
        note = out.getvalue().strip().splitlines()[-1]
    elif column == "sweep":
        from pairbundles import cli

        with tempfile.TemporaryDirectory() as tmp:
            argvs = sweep_argvs(Path(tmp))
            with tracer.tracing():
                codes = [_quiet(cli.main, argv) for argv in argvs]
        nonzero = [f"{' '.join(a[:4])} -> {c}"
                   for a, c in zip(argvs, codes) if c]
        note = f"{len(argvs)} commands; nonzero exits: " + (
            "; ".join(nonzero[:5]) + ("; ..." if len(nonzero) > 5 else "")
            if nonzero else "none")
    else:
        wl = _perfbench_workload(column)
        with tracer.tracing():
            _workload_calls(column, wl)
        note = "seed 0"
    return {"reached": {f: sorted(v) for f, v in tracer.reached().items()},
            "note": note}


def _run_column(column: str, src) -> dict:
    """`collect` in a fresh interpreter."""
    src = os.path.abspath(src)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reach.json"
        proc = subprocess.run(
            [sys.executable, __file__, "--child", column, str(out), src],
            env=dict(os.environ, PYTHONPATH=src), cwd=Path(src).parent,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"column {column} failed:\n"
                               f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# the report

def _ranges(lines) -> str:
    """1,2,3,7 -> '1-3,7'."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def census(rows: dict, reached: dict) -> dict:
    """{row: {column: number of its lines reached}} with "lines", "union"
    (reached by a column other than tier1), "tier1_only", "none" and
    "unreached" (the number and the sorted list of the lines that no
    column reaches) per row, for rows from `function_rows` and reached as
    {column: {file: lines}}."""
    reached = {col: {path: set(lines) for path, lines in files.items()}
               for col, files in reached.items()}
    table = {}
    for key, lines in rows.items():
        hit = {col: lines & files.get(key[0], set())
               for col, files in reached.items()}
        union = set().union(*(v for c, v in hit.items() if c != "tier1"))
        tier1 = hit.get("tier1", set())
        entry = {col: len(v) for col, v in hit.items()}
        unreached = sorted(lines - union - tier1)
        entry.update(lines=len(lines), union=len(union),
                     tier1_only=len(tier1 - union), none=len(unreached),
                     unreached=unreached)
        table[key] = entry
    return table


def report(table: dict, columns, notes: dict, functions: bool) -> str:
    """The census as text: the totals, then one row per module and, with
    functions, one row per function."""
    fields = ["lines", *columns, "union"]
    if "tier1" in columns:
        fields.append("tier1_only")
    fields.append("none")
    labels = {"union": "no tier1", "tier1_only": "t1 adds"}

    def totals(entries):
        return [sum(e[f] for e in entries) for f in fields]

    sums = dict(zip(fields, totals(table.values())))
    lines = [f"executable function lines: {sums['lines']}"]
    for col in columns:
        lines.append(f"  {col:<18} {sums[col]:6d}  ({notes[col]})")
    lines.append(f"  {'columns but tier1':<18} {sums['union']:6d}")
    if "tier1" in columns:
        lines.append(f"  {'tier1 adds':<18} {sums['tier1_only']:6d}")
    lines.append(f"  {'reached by none':<18} {sums['none']:6d}")
    head = "  ".join(f"{labels.get(f, f)[:8]:>8}" for f in fields)
    lines += ["", head + "  module"]
    for mod in sorted({key[0] for key in table}):
        row = totals([e for key, e in table.items() if key[0] == mod])
        lines.append("  ".join(f"{n:8d}" for n in row) + f"  {mod}")
    if functions:
        lines += ["", head + "  function (lines reached by none)"]
        for (mod, name, first), e in table.items():
            lines.append("  ".join(f"{e[f]:8d}" for f in fields)
                         + f"  {mod}:{first} {name}"
                         + (f" ({_ranges(e['unreached'])})"
                            if e["unreached"] else ""))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default="src")
    parser.add_argument("--columns", default=",".join(COLUMNS),
                        help="comma-separated, from: " + ", ".join(COLUMNS))
    parser.add_argument("--tier1", action="store_true",
                        help="also trace the tier-1 tests (slow)")
    parser.add_argument("--functions", action="store_true",
                        help="one row per function")
    parser.add_argument("--child", nargs=2, metavar=("COLUMN", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        column, out = args.child
        Path(out).write_text(json.dumps(collect(column, args.src)))
        return 0
    columns = [c for c in args.columns.split(",") if c]
    unknown = sorted(set(columns) - set(COLUMNS))
    if unknown:
        parser.error(f"unknown column(s): {', '.join(unknown)}")
    if args.tier1:
        columns.append("tier1")
    runs = {col: _run_column(col, args.src) for col in columns}
    reached = {col: run["reached"] for col, run in runs.items()}
    table = census(function_rows(args.src), reached)
    print(report(table, columns, {c: r["note"] for c, r in runs.items()},
                 args.functions))
    return 0


if __name__ == "__main__":
    sys.exit(main())
