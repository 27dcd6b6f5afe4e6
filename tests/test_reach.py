"""The line census of tools/reach.py, on a hand-made module."""
import importlib
import importlib.util
import pathlib
import sys

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

SOURCE = '''"""A toy module."""
TABLE = [n * n for n in range(3)]


def f(x):
    if x > 0:
        return "positive"
    return "other"


def never():
    return 1


class K:
    def method(self):
        def inner():
            return 2
        return inner() + sum(y for y in (1, 2))

    def unused(self):
        return 3


square = lambda v: v * v  # noqa: E731
'''


def test_census_of_a_toy_module(tmp_path, monkeypatch):
    src = tmp_path / "src"
    src.mkdir()
    (src / "reach_toy.py").write_text(SOURCE)
    rows = reach.function_rows(src)
    # one row per function, its nested code included; the module-level
    # comprehension and the class body are not rows
    assert rows == {
        ("reach_toy.py", "f", 5): {5, 6, 7, 8},
        ("reach_toy.py", "never", 11): {11, 12},
        ("reach_toy.py", "K.method", 16): {16, 17, 18, 19},
        ("reach_toy.py", "K.unused", 21): {21, 22},
        ("reach_toy.py", "<lambda>", 25): {25},
    }

    monkeypatch.syspath_prepend(str(src))
    monkeypatch.delitem(sys.modules, "reach_toy", raising=False)
    tracer = reach.LineTracer(src)
    outer = sys.gettrace()
    with tracer.tracing():
        toy = importlib.import_module("reach_toy")
        toy.f(1)
        toy.K().method()
        toy.square(2)
    assert sys.gettrace() is outer
    table = reach.census(rows, {"sweep": tracer.reached()})
    # import runs the def lines of never and unused in the module's frame,
    # which is not traced: a function's lines count only once it is called
    assert {key[1]: (e["sweep"], e["unreached"]) for key, e in table.items()} \
        == {"f": (3, [8]), "never": (0, [11, 12]), "K.method": (4, []),
            "K.unused": (0, [21, 22]), "<lambda>": (1, [])}

    text = reach.report(table, ["sweep"], {"sweep": "toy"}, functions=True)
    assert text.splitlines()[:4] == [
        "executable function lines: 13",
        "  sweep                   8  (toy)",
        "  columns but tier1       8",
        "  reached by none         5",
    ]
    assert text.splitlines()[-1].endswith("reach_toy.py:25 <lambda>")
    assert "reach_toy.py:11 never (11-12)" in text


def test_line_ranges():
    assert reach._ranges([7, 1, 2, 3, 9, 10]) == "1-3,7,9-10"
    assert reach._ranges([]) == ""
