"""The code-line count of tools/code_lines.py, on a hand-made module."""
import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import math  # a trailing comment keeps its line

# a comment line


class K:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        s = """a multi-line string
that is not a docstring"""
        return (x +
                math.pi)
'''


def test_counts_code_and_skips_comments_docstrings_and_blanks():
    # import, class, def, the string's two lines, return and its
    # continuation
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split() for r in rows] == [["1", "b.py"], ["7", "pkg/a.py"],
                                         ["8", "total"]]
