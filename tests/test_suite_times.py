"""tools/suite_times.py: its summary lines, and one pair of runs."""
import importlib.util
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "suite_times", _ROOT / "tools" / "suite_times.py")
suite_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(suite_times)


def test_summary_gives_medians_change_and_wins():
    base = [{"graph_s": 1.0}, {"graph_s": 2.0}, {"graph_s": 3.0}]
    head = [{"graph_s": 0.5}, {"graph_s": 2.5}, {"graph_s": 1.5}]
    line, = suite_times.summary(base, head)
    assert line.split() == ["graph_s", "base", "2.0000", "head", "1.5000",
                            "-25.0%", "lower", "in", "2", "of", "3"]


def test_one_pair_of_the_same_tree(capsys):
    src = str(_ROOT / "src")
    assert suite_times.main([src, src, "--pairs", "1", "--trials", "2"]) == 0
    keys = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert keys == ["dims_s", "bounds_s", "graph_s", "witness_s",
                    "classify_rest_us"]
