"""What `import pairbundles` loads, and the names it binds on first use."""
import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import typing

import pytest

import pairbundles

# every public name that `from pairbundles import *` bound when the package
# imported all six submodules eagerly
PUBLIC_NAMES = {
    "ALabel", "AmbiguityError", "BLabel", "BShape", "BoundReport",
    "BundleLabel", "BundleParams", "CATALOG", "CELLS", "Classification",
    "ClassificationFailureError", "ClosureGraphPsi", "Edge",
    "EmpiricalConstants", "GroupElement", "Mat2", "NeighborhoodReport",
    "PSI1_GRAPH", "PSI2_GRAPH", "PairAB", "SuspectEdgeWarning", "SymMat2",
    "ValidationError", "VerifyReport", "WitnessFamily", "apply_action",
    "apply_psi1", "apply_psi2", "bundle_dimension_numeric", "bundle_graph",
    "canonicalize_params", "classify", "classify_pair", "closure", "core",
    "cosquare", "default_grid", "det_invariant", "detxe_bound",
    "distance_to_bundle", "group_compose", "group_identity",
    "group_inverse", "is_path", "is_path_psi1", "is_path_psi2",
    "label_from_string", "lemadet_verify", "max_norm",
    "monte_carlo_neighborhood", "nonedge_floor", "normal_forms", "nu_fit",
    "numerics", "pair_distance", "path_edges", "predecessors",
    "psi2_orbit_dimension_numeric", "representative",
    "sample_group_element", "successors", "table3_residuals",
    "table4_residuals", "table_dimension", "validate_params",
    "witness_eval", "witness_lookup", "witness_repair", "witness_verify",
    "witnesses",
}

_HEAVY = ("numpy", "pairbundles.numerics", "pairbundles.witnesses")

# what the closure graph's cold start does without
_NOT_FOR_THE_GRAPH = ("json", "numpy", "pairbundles.classify",
                      "pairbundles.numerics", "pairbundles.witnesses")

_COLD_START = """
import pairbundles
from pairbundles import Mat2, PairAB, SymMat2, classify_pair
from pairbundles import label_from_string as L
pairbundles.bundle_graph()
assert pairbundles.is_path(L("zero/zero"), L("one_theta/full_hermitian_like"))
x = PairAB(Mat2.identity(), SymMat2(1.0, 0.0, 3.0))
assert classify_pair(x).label == L("identity/diag_ad")
doc = {"A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
       "B": {"a": [1.0, 0.0], "b": [0.0, 0.0], "d": [3.0, 0.0]}}
assert classify_pair(PairAB.from_json(doc)) == classify_pair(x)
"""


def _loaded_after(code, modules=_HEAVY):
    """Which of modules a fresh interpreter has imported after running
    code."""
    src = pathlib.Path(pairbundles.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    report = f"import sys\nprint([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def _console_main(argv):
    """Code that runs the console command argv and expects exit 0."""
    return ("import contextlib, io\nfrom pairbundles.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")


def test_classifier_and_closure_graph_import_no_numpy():
    assert _loaded_after(_COLD_START) == []


def test_closure_graph_loads_no_classifier_and_no_json():
    code = ("import pairbundles\n"
            "from pairbundles import label_from_string as L\n"
            "pairbundles.bundle_graph()\n"
            "assert pairbundles.is_path(L('zero/zero'), "
            "L('one_theta/full_hermitian_like'))")
    assert _loaded_after(code, _NOT_FOR_THE_GRAPH) == []


def test_first_use_of_classify_pair_loads_the_classifier_alone():
    assert _loaded_after("import pairbundles\npairbundles.classify_pair",
                         _NOT_FOR_THE_GRAPH) == ["pairbundles.classify"]


def test_first_use_of_a_lazy_name_loads_its_module():
    """The catalogue loads `witnesses` alone, and evaluating a family loads
    no numpy either."""
    assert _loaded_after("import pairbundles\npairbundles.CATALOG") == [
        "pairbundles.witnesses"]
    assert _loaded_after("import pairbundles as p\n"
                         "p.witness_eval(p.CATALOG[0], 0.1)") == [
        "pairbundles.witnesses"]


@pytest.mark.parametrize("argv", [
    ["classify", "--input", "pair.json"],
    ["closure", "path", "identity/zero", "one_theta/zero"],
    ["dim", "tau_form/zero", "--params", '{"tau": 0.5}'],
    ["verify", "witness"],
    ["witness", "eval", "one_zero/zero", "tau_form/zero", "--s", "0.1"],
    ["witness", "verify", "one_zero/zero", "tau_form/zero"],
    ["witness", "repair", "one_plus_minus/zero", "jordan_i/zero"],
], ids=["classify", "closure-path", "dim", "verify-witness", "witness-eval",
        "witness-verify", "witness-repair"])
def test_console_commands_that_sample_nothing_import_no_numpy(tmp_path, argv):
    """`cli` imports `numerics` and `witnesses`; `numerics` loads numpy
    only in the functions that draw or search, and `witnesses` never.
    The repair runs through a misprinted family, so its corrections run
    too."""
    pair = tmp_path / "pair.json"
    pair.write_text('{"A": [[1, 0], [0, 1]], "B": {"a": 1, "b": 0, "d": 3}}')
    argv = [str(pair) if a == "pair.json" else a for a in argv]
    assert "numpy" not in _loaded_after(_console_main(argv))


@pytest.mark.parametrize("argv", [
    ["closure", "path", "identity/zero", "one_theta/zero"],
    ["dim", "tau_form/zero", "--params", '{"tau": 0.5}'],
], ids=["closure-path", "dim"])
def test_console_graph_and_dim_commands_load_no_classifier(argv):
    """`cli` loads the classifier only in the commands that classify."""
    assert _loaded_after(_console_main(argv),
                         ("pairbundles.classify",)) == []


@pytest.mark.parametrize("name", sorted(pairbundles._LAZY))
def test_lazy_name_is_its_submodules_attribute(name):
    submodule = pairbundles._LAZY[name]
    module = importlib.import_module(f"pairbundles.{submodule}")
    want = module if name == submodule else getattr(module, name)
    assert getattr(pairbundles, name) is want
    # a second access reads the package's own binding
    assert pairbundles.__dict__[name] is want


def test_dir_and_star_import_bind_every_public_name():
    assert set(pairbundles._LAZY) <= set(dir(pairbundles))
    namespace = {}
    exec("from pairbundles import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(pairbundles.__all__) == PUBLIC_NAMES


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        pairbundles.frobnicate


def _public_callables():
    """(qualified name, object) of every class, method, property getter and
    function that the package defines and `pairbundles.__all__` reaches,
    through the submodules' own `__all__`."""
    seen, out = set(), []

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if inspect.ismodule(obj):
            for attr in obj.__all__:
                visit(getattr(obj, attr))
        elif (str(getattr(obj, "__module__", "")).startswith("pairbundles")
              and (inspect.isclass(obj) or inspect.isfunction(obj))):
            out.append((f"{obj.__module__}.{obj.__qualname__}", obj))
            for member in vars(obj).values() if inspect.isclass(obj) else ():
                member = getattr(member, "__func__", member)
                visit(getattr(member, "fget", member))

    visit(pairbundles)
    return out


def test_every_public_annotation_resolves():
    """`typing.get_type_hints` resolves every public annotation, and so
    none names a module, such as numpy, that the package does not import
    at load."""
    objects = _public_callables()
    assert {"pairbundles.core.Mat2.array",
            "pairbundles.witnesses.WitnessFamily.__init__"} <= {
        name for name, _ in objects}
    failures = []
    for name, obj in objects:
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            failures.append(f"{name}: {exc}")
    assert failures == []
