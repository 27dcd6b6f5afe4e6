"""The comparison gate of tools/outcome_corpus.py, on hand-made records."""
import ast
import copy
import importlib.util
import json
import math
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "outcome_corpus.py"
_spec = importlib.util.spec_from_file_location("outcome_corpus", _PATH)
outcome_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outcome_corpus)

BASE = [
    {"case": "move one_theta/diag_ad #0", "label": "one_theta/diag_ad",
     "params": {"theta": 2.0, "zeta_star": [1.0, -3.0]},
     "notes": ["cosquare near defective"]},
    {"case": "mc jordan_i/zero #11", "error": "AmbiguityError",
     "message": "B is off the strata"},
    {"case": "mc-report identity/zero seed=0",
     "report": {"histogram": {"identity/zero": 200}, "violations": [],
                "ambiguous": 0, "failures": 0}},
]


def diff_lines(edit):
    head = copy.deepcopy(BASE)
    edit(head)
    return list(outcome_corpus.differences(BASE, head))


def test_identical_records_have_no_differences():
    assert diff_lines(lambda head: None) == []


@pytest.mark.parametrize("name, base, factor, differs", [
    # the bound is 1e-8 (1 + |v|): 3e-8 for theta = 2, about 4.2e-8 for
    # zeta_star = 1 - 3i
    ("theta", 2.0, 2.9e-8, False),
    ("theta", 2.0, 3.1e-8, True),
    ("zeta_star", 1.0, 4.1e-8, False),
    ("zeta_star", 1.0, 4.3e-8, True),
])
def test_parameter_bound(name, base, factor, differs):
    def edit(head):
        p = head[0]["params"]
        if name == "theta":
            p["theta"] = base + factor
        else:
            p["zeta_star"] = [base + factor, -3.0]
    lines = diff_lines(edit)
    if differs:
        assert len(lines) == 1
        assert lines[0].startswith(f"move one_theta/diag_ad #0: {name} ")
    else:
        assert lines == []


_SEAM = math.pi - 4.4e-16


@pytest.mark.parametrize("label, p0, p1, changed", [
    # either side of the seam of [0, pi), zeta negated with the half turn
    ("tau_form/phase_form", {"phi": _SEAM, "zeta": [0.3, -0.4]},
     {"phi": 0.0, "zeta": [-0.3, 0.4]}, []),
    ("tau_form/phase_form", {"phi": 0.0, "zeta": [-0.3, 0.4]},
     {"phi": _SEAM, "zeta": [0.3, -0.4]}, []),
    ("tau_form/off_diag_phase", {"phi": _SEAM}, {"phi": 0.0}, []),
    ("tau_form/off_diag_phase", {"phi": 0.0}, {"phi": _SEAM}, []),
    # across the seam a zeta that keeps its sign is another class
    ("tau_form/phase_form", {"phi": _SEAM, "zeta": [0.3, -0.4]},
     {"phi": 0.0, "zeta": [0.3, -0.4]}, ["zeta"]),
    ("tau_form/phase_form", {"phi": 0.0, "zeta": [0.3, 0.0]},
     {"phi": _SEAM, "zeta": [0.3, 0.0]}, ["zeta"]),
    # away from the seam phi and zeta are compared as numbers
    ("tau_form/phase_form", {"phi": 0.2, "zeta": [0.3, -0.4]},
     {"phi": 3.0, "zeta": [-0.3, 0.4]}, ["phi"]),
    ("tau_form/phase_form", {"phi": 1.0, "zeta": [0.3, -0.4]},
     {"phi": 1.0, "zeta": [-0.3, 0.4]}, ["zeta"]),
])
def test_phi_is_compared_modulo_its_half_turn(label, p0, p1, changed):
    base = [{"case": "move x #0", "label": label, "params": p0}]
    head = [{"case": "move x #0", "label": label, "params": p1}]
    lines = list(outcome_corpus.differences(base, head))
    assert [line.split()[3] for line in lines] == changed
    for line, name in zip(lines, changed):
        # the line shows the returned values, not the aligned ones
        assert line.endswith(f"-> {outcome_corpus._as_complex(p1[name])!r}")


def test_changed_note():
    def edit(head):
        head[0]["notes"] = ["cosquare near scalar"]
    assert diff_lines(edit) == [
        "move one_theta/diag_ad #0: notes ['cosquare near defective'] -> "
        "['cosquare near scalar']"]


def test_changed_error_message():
    def edit(head):
        head[1]["message"] = "B is off the strata (residual 1.0)"
    assert diff_lines(edit) == [
        "mc jordan_i/zero #11: message 'B is off the strata' -> "
        "'B is off the strata (residual 1.0)'"]


def test_changed_monte_carlo_report():
    def edit(head):
        head[2]["report"]["failures"] = 1
    lines = diff_lines(edit)
    assert len(lines) == 1
    assert lines[0].startswith("mc-report identity/zero seed=0: report ")
    assert "'failures': 0}" in lines[0] and "'failures': 1}" in lines[0]


def test_size_mismatch():
    lines = list(outcome_corpus.differences(BASE, BASE[:2]))
    assert lines == ["corpus sizes differ: 3 vs 2"]


DISTANCE = {
    "case": "distance one_theta/zero -> tau_form/zero budget=2 norm=max "
            "seed=0",
    "distance": {"floor": 0.13037601890135193,
                 "group_element": {"c": [0.9998, -0.019996],
                                   "P": [[[1.02, 0.0], [0.0, 0.1]],
                                         [[-0.3, 0.0], [0.97, 1e-9]]]},
                 "params": {"tau": 0.4999999999999999}}}


def distance_diff_lines(edit):
    head = copy.deepcopy(DISTANCE)
    edit(head["distance"])
    return list(outcome_corpus.differences([DISTANCE], [head]))


def test_distance_records_survive_json_round_trip():
    again = json.loads(json.dumps([DISTANCE], indent=0))
    assert list(outcome_corpus.differences([DISTANCE], again)) == []


@pytest.mark.parametrize("edit", [
    # the floor moved by one unit in the last place
    lambda d: d.update(floor=math.nextafter(d["floor"], 1.0)),
    lambda d: d["group_element"]["P"][1][0].__setitem__(1, -0.0),
    lambda d: d["params"].update(tau=0.5),
], ids=["floor", "signed-zero-in-P", "params"])
def test_changed_distance_result(edit):
    lines = distance_diff_lines(edit)
    assert len(lines) == 1
    assert lines[0].startswith(f"{DISTANCE['case']}: distance ")


def test_floor_jobs_follow_the_benchmark():
    """The corpus's psi1 floor jobs are the benchmark's nonedge-distance
    pairs, read from perfbench/run.py without importing it (it sets thread
    variables on import); the rank-drop jobs are spelled inline there."""
    run_py = _PATH.parents[1] / "perfbench" / "run.py"
    tree = ast.parse(run_py.read_text())
    nonedges = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["PSI1_NONEDGES"])
    assert outcome_corpus.FLOOR_JOBS == (
        [(src, dst, 2, "max") for src, dst in nonedges]
        + [("zero/rank2", "zero/rank1", 4, norm)
           for norm in ("max", "spectral")])


FACTS = [
    {"case": "shape anti_diag",
     "facts": {"shape_rank": 2, "shape_min_rank": 2}},
    {"case": "closure tau_form/zero_one",
     "facts": {"successors": ["tau_form/one_zeta", "tau_form/phase_form",
                              "tau_form/zero_one"],
               "needs_suspect_edge": ["tau_form/one_zeta"],
               "predecessors": ["tau_form/zero", "tau_form/zero_one",
                                "zero/zero"],
               "path_edges": {
                   "tau_form/one_zeta": [["tau_form/zero_one",
                                          "tau_form/one_zeta"]],
                   "tau_form/phase_form": [["tau_form/zero_one",
                                            "tau_form/phase_form"]],
                   "tau_form/zero_one": []}}},
]


@pytest.mark.parametrize("index, edit", [
    (0, lambda f: f.update(shape_rank=None)),
    (0, lambda f: f.update(shape_min_rank=1)),
    (1, lambda f: f["successors"].remove("tau_form/one_zeta")),
    (1, lambda f: f.update(needs_suspect_edge=[])),
    (1, lambda f: f["predecessors"].remove("zero/zero")),
    # the same endpoints reached through another cell
    (1, lambda f: f["path_edges"].update({"tau_form/phase_form": [
        ["tau_form/zero_one", "tau_form/one_zeta"],
        ["tau_form/one_zeta", "tau_form/phase_form"]]})),
], ids=["rank", "min-rank", "successors", "suspect", "predecessors",
        "chain"])
def test_changed_catalogue_fact(index, edit):
    head = copy.deepcopy(FACTS)
    edit(head[index]["facts"])
    lines = list(outcome_corpus.differences(FACTS, head))
    assert len(lines) == 1
    assert lines[0].startswith(f"{FACTS[index]['case']}: facts ")


CALL = {"case": "move identity/zero seed=0 cond_max=10 #3",
        "label": "identity/zero", "params": {}, "notes": [],
        "reducer": {"c": [0.6, 0.8],
                    "P": [[[1.5, 0.0], [0.0, -0.25]], [[0.0, 0.0], [2.0, 0.0]]]},
        "residual": 4.440892098500626e-16}


@pytest.mark.parametrize("edit, counted", [
    (lambda r: None, 0),
    # a zero that changed sign: only the text tells
    (lambda r: r["reducer"]["P"][1][0].__setitem__(0, -0.0), 1),
    (lambda r: r["reducer"].update(c=[-0.6, -0.8]), 1),
    (lambda r: r.update(residual=math.nextafter(r["residual"], 1.0)), 1),
], ids=["same", "signed-zero-in-P", "stabilizer-sign", "residual"])
def test_reducer_and_residual_are_counted_not_failed(tmp_path, capsys, edit,
                                                      counted):
    head = copy.deepcopy(CALL)
    edit(head)
    assert outcome_corpus.reducer_differences([CALL], [head]) == counted
    base_path, head_path = tmp_path / "base.json", tmp_path / "head.json"
    base_path.write_text(json.dumps([CALL], indent=0))
    head_path.write_text(json.dumps([head], indent=0))
    assert outcome_corpus.compare(str(base_path), str(head_path)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 differences in 1 records",
        f"{counted} records differ bit for bit in the reducer or residual "
        "(information only)"]


BOUND = {"case": "bound bound-lemadet-PBF seed=0",
         "values": {"pass": True, "margin": 0.004, "samples": 200,
                    "skipped": 0, "redraws": 44}}


@pytest.mark.parametrize("edit, differs", [
    (lambda v: None, False),
    (lambda v: v.update(redraws=45), True),
    (lambda v: v.update(skipped=1), True),
    (lambda v: v.update({"pass": False}), True),
    # the bound is 1e-8 (1 + |m|), about 1.00400e-8 at m = 0.004
    (lambda v: v.update(margin=0.004 + 1.0039e-8), False),
    (lambda v: v.update(margin=0.004 - 1.0039e-8), False),
    (lambda v: v.update(margin=0.004 + 1.0041e-8), True),
    (lambda v: v.update(margin=None), True),
], ids=["same", "redraws", "skipped", "pass", "margin-inside-above",
        "margin-inside-below", "margin-outside", "margin-null"])
def test_changed_bound_check(edit, differs):
    head = copy.deepcopy(BOUND)
    edit(head["values"])
    lines = list(outcome_corpus.differences([BOUND], [head]))
    assert lines == ([f"{BOUND['case']}: values {BOUND['values']!r} -> "
                      f"{head['values']!r}"] if differs else [])


@pytest.mark.parametrize("v0, v1, close", [
    (float("nan"), float("nan"), True),
    (float("inf"), float("inf"), True),
    (float("inf"), 1e300, False),
    ([0.0, 1e-9], [5e-9, 0.0], True),
    ([0.0, 1e-9], [0.0], False),
    (3, 3.0, False),
])
def test_close_values(v0, v1, close):
    assert outcome_corpus._close_values(v0, v1) is close


def test_table4_rows_follow_the_tests():
    """The corpus's table-4 shapes are TestTable4.ROWS of
    tests/test_numerics.py."""
    spec = importlib.util.spec_from_file_location(
        "_table4_source", pathlib.Path(__file__).with_name("test_numerics.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rows = module.TestTable4.ROWS
    assert list(outcome_corpus.TABLE4_ROWS) == list(rows)
    for name, B in rows.items():
        assert B.tolist() == outcome_corpus.TABLE4_ROWS[name]


def test_mc_report_cases(monkeypatch):
    """The Monte Carlo reports are the seed-0 block, the steps' centres and
    the seed-1 block, in this order: 107 records, each from the call its
    case id names."""
    from pairbundles import numerics
    from pairbundles.normal_forms import CELLS

    calls = []

    class Report:
        def to_json(self):
            return {"histogram": {}, "violations": [], "ambiguous": 0,
                    "failures": 0}

    def fake(cell, params, epsilon, trials, seed=0):
        calls.append((str(cell), seed, trials, epsilon))
        return Report()

    monkeypatch.setattr(numerics, "monte_carlo_neighborhood", fake)
    cases = [case for case, _ in outcome_corpus.mc_reports()]
    block = [(str(cell), seed, 200, 1e-3) for seed in (0, 1) for cell in CELLS]
    steps = [(name, seed, trials, eps)
             for seed, trials, eps in outcome_corpus.MC_STEPS
             for name in outcome_corpus.MC_STEP_CENTRES]
    assert calls == block[:46] + steps + block[46:]
    assert len(cases) == 107
    assert cases[46] == ("mc-report jordan_i/zero seed=0 trials=50 "
                         "epsilon=0.001")
    assert cases[47:61:5] == [
        "mc-report one_plus_minus/diag_ad seed=0 trials=50 epsilon=0.001",
        "mc-report one_plus_minus/diag_ad seed=0 trials=50 epsilon=0.01",
        "mc-report one_plus_minus/diag_ad seed=1 trials=50 epsilon=0.01"]
    assert cases[61] == f"mc-report {CELLS[0]} seed=1"


def test_mc_steps_change_each_component_alone():
    """From the seed-0 block's setting, each step changes exactly one of
    (seed, trials, epsilon), and each of the three changes alone once; the
    step centres' reports move with every change, so a trial table held
    under a key that drops any one of them changes a report."""
    from pairbundles.normal_forms import label_from_string
    from pairbundles.numerics import monte_carlo_neighborhood

    chain = [(outcome_corpus.MC_SEEDS[0], outcome_corpus.MC_TRIALS,
              outcome_corpus.MC_EPSILON), *outcome_corpus.MC_STEPS]
    changed = [[i for i in range(3) if a[i] != b[i]]
               for a, b in zip(chain, chain[1:])]
    assert sorted(changed) == [[0], [1], [2]]
    centres = [label_from_string(name)
               for name in outcome_corpus.MC_STEP_CENTRES]
    reports = [[monte_carlo_neighborhood(c, None, eps, trials,
                                         seed=seed).histogram
                for c in centres] for seed, trials, eps in chain]
    for before, after in zip(reports, reports[1:]):
        assert before != after


WITNESS = {"case": "witness one-zero-in-tau",
           "witness": {"status": "verified",
                       "residuals": [0.2, 0.1, 1.6276041666666667e-05]}}


@pytest.mark.parametrize("edit", [
    # a residual moved by one unit in the last place
    lambda w: w["residuals"].__setitem__(
        2, math.nextafter(w["residuals"][2], 1.0)),
    lambda w: w.update(status="repaired"),
], ids=["residual-last-bit", "status"])
def test_changed_witness_report(edit):
    head = copy.deepcopy(WITNESS)
    edit(head["witness"])
    lines = list(outcome_corpus.differences([WITNESS], [head]))
    assert len(lines) == 1
    assert lines[0].startswith(f"{WITNESS['case']}: witness ")


def test_witness_reports_cover_the_catalogue():
    """One report per family, in catalogue order, each with one residual
    per grid point; the two misprinted families are repaired."""
    from pairbundles.witnesses import CATALOG, default_grid

    reports = list(outcome_corpus.witness_reports())
    assert [case for case, _ in reports] == [
        f"witness {f.name}" for f in CATALOG]
    assert all(len(r["residuals"]) == len(default_grid())
               for _, r in reports)
    assert [r["status"] for _, r in reports].count("repaired") == 2


VERIFY = {"case": "verify mc-jordan_i/zero seed=0",
          "verify": {"pass": True, "margin": -0.0, "failures": 2,
                     "ambiguous": 31}}


@pytest.mark.parametrize("edit, lines", [
    (lambda v: None, []),
    (lambda v: v.update(margin=-1.0, failures=3),
     ["margin -0.0 -> -1.0", "failures 2 -> 3"]),
    # the sign of a zero counts, and no tolerance applies
    (lambda v: v.update(margin=0.0), ["margin -0.0 -> 0.0"]),
    (lambda v: v.update(margin=math.nextafter(-0.0, 1.0)),
     ["margin -0.0 -> 5e-324"]),
    (lambda v: v.update({"pass": False}), ["pass True -> False"]),
    (lambda v: v.update(margin=None, margin_reason="no residuals"),
     ["margin -0.0 -> None", "margin_reason None -> 'no residuals'"]),
    (lambda v: v.pop("ambiguous"), ["ambiguous 31 -> None"]),
], ids=["same", "margin-and-failures", "zero-sign", "last-bit", "pass",
        "null-margin", "dropped-field"])
def test_changed_verify_check_is_reported_by_its_id(edit, lines):
    head = copy.deepcopy(VERIFY)
    edit(head["verify"])
    assert list(outcome_corpus.differences([VERIFY], [head])) == [
        f"{VERIFY['case']}: {line}" for line in lines]


def test_verify_checks_are_the_cli_output_keyed_by_id(monkeypatch):
    """One `verify all --trials 200` run per seed; each printed check
    becomes one record keyed by its id and seed, with every other field."""
    from pairbundles import cli

    argvs = []

    def fake_main(argv):
        argvs.append(argv)
        seed = int(argv[argv.index("--seed") + 1])
        print(json.dumps({"seed": seed, "checks": [
            {"id": "dim-zero/zero", "pass": True, "margin": -0.0},
            {"id": "mc-zero/zero", "pass": seed == 0, "margin": -1.0 * seed,
             "failures": 0, "ambiguous": 1}]}))
        return 0

    monkeypatch.setattr(cli, "main", fake_main)
    records = list(outcome_corpus.verify_checks())
    assert argvs == [["verify", "all", "--seed", str(seed), "--trials", "200"]
                     for seed in outcome_corpus.VERIFY_SEEDS]
    assert outcome_corpus.VERIFY_SEEDS == (0, 1)
    assert [case for case, _ in records] == [
        "verify dim-zero/zero seed=0", "verify mc-zero/zero seed=0",
        "verify dim-zero/zero seed=1", "verify mc-zero/zero seed=1"]
    assert json.dumps(records[0][1]) == '{"pass": true, "margin": -0.0}'
    assert records[3][1] == {"pass": False, "margin": -1.0, "failures": 0,
                             "ambiguous": 1}


EXPORT = {"case": "export psi1 dot",
          "export": 'digraph psi1 {\n  "zero";\n}\n'}


@pytest.mark.parametrize("text, differs", [
    ('digraph psi1 {\n  "zero";\n}\n', False),
    ('digraph psi1 {\n  "zero";\n}', True),
    ('digraph psi1 {\n  "zero" ;\n}\n', True),
], ids=["same", "no-final-newline", "space"])
def test_changed_export_text(text, differs):
    head = dict(EXPORT, export=text)
    lines = list(outcome_corpus.differences([EXPORT], [head]))
    assert lines == ([f"{EXPORT['case']}: export {EXPORT['export']!r} -> "
                      f"{text!r}"] if differs else [])


def test_export_texts_are_the_cli_output(capsys):
    """One record per graph and format, the text `closure export`
    prints."""
    from pairbundles.cli import main

    records = list(outcome_corpus.export_texts())
    assert [case for case, _ in records] == [
        f"export {which} {fmt}" for which in ("psi1", "psi2", "psi")
        for fmt in ("json", "dot")]
    for case, text in records:
        _, which, fmt = case.split()
        assert main(["closure", "export", which, "--format", fmt]) == 0
        assert capsys.readouterr().out == text
