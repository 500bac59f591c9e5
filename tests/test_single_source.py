"""Guards against the kernel, the range check and the test laws being written twice again.

The Cody erfc coefficients and region cuts live in distributions.py only (the
Monte Carlo array kernel evaluates the same rational pieces), the open-unit-interval
requirement is spelled out only in the validator in errors.py, and the
two-sided critical value -quantile(alpha/2), the two-sided p-value and the
one-/two-sided choice itself only in Tail. Power is never a complement,
simulate_pvalues sorts the keys it keeps in place instead of gathering copies, and
the CLI turns list and grid text into values only through argparse and builds
a ScreeningParams only from a fixed --power. The normal/Student-t choice of the
severity reference law is made in one place, and decision_cost, like
montecarlo, takes its critical values from Tail. The chunk runner alone
starts the simulators' threads and makes their chunk buffers. Each public
name is listed once in the package's table of exports, and numpy is imported
by montecarlo alone. Each process imports only what it runs: `import errstat,
errstat.cli` loads none of typing, pathlib, dataclasses or inspect, and the
simulators load neither concurrent.futures nor logging. No validator is
handed a complement 1.0 - p: a check guards what the caller passed, and a
level the code computed is never checked again.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import errstat

SRC = Path(__file__).resolve().parents[1] / "src" / "errstat"


@pytest.mark.parametrize("text", ["3.16112374387056560", "strictly inside (0, 1)",
                                  "half = 0.5 * alpha", "2.0 * cdf(-abs(",
                                  "def noncentrality(", '"schema_version"'])
def test_text_appears_once_in_the_package(text):
    hits = {path.name: path.read_text(encoding="utf-8").count(text)
            for path in sorted(SRC.rglob("*.py"))}
    assert sum(hits.values()) == 1, {name: n for name, n in hits.items() if n}


@pytest.mark.parametrize("value", [0.46875, 26.5])
def test_cody_cut_is_written_once_in_the_package(value):
    # the scalar and the array Gaussian cdf share each cut through a named constant
    hits = {path.name: sum(isinstance(node, ast.Constant) and type(node.value) is float
                           and node.value == value
                           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
            for path in sorted(SRC.rglob("*.py"))}
    assert sum(hits.values()) == 1, {name: n for name, n in hits.items() if n}


def test_montecarlo_takes_its_critical_values_from_tail():
    source = (SRC / "montecarlo.py").read_text(encoding="utf-8")
    assert "normal_quantile" not in source


def test_decision_cost_takes_its_critical_values_from_tail():
    source = (SRC / "decision_cost.py").read_text(encoding="utf-8")
    assert "normal_quantile" not in source


def test_reference_law_is_chosen_once():
    hits = {path.name: path.read_text(encoding="utf-8").count("is ReferenceDist.NORMAL")
            for path in sorted(SRC.rglob("*.py"))}
    assert sum(hits.values()) == 1, {name: n for name, n in hits.items() if n}


@pytest.mark.parametrize("text", ["argsort", "concatenate"])
def test_pvalues_are_sorted_in_place_not_gathered(text):
    assert text not in (SRC / "montecarlo.py").read_text(encoding="utf-8")


@pytest.mark.parametrize("text", ["threading.Thread(", "np.empty(CHUNK_SIZE"])
def test_chunk_threads_and_buffers_are_made_only_by_the_chunk_runner(text):
    source = (SRC / "montecarlo.py").read_text(encoding="utf-8")
    runner = next(node for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_map_chunks")
    inside = ast.get_source_segment(source, runner).count(text)
    assert inside and source.count(text) == inside


def test_tail_members_are_compared_only_inside_tail():
    comparison = re.compile(r"is(?: not)? Tail\.(?:ONE_SIDED_UPPER|TWO_SIDED)")
    hits = {}
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.name == "error_tradeoff.py":
            # the body of class Tail: its header and every following indented or blank line
            body = re.search(r"^class Tail\(Enum\):\n(?:(?:    .*)?\n)*", source, re.M).group(0)
            assert comparison.search(body)
            source = source.replace(body, "")
        hits[path.name] = comparison.findall(source)
    assert not any(hits.values()), {name: found for name, found in hits.items() if found}


@pytest.mark.parametrize("text", ["1.0 - type2_error", "1.0 - beta"])
def test_power_is_never_a_complement(text):
    hits = [path.name for path in sorted(SRC.rglob("*.py"))
            if text in path.read_text(encoding="utf-8")]
    assert not hits, hits


def test_no_check_is_handed_a_complement():
    complement_check = re.compile(r"\bcheck_\w+\(1\.0 - ")
    hits = {path.name: complement_check.findall(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}
    assert not any(hits.values()), {name: found for name, found in hits.items() if found}


def test_cli_builds_screening_params_only_from_a_fixed_power():
    # a computed power goes to the coupled curve, never to the ScreeningParams check
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert source.count("ScreeningParams(") == 1
    assert "ScreeningParams(alpha, args.power, phi)" in source


def test_cli_handlers_receive_lists_and_grids_as_values():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    # each converter's definition: its def line and every following indented or blank line
    defs = re.findall(r"^def (?:_grid|_float_list)\(.*\n(?:(?:    .*)?\n)*", source, re.M)
    assert len(defs) == 2
    for body in defs:
        source = source.replace(body, "")
    uses = re.findall(r"(\S*)\b(_grid|_float_list)\b", source)
    assert len(uses) == 8 and all(prefix == "type=" for prefix, _ in uses), uses


def test_each_public_name_is_listed_once_in_init():
    # listed = a string constant (the export table, __all__) or a name imported by hand
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    listed = [node.value for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    listed += [alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    twice = {name: listed.count(name) for name in errstat.__all__ if listed.count(name) != 1}
    assert len(errstat.__all__) == len(set(errstat.__all__)) == 62 and not twice, twice


def test_numpy_is_imported_by_montecarlo_alone():
    hits = [path.name for path in sorted(SRC.rglob("*.py"))
            if "import numpy" in path.read_text(encoding="utf-8")]
    assert hits == ["montecarlo.py"], hits


def _loaded(modules: str, unwanted: set, *flags: str) -> list:
    # the unwanted modules that importing modules loads in a fresh interpreter
    code = f"import sys, {modules}; print(sorted({unwanted!r} & set(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.parent) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_none_of_typing_pathlib_dataclasses_or_inspect():
    # without site, whose .pth files may import them on their own
    unwanted = {"typing", "pathlib", "dataclasses", "inspect"}
    assert _loaded("errstat, errstat.cli", unwanted, "-S") == ["[]"]


def test_simulators_load_neither_concurrent_futures_nor_logging():
    # with site, which numpy needs; numpy itself imports inspect
    assert _loaded("errstat.montecarlo", {"concurrent.futures", "logging"}) == ["[]"]


def test_public_names_resolve_and_star_import_binds_the_simulators():
    missing = [name for name in errstat.__all__ if not hasattr(errstat, name)]
    assert not missing, missing
    namespace = {}
    exec("from errstat import *", namespace)
    assert namespace["simulate_pvalues"] is errstat.montecarlo.simulate_pvalues
    assert namespace["SimConfig"] is errstat.montecarlo.SimConfig
    with pytest.raises(AttributeError, match="no attribute 'simulate'"):
        errstat.simulate


def test_severity_stays_the_function_whichever_module_is_imported_first():
    # importing errstat.severity as a submodule binds it on the package; the function wins
    code = "import errstat.timeseries, errstat; print(callable(errstat.severity))"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.parent) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.split() == ["True"], proc.stderr
