"""The public namespace of massdual, and which submodules a request loads.

Each public name is imported from its home module on first read, and each CLI
subcommand imports only the engines it runs; fresh interpreters show what a
request or an import loads.
"""

import json
import subprocess
import sys
from importlib import import_module

import pytest

import massdual
from massdual import MonomialMatrix, bhargava_masses, cli, group_closure, group_to_json, perm_from_cycles, verify

PUBLIC_NAMES = [
    "CheckResult", "ClassFunction", "DivergentSeries", "DualityReport", "FiniteGroup", "GeometricFamily",
    "GroupTooLarge", "HilbertCounts", "InconsistentRepresentation", "Infinite", "InfiniteInput", "InfiniteMass",
    "InvalidParams", "LaurentPoly", "MalformedStrata", "MassPair", "MassdualError", "MonomialMatrix", "MonomialRep",
    "NonRealInput", "NotTame", "PoleAtEvaluationPoint", "ProfileStratum", "Q", "RamificationProfile",
    "ResolutionData", "TameScenario", "TameWeights", "VerticalRow", "ZeroDenominatorExponent", "bhargava_masses",
    "builtin_profile", "builtin_resolution", "cf_admissible_witness", "cf_dual", "cf_eval", "cf_from_terms",
    "cf_geometric_sum", "cf_ring", "convert_strata_map", "direct_sum", "duality_report", "from_cayley_table",
    "gm_duality_check", "gm_quotient", "group_closure", "group_from_json", "group_to_json", "hilbert_counts",
    "is_infinite", "kedlaya_masses", "mckay_identity_check", "open_closed_convert", "partition_count",
    "perm_from_cycles", "permutation_matrix", "permutation_rep", "poincare_check", "profile_from_json",
    "profile_to_json", "profile_total_masses", "rep_direct_sum", "resolution_from_json", "resolution_to_json",
    "run_suite", "stringy_count", "tame_catalog", "tame_involution_check", "tame_total_masses",
]
ENGINES = {"cli", "duality", "errors", "grouprep", "massengine", "qsym", "stringy", "verify"}


def test_all_holds_the_public_names():
    assert sorted(massdual.__all__) == PUBLIC_NAMES


def test_each_name_is_the_object_of_its_home_module():
    for name, home in massdual._HOME.items():
        assert getattr(massdual, name) is getattr(import_module(f"massdual.{home}"), name), name


def test_dir_and_star_import_give_every_name():
    assert set(PUBLIC_NAMES) <= set(dir(massdual))
    namespace = {}
    exec("from massdual import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} == {name: getattr(massdual, name) for name in PUBLIC_NAMES}


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'massdual' has no attribute 'no_such_name'$"):
        massdual.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from massdual import no_such_name", {})


def test_the_suite_choices_are_the_suites():
    [suite] = [option for option in cli._COMMANDS["verify"][2] if option[0] == "--suite"]
    assert suite[1] == tuple(sorted(verify.SUITES))


def loaded(statement: str, *argv) -> set:
    """The massdual submodules in sys.modules after a fresh interpreter runs statement with argv.
    A child reads sys.modules, as -X importtime logs no import_module call, such as the package's
    __getattr__ makes."""
    code = f"""import sys
try:
    {statement}
finally:
    print("loaded:", *sorted(m for m in sys.modules if m.startswith("massdual.")), file=sys.stderr)"""
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr  # runpy warns when the package has imported cli before -m runs it
    [line] = [line for line in proc.stderr.splitlines() if line.startswith("loaded:")]
    return {m.removeprefix("massdual.") for m in line.split()[1:]}


def test_importing_the_package_loads_no_submodule():
    assert loaded("import massdual") == set()


def test_reading_a_name_loads_its_home_module_and_what_that_imports():
    assert loaded("from massdual import duality_report") == {"duality", "errors", "qsym"}


def test_importing_the_cli_loads_only_errors_and_qsym():
    assert loaded("import massdual.cli") == {"cli", "errors", "qsym"}


def request(tmp_path, command):
    """argv of one request of the subcommand, with the input files it reads."""
    if command == "duality":
        path = tmp_path / "masses.json"
        path.write_text(json.dumps(bhargava_masses(2).to_json()))
        return ["duality", "--mv", str(path), "--mw", str(path), "--d", "4"]
    if command == "tame":
        z = perm_from_cycles(3, [[1, 2, 3]])
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(group_to_json(*group_closure([z], [MonomialMatrix((0, 1), (1, 1), 3)]))))
        return ["tame", "--group", str(path), "--q", "7"]
    return {
        "formula": ["formula", "bhargava", "--n", "3"],
        "profile": ["profile", "--builtin", "quad_char0_sigma", "--n", "1"],
        "stringy": ["stringy", "--builtin", "a1_cone"],
        "verify": ["verify", "--suite", "tame"],
    }[command]


@pytest.mark.parametrize(
    "command, modules",
    [
        ("formula", {"errors", "qsym", "massengine"}),
        ("profile", {"errors", "qsym", "massengine"}),
        ("stringy", {"errors", "qsym", "stringy"}),
        ("duality", {"errors", "qsym", "duality", "massengine"}),
        ("tame", {"errors", "qsym", "grouprep", "massengine"}),
        ("verify", ENGINES),
    ],
)
def test_a_request_loads_only_the_engines_it_runs(tmp_path, command, modules):
    # run as `python -m massdual.cli` runs it, as __main__, so massdual.cli is imported only by
    # verify, whose criteria run it
    argv = [*request(tmp_path, command), "--report", "json"]
    assert loaded('import runpy; runpy.run_module("massdual.cli", run_name="__main__", alter_sys=True)', *argv) == modules


def test_verify_under_m_runs_the_one_command_line_module():
    # verify's criteria call the command line back; run as -m, that is __main__, not a second copy
    argv = [sys.executable, "-X", "importtime", "-m", "massdual.cli", "verify", "--suite", "partitions"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()]
    assert "massdual.verify" in imported
    assert "massdual.cli" not in imported
