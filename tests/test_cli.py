import argparse
import ast
import contextlib
import functools
import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massdual import (
    ClassFunction,
    MassPair,
    MonomialMatrix,
    MonomialRep,
    Q,
    bhargava_masses,
    builtin_profile,
    group_closure,
    group_to_json,
    kedlaya_masses,
    perm_from_cycles,
    profile_total_masses,
    resolution_to_json,
)
from massdual import cli
from massdual.cli import (
    BUILTIN_PROFILES,
    _cmd_duality,
    _cmd_formula,
    _cmd_profile,
    _cmd_stringy,
    _cmd_tame,
    _cmd_verify,
    run,
)
from massdual.errors import MassdualError
from massdual.grouprep import group_from_json
from massdual.massengine import hilbert_counts, mass_from_json, profile_from_json, profile_to_json
from massdual.qsym import MAX_SUM_TERMS
from massdual.stringy import ResolutionData, builtin_resolution, resolution_from_json
from massdual.verify import SUITES

F = Fraction


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_formula_bhargava_json(capsys):
    code, out = run_cli(capsys, "formula", "bhargava", "--n", "3", "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["strong"] is True
    assert MassPair.from_json(doc) == bhargava_masses(3)


def test_formula_text_output(capsys):
    code, out = run_cli(capsys, "formula", "kedlaya", "--n", "1")
    assert code == 0
    assert "mass_v = 1 + Q^-1" in out
    assert "mass_w = Q + 1" in out


def test_formula_eval_flag(capsys):
    code, out = run_cli(
        capsys, "formula", "kedlaya", "--n", "2", "--eval", "3", "1"
    )
    assert code == 0
    assert "mass_v(3,1) = 17/9" in out


def test_formula_hilbert(capsys):
    code, out = run_cli(capsys, "formula", "hilbert", "--n", "2", "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert ClassFunction.from_json(doc["hilb_plane"]) == Q**4 + Q**3
    assert ClassFunction.from_json(doc["fiber"]) == kedlaya_masses(2).mass_w


def test_formula_hilbert_eval(capsys):
    # --eval evaluates every ClassFunction of the report, the Hilbert counts too
    code, out = run_cli(capsys, "formula", "hilbert", "--n", "2", "--eval", "2", "1")
    assert code == 0
    assert out.splitlines() == [
        "hilb_plane = Q^4 + Q^3",
        "fiber = 2*Q^2 + 2*Q + 1",
        "hilb_plane(2,1) = 24",
        "fiber(2,1) = 13",
    ]
    code, out = run_cli(capsys, "formula", "hilbert", "--n", "2", "--eval", "2", "1", "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["fiber", "fiber(2,1)", "hilb_plane", "hilb_plane(2,1)"]
    assert (doc["hilb_plane(2,1)"], doc["fiber(2,1)"]) == ("24", "13")
    assert run(["formula", "hilbert", "--n", "2", "--eval", "2", "x"]) == 2
    assert capsys.readouterr() == ("", "error: invalid literal for int() with base 10: 'x'\n")


def test_profile_divergent_exit_code(capsys):
    code, out = run_cli(
        capsys, "profile", "--builtin", "quad_char2_sigma", "--n", "1",
        "--report", "json",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["divergent"] is True
    assert doc["reason"]


def test_profile_builtin_masses(capsys):
    code, out = run_cli(
        capsys, "profile", "--builtin", "quad_char2_upsilon", "--m", "1", "--n", "1",
        "--q-symbolic", "--report", "json",
    )
    assert code == 0
    masses = MassPair.from_json(json.loads(out))
    assert masses.mass_v == ClassFunction.constant(2)
    assert masses.mass_w == 2 * Q


def test_profile_from_scenario_file(tmp_path, capsys):
    inner = {
        "group_order": 1,
        "strata": [{"count": (Q + 1).to_json(), "v": "1/2", "w": "0"}],
        "families": [],
    }
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"kind": "profile", "payload": inner}))
    code, out = run_cli(capsys, "profile", "--file", str(path), "--report", "json")
    assert code == 0
    masses = MassPair.from_json(json.loads(out))
    assert masses.mass_v == (Q + 1) * ClassFunction.monomial(F(-1, 2))


def test_wrong_scenario_kind_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "oops.json"
    path.write_text(json.dumps({"kind": "stringy", "payload": {}}))
    code = run(["profile", "--file", str(path)])
    assert code == 2
    assert "kind" in capsys.readouterr().err


def z3_group_file(tmp_path):
    z = perm_from_cycles(3, [[1, 2, 3]])
    group, rep = group_closure([z], [MonomialMatrix((0, 1), (1, 1), 3)])
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(group_to_json(group, rep)))
    return path


def test_tame_subcommand(tmp_path, capsys):
    path = z3_group_file(tmp_path)
    code, out = run_cli(
        capsys, "tame", "--group", str(path), "--q", "7",
        "--check-involution", "--report", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["involution"] is True
    masses = MassPair.from_json(doc)
    assert masses.mass_v == ClassFunction.poly({0: 1, F(-2, 3): 1, F(-4, 3): 1})


def test_tame_involution_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("massdual.massengine._involutive", lambda *table: False)
    code, out = run_cli(capsys, "tame", "--group", str(z3_group_file(tmp_path)), "--q", "7", "--check-involution")
    assert code == 1
    assert "involution = False" in out.splitlines()


def test_tame_check_reads_the_weights_once_per_class(tmp_path, capsys, monkeypatch):
    # the masses and the involution verdict read one table of stable weights;
    # each read its own, so Z/3's three classes took six weight readings
    calls = []
    weights = MonomialRep._tame_ints
    monkeypatch.setattr(MonomialRep, "_tame_ints", lambda self, g: calls.append(g) or weights(self, g))
    code, _ = run_cli(capsys, "tame", "--group", str(z3_group_file(tmp_path)), "--q", "7", "--check-involution")
    assert code == 0
    assert len(calls) == len(set(calls)) == 3


def test_tame_eval_text_and_json(tmp_path, capsys):
    # q = 2 has order 2 mod 3, so each mass has two residue classes of r
    argv = ["tame", "--group", str(z3_group_file(tmp_path)), "--q", "2", "--eval", "8", "2"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "mass_v:",
        "  r = 0 (mod 2): 1 + Q^(-2/3) + Q^(-4/3)",
        "  r = 1 (mod 2): 1",
        "mass_w:",
        "  r = 0 (mod 2): Q^(4/3) + Q^(2/3) + 1",
        "  r = 1 (mod 2): 1",
        "mass_v(8,2) = 273/256",
        "mass_w(8,2) = 273",
    ]
    code, out = run_cli(capsys, *argv, "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["mass_v", "mass_v(8,2)", "mass_w", "mass_w(8,2)"]
    assert (doc["mass_v(8,2)"], doc["mass_w(8,2)"]) == ("273/256", "273")
    assert MassPair.from_json(doc).mass_v.modulus == 2


def test_profile_eval_text_and_json(capsys):
    argv = ["profile", "--builtin", "quad_char2_upsilon", "--m", "2", "--n", "2"]
    argv += ["--eval", "3", "2"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "mass_v = (Q + 2 + Q^-1 - Q^-2) / (Q + 1)",
        "mass_w = (Q^2 + 2*Q + 1 - Q^-1) / (Q + 1)",
        "mass_v(3,2) = 899/810",
        "mass_w(3,2) = 899/90",
    ]
    code, out = run_cli(capsys, *argv, "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["mass_v", "mass_v(3,2)", "mass_w", "mass_w(3,2)"]
    assert (doc["mass_v(3,2)"], doc["mass_w(3,2)"]) == ("899/810", "899/90")
    assert MassPair.from_json(doc).mass_v == (Q + 2 + 1 / Q - Q**-2) / (Q + 1)


def test_tame_threads_do_not_change_bytes(tmp_path, capsys):
    path = z3_group_file(tmp_path)
    base = run_cli(capsys, "tame", "--group", str(path), "--q", "2", "--report", "json")
    threaded = run_cli(
        capsys, "tame", "--group", str(path), "--q", "2", "--threads", "3",
        "--report", "json",
    )
    assert base == threaded
    assert base[0] == 0


def test_tame_not_tame_is_input_error(tmp_path, capsys):
    path = z3_group_file(tmp_path)
    code = run(["tame", "--group", str(path), "--q", "3"])
    assert code == 2
    assert "divides" in capsys.readouterr().err


def test_repeat_runs_are_byte_identical(capsys):
    a = run_cli(capsys, "formula", "bhargava", "--n", "7", "--report", "json")
    b = run_cli(capsys, "formula", "bhargava", "--n", "7", "--report", "json")
    assert a == b


def test_stringy_builtin_checks(capsys):
    code, out = run_cli(
        capsys, "stringy", "--builtin", "a1_cone", "--check-gm", "--d", "2",
        "--report", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gm"] is True
    assert ClassFunction.from_json(doc["count_total"]) == Q**2 + Q


def test_stringy_failed_check_exits_1(capsys):
    # the cone itself is not proper, so its total count is not palindromic
    code, out = run_cli(
        capsys, "stringy", "--builtin", "a1_cone",
        "--check-poincare", "--check-gm", "--d", "2", "--report", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["poincare"] is False
    assert doc["gm"] is True


def test_stringy_single_file(tmp_path, capsys):
    data = builtin_resolution("a1_cone")["total"]
    path = tmp_path / "res.json"
    path.write_text(json.dumps(resolution_to_json(data)))
    code, out = run_cli(capsys, "stringy", "--file", str(path), "--report", "json")
    assert code == 0
    assert ClassFunction.from_json(json.loads(out)["count_total"]) == Q**2 + Q


def test_stringy_file_with_total_and_origin(tmp_path, capsys):
    fixtures = builtin_resolution("a1_cone")
    payload = {role: resolution_to_json(data) for role, data in fixtures.items()}
    path = tmp_path / "res.json"
    path.write_text(json.dumps({"kind": "stringy", "payload": payload}))
    argv = ["stringy", "--file", str(path), "--check-gm", "--d", "2"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["count_total = Q^2 + Q", "count_origin = Q + 1", "gm = True"]
    code, out = run_cli(capsys, *argv, "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["count_origin", "count_total", "gm"]
    assert ClassFunction.from_json(doc["count_origin"]) == Q + 1


def test_stringy_divergent_file(tmp_path, capsys):
    doc = {
        "dim": 2,
        "mode": "open",
        "horizontal": [{"c": "-1"}],
        "strata": {"[1]": (Q + 1).to_json()},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "stringy", "--file", str(path))
    assert code == 3
    assert "divergent" in out


def test_stringy_gm_needs_origin(tmp_path, capsys):
    data = builtin_resolution("a1_cone")["total"]
    path = tmp_path / "res.json"
    path.write_text(json.dumps(resolution_to_json(data)))
    code = run(["stringy", "--file", str(path), "--check-gm", "--d", "2"])
    assert code == 2
    assert "origin" in capsys.readouterr().err


def test_duality_pipeline_via_stdin(capsys, monkeypatch):
    code, piped = run_cli(
        capsys, "formula", "bhargava", "--n", "4", "--report", "json"
    )
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(piped))
    code, out = run_cli(capsys, "duality", "--mv", "-", "--mw", "-", "--d", "8")
    assert code == 0
    assert "strong = True" in out
    assert "weak = True" in out


def test_duality_failure_exit_code(tmp_path, capsys):
    mv = tmp_path / "mv.json"
    mw = tmp_path / "mw.json"
    mv.write_text(json.dumps(ClassFunction.constant(2).to_json()))
    mw.write_text(json.dumps((2 * Q).to_json()))
    code, out = run_cli(
        capsys, "duality", "--mv", str(mv), "--mw", str(mw), "--d", "4",
        "--report", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["strong"] is False and doc["weak"] is False
    residual = ClassFunction.from_json(doc["weak_residual"])
    assert residual == 2 * Q**4 - 2 * Q**3 - 2 * Q + 2


def test_duality_infinite_mass_exits_3(tmp_path, capsys):
    mv = tmp_path / "mv.json"
    mv.write_text(json.dumps({"mass_v": "infinite", "mass_w": "infinite"}))
    code, out = run_cli(
        capsys, "duality", "--mv", str(mv), "--mw", str(mv), "--d", "2"
    )
    assert code == 3
    assert "divergent" in out


def divergence_argv(tmp_path, which):
    if which == "profile":
        return ["profile", "--builtin", "quad_char2_sigma", "--n", "1"]
    if which == "stringy-pair":  # the total count is finite, the origin's meets c = -1
        payload = {"total": resolution_to_json(builtin_resolution("a1_cone")["total"])}
        payload["origin"] = {"dim": 2, "mode": "open", "horizontal": [{"c": "-1"}], "strata": {"[1]": (Q + 1).to_json()}}
        path = tmp_path / "origin.json"
        path.write_text(json.dumps({"kind": "stringy", "payload": payload}))
        return ["stringy", "--file", str(path), "--check-gm", "--d", "2"]
    if which == "stringy-least":  # divisor 1 is met by no stratum, 3 and 4 are both met
        cs = [{"c": c} for c in ("-2", "1/2", "-3/2", "-5/2")]
        strata = {"[2,3]": (Q + 1).to_json(), "[4]": Q.to_json()}
        path = tmp_path / "total.json"
        path.write_text(json.dumps({"dim": 2, "horizontal": cs, "strata": strata}))
        return ["stringy", "--file", str(path)]
    path = tmp_path / "masses.json"
    mass_v = "infinite" if which == "duality-both" else (Q + 1).to_json()
    path.write_text(json.dumps({"mass_v": mass_v, "mass_w": "infinite"}))
    return ["duality", "--mv", str(path), "--mw", str(path), "--d", "2"]


@pytest.mark.parametrize(
    "which, reason",
    [
        ("profile", "a geometric family has ratio exponent >= 0"),
        ("stringy-pair", "origin: divisor 1 (c = -1) is met by a nonzero stratum and has multiplicity <= -1"),
        ("stringy-least", "total: divisor 3 (c = -3/2) is met by a nonzero stratum and has multiplicity <= -1"),
        ("duality", "duality verdicts need finite masses: mass_w is infinite"),
        ("duality-both", "duality verdicts need finite masses: mass_v and mass_w are infinite"),
    ],
)
def test_divergence_prints_its_reason_and_exits_3(tmp_path, capsys, which, reason):
    argv = divergence_argv(tmp_path, which)
    assert run(argv) == 3
    assert capsys.readouterr() == (f"divergent = True\nreason = {reason}\n", "")
    assert run(argv + ["--report", "json"]) == 3
    assert capsys.readouterr() == (f'{{\n  "divergent": true,\n  "reason": "{reason}"\n}}\n', "")


def test_duality_strong_failure_alone_exits_0(tmp_path, capsys):
    # mass_v = 1, mass_w = Q^2 at d = 2: D(mass_w) != mass_v, but both sides of weak are 0
    mv, mw = tmp_path / "mv.json", tmp_path / "mw.json"
    mv.write_text(json.dumps(ClassFunction.constant(1).to_json()))
    mw.write_text(json.dumps((Q**2).to_json()))
    argv = ["duality", "--mv", str(mv), "--mw", str(mw), "--d", "2"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "strong = False",
        "weak = True",
        "dim = 2",
        "strong_residual = -1 + Q^-2",
        "weak_residual = 0",
    ]
    code, out = run_cli(capsys, *argv, "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["strong"], doc["weak"]) == (False, True)
    assert ClassFunction.from_json(doc["strong_residual"]) == Q**-2 - 1


def test_verify_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "partitions")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 2
    assert all(line.startswith("PASS") for line in lines)


def test_verify_suite_json(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "stringy", "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "stringy"
    assert all(entry["passed"] for entry in doc["results"])


def test_verify_reports_a_failed_requirement(capsys, monkeypatch):
    # the counts for n + 1 break the plane identity at the first n
    monkeypatch.setattr("massdual.verify.hilbert_counts", lambda n: hilbert_counts(n + 1))
    code, out = run_cli(capsys, "verify", "--suite", "partitions")
    assert code == 1
    assert "FAIL  mckay-hilbert identity  plane count at n=1" in out.splitlines()


def test_verify_reports_a_fixture_that_raises_and_runs_the_rest(capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("massdual.verify.gm_duality_check", boom)
    code = run(["verify", "--suite", "stringy"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        "FAIL  stringy fixtures  RuntimeError: boom",
        "PASS  Z/3 end to end    tame masses match the resolution count at d=2",
    ]
    assert "Traceback" not in captured.err


def test_usage_errors_exit_2(capsys):
    assert run(["formula", "bhargava"]) == 2  # missing --n
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["verify", "--suite", "bogus"]) == 2
    capsys.readouterr()
    assert run(["profile", "--builtin", "quad_char0_sigma"]) == 2  # missing n
    capsys.readouterr()
    assert run(["tame", "--group", "/nonexistent.json", "--q", "3"]) == 2
    capsys.readouterr()


def test_one_parser_serves_every_run_in_a_process(capsys):
    # verify calls run() again and again in process; a usage error in between changes nothing
    argv = ["formula", "bhargava", "--n", "3"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(["formula", "bhargava"]) == 2
    assert capsys.readouterr().err.startswith("usage: massdual formula")
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "massdual.cli", "formula", "bhargava", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mass_v = 1 + Q^-1" in proc.stdout


def run_fresh(*argv):
    """The CLI in a new interpreter, so no cache is warm."""
    return subprocess.run(
        [sys.executable, "-m", "massdual.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_an_unwritable_stdout_exits_2_in_a_fresh_process():
    # the print's OSError ended in a traceback and exit 1; left on fd 1, the flush at exit would fail again (exit 120)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "massdual.cli", "formula", "bhargava", "--n", "3"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write the report: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv, full_stdout",
    [
        pytest.param("formula bhargava", False, id="missing-n"),
        pytest.param("formula bhargava --n x", False, id="invalid-n"),
        pytest.param("formula bhargava --n 3", True, id="stdout-too"),
    ],
)
def test_an_unwritable_stderr_keeps_exit_2_in_a_fresh_process(argv, full_stdout):
    # an error text that cannot be written must not turn exit 2 into a traceback's exit 1
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "massdual.cli", *argv.split()],
            stdout=full if full_stdout else subprocess.PIPE,
            stderr=full,
            timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stdout in (None, b"")


def test_the_cli_under_cprofile_prints_the_report_and_the_profile():
    # main ends through SystemExit, so the profiler's report follows the request's (os._exit would drop it)
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "massdual.cli", "formula", "bhargava", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "strong = True" in proc.stdout and "function calls" in proc.stdout


def test_only_main_freezes_the_heap():
    # run also serves in process, whose heap stays collectable; main freezes it once the report is out
    before = gc.get_freeze_count()
    assert run(["formula", "bhargava", "--n", "3"]) == 0
    assert gc.get_freeze_count() == before
    probe = "import gc\nfrom massdual import cli\ntry:\n    cli.main()\nexcept SystemExit as exc:\n    print(exc.code, gc.get_freeze_count() > 0)"
    proc = subprocess.run(
        [sys.executable, "-c", probe, "formula", "bhargava", "--n", "3"], capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.splitlines()[-1] == "0 True", proc.stderr


def test_bhargava_large_n_in_a_fresh_process():
    proc = run_fresh("formula", "bhargava", "--n", "500", "--report", "json")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert MassPair.from_json(json.loads(proc.stdout)) == bhargava_masses(500)


@pytest.mark.parametrize(
    "formula,head", [("bhargava", "mass_v = 1 + Q^-1 + "), ("kedlaya", "mass_v = 1 + ")], ids=["bhargava", "kedlaya"]
)
def test_partition_formula_6000_in_linear_memory_in_a_fresh_process(formula, head):
    # the n^2/2 table of P(m, k) needed about 1 GB here and ended in a MemoryError traceback
    resource = pytest.importorskip("resource")
    limit = 500 * 2**20

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "massdual.cli", "formula", formula, "--n", "6000"],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(head) and proc.stdout.endswith("strong = True\n")


def test_a_geometric_sum_past_the_term_cap_is_refused_in_a_fresh_process(tmp_path):
    # one dict entry per term: 10^8 of them got the process killed at 7.6 GB without a limit
    resource = pytest.importorskip("resource")
    limit = 2**30

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    doc = profile_to_json(builtin_profile("quad_char2_sigma", n=3))
    doc["strata"] = doc["strata"][:1]
    doc["families"][0].update(i0=1, i1=10**8)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "massdual.cli", "profile", "--file", str(path)],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and str(MAX_SUM_TERMS) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_running_out_of_memory_is_an_input_error(capsys, monkeypatch):
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr("massdual.massengine.bhargava_masses", exhausted)
    assert run(["formula", "bhargava", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: input too large to compute: out of memory\n"
    # a list of 10^20 entries is refused before any allocation
    assert run(["formula", "hilbert", "--n", str(10**20)]) == 2
    assert capsys.readouterr().err.startswith("error: input too large to compute: ")


@pytest.mark.parametrize(
    "argv, read, code",
    [
        # 230 kB of JSON, more than a pipe holds: the reader leaves mid-write
        pytest.param("profile --builtin quad_char2_sigma --n 1000 --report json", 10, 0, id="1000-10-0"),
        # divergent: the pipe is closed before the report is written
        pytest.param("profile --builtin quad_char2_sigma --n 1 --report json", 0, 3, id="1-0-3"),
        # the README's `massdual ... | head -c 10` on 120 kB of text
        pytest.param("formula hilbert --n 1500", 10, 0, id="hilbert-10-0"),
    ],
)
def test_a_reader_that_closes_the_pipe_keeps_the_exit_code(argv, read, code):
    proc = subprocess.Popen(
        [sys.executable, "-m", "massdual.cli", *argv.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    assert proc.wait(timeout=120) == code
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_a_closed_stratum_on_18_divisors_in_a_fresh_process(tmp_path):
    # converting closed strata to open ones walked all 2^18 subsets of the key and did
    # not finish in 120 s; the count is the stratum's times each closed factor f_j - 1
    cs = [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(2), Fraction(1)] * 3
    count = Q**2 + 1
    data = ResolutionData(dim=18, horizontal=cs, strata={frozenset(range(1, 19)): count}, mode="closed")
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(resolution_to_json(data)))
    proc = run_fresh("stringy", "--file", str(path), "--report", "json")
    assert proc.returncode == 0, proc.stderr
    expected = count
    for c in cs:
        expected = expected * ((Q - 1) / (ClassFunction.monomial(1 + c) - 1) - 1)
    assert ClassFunction.from_json(json.loads(proc.stdout)["count_total"]) == expected


def test_a_dense_lattice_on_8_divisors_in_a_fresh_process(tmp_path):
    # all 256 open strata on 8 divisors: adding each stratum to one running total reduced
    # every sum against the product of all 8 denominators, 43-53 s on a 2-vCPU VM; a hang
    # detector with no time assert, as run_fresh's timeout ends a stall
    cs = [Fraction(-1, 2), Fraction(-2, 3), Fraction(1, 2), Fraction(1, 3)]
    cs += [Fraction(-1, 6), Fraction(2, 5), Fraction(-3, 4), Fraction(1, 7)]
    keys = [frozenset(s) for k in range(9) for s in itertools.combinations(range(1, 9), k)]
    signs = [1, -2, 3, -1, 2, -3]
    polys = {key: {i % 3: signs[i % 6], i % 3 + 1: signs[(i + 1) % 6]} for i, key in enumerate(keys)}
    data = ResolutionData(dim=8, horizontal=cs, strata={key: ClassFunction.poly(p) for key, p in polys.items()})
    path = tmp_path / "dense8.json"
    path.write_text(json.dumps(resolution_to_json(data)))
    proc = run_fresh("stringy", "--file", str(path), "--report", "json")
    assert proc.returncode == 0, proc.stderr
    # at q0 = 2^N, with N the lcm of the exponents' denominators, every Q^(1+c_j) is an integer
    n = math.lcm(*(c.denominator for c in cs))
    q0 = 2**n
    expected = Fraction(0)
    for key, p in polys.items():
        term = Fraction(sum(c * q0**e for e, c in p.items()))
        for j in key:
            term *= Fraction(q0 - 1, 2 ** (n * (1 + cs[j - 1])) - 1)
        expected += term
    assert ClassFunction.from_json(json.loads(proc.stdout)["count_total"]).eval(q0, 1) == expected


def test_eval_at_q0_beyond_float_range():
    q0 = str(2**2001)
    proc = run_fresh("profile", "--builtin", "quad_char0_sigma", "--n", "1", "--eval", q0, "1")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_exact_eval_past_the_size_cap_exits_2_in_a_fresh_process():
    # 4 = 2^2 keeps Q^(1/2) rational: the value would have about 1.5*10^11 digits
    proc = run_fresh("profile", "--builtin", "quad_char0_sigma", "--n", "1", "--eval", "4", "1000000000001")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: the exact value at q0=4, r0=1000000000001 would exceed")
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_exact_eval_past_4300_digits_prints_the_value(capsys):
    # 4^(100000/2) has 60 206 digits, past the default int-to-str limit
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "profile", "--builtin", "quad_char0_sigma", "--n", "1", "--eval", "4", "100000")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # lifted only while printing
    masses = profile_total_masses(builtin_profile("quad_char0_sigma", n=1))
    sys.set_int_max_str_digits(0)
    try:
        expected = [f"{key}(4,100000) = {m.eval(4, 100000)}" for key, m in masses._asdict().items()]
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.splitlines()[2:] == expected
    assert all(len(line) > 4300 for line in expected)


NINES = int("9" * 4300)  # the longest int that str() prints under the default int-to-str limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()  # as the session began: a run that left it lifted shows


@pytest.mark.parametrize("report", ["text", "json"])
def test_residuals_past_4300_digits_print_in_full(tmp_path, capsys, report):
    # v = 10^4300 - 1 and w = -v: strong = -2v and weak = 4v, of 4301 digits each (exit 2 once, on the limit)
    for name, c in (("v", NINES), ("w", -NINES)):
        (tmp_path / f"{name}.json").write_text(json.dumps(ClassFunction.constant(c).to_json()))
    argv = ["duality", "--mv", str(tmp_path / "v.json"), "--mw", str(tmp_path / "w.json"), "--d", "0"]
    code, out = run_cli(capsys, *argv, "--report", report)
    assert code == 1
    assert getattr(sys, "get_int_max_str_digits", int)() == DIGIT_LIMIT
    if report == "json":
        doc = json.loads(out)
        residuals = [doc[key]["classes"][0]["num"][0][0] for key in ("strong_residual", "weak_residual")]
    else:
        residuals = [line.partition(" = ")[2] for line in out.splitlines() if "_residual = " in line]
    assert residuals == ["-1" + "9" * 4299 + "8", "3" + "9" * 4299 + "6"]


def test_a_refused_eval_leaves_the_digit_limit_as_it_was(capsys):
    assert run(["profile", "--builtin", "quad_char0_sigma", "--n", "1", "--eval", "4", "1000000000001"]) == 2
    assert capsys.readouterr().err.startswith("error: the exact value at q0=4")
    assert getattr(sys, "get_int_max_str_digits", int)() == DIGIT_LIMIT


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("report", ["text", "json"])
def test_an_eval_point_past_4300_digits_prints_in_full(report):
    # q0 = 10^4300 has 4301 digits: _frac admits it, and its key mass_v(Q0,R0) exited 2 on the limit
    code, lines = cli._run(["formula", "kedlaya", "--n", "1", "--eval", "1e4300", "1", "--report", report])
    assert code == 0
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT
    q0, q1 = "1" + "0" * 4300, "1" + "0" * 4299 + "1"  # kedlaya n = 1: mass_v = 1 + Q^-1, mass_w = Q + 1
    expected = {f"mass_v({q0},1)": f"{q1}/{q0}", f"mass_w({q0},1)": q1}
    if report == "json":
        assert {key: val for key, val in json.loads(lines[0]).items() if "(" in key} == expected
    else:
        assert lines[3:] == [f"{key} = {val}" for key, val in expected.items()]


@pytest.mark.parametrize(
    "argv, code, first",
    [
        (["formula", "kedlaya", "--n", "1"], 0, "mass_v = 1 + Q^-1"),
        (["verify", "--suite", "partitions"], 0, "PASS  bhargava reproduction"),
        (["--help"], 0, "usage: massdual [-h]"),
        (["formula", "bhargava"], 2, None),  # a usage error: no report, its text on stderr
    ],
    ids=["formula", "verify", "help", "usage-error"],
)
def test_the_report_is_a_value_that_only_run_prints(capsys, argv, code, first):
    got, lines = cli._run(argv)
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    if first is None:
        assert lines == [] and err.startswith("usage: massdual formula ")
    else:
        assert lines[0].startswith(first) and err == ""
        assert run(argv) == code
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_eval_with_a_root_of_order_100000007_in_a_fresh_process(tmp_path):
    # the exact branch tries q0^(1/100000007) as an integer root first
    profile = {"group_order": 1, "strata": [{"count": Q.to_json(), "v": "1/100000007", "w": "0"}]}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    proc = run_fresh("profile", "--file", str(path), "--eval", "2", "1")
    assert proc.returncode == 0, proc.stderr
    assert "mass_v(2,1) = 1.9999999861370574072523732216303109218435003667453\n" in proc.stdout


def test_large_finite_family_in_a_fresh_process():
    # a finite family of m strata is one geometric sum, linear in m
    proc = run_fresh(
        "profile", "--builtin", "quad_char2_upsilon", "--n", "2", "--m", "20000", "--report", "json"
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_fraction_exponent_in_json_is_a_usage_error(tmp_path):
    # exponents are integers in units of 1/root_order, as to_json writes them
    doc = {"modulus": 1, "root_order": 2, "classes": [{"num": [["1", "1/2"]], "den": [["1", 0]]}]}
    path = tmp_path / "mass.json"
    path.write_text(json.dumps(doc))
    proc = run_fresh("duality", "--mv", str(path), "--mw", str(path), "--d", "2")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


def test_inconsistent_group_matrices_exit_2_in_a_fresh_process(tmp_path):
    # a swap of two points cannot act on a line by a primitive cube root of unity
    doc = {
        "degree": 2,
        "generators": [[[1, 2]]],
        "rep": {"dim": 1, "root_order": 3, "matrices": [{"perm": [1], "exps": [1]}]},
    }
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    proc = run_fresh("tame", "--group", str(path), "--q", "5")
    assert proc.returncode == 2
    assert proc.stderr == "error: --group: two words for one element got different matrices\n"


FILE = "<input file>"  # stands for the path the test writes the document to


def one_class(num, den) -> dict:
    return {"modulus": 1, "root_order": 1, "classes": [{"num": num, "den": den}]}


def family_profile(v_exp, w_exp, **fields) -> dict:
    family = {
        "i0": 1,
        "i1": None,
        "coeff": ClassFunction.constant(1).to_json(),
        "count_exp": ["1", "-1"],
        "v_exp": v_exp,
        "w_exp": w_exp,
        **fields,
    }
    return {"group_order": 1, "strata": [], "families": [family]}


def z2_group(degree=2, cycle=(1, 2), exps=(1,)) -> dict:
    """Z/2 swapping two points and acting by -1 on a line."""
    matrix = {"perm": [1], "exps": list(exps)}
    return {
        "degree": degree,
        "generators": [[list(cycle)]],
        "rep": {"dim": 1, "root_order": 2, "matrices": [matrix]},
    }


STRATA = {"[]": (Q**2).to_json(), "[1]": (Q + 1).to_json()}
DUALITY = ("duality", "--mv", FILE, "--mw", FILE, "--d", "2")
TAME = ("tame", "--group", FILE, "--q", "3")
EVAL_SQRT2 = ("profile", "--builtin", "quad_char0_sigma", "--n", "1", "--eval", "2", "1")
INT_ARGUMENT = "int() argument must be a string, a bytes-like object or a real number,"
# the start of stderr where a case checks more than the "error:" prefix
ERROR_TEXT = {
    "empty-den": "error: --mv: classes[0].den: zero denominator\n",
    "zero-den": "error: --mv: classes[0].den: zero denominator\n",
    "coefficient-1/0": "error: --mv: classes[0].num[0]: Fraction(1, 0)\n",
    "exponent-1.7": "error: --mv: classes[0].num[0]: expected an integer, got 1.7\n",
    "exponent-true": "error: --mv: classes[0].num[0]: expected an integer, got True\n",
    # Python's text names the JSON type of the value, not the traced copy the loader read
    "exponent-{}": f"error: --mv: classes[0].num[0]: {INT_ARGUMENT} not 'dict'\n",
    "exponent-[]": f"error: --mv: classes[0].num[0]: {INT_ARGUMENT} not 'list'\n",
    "root_order-2.9": "error: --mv: root_order: expected an integer, got 2.9\n",
    "modulus-1.0": "error: --mv: modulus: expected an integer, got 1.0\n",
    "v_exp-1/0": "error: --file: families[0].v_exp[0]: Fraction(1, 0)\n",
    "stringy-c-1/0": "error: --file: horizontal[0].c: Fraction(1, 0)\n",
    "nested-200000-deep": "error: --mv: maximum recursion depth exceeded",
    "group_order-1.9": "error: --file: group_order: expected an integer, got 1.9\n",
    "exps-true": "error: --group: rep.matrices[0].exps[0]: expected an integer, got True\n",
    "degree-2.5": "error: --group: degree: expected an integer, got 2.5\n",
    "cycle-point-2.2": "error: --group: generators[0][0][1]: expected an integer, got 2.2\n",
    "cycles-that-meet": "error: --group: generators[0][1]: cycles are not disjoint\n",
    "cycle-met-twice": "error: --group: generators[0][1]: cycles are not disjoint\n",
    "point-twice-in-a-cycle": "error: --group: generators[0][0]: cycles are not disjoint\n",
    "dim-2.9": "error: --file: dim: expected an integer, got 2.9\n",
    "stratum-key-1.7": 'error: --file: strata["[1.7]"]: expected an integer, got 1.7\n',
    "missing-classes": "error: --mv: missing key 'classes'\n",
    "class-count": "error: --mv: mass_v.classes: need exactly one class entry per residue class\n",
    "modulus--1": "error: --mv: mass_v.modulus: modulus and root_order must be positive\n",
    "root_order-0": "error: --mv: mass_v.root_order: modulus and root_order must be positive\n",
    "dim-0": "error: --file: dim: dim must be a positive integer\n",
    "stringy-c-0": "error: --file: horizontal[0].c: divisors with multiplicity 0 must be dropped\n",
    "i1-below-i0": "error: --file: families[0].i1: family range is empty",
    # the check is on the whole count, so the error names the count, not the classes read last inside it
    "negative-count": "error: --file: strata[0].count: stratum count is negative at q0=2, r0=1\n",
    "GML_PRECISION-0": "error: GML_PRECISION",
    "GML_PRECISION--5": "error: GML_PRECISION",
    "GML_PRECISION-7.5": "error: GML_PRECISION",
    "eval-beyond-decimal-exponent-range": "error: the value at q0=2, r0=1000000000000000000000000000001 is",
    # int() refuses an exponent of over 4300 digits itself, with a text that does not name the value
    "eval-exponent-of-5000-digits": "error: '1e999",
    "vertical-a-1/0": "error: --file: vertical[0].a: Fraction(1, 0)\n",
    # a document whose arrays and objects are of the wrong JSON type: once a traceback or a misreading
    "profile-list": "error: --file: expected a JSON object, got list\n",
    "profile-string": "error: --file: expected a JSON object, got str\n",
    "stringy-strata-list": "error: --file: strata: expected a JSON object, got list\n",
    "num-pair-string": "error: --mv: classes[0].num[1]: expected a JSON array, got str\n",
    "stratum-key-string": 'error: --file: strata["\\"12\\""]: expected a JSON array, got str\n',
    "stratum-key-object": 'error: --file: strata["{\\"1\\":0,\\"2\\":5}"]: expected a JSON array, got dict\n',
    "cycle-string": "error: --group: generators[0][0]: expected a JSON array, got str\n",
    "perm-string": "error: --group: rep.matrices[0].perm: expected a JSON array, got str\n",
}


@pytest.mark.parametrize(
    "argv, doc",
    [
        pytest.param(DUALITY, one_class([["1", 0]], []), id="empty-den"),
        pytest.param(DUALITY, one_class([["1", 0]], [["0", 0]]), id="zero-den"),
        pytest.param(DUALITY, one_class([["1/0", 0]], [["1", 0]]), id="coefficient-1/0"),
        # int() would truncate these: exponent 1.7 read as Q, root_order 2.9 as 2
        pytest.param(DUALITY, one_class([["1", 1.7]], [["1", 0]]), id="exponent-1.7"),
        pytest.param(DUALITY, one_class([["1", True]], [["1", 0]]), id="exponent-true"),
        pytest.param(DUALITY, one_class([["1", {}]], [["1", 0]]), id="exponent-{}"),
        pytest.param(DUALITY, one_class([["1", []]], [["1", 0]]), id="exponent-[]"),
        pytest.param(
            DUALITY, {**one_class([["1", 1]], [["1", 0]]), "root_order": 2.9}, id="root_order-2.9"
        ),
        pytest.param(
            DUALITY, {**one_class([["1", 1]], [["1", 0]]), "modulus": 1.0}, id="modulus-1.0"
        ),
        pytest.param(
            ("profile", "--file", FILE), family_profile(["1/0", "0"], ["0", "0"]), id="v_exp-1/0"
        ),
        pytest.param(
            ("stringy", "--file", FILE),
            {"dim": 2, "horizontal": [{"c": "1/0"}], "strata": {}},
            id="stringy-c-1/0",
        ),
        pytest.param(("formula", "bhargava", "--n", "3", "--eval", "1/0", "1"), None, id="eval-1/0"),
        pytest.param(DUALITY, "[" * 200_000 + "]" * 200_000, id="nested-200000-deep"),
        # every loader refuses what int() would truncate: 1.9 read as |G| = 1, and so on
        pytest.param(
            ("profile", "--file", FILE),
            {"group_order": 1.9, "strata": [{"count": (Q + 1).to_json(), "v": "1/2", "w": "0"}]},
            id="group_order-1.9",
        ),
        pytest.param(TAME, z2_group(exps=[True]), id="exps-true"),
        pytest.param(TAME, z2_group(degree=2.5), id="degree-2.5"),
        pytest.param(TAME, z2_group(cycle=[1, 2.2]), id="cycle-point-2.2"),
        # a point met twice used to pass: the first two as a transposition, which
        # printed masses with exit 0, and [[1, 1]] as the identity
        pytest.param(TAME, {**z2_group(), "generators": [[[1, 2], [2, 1]]]}, id="cycles-that-meet"),
        pytest.param(TAME, {**z2_group(), "generators": [[[1, 2], [1, 2]]]}, id="cycle-met-twice"),
        pytest.param(TAME, {**z2_group(), "generators": [[[1, 1]]]}, id="point-twice-in-a-cycle"),
        pytest.param(
            ("stringy", "--file", FILE),
            {"dim": 2.9, "horizontal": [{"c": "1/2"}], "strata": STRATA},
            id="dim-2.9",
        ),
        pytest.param(
            ("stringy", "--file", FILE),
            {"dim": 2, "horizontal": [{"c": "1/2"}], "strata": {"[1.7]": (Q + 1).to_json()}},
            id="stratum-key-1.7",
        ),
        pytest.param(
            ("stringy", "--builtin", "a1_cone", "--check-poincare"), None, id="check-poincare-no-d"
        ),
        pytest.param(("stringy", "--builtin", "a1_cone", "--check-gm"), None, id="check-gm-no-d"),
        pytest.param(DUALITY, {"modulus": 1, "root_order": 1}, id="missing-classes"),
        # the count of classes is checked against modulus once classes is read
        pytest.param(
            DUALITY,
            {
                "mass_v": {**one_class([["1", 0]], [["1", 0]]), "modulus": 2},
                "mass_w": one_class([["1", 0]], [["1", 0]]),
            },
            id="class-count",
        ),
        # modulus and root_order are checked where each is read, so the error names the right one
        pytest.param(
            DUALITY,
            {
                "mass_v": {**one_class([["1", 0]], [["1", 0]]), "modulus": -1},
                "mass_w": one_class([["1", 0]], [["1", 0]]),
            },
            id="modulus--1",
        ),
        pytest.param(
            DUALITY,
            {
                "mass_v": {**one_class([["1", 0]], [["1", 0]]), "root_order": 0},
                "mass_w": one_class([["1", 0]], [["1", 0]]),
            },
            id="root_order-0",
        ),
        # each record's checks run where the checked value is read, so the error names it
        pytest.param(
            ("stringy", "--file", FILE), {"dim": 0, "horizontal": [{"c": "1/2"}], "strata": {}}, id="dim-0"
        ),
        pytest.param(
            ("stringy", "--file", FILE), {"dim": 2, "horizontal": [{"c": "0"}], "strata": STRATA}, id="stringy-c-0"
        ),
        pytest.param(
            ("profile", "--file", FILE),
            family_profile(["-1", "0"], ["0", "0"], i0=3, i1=1),
            id="i1-below-i0",
        ),
        pytest.param(
            ("profile", "--file", FILE),
            {"group_order": 1, "strata": [{"count": (-Q - 1).to_json(), "v": "1/2", "w": "0"}]},
            id="negative-count",
        ),
        # a leading NAME=value sets that environment variable, as in a shell
        pytest.param(("GML_PRECISION=0", *EVAL_SQRT2), None, id="GML_PRECISION-0"),
        pytest.param(("GML_PRECISION=-5", *EVAL_SQRT2), None, id="GML_PRECISION--5"),
        pytest.param(("GML_PRECISION=7.5", *EVAL_SQRT2), None, id="GML_PRECISION-7.5"),
        pytest.param(
            (*EVAL_SQRT2[:-1], str(10**30 + 1)), None, id="eval-beyond-decimal-exponent-range"
        ),
        pytest.param(
            (*EVAL_SQRT2[:-2], "1e" + "9" * 5000, "1"),
            None,
            id="eval-exponent-of-5000-digits",
            marks=pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no digit limit"),
        ),
        pytest.param(
            ("stringy", "--file", FILE),
            {"dim": 2, "strata": STRATA, "vertical": [{"a": "1/0", "strata": {"[1]": Q.to_json()}}]},
            id="vertical-a-1/0",
        ),
        # AttributeError tracebacks with exit 1: .get on a list or a string, .items on a list
        pytest.param(("profile", "--file", FILE), [1], id="profile-list"),
        pytest.param(("profile", "--file", FILE), '"x"', id="profile-string"),
        pytest.param(("stringy", "--file", FILE), {"dim": 1, "strata": []}, id="stringy-strata-list"),
        # exit 0 on a misreading: the string "32" as the pair ("3", "2"), that is 3*Q^2
        pytest.param(DUALITY, one_class([["1", 0], "32"], [["1", 0]]), id="num-pair-string"),
        # the key "12" and the key {"1": 0, "2": 5} both read as the divisors {1, 2}
        pytest.param(
            ("stringy", "--file", FILE),
            {"dim": 2, "horizontal": [{"c": "1/2"}, {"c": "1/2"}], "strata": {'"12"': Q.to_json()}},
            id="stratum-key-string",
        ),
        pytest.param(
            ("stringy", "--file", FILE),
            {"dim": 2, "horizontal": [{"c": "1/2"}, {"c": "1/2"}], "strata": {'{"1":0,"2":5}': Q.to_json()}},
            id="stratum-key-object",
        ),
        # the cycle "123" read as (1 2 3), the perm "1" as [1]: a tame group accepted
        pytest.param(
            ("tame", "--group", FILE, "--q", "5"),
            {"degree": 3, "generators": [["123"]],
             "rep": {"dim": 1, "root_order": 1, "matrices": [{"perm": "1", "exps": [0]}]}},
            id="cycle-string",
        ),
        pytest.param(
            TAME, {**z2_group(), "rep": {"dim": 1, "root_order": 2, "matrices": [{"perm": "1", "exps": [1]}]}},
            id="perm-string",
        ),
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, monkeypatch, request, argv, doc):
    path = tmp_path / "input.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    assert run([str(path) if a == FILE else a for a in argv]) == 2
    assert capsys.readouterr().err.startswith(ERROR_TEXT.get(request.node.callspec.id, "error:"))


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str limit")
@pytest.mark.parametrize(
    "argv, doc",
    [
        pytest.param(("formula", "bhargava", "--n", "2", "--eval", "1e10000000", "1"), None, id="eval"),
        pytest.param(DUALITY, one_class([["1e10000000", 0]], [["1", 0]]), id="duality-coefficient"),
        pytest.param(
            ("stringy", "--file", FILE),
            {"dim": 2, "horizontal": [{"c": "1e10000000"}], "strata": STRATA},
            id="stringy-c",
        ),
    ],
)
def test_a_decimal_exponent_past_the_digit_limit_exits_2_in_a_fresh_process(tmp_path, argv, doc):
    # Fraction("1e10000000") builds 10^(10^7) itself: about 11 s, then exit 2 on the digit limit
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    proc = run_fresh(*(str(path) if a == FILE else a for a in argv))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "'1e10000000': a decimal exponent beyond" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_refused_document_is_loaded_once(tmp_path, capsys, monkeypatch):
    # the path in the error line is the trail of the one load, so a slow refusal is paid once
    calls = []

    def counted(doc):
        calls.append(doc)
        return profile_from_json(doc)

    monkeypatch.setattr("massdual.massengine.profile_from_json", counted)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"group_order": 1, "strata": [{"count": (-Q - 1).to_json(), "v": "1/2", "w": "0"}]}))
    assert run(["profile", "--file", str(path)]) == 2
    assert len(calls) == 1
    assert capsys.readouterr().err == "error: --file: strata[0].count: stratum count is negative at q0=2, r0=1\n"


def reachable(root):
    """Every object reachable from root through record fields, dicts, lists, tuples and sets."""
    seen, todo = set(), [root]
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen.add(id(x))
            yield x
            if isinstance(x, dict):
                todo += [*x.keys(), *x.values()]
            elif isinstance(x, (list, tuple, set, frozenset)):
                todo += x
            else:
                todo += [getattr(x, name) for name in getattr(type(x), "__slots__", ()) if hasattr(x, name)]
                todo += vars(x).values() if hasattr(x, "__dict__") else ()


def mass_side(doc):
    """The duality loader of --mv: a bare mass, or the mass_v side of a MassPair document."""
    return mass_from_json(doc["mass_v"] if "mass_v" in doc else doc)


Z3 = (perm_from_cycles(3, [[1, 2, 3]]), MonomialMatrix((0, 1), (1, 1), 3))
# a document of each kind and the loader the CLI gives it
LOADS = {
    "tame": ({"kind": "tame", "payload": group_to_json(*group_closure([Z3[0]], [Z3[1]]))},
             lambda d: group_from_json(cli._payload(d, "tame"))),
    "profile": (profile_to_json(builtin_profile("quad_char2_sigma", n=3)),
                lambda d: profile_from_json(cli._payload(d, "profile"))),
    "stringy": ({role: resolution_to_json(data) for role, data in builtin_resolution("a1_cone").items()},
                cli._resolutions_from_json),
    "mass-pair": (bhargava_masses(3).to_json(), mass_side),
    "bare-mass": (kedlaya_masses(2).mass_w.to_json(), mass_side),
}


@pytest.mark.parametrize("kind", LOADS)
def test_a_document_that_loads_gives_what_its_loader_gives(kind):
    # the CLI reads every document over traced copies, whose types must not reach the result
    doc, loader = LOADS[kind]
    got, want = cli._load("--file", json.dumps(doc), loader), loader(json.loads(json.dumps(doc)))
    assert [type(x) for x in reachable(got) if isinstance(x, (dict, list)) and type(x) not in (dict, list)] == []
    if kind == "tame":  # a group and its representation compare by their elements and matrices
        got, want = ([(g, rep.matrix(g)) for g in group.elements] for group, rep in (got, want))
    assert got == want


def test_integer_strings_are_accepted_in_every_loader(tmp_path, capsys):
    profile = family_profile(["-1", "0"], ["0", "0"])
    profile["families"][0]["i1"] = 3
    cases = [
        (TAME, z2_group()),
        (("profile", "--file", FILE), profile),
        (("stringy", "--file", FILE), {"dim": 2, "horizontal": [{"c": "1/2"}], "strata": STRATA}),
    ]
    path = tmp_path / "input.json"
    for argv, doc in cases:
        outputs = []
        for variant in (doc, json.loads(json.dumps(doc), parse_int=str)):
            path.write_text(json.dumps(variant))
            outputs.append(run_cli(capsys, *[str(path) if a == FILE else a for a in argv]))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]


def test_deeply_nested_json_in_a_fresh_process_has_no_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    proc = run_fresh("duality", "--mv", str(path), "--mw", str(path), "--d", "2")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


def test_one_sided_divergent_profile_file_exits_3(tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(family_profile(["2", "0"], ["0", "0"])))
    code, out = run_cli(capsys, "profile", "--file", str(path), "--report", "json")
    assert code == 3
    assert json.loads(out)["divergent"] is True


# bounded random documents: mostly well formed, with about one value in twenty
# (hypothesis draws the bound 0 of 0..29 more often than uniformly) replaced by
# a bad type, a float, a bool, an empty list, or a "0" or "1/0" string
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-4, 4, width=16),
    st.sampled_from(["", "0", "1/0", "1/2", "x", "infinite"]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.just({}),
)
_fracs = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "2"])


def _rare(draw):
    return draw(st.integers(0, 29)) == 0


def _pick(draw, valid, noisy=True):
    return draw(_junk) if noisy and _rare(draw) else draw(valid)


def _mass(draw, span, noisy=True):
    """A mass document with numerator exponents |e| <= span."""

    def side(least, span):
        coeff = st.sampled_from(["1", "-2", "3/4", "0", 5])
        terms = draw(st.integers(least, 4))
        exps = st.integers(-span, span)
        pairs = [[_pick(draw, coeff, noisy), _pick(draw, exps, noisy)] for _ in range(terms)]
        return _pick(draw, st.just(pairs), noisy)

    # denominators as wide as numerators: the residuals multiply four of
    # them, which the gcd over Z reduces in milliseconds
    classes = [{"num": side(0, span), "den": side(1, 50)} for _ in range(draw(st.integers(1, 3)))]
    doc = {
        "modulus": _pick(draw, st.just(len(classes)), noisy),
        "root_order": _pick(draw, st.integers(1, 4), noisy),
    }
    doc["classes"] = _pick(draw, st.just(classes), noisy)
    for key in list(doc) + ["num", "den"]:
        if noisy and _rare(draw):  # a missing key
            (classes[0] if key in ("num", "den") else doc).pop(key)
    return _pick(draw, st.just(doc), noisy)


@st.composite
def mass_documents(draw):
    shape = draw(st.sampled_from(["bare", "pair", "infinite"]))
    if shape == "infinite":
        return {"mass_v": "infinite", "mass_w": _mass(draw, 50)}
    if shape == "bare":
        return _mass(draw, 50)
    return {"mass_v": _mass(draw, 50), "mass_w": _mass(draw, 50)}


def loader_error(load, doc):
    """The error text the CLI prints after its prefix when load(doc) raises, else None."""
    try:
        load(json.loads(json.dumps(doc)))
    except (MassdualError, KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return None


def assert_names_the_culprit(code, err, option, text):
    """A document the loader refuses exits 2 with "error: <option>: [<JSON path>: ]<text>"."""
    assert code == 2
    assert err.startswith(f"error: {option}: ") and err.endswith(f"{text}\n"), (err, text)


@given(mv=mass_documents(), mw=mass_documents(), d=st.integers(-3, 6))
@settings(max_examples=150, deadline=None)
def test_fuzz_duality_documents_end_in_a_documented_exit_code(tmp_path_factory, mv, mw, d):
    tmp = tmp_path_factory.mktemp("fuzz")
    mv_path, mw_path = tmp / "mv.json", tmp / "mw.json"
    mv_path.write_text(json.dumps(mv))
    mw_path.write_text(json.dumps(mw))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(["duality", "--mv", str(mv_path), "--mw", str(mw_path), "--d", str(d)])
    assert code in (0, 1, 2, 3)
    for option, doc, field in (("--mv", mv, "mass_v"), ("--mw", mw, "mass_w")):
        text = loader_error(lambda m: mass_from_json(m[field] if field in m else m), doc)
        if text is not None:
            assert_names_the_culprit(code, err.getvalue(), option, text)
            break


@st.composite
def profile_cases(draw):
    # these documents hold more values than a mass, so half of them hold no junk
    noisy = draw(st.booleans())

    def pick(valid):
        return _pick(draw, valid, noisy)

    def frac_pair():
        return [pick(_fracs), pick(_fracs)]

    def family():
        return {
            "i0": pick(st.integers(-3, 3)),
            "i1": pick(st.none() | st.integers(-3, 6)),
            "coeff": _mass(draw, 20, noisy),
            "count_exp": frac_pair(),
            "v_exp": frac_pair(),
            "w_exp": frac_pair(),
        }

    strata = [
        {"count": _mass(draw, 20, noisy), "v": pick(_fracs), "w": pick(_fracs)}
        for _ in range(draw(st.integers(0, 2)))
    ]
    families = [family() for _ in range(draw(st.integers(0, 2)))]
    doc = {
        "group_order": pick(st.integers(-1, 4)),
        "strata": pick(st.just(strata)),
        "families": pick(st.just(families)),
    }
    return ("profile", "--file", FILE), doc


@st.composite
def stringy_cases(draw):
    # these documents hold more values than a mass, so half of them hold no junk
    noisy = draw(st.booleans())

    def pick(valid):
        return _pick(draw, valid, noisy)

    def key():
        if noisy and _rare(draw):
            return draw(st.sampled_from(["[1.7]", "[true]", "[null]", "x", "1", "{}"]))
        return json.dumps(sorted(draw(st.lists(st.integers(1, 3), unique=True, max_size=3))))

    divisors = [{"c": pick(_fracs)} for _ in range(draw(st.integers(0, 3)))]
    doc = {
        "dim": pick(st.integers(-1, 4)),
        "mode": pick(st.sampled_from(["open", "closed"])),
        "horizontal": pick(st.just(divisors)),
        "strata": {key(): _mass(draw, 20, noisy) for _ in range(draw(st.integers(0, 3)))},
    }
    return ("stringy", "--file", FILE), doc


@st.composite
def tame_cases(draw):
    # these documents hold more values than a mass, so half of them hold no junk
    noisy = draw(st.booleans())

    def pick(valid):
        return _pick(draw, valid, noisy)

    degree, dim = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    generators, matrices = [], []
    for _ in range(draw(st.integers(1, 2))):
        cycle = draw(st.lists(st.integers(1, degree), unique=True, max_size=degree))
        generators.append(pick(st.just([[pick(st.just(p)) for p in cycle]])))
        if draw(st.booleans()):  # the trivial action, always a representation
            perm, exps = list(range(1, dim + 1)), [0] * dim
        else:
            perm = draw(st.permutations(range(1, dim + 1)))
            exps = draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim))
        matrices.append({
            "perm": [pick(st.just(p)) for p in perm],
            "exps": [pick(st.just(e)) for e in exps],
        })
    rep = {
        "dim": pick(st.just(dim)),
        "root_order": pick(st.integers(1, 4)),
        "matrices": matrices,
    }
    doc = {"degree": pick(st.just(degree)), "generators": generators, "rep": rep}
    q = draw(st.sampled_from(["2", "3", "4", "5", "7", "9", "25", "6"]))
    check = ("--check-involution",) if draw(st.booleans()) else ()
    return ("tame", "--group", FILE, "--q", q) + check, doc


@given(case=st.one_of(profile_cases(), stringy_cases(), tame_cases()))
@settings(max_examples=150, deadline=None)
def test_fuzz_loader_documents_end_in_a_documented_exit_code(tmp_path_factory, case):
    argv, doc = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run([str(path) if a == FILE else a for a in argv])
    assert code in (0, 1, 2, 3)
    option, load = {
        "profile": ("--file", profile_from_json),
        "stringy": ("--file", resolution_from_json),
        "tame": ("--group", group_from_json),
    }[argv[0]]
    text = loader_error(load, doc)
    if text is not None:
        assert_names_the_culprit(code, err.getvalue(), option, text)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the benchmark's child environment; the modules the interpreter holds
    # before the import are the baseline, so a site hook that loads them is not counted.
    # A request is read from the option table, so argparse and its gettext and locale stay out too
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    code = (
        "import sys; bare = set(sys.modules); import massdual.cli; "
        "massdual.cli.run(['formula', 'bhargava', '--n', '2']); print(sorted(set(sys.modules) - bare))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("mass_v = 1 + Q^-1\n")
    added = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    assert "massdual.cli" in added
    assert not {"dataclasses", "inspect", "argparse", "gettext", "locale"} & added


# argv for all six subcommands: huge, negative and junk values and missing
# flags.  --n stays <= 60 (the formulas take O(n^2) time) and --m <= 200 (a
# finite family of m strata has about m terms); a huge --q costs a primality
# test, so those stay below 10^30, past which only junk strings are drawn.
_junk_args = st.sampled_from(["", "x", "-", "1.5", "1e3", "0x10", "1/0", "nan", "--n", "9" * 5000])
_q0s = st.sampled_from(["2", "4", "3/2", "9/4", "7", "10/3", "1", "0", "-4", "1e400", "1/3"])

GROUP, MASSES = "<group file>", "<masses file>"  # stand for the paths the test writes


@st.composite
def cli_argvs(draw):
    def number(lo, hi, values=st.integers(-3, 12).map(str)):  # one in eight huge, one junk
        kind = draw(st.integers(0, 7))  # hypothesis favours 0, so that is the usual case
        if kind == 7:
            return draw(_junk_args)
        return str(draw(st.integers(lo, hi))) if kind == 6 else draw(values)

    def flag(name, value):  # missing one time in eight
        return [] if draw(st.integers(0, 7)) == 7 else [[name, value()]]

    def switch(name):
        return [[name]] if draw(st.booleans()) else []

    def evaluation():
        return [["--eval", number(-10**30, 10**30, _q0s), number(-10**30, 10**30)]] if draw(st.booleans()) else []

    def choice(*values):
        return lambda: draw(st.sampled_from(values))

    def huge(hi=10**30):
        return lambda: number(-10**30, hi)

    command = draw(st.sampled_from(["formula", "profile", "tame", "stringy", "duality", "verify"]))
    if command == "formula":
        flags = [[choice("bhargava", "kedlaya", "hilbert", "x")()]] + flag("--n", huge(60)) + evaluation()
    elif command == "profile":
        flags = flag("--builtin", choice("quad_char0_sigma", "quad_char2_sigma", "quad_char2_upsilon", "x"))
        flags += flag("--n", huge(60)) + flag("--m", huge(200)) + evaluation()
    elif command == "tame":
        flags = flag("--group", choice(GROUP, GROUP, GROUP, "/nonexistent.json")) + flag("--q", huge())
        flags += switch("--check-involution") + flag("--threads", huge()) + evaluation()
    elif command == "stringy":
        flags = flag("--builtin", choice("a1_cone", "x")) + flag("--d", huge())
        flags += switch("--check-poincare") + switch("--check-gm")
    elif command == "duality":
        flags = flag("--mv", choice(MASSES)) + flag("--mw", choice(MASSES)) + flag("--d", huge())
    else:  # a missing --suite runs every criterion, which tests/test_acceptance.py covers
        flags = [["--suite", choice("stringy", "x", "")()]]
    flags += flag("--report", choice("text", "json", "text", "json", "x"))
    return [command] + [token for f in draw(st.permutations(flags)) for token in f]


@given(argv=cli_argvs())
@settings(max_examples=200, deadline=None)
def test_fuzz_argv_ends_in_a_documented_exit_code(tmp_path_factory, argv):
    tmp = tmp_path_factory.mktemp("argv")
    group, masses = z3_group_file(tmp), tmp / "masses.json"
    masses.write_text(json.dumps(bhargava_masses(3).to_json()))
    argv = [str(group) if a == GROUP else str(masses) if a == MASSES else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# The argparse parser the CLI used before its option table, kept unchanged as the
# oracle of the differential tests below.

@functools.lru_cache(maxsize=None)  # parse_args leaves it as it was; help and errors look up sys.stdout late
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="massdual",
        description="Exact total masses, stringy counts, and duality verdicts.",
        epilog="GML_PRECISION sets significant digits for decimal evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(p):
        p.add_argument("--report", choices=("text", "json"), default="text")

    def add_eval(p):
        p.add_argument(
            "--eval",
            nargs=2,
            metavar=("Q0", "R0"),
            help="also evaluate the masses at q = Q0 (rational), r = R0",
        )

    p = sub.add_parser("tame", help="total masses of a tame scenario from a group file")
    p.add_argument("--group", required=True, help="group+representation JSON, or -")
    p.add_argument("--q", required=True, type=int, help="residue field size")
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p.add_argument("--check-involution", action="store_true")
    add_report(p)
    add_eval(p)
    p.set_defaults(func=_cmd_tame)

    p = sub.add_parser("profile", help="total masses of a ramification profile")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=BUILTIN_PROFILES)
    src.add_argument("--file", help="profile JSON, or -")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument(
        "--q-symbolic",
        action="store_true",
        help="emit masses symbolically in q (the default and only mode)",
    )
    add_report(p)
    add_eval(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("formula", help="closed-form mass and count families")
    p.add_argument("which", choices=("bhargava", "kedlaya", "hilbert"))
    p.add_argument("--n", required=True, type=int)
    add_report(p)
    add_eval(p)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("stringy", help="stringy point count of resolution data")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="resolution JSON, or -")
    src.add_argument("--builtin", choices=("a1_cone",))
    p.add_argument("--d", type=int, help="dimension for the duality checks")
    p.add_argument("--check-poincare", action="store_true")
    p.add_argument("--check-gm", action="store_true")
    add_report(p)
    p.set_defaults(func=_cmd_stringy)

    p = sub.add_parser("duality", help="strong/weak duality verdicts for a mass pair")
    p.add_argument("--mv", required=True, help="mass_v JSON file, or -")
    p.add_argument("--mw", required=True, help="mass_w JSON file, or -")
    p.add_argument("--d", required=True, type=int)
    add_report(p)
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("verify", help="run the bundled acceptance fixtures")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    add_report(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def oracle_reading(argv):
    """What the argparse parser makes of argv: the namespace without func, or the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = vars(_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code
    namespace.pop("func")
    return namespace


def table_reading(argv):
    """What the option table makes of argv: the namespace, 0 for help or 2 for a refusal."""
    try:
        _, args = cli._parse(argv)
    except cli._Usage:
        return 2
    return 0 if args is None else vars(args)


# Later argparse releases (Python 3.13.x) read some argv differently: --eval may
# take values that look like options (--eval -x 1), an ambiguous prefix after
# -h no longer stops the help, and "-- formula" names formula.  The table keeps
# the rules of the argparse of 3.10-3.12 that the CLI shipped with, so only that
# argparse can be the oracle; each probe below is refused there.
CLASSIC_ARGPARSE = all(
    oracle_reading(argv) == 2
    for argv in (
        ["formula", "bhargava", "--n", "2", "--eval", "-x", "1"],
        ["stringy", "-h", "--check"],
        ["--", "formula", "bhargava", "--n", "2"],
    )
)
needs_classic_argparse = pytest.mark.skipif(not CLASSIC_ARGPARSE, reason="this argparse reads argv by later rules")

# forms that cli_argvs never draws: --opt=value, unique and ambiguous prefixes,
# values that start with "-", a repeated flag, both of a "one of" pair, and "--"
ODD_ARGVS = [
    ["formula", "bhargava", "--n=2", "--report=json"],
    ["formula", "bhargava", "--n", "2", "--rep", "json"],
    ["formula", "kedlaya", "--n", "2", "--e", "2", "1"],
    ["tame", "--group", GROUP, "--q", "7", "--check-inv"],
    ["tame", "--group=", "--q=7", "--t", "2", "--check-involution=x"],
    ["stringy", "--builtin", "a1_cone", "--check", "--d", "2"],
    ["stringy", "-h", "--check"],
    ["duality", "--m", MASSES, "--mw", MASSES, "--d", "2"],
    ["profile", "--q", "--b", "quad_char0_sigma", "--n", "1"],
    ["formula", "bhargava", "--n", "-3"],
    ["formula", "bhargava", "--n", "2", "--eval", "-4", "1"],
    ["formula", "bhargava", "--n", "2", "--eval", "-.5", "1"],
    ["formula", "bhargava", "--n", "2", "--eval", "-1/3", "1"],
    ["formula", "bhargava", "--n", "2", "--eval", "-1e3", "1"],
    ["formula", "bhargava", "--n", "2", "--eval", "-nan", "1"],
    ["formula", "bhargava", "--n", "2", "--eval", "-a b", "1"],
    ["formula", "bhargava", "--n", "2", "--eval", "1", "-"],
    ["formula", "bhargava", "--n", "2", "--e=3"],
    ["formula", "bhargava", "--e=3", "1", "--n", "2"],
    ["formula", "bhargava", "--n", "2", "--n", "3", "--report", "json", "--report", "text"],
    ["formula", "hilbert", "--n", " 2 "],
    ["formula", "hilbert", "--n", "2_0"],
    ["formula", "bhargava", "--n", "2", "-x"],
    ["formula", "bhargava", "--n", "2", "--help=x"],
    ["formula", "-3", "--n", "2"],
    ["profile", "--builtin", "quad_char0_sigma", "--file", "x"],
    ["stringy", "--file", "x", "--builtin", "a1_cone"],
    ["profile", "--n", "1"],
    ["formula", "bhargava", "--n", "2", "--"],
    ["formula", "--", "bhargava", "--n", "2"],
    ["formula", "--n", "2", "--", "bhargava"],
    ["formula", "--n", "2", "bhargava", "--"],
    ["formula", "bhargava", "--n", "--", "2"],
    ["--"],
    [],
    ["nope"],
    ["--x", "formula", "bhargava", "--n", "2"],
    ["-h"],
    ["--he", "formula"],
    ["verify", "--h"],
    ["verify", "--suite"],
]


@needs_classic_argparse
@pytest.mark.parametrize("argv", ODD_ARGVS, ids=" ".join)
def test_the_table_reads_odd_argv_as_argparse_did(argv):
    assert table_reading(argv) == oracle_reading(argv)


@st.composite
def respelled_argvs(draw):
    """A cli_argvs draw with one token respelled as cli_argvs never spells it:
    --flag=value, a prefix of a flag, a "--" in front, or a flag given twice."""
    argv = draw(cli_argvs())
    i = draw(st.integers(1, len(argv)))
    head, tail = argv[:i], argv[i:]
    how = draw(st.sampled_from(["=", "prefix", "--", "twice"]))
    if tail and tail[0].startswith("--"):
        if how == "=" and len(tail) > 1:
            tail[:2] = [f"{tail[0]}={tail[1]}"]
        elif how == "prefix":
            tail[0] = tail[0][: draw(st.integers(3, len(tail[0])))]
        elif how == "twice":
            tail = tail[:2] + tail
    if how == "--":
        tail = ["--"] + tail
    return head + tail


@needs_classic_argparse
@given(argv=st.one_of(cli_argvs(), respelled_argvs()))
@settings(max_examples=300, deadline=None)
def test_fuzz_the_table_reads_argv_as_argparse_did(argv):
    assert table_reading(argv) == oracle_reading(argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["formula", "bhargava"], "the following arguments are required: --n"),
        (["formula"], "the following arguments are required: which, --n"),
        (["duality", "--d", "2"], "the following arguments are required: --mv, --mw"),
        ([], "the following arguments are required: command"),
        (["stringy"], "one of the arguments --file --builtin is required"),
        (["verify", "--suite", "x"], "argument --suite: invalid choice: 'x' (choose from 'all', 'partitions', 'stringy', 'tame')"),
        (["formula", "x", "--n", "2"], "argument which: invalid choice: 'x' (choose from 'bhargava', 'kedlaya', 'hilbert')"),
        (
            ["nope"],
            "argument command: invalid choice: 'nope' "
            "(choose from 'tame', 'profile', 'formula', 'stringy', 'duality', 'verify')",
        ),
        (["formula", "bhargava", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["tame", "--group", "g", "--q", "1.5"], "argument --q: invalid int value: '1.5'"),
        (["profile", "--builtin", "quad_char0_sigma", "--file", "x"], "argument --file: not allowed with argument --builtin"),
        (["stringy", "--file", "x", "--builtin", "a1_cone"], "argument --builtin: not allowed with argument --file"),
        (["formula", "bhargava", "--n", "2", "--eval", "2"], "argument --eval: expected 2 arguments"),
        (["formula", "bhargava", "--n", "2", "--eval", "-1e3", "1"], "argument --eval: expected 2 arguments"),
        (["formula", "bhargava", "--n", "2", "--e=3"], "argument --eval: expected 2 arguments"),
        (["formula", "bhargava", "--n"], "argument --n: expected one argument"),
        (["formula", "bhargava", "--n", "2", "extra", "-x"], "unrecognized arguments: extra -x"),
        (["formula", "bhargava", "--n", "2", "--"], "unrecognized arguments: --"),
        (["stringy", "--builtin", "a1_cone", "--check"], "ambiguous option: --check could match --check-poincare, --check-gm"),
        (["stringy", "--builtin", "a1_cone", "--check-gm=x"], "argument --check-gm: ignored explicit argument 'x'"),
    ],
)
def test_usage_errors_keep_their_text(capsys, argv, message):
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: massdual")
    assert err[1].split("error: ", 1)[1] == message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any length before 3.11")
def test_a_5000_digit_int_is_a_usage_error(capsys):
    assert run(["formula", "bhargava", "--n", "9" * 5000]) == 2
    assert capsys.readouterr().err.splitlines()[1].split("error: ", 1)[1] == f"argument --n: invalid int value: '{'9' * 5000}'"


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_names_every_flag_of_the_subcommand(capsys, command):
    for spelling in ("-h", "--help", "--he"):
        assert run([command, spelling]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: massdual {command} [-h]")
        assert cli._COMMANDS[command][1] in out and "GML_PRECISION" in out
        for flag, values, *_ in cli._COMMANDS[command][2]:
            assert (flag if flag.startswith("-") else "{%s}" % ",".join(values)) in out


def test_top_level_help_names_every_subcommand(capsys):
    for argv in (["-h"], ["--help"], ["--help", "formula"]):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: massdual [-h] {tame,profile,formula,stringy,duality,verify}")
        assert all(f"  {command} " in out for command in cli._COMMANDS) and "GML_PRECISION" in out
