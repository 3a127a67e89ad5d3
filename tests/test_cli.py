import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from test_io import REPEATED_HEADERS, _triple_entries
from zinbiel import cli
from zinbiel.algebra import identity_morphism
from zinbiel.catalog import truncated_polynomials
from zinbiel.deformation import check_deformation, extend_one_order
from zinbiel.fields import QQ
from zinbiel.problem_io import (AlgebraSpec, DeformationSpec, MorphismSpec,
                                Problem, parse, serialize)
from zinbiel.sampling import cocycle_basis

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def run_cli(*args):
    """Run `python -m zinbiel` with the given arguments in a child process
    that imports the package from this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "zinbiel", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_validate_nilpotent_dim2():
    result = run_cli("validate", str(PROBLEMS / "nilpotent_dim2.zb"))
    assert result.returncode == 0
    assert "Zinbiel identity verified on 8 triples" in result.stdout


def test_rigidity_abelian_line_inconclusive():
    result = run_cli("rigidity", str(PROBLEMS / "abelian_line.zb"))
    assert result.returncode == 0
    assert "dim H^2(id,id) = 1" in result.stdout
    assert "inconclusive" in result.stdout


def test_extend_obstructed_line_fails_with_residual():
    result = run_cli("extend", str(PROBLEMS / "obstructed_line.zb"),
                     "--target-order", "2")
    assert result.returncode == 1
    assert "-1*e1" in result.stdout


def test_machine_output_has_stable_keys():
    result = run_cli("extend", str(PROBLEMS / "obstructed_line.zb"),
                     "--target-order", "2", "--output", "machine")
    assert result.returncode == 1
    lines = dict(
        line.split(" ", 1) for line in result.stdout.splitlines())
    assert lines["status"] == "fail"
    assert lines["failed.at"] == "2"
    assert lines["obstruction.entry"] == "R 1 1 1 1 -1"


def test_machine_and_report_scalars_agree():
    machine = run_cli("obstruction", str(PROBLEMS / "obstructed_line.zb"),
                      "--output", "machine")
    report = run_cli("obstruction", str(PROBLEMS / "obstructed_line.zb"))
    assert machine.returncode == report.returncode == 1
    assert "obstruction.entry R 1 1 1 1 -1" in machine.stdout
    assert "R(e1,e1,e1) -> -1*e1" in report.stdout


def test_cohomology_command_degrees():
    result = run_cli("cohomology", str(PROBLEMS / "abelian_line.zb"),
                     "--degree", "2", "--output", "machine")
    assert result.returncode == 0
    assert "h.dim 1" in result.stdout
    result = run_cli("cohomology", str(PROBLEMS / "abelian_line.zb"),
                     "--degree", "3", "--algebra", "R", "--output", "machine")
    assert result.returncode == 0
    assert "h.dim 1" in result.stdout


def test_check_and_normalize_graded_demo():
    path = str(PROBLEMS / "graded_dim3.zb")
    assert run_cli("check-deformation", path, "--deformation", "D"
                   ).returncode == 0
    result = run_cli("normalize", path, "--deformation", "D")
    assert result.returncode == 0
    assert "kills all terms through order 1" in result.stdout


def test_verify_identities_command():
    result = run_cli("verify-identities", str(PROBLEMS / "graded_dim3.zb"))
    assert result.returncode == 0
    assert "FAILED" not in result.stdout


def test_roundtrip_command():
    result = run_cli("roundtrip", str(PROBLEMS / "graded_dim3.zb"))
    assert result.returncode == 0
    assert result.stdout.startswith("field Q")


def test_field_override_flag():
    result = run_cli("validate", str(PROBLEMS / "nilpotent_dim2.zb"),
                     "--field", "Fp:7")
    assert result.returncode == 0


def test_extend_from_cochain_block(tmp_path):
    path = tmp_path / "cocycle.zb"
    path.write_text(
        "field Q\n"
        "algebra T3\n  dim 3\n"
        "  gamma 1 1 2 = 1\n  gamma 1 2 3 = 1\n  gamma 2 1 3 = 2\nend\n"
        "morphism id\n  source T3\n  target T3\n"
        "  entry 1 1 = 1\n  entry 2 2 = 1\n  entry 3 3 = 1\nend\n"
        # d of the 1-cochain pair (u1 -> u2, 0): a 2-coboundary, hence a
        # 2-cocycle that extends to any order
        "cochain seed\n  morphism id\n  degree 2\n"
        "  R 1 1 3 = 3\n  f 1 2 = 1\nend\n")
    result = run_cli("extend", str(path), "--cochain", "seed",
                     "--target-order", "3")
    assert result.returncode == 0, result.stdout + result.stderr
    result = run_cli("extend", str(path), "--cochain", "seed",
                     "--target-order", "3", "--output", "machine")
    assert "order 3" in result.stdout.splitlines()


def test_rigidity_demo_on_zero_dimensional_pair(tmp_path):
    path = tmp_path / "point.zb"
    path.write_text(
        "field Q\n"
        "algebra Z\n  dim 0\nend\n"
        "morphism f\n  source Z\n  target Z\nend\n")
    result = run_cli("rigidity", str(path), "--demo", "3", "--seed", "9")
    assert result.returncode == 0
    assert "rigid" in result.stdout
    assert "trivialized 3 of 3" in result.stdout


def test_check_deformation_order_flag():
    path = str(PROBLEMS / "graded_dim3.zb")
    result = run_cli("check-deformation", path, "--deformation", "D",
                     "--order", "0")
    assert result.returncode == 0
    assert "through order 0" in result.stdout


def test_normalize_rejects_non_coboundary_leading_term():
    # over the abelian line with the zero morphism the degree-1
    # differential vanishes, so the nonzero leading term has no preimage
    result = run_cli("normalize", str(PROBLEMS / "obstructed_line.zb"),
                     "--deformation", "D", "--output", "machine")
    assert result.returncode == 1
    assert "reason not-a-coboundary" in result.stdout


def test_cohomology_degree_3_of_morphism():
    result = run_cli("cohomology", str(PROBLEMS / "nilpotent_dim2.zb"),
                     "--degree", "3", "--morphism", "id",
                     "--output", "machine")
    assert result.returncode == 0
    assert "h.dim 1" in result.stdout.splitlines()


def test_verify_identities_flags_invalid_deformation(tmp_path):
    path = tmp_path / "broken.zb"
    path.write_text(
        "field Q\n"
        "algebra R\n  dim 1\nend\n"
        "morphism id\n  source R\n  target R\n  entry 1 1 = 1\nend\n"
        # (mu; mu; 0) satisfies order 1 but breaks the order-2 condition
        "deformation D\n  morphism id\n  order 2\n"
        "  term 1 R 1 1 1 = 1\n  term 1 S 1 1 1 = 1\nend\n")
    result = run_cli("verify-identities", str(path))
    assert result.returncode == 1
    assert "FAILED: deformation D: is a valid deformation" in result.stdout


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("validate", "no_such_file.zb").returncode == 2
    assert run_cli("nonsense").returncode == 2
    assert run_cli("cohomology", str(PROBLEMS / "abelian_line.zb")
                   ).returncode == 2   # missing --degree
    assert run_cli("validate", str(PROBLEMS / "abelian_line.zb"),
                   "--field", "Fp:6").returncode == 2
    # two starting points: once the deformation was ignored and the run
    # went on from the cochain
    path = tmp_path / "noncocycle.zb"
    path.write_text(GOLDEN_FILES["noncocycle.zb"], encoding="utf-8")
    result = run_cli("extend", str(path), "--cochain", "n", "--deformation",
                     "nonexistent", "--target-order", "1")
    assert result.returncode == 2
    assert "not allowed with argument" in result.stderr
    # a degree-1 cochain is no starting point for an extension
    path.write_text(GOLDEN_FILES["noncocycle.zb"]
                    + "cochain one\n  morphism id\n  degree 1\nend\n",
                    encoding="utf-8")
    result = run_cli("extend", str(path), "--cochain", "one",
                     "--target-order", "1")
    assert (result.returncode, result.stderr) == (
        2, "error: extend needs a degree-2 cochain\n")


def test_mathematical_failures_exit_1(tmp_path):
    bad = tmp_path / "bad.zb"
    bad.write_text("field Q\nalgebra R\n  dim 1\n  gamma 1 1 1 = 1\nend\n")
    result = run_cli("validate", str(bad))
    assert result.returncode == 1
    assert "FAILS" in result.stdout

    swap = tmp_path / "swap.zb"
    swap.write_text(
        "field Q\n"
        "algebra R\n  dim 2\n  gamma 1 1 2 = 1\nend\n"
        "morphism s\n  source R\n  target R\n"
        "  entry 1 2 = 1\n  entry 2 1 = 1\nend\n")
    result = run_cli("validate", str(swap))
    assert result.returncode == 1


def test_malformed_file_exit_2(tmp_path):
    bad = tmp_path / "syntax.zb"
    bad.write_text("field Q\nalgebra R\n  dim 1\n  gamma 1 1 2 = 1\nend\n")
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert "out of range" in result.stderr
    # a repeated header once gave a traceback or was accepted silently
    for text, line, column, message in REPEATED_HEADERS:
        bad.write_text(text)
        for command in ("validate", "roundtrip"):
            result = run_cli(command, str(bad))
            assert (result.returncode, result.stdout, result.stderr) == (
                2, "", f"error: line {line}, column {column}: {message}\n")
    # a file that is not UTF-8 once gave a traceback
    bad.write_bytes(b"field Q\n\xff\n")
    result = run_cli("validate", str(bad))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(f"error: cannot read {bad}: ")
    assert result.stderr.count("\n") == 1


def test_zero_denominator_exit_2(tmp_path):
    # over F_p a zero denominator once gave a traceback and exit 1, in the
    # file's own field and under --field
    bad = tmp_path / "zero.zb"
    expected = (2, "", "error: line 4, column 17: zero denominator: '1/0'\n")
    for field, flags in (("Q", []), ("Q", ["--field", "Fp:5"]),
                         ("Fp:5", [])):
        bad.write_text(f"field {field}\nalgebra R\n  dim 1\n"
                       "  gamma 1 1 1 = 1/0\nend\n")
        result = run_cli("validate", str(bad), *flags)
        assert (result.returncode, result.stdout, result.stderr) == expected


@pytest.mark.parametrize("command, flag, value, least", [
    ("check-deformation", "--order", "-2", 0),
    ("obstruction", "--order", "0", 1),
    ("extend", "--target-order", "-3", 1),
    ("rigidity", "--probe-order", "-1", 1),
    ("rigidity", "--demo", "-1", 0),
])
def test_out_of_range_order_is_a_usage_error(command, flag, value, least):
    result = run_cli(command, str(PROBLEMS / "obstructed_line.zb"),
                     flag, value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == \
        f"error: {flag} must be at least {least}, got {value}\n"


def test_lowest_valid_orders_still_run():
    line = str(PROBLEMS / "obstructed_line.zb")
    assert run_cli("check-deformation", line, "--order", "0").returncode == 0
    assert run_cli("obstruction", line, "--order", "1").returncode == 1
    assert run_cli("extend", line, "--target-order", "1").returncode == 0
    assert run_cli("rigidity", line, "--probe-order", "1").returncode == 0


def _counted(monkeypatch, name):
    """Count the calls of a library function through every zinbiel
    module that binds it."""
    modules = [m for key, m in sys.modules.items()
               if key.split(".")[0] == "zinbiel" and hasattr(m, name)]
    original = getattr(sys.modules["zinbiel"], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for module in modules:
        if getattr(module, name) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_verify_identities_computes_each_obstruction_once(monkeypatch,
                                                          capsys):
    calls = _counted(monkeypatch, "obstruction")
    code = cli.main(["verify-identities", str(PROBLEMS / "graded_dim3.zb")])
    assert code == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "verified: deformation D: obstruction is a 3-cocycle\n" in out
    assert "verified: deformation D: obstruction naturality\n" in out


def test_check_deformation_builds_theta_zero_once(monkeypatch, capsys):
    # theta_0 = (m_R; m_S; f) is kept on f: the file's series starts with
    # it, and the constructor's constant-term check reads the same triple
    calls = _counted(monkeypatch, "morphism_cochain")
    code = cli.main(["check-deformation", str(PROBLEMS / "graded_dim3.zb"),
                     "--deformation", "D"])
    assert code == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "deformation D: conditions hold through order 1\n")


def test_extend_from_cochain_checks_the_cocycle_once(monkeypatch, capsys,
                                                     tmp_path):
    path = tmp_path / "failing.zb"
    path.write_text(FAILING)
    calls = _counted(monkeypatch, "is_cocycle")
    code = cli.main(["extend", str(path), "--cochain", "c",
                     "--target-order", "1", "--output", "machine"])
    assert code == 0
    assert len(calls) <= 1
    assert "status ok\norder 1\n" in capsys.readouterr().out


def test_extend_sums_the_zero_top_order_once(monkeypatch):
    # order_residual at order N+1 of an order-N series is the zero-top
    # contraction; one extension step computes it once, for the
    # obstruction, and validates order N+1 on the whole int sums, which
    # build no residual
    problem = parse((PROBLEMS / "graded_dim3.zb").read_text(encoding="utf-8"))
    theta = check_deformation(*problem.deformation_candidate("D"))
    calls = _counted(monkeypatch, "order_residual")
    step = extend_one_order(theta)
    assert step.succeeded and step.extended.order == theta.order + 1
    assert [n for _, _, n in calls] == [theta.order + 1]


def test_verify_identities_assembles_each_differential_once(monkeypatch,
                                                          capsys):
    # graded_dim3.zb: d^1..d^3 on T3, then for each of its two morphisms
    # the d^1..d^3 of its complex (its d^n on T3 once more, and d^1, d^2
    # on T3 through f inside) and the via-f d^1..d^3 of the push-forward
    # checks; the push-forwards' d^n on T3, the product's d^2 and the
    # obstruction's d^3 are the command's matrices again, and obstruction
    # naturality is the f-part of that same d^3 of the obstruction
    calls = _counted(monkeypatch, "differential_matrix")
    code = cli.main(["verify-identities", str(PROBLEMS / "graded_dim3.zb")])
    assert code == 0
    assert len(calls) == 3 + 2 * (5 + 3)
    assert "FAILED" not in capsys.readouterr().out


def test_verify_identities_checks_past_a_failing_object():
    # on failing.zb the invalid algebra B and morphism s are failed facts;
    # the morphism id and deformation D after them are still checked
    records = [r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))
               if r["argv"][:2] == ["verify-identities", "failing.zb"]]
    assert len(records) == 4
    for record in records:
        out = record["stdout"].replace("-", " ")
        assert record["exit"] == 1 and record["stderr"] == ""
        for fact in ("algebra B: satisfies the Zinbiel identity",
                     "morphism s: respects products",
                     "deformation D: is a valid deformation"):
            assert out.count(fact) == 1
        assert out.count("morphism id: ") == 5
        if "machine" in record["argv"]:
            assert record["stdout"].endswith("status fail\n")


def test_verify_identities_skips_what_depends_on_a_failure(capsys,
                                                           tmp_path):
    path = tmp_path / "dependent.zb"
    path.write_text(FAILING + "morphism b\n  source B\n  target L\nend\n"
                    "deformation E\n  morphism b\n  order 1\nend\n")
    code = cli.main(["verify-identities", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert ("skipped: morphism b: respects products (an algebra it uses "
            "is invalid)\n") in out
    assert ("skipped: deformation E: is a valid deformation (its morphism "
            "was not validated)\n") in out


def test_validate_skips_what_depends_on_a_failure(capsys, tmp_path):
    # b uses the invalid algebra B; the cochain, deformation and
    # isomorphism use the morphisms s (invalid) and b (skipped)
    path = tmp_path / "dependent.zb"
    path.write_text(FAILING + "morphism b\n  source B\n  target L\nend\n"
                    "cochain x\n  morphism s\n  degree 1\nend\n"
                    "deformation E\n  morphism s\n  order 1\nend\n"
                    "isomorphism P\n  morphism b\n  order 1\nend\n")
    code = cli.main(["validate", str(path), "--output", "machine"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and lines[-1] == "status fail"
    skipped = [line for line in lines if line.endswith(" skipped")]
    assert skipped == ["morphism b skipped", "cochain x skipped",
                       "deformation E skipped", "isomorphism P skipped"]
    documented = _documented_keys()
    assert all(documented.fullmatch(line.split(" ", 1)[0]) for line in lines)
    code = cli.main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "morphism b: skipped (an algebra it uses is invalid)\n" in out
    for fact in ("cochain x", "deformation E", "isomorphism P"):
        assert f"{fact}: skipped (its morphism was not validated)\n" in out


def test_rigidity_demo_keys_are_documented(capsys, tmp_path):
    # the zero map of the zero algebra is rigid, so the demos run
    path = tmp_path / "point.zb"
    path.write_text("field Q\nalgebra Z\n  dim 0\nend\n"
                    "morphism z\n  source Z\n  target Z\nend\n")
    code = cli.main(["rigidity", str(path), "--demo", "2", "--seed", "9",
                     "--output", "machine"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines == ["command rigidity", "h2.dim 0", "verdict rigid",
                     "demo.run 2", "demo.trivialized 2", "demo.seed 9",
                     "status ok"]
    documented = _documented_keys()
    assert all(documented.fullmatch(line.split(" ", 1)[0]) for line in lines)


def test_rigidity_demo_trivializes_every_draw(capsys, tmp_path):
    # the zero map of the zero algebra is rigid: both outputs give the
    # verdict, then the demo's count of trivialized random deformations
    path = tmp_path / "point.zb"
    path.write_text("field Q\nalgebra Z\n  dim 0\nend\n"
                    "morphism z\n  source Z\n  target Z\nend\n")
    argv = ["rigidity", str(path), "--morphism", "z", "--demo", "2",
            "--seed", "3"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dim H^2(z,z) = 0, rigid",
        "trivialized 2 of 2 random order-4 deformations (seed 3)"]
    assert cli.main(argv + ["--output", "machine"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "command rigidity", "h2.dim 0", "verdict rigid", "demo.run 2",
        "demo.trivialized 2", "demo.seed 3", "status ok"]


def test_an_obstruction_that_is_a_coboundary_exits_0(capsys, tmp_path):
    # on id_T3, cocycle 2 of cocycle_basis as the linear term of an
    # order-1 deformation has a nonzero obstruction with a preimage
    f = identity_morphism(truncated_polynomials(QQ, 3))
    term = cocycle_basis(f)[2]
    gamma = [(i, j, k, c) for i in range(3) for j in range(3)
             for k, c in enumerate(f.source.gamma[i][j]) if c]
    problem = Problem(
        QQ, algebras={"T3": AlgebraSpec("T3", 3, gamma)},
        morphisms={"id": MorphismSpec("id", "T3", "T3",
                                      [(i, i, QQ.one()) for i in range(3)])},
        deformations={"D": DeformationSpec("D", "id", 1,
                                           _triple_entries(term, (1,)))})
    path = tmp_path / "coboundary.zb"
    path.write_text(serialize(problem), encoding="utf-8")
    code = cli.main(["obstruction", str(path), "--output", "machine"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-3:] == ["obstruction.nonzero true",
                          "obstruction.coboundary true", "status ok"]
    documented = _documented_keys()
    assert all(documented.fullmatch(line.split(" ", 1)[0]) for line in lines)
    code = cli.main(["obstruction", str(path)])
    assert code == 0
    assert capsys.readouterr().out.endswith(
        "the obstruction is a coboundary: an extension exists\n")


def test_a_missing_kind_is_named(capsys):
    code = cli.main(["obstruction", str(PROBLEMS / "nilpotent_dim2.zb")])
    assert code == 2
    assert capsys.readouterr().err == "error: the file has no deformation\n"


@pytest.mark.parametrize("command, flag, value", [
    ("check-deformation", "--order", "1_0"),
    ("cohomology", "--degree", "\u0662"),
])
def test_an_integer_flag_takes_only_ascii_digits(capsys, command, flag,
                                                  value):
    # int() reads both as integers; the one integer rule refuses them
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, str(PROBLEMS / "graded_dim3.zb"), flag, value])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [f"zinbiel {command}: error: argument {flag}: "
                      f"invalid integer value: {value!r}"]
    assert err.endswith(errors[0] + "\n")


def test_a_field_flag_takes_only_ascii_digits(capsys):
    code = cli.main(["cohomology", str(PROBLEMS / "abelian_line.zb"),
                     "--degree", "2", "--field", "Fp:\u0667"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: bad prime field descriptor: 'Fp:\u0667'\n")


def test_a_byte_order_mark_changes_nothing(capsys, tmp_path):
    original = PROBLEMS / "abelian_line.zb"
    marked = tmp_path / "abelian_line.zb"
    marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    runs = []
    for path in (original, marked):
        for output in ("report", "machine"):
            code = cli.main(["validate", str(path), "--output", output])
            runs.append((code, capsys.readouterr().out))
    assert runs[:2] == runs[2:]
    assert runs[0][0] == 0


def test_an_algebra_failing_the_identity_exits_1(capsys, tmp_path):
    # the IdentityError of a build is reported by main, after the command
    path = tmp_path / "not_zinbiel.zb"
    path.write_text("field Q\nalgebra A\n  dim 2\n  gamma 1 1 1 = 1\nend\n"
                    "morphism m\n  source A\n  target A\n"
                    "  entry 1 1 = 1\n  entry 2 2 = 1\nend\n",
                    encoding="utf-8")
    code = cli.main(["cohomology", str(path), "--degree", "2",
                     "--morphism", "m", "--output", "machine"])
    assert code == 1
    assert capsys.readouterr() == (
        "command cohomology\n",
        "error: Zinbiel identity fails on 1 basis triple(s)\n")


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "error: out of memory"),
    (RecursionError("maximum recursion depth exceeded"),
     "error: maximum recursion depth exceeded")], ids=["memory", "recursion"])
def test_a_problem_too_large_to_compute_exits_1(capsys, monkeypatch, error,
                                                line):
    # a file such as `dim 100000` runs out of memory in its build; the
    # builder is patched to raise instead of allocating
    def build_algebra(self, name):
        raise error
    monkeypatch.setattr(Problem, "build_algebra", build_algebra)
    code = cli.main(["cohomology", str(PROBLEMS / "graded_dim3.zb"),
                     "--degree", "2", "--algebra", "T3"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == line + "\n"
    assert "Traceback" not in err


def test_a_file_with_two_morphisms_needs_the_flag(capsys):
    code = cli.main(["cohomology", str(PROBLEMS / "graded_dim3.zb"),
                     "--degree", "2"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: --morphism is required when the file has 2 of them\n"


def test_roundtrip_reports_a_mismatch(capsys, monkeypatch):
    # a serializer that drops the isomorphisms reads back as another file
    monkeypatch.setattr(cli, "serialize", lambda problem: serialize(
        dataclasses.replace(problem, isomorphisms={})))
    code = cli.main(["roundtrip", str(PROBLEMS / "graded_dim3.zb")])
    assert code == 1
    assert capsys.readouterr() == ("", "round-trip mismatch\n")


ORDER_ZERO = """field Q
algebra L
  dim 1
end
morphism id
  source L
  target L
  entry 1 1 = 1
end
deformation Z
  morphism id
  order 0
end
"""


def _order_zero_error(capsys, tmp_path, *argv) -> tuple[int, str]:
    path = tmp_path / "order_zero.zb"
    path.write_text(ORDER_ZERO, encoding="utf-8")
    code = cli.main([argv[0], str(path), *argv[1:]])
    return code, capsys.readouterr().err


def test_obstruction_of_an_order_zero_deformation_is_a_usage_error(
        capsys, tmp_path):
    code, err = _order_zero_error(capsys, tmp_path, "obstruction",
                                  "--deformation", "Z")
    assert code == 2
    assert err == ("error: obstruction needs a deformation of order at "
                   "least 1, Z has order 0\n")


def test_extending_an_order_zero_deformation_is_a_usage_error(
        capsys, tmp_path):
    code, err = _order_zero_error(capsys, tmp_path, "extend",
                                  "--deformation", "Z", "--target-order", "1")
    assert code == 2
    assert err == ("error: extend needs a deformation of order at least 1, "
                   "Z has order 0\n")


# a modulus too large to verify, and a digit that int() does not read
@pytest.mark.parametrize("modulus", [str(2 ** 89 - 1), "²"],
                         ids=["huge", "superscript"])
def test_unverifiable_modulus_is_a_usage_error(modulus):
    result = run_cli("validate", str(PROBLEMS / "abelian_line.zb"),
                     "--field", "Fp:" + modulus)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


def _documented_keys():
    """The README machine-key table as one pattern; <k> stands for digits."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Machine output keys", 1)[1].split("\n## ", 1)[0]
    keys = [code.split()[0] for line in table.splitlines()
            if line.startswith("| `")
            for code in re.findall(r"`([^`]+)`", line.split(" | ")[0])]
    return re.compile("|".join(
        re.escape(key).replace("<k>", r"\d+") for key in keys))


# one failing morphism (s), one deformation failing at order 2 (D), one
# algebra failing the Zinbiel identity (B) and a 2-cocycle (c)
FAILING = (
    "field Q\n"
    "algebra L\n  dim 1\nend\n"
    "morphism id\n  source L\n  target L\n  entry 1 1 = 1\nend\n"
    "cochain c\n  morphism id\n  degree 2\n"
    "  R 1 1 1 = 1\n  S 1 1 1 = 1\nend\n"
    "deformation D\n  morphism id\n  order 2\n"
    "  term 1 R 1 1 1 = 1\n  term 1 S 1 1 1 = 1\nend\n"
    "algebra R\n  dim 2\n  gamma 1 1 2 = 1\nend\n"
    "morphism s\n  source R\n  target R\n"
    "  entry 1 2 = 1\n  entry 2 1 = 1\nend\n"
    "algebra B\n  dim 1\n  gamma 1 1 1 = 1\nend\n")


def _runs(problem):
    """Every subcommand except roundtrip, with the flags it needs on problem.

    roundtrip prints the problem file itself, so it has no keys.
    """
    morphism = [f"--morphism={m}" for m in list(problem.morphisms)[:1]]
    deformation = [f"--deformation={d}"
                   for d in list(problem.deformations)[:1]]
    runs = [["validate"], ["verify-identities"],
            ["cohomology", "--degree", "2", *morphism],
            ["cohomology", "--degree", "3", "--algebra",
             next(iter(problem.algebras))],
            ["rigidity", "--demo", "1", *morphism],
            ["check-deformation", *deformation],
            ["obstruction", *deformation],
            ["normalize", *deformation],
            ["extend", "--target-order", "3", *deformation]]
    return runs + [["extend", "--target-order", "2", "--cochain", name]
                   for name in problem.cochains]


def test_machine_keys_are_documented(tmp_path, capsys):
    failing = tmp_path / "failing.zb"
    failing.write_text(FAILING)
    documented = _documented_keys()
    seen = set()
    for path in sorted(PROBLEMS.glob("*.zb")) + [failing]:
        for run in _runs(parse(path.read_text(encoding="utf-8"))):
            cli.main([run[0], str(path), "--output", "machine", *run[1:]])
            for line in capsys.readouterr().out.splitlines():
                key = line.split(" ", 1)[0]
                assert documented.fullmatch(key), (path.name, run, line)
                seen.add(key)
    assert {"morphism.violation", "violation.order", "algebra.violation",
            "obstruction.entry", "term.1.entry", "failed.at"} <= seen


# Exit code, stdout and stderr of every transcript below, byte for byte.
# Rewrite them after an intended output change with
#   PYTHONPATH=src python tests/test_cli.py
GOLDEN = Path(__file__).with_name("cli_golden.json")

# extra files next to problems/*.zb: FAILING, a malformed file (gamma
# index out of range) and a degree-2 cochain that is not a 2-cocycle
GOLDEN_FILES = {
    "failing.zb": FAILING,
    "malformed.zb": "field Q\nalgebra R\n  dim 1\n  gamma 1 1 2 = 1\nend\n",
    "noncocycle.zb": (
        "field Q\n"
        "algebra R\n  dim 2\n  gamma 1 1 2 = 1\nend\n"
        "morphism id\n  source R\n  target R\n"
        "  entry 1 1 = 1\n  entry 2 2 = 1\nend\n"
        "cochain n\n  morphism id\n  degree 2\n  R 1 1 1 = 1\nend\n"),
}


def _golden_files():
    """Name -> text of every file the transcripts read."""
    files = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(PROBLEMS.glob("*.zb"))}
    return files | GOLDEN_FILES


def _golden_argvs():
    argvs = []
    files = _golden_files()
    for name in sorted(p.name for p in PROBLEMS.glob("*.zb")) + ["failing.zb"]:
        for run in _runs(parse(files[name])) + [["roundtrip"]]:
            for output in ("report", "machine"):
                for field in ([], ["--field", "Fp:5"]):
                    argvs.append([run[0], name, "--output", output,
                                  *run[1:], *field])
    extra = [
        # a missing name fails after the command echo
        ["cohomology", "graded_dim3.zb", "--degree", "2", "--morphism",
         "nope"],
        ["validate", "malformed.zb"],
        ["validate", "missing.zb"],
        ["check-deformation", "obstructed_line.zb", "--order", "-1"],
        ["obstruction", "obstructed_line.zb", "--order", "0"],
        ["extend", "obstructed_line.zb", "--target-order", "0"],
        ["extend", "noncocycle.zb", "--cochain", "n", "--target-order", "1"],
    ]
    for argv in extra:
        for output in ("report", "machine"):
            argvs.append([*argv, "--output", output])
    return argvs + ARGPARSE_ARGVS


# what argparse itself prints: the help texts and its usage errors (no
# subcommand, a degree outside the choices, an unknown option, a missing
# required option), each ending in SystemExit
ARGPARSE_ARGVS = [["--help"]] + [
    [command, "--help"]
    for command in ("validate", "cohomology", "check-deformation",
                    "obstruction", "extend", "normalize", "rigidity",
                    "verify-identities", "roundtrip")] + [
    [],
    ["cohomology", "graded_dim3.zb", "--degree", "4"],
    ["validate", "abelian_line.zb", "--bogus"],
    ["extend", "obstructed_line.zb"],
]


@contextlib.contextmanager
def _chdir(path):
    """`contextlib.chdir`, which Python 3.10 lacks."""
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def _transcripts(argvs=None):
    """Run the given argvs (by default every golden argv) in-process, in
    order, from a directory holding the problem files under their plain
    names, so no path varies.  Help text wraps at COLUMNS, so it is
    pinned."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _golden_files().items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        with _chdir(tmp), \
                mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            for argv in _golden_argvs() if argvs is None else argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as e:
                        code = e.code
                records.append({"argv": argv, "exit": code,
                                "stdout": out.getvalue(),
                                "stderr": err.getvalue()})
    return records


def _status_agrees(record):
    codes = {"status ok": 0, "status fail": 1}
    return all(codes[line] == record["exit"]
               for line in record["stdout"].splitlines()
               if line in codes)


def test_cli_transcripts_are_unchanged():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    live = _transcripts()
    assert [r["argv"] for r in live] == [r["argv"] for r in golden]
    for now, then in zip(live, golden):
        assert now == then, now["argv"]
        assert _status_agrees(now), now["argv"]


def test_argparse_output_does_not_depend_on_earlier_calls():
    # a usage error, a valid call and a help text in one process: each
    # must match its golden record, whatever ran before it
    golden = {tuple(r["argv"]): r
              for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    sequence = [["extend", "obstructed_line.zb"],
                ["validate", "abelian_line.zb", "--output", "report"],
                ["--help"],
                ["cohomology", "graded_dim3.zb", "--degree", "4"],
                ["cohomology", "--help"]]
    for record in _transcripts(sequence):
        assert record == golden[tuple(record["argv"])], record["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_transcripts(), indent=1) + "\n",
                      encoding="utf-8")
