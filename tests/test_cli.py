import argparse
import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from skewhom.algebra import HomAlgebra, save_algebra
from skewhom.cli import (
    CheckResult,
    SuiteConfig,
    SuiteReport,
    build_parser,
    cmd_nullspace,
    cmd_verify,
    main,
)
from skewhom.constructions import (
    GlContext,
    alpha_theta,
    build_gl_alpha,
    build_r3_cross,
    build_semi_euclidean,
)
from skewhom.errors import FileFormatError
from skewhom.linalg import identity
from skewhom.representation import load_representation


FAST = ["--k", "1", "--s", "0", "--theta", "0,1"]


def test_verify_default_config_passes():
    report = cmd_verify(SuiteConfig())
    assert report.all_passed
    assert len(report.checks) > 20


def test_verify_exit_codes(capsys):
    assert main(["verify", *FAST]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAIL" not in out


def test_verify_mutation_hook_fails(capsys):
    code = main(["verify", *FAST, "--inject-mutation"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "witness" in out


def test_mutated_sweep_fails_the_null_subset_rows_at_the_mutated_pair():
    # the rows certify the mutated algebra itself, whose [e_0, e_1] leaves V*
    report = cmd_verify(SuiteConfig(inject_mutation=True))
    rows = [c for c in report.checks if c.name.endswith("preserve the null subset")]
    e0, e1 = (F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0))
    assert len(rows) == 3
    for row in rows:
        assert not row.passed
        assert row.witness.startswith(f"at {('bracket', e0, e1)}: residual ")
    assert sum(c.passed for c in report.checks) == 21


def test_verify_empty_theta_is_usage_error(capsys):
    assert main(["verify", "--theta", ""]) == 2


def test_verify_rejects_samples(capsys):
    assert main(["verify", "--samples", "5"]) == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--k", "-1"], "--k"),
        (["verify", "--s", "0,-2"], "--s"),
        (["nullspace", "--theta", "1", "--samples", "-3"], "--samples"),
        (["cohomology", "se4:theta=1", "--k", "1", "--s", "-1"], "--s"),
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be non-negative\n"


@pytest.mark.parametrize("flag", ["--k", "--s"])
@pytest.mark.parametrize("text", ["", ",,"])
def test_verify_empty_degree_lists_are_usage_errors(capsys, flag, text):
    # an empty list would drop every d^2 row and still pass
    assert main(["verify", flag, text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} list must be nonempty\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theta", "1/0"],
        ["nullspace", "--theta", "1/0"],
        ["counterexample", "gl2", "--theta", "1/0"],
        ["cohomology", "se4:theta=1/0", "--k", "1", "--s", "0"],
    ],
    ids=["verify", "nullspace", "counterexample", "builtin-reference"],
)
def test_a_zero_denominator_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


def test_verify_seed_does_not_change_the_report(capsys):
    reports = []
    for seed in ("0", "7"):
        assert main(["verify", *FAST, "--seed", seed]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_unknown_command_is_usage_error():
    assert main(["bogus"]) == 2


def test_help_exits_cleanly():
    assert main(["--help"]) == 0


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_back_to_back_calls_match_separate_processes(capsys, monkeypatch):
    """One shared parser: each in-process run prints and returns what a fresh process does."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
           "COLUMNS": "80"}
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
    runs = (["verify", "--timings"], ["verify", "--format", "xml"], ["verify", "--format", "csv"])

    def untimed(text):
        return re.sub(r"\[\d+\.\d{3}s\]", "[timed]", text)

    in_process = []
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, untimed(captured.out), captured.err))
    separate = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "skewhom", *argv], capture_output=True,
                              text=True, env=env, timeout=300)
        separate.append((proc.returncode, untimed(proc.stdout), proc.stderr))
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [0, 2, 0]
    assert "[timed]" in in_process[0][1] and "invalid choice" in in_process[1][2]


def test_verify_builds_six_m_1_coboundary_matrices(coboundary_builds):
    """Twelve d^2 rows on two algebras: degrees 1, 2 and 3 of each, once, at m = 1."""
    report = cmd_verify(SuiteConfig())
    assert sum("coboundary nilpotency" in c.name for c in report.checks) == 12
    assert report.all_passed
    assert sorted(coboundary_builds) == [(1, 1), (1, 1), (2, 1), (2, 1), (3, 1), (3, 1)]


def test_verify_output_file_and_formats(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", *FAST, "--format", "json", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert all(entry["passed"] for entry in payload["checks"])

    csv_out = tmp_path / "report.csv"
    assert main(["verify", *FAST, "--format", "csv", "--output", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "name,passed,witness,seconds"


def test_verify_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", *FAST, "--format", "json", "--output", str(a)])
    main(["verify", *FAST, "--format", "json", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_report_json_round_trip():
    report = SuiteReport(
        (
            CheckResult("first", True, None, None),
            CheckResult("second", False, "at (0, 1): residual (1, 0)", 0.25),
        )
    )
    assert SuiteReport.from_json(report.to_json()) == report


def test_check_algebra_se4_file(tmp_path, capsys):
    g, _ = build_semi_euclidean(1)
    path = tmp_path / "se4.json"
    save_algebra(g, path)
    assert main(["check-algebra", str(path)]) == 0
    out = capsys.readouterr().out
    assert "SkewHomLie" in out and "sign -1" in out


def test_csv_fields_double_their_quotes(tmp_path, capsys):
    # a quote and a comma in the path, which names every check
    path = tmp_path / 'a"b,c.json'
    save_algebra(build_r3_cross(identity(3)), path)
    assert main(["check-algebra", str(path), "--format", "csv"]) == 0
    header, *rows = csv.reader(capsys.readouterr().out.splitlines())
    assert header == ["name", "passed", "witness", "seconds"]
    assert rows and all(len(row) == 4 and row[0].startswith(f"{path}: ") for row in rows)
    report = SuiteReport((CheckResult('say "x"', False, 'at (0, 1): "y", z'),))
    assert list(csv.reader(report.to_csv().splitlines()))[1] == [
        'say "x"', "false", 'at (0, 1): "y", z', ""
    ]


def test_check_algebra_cross_file(tmp_path, capsys):
    path = tmp_path / "cross.json"
    save_algebra(build_r3_cross(identity(3)), path)
    assert main(["check-algebra", str(path)]) == 0
    assert "Lie" in capsys.readouterr().out


def test_check_algebra_zero_twist_keeps_both_signs_without_calling_the_bracket_abelian(
    tmp_path, capsys
):
    alpha, backend = alpha_theta(0)
    g = build_gl_alpha(GlContext(2, alpha, backend))
    zero = tuple(tuple(backend.coerce(0) for _ in range(4)) for _ in range(4))
    cases = {
        "zero-twist.json": (HomAlgebra(4, g.pairs, zero, backend), "(both signs hold)"),
        "abelian.json": (HomAlgebra(4, {}, g.twist, backend), "(abelian)"),
    }
    for name, (alg, note) in cases.items():
        path = tmp_path / name
        save_algebra(alg, path)
        main(["check-algebra", str(path)])
        out = capsys.readouterr().out
        assert f"bracket/twist sign\n      witness: sign +1 {note}\n" in out


def test_readme_verify_usage_lists_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("skewhom verify "))
    usage = [lines[start]]
    for line in lines[start + 1:]:
        if not line.startswith(" "):
            break
        usage.append(line)
    documented = set(re.findall(r"--[a-z][a-z-]*", " ".join(usage)))

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        option
        for action in sub.choices["verify"]._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == defined


def test_check_algebra_rejects_bad_file(tmp_path, capsys):
    g, _ = build_semi_euclidean(0)
    from skewhom.algebra import algebra_to_dict

    doc = algebra_to_dict(g)
    first = doc["bracket"][0]
    doc["bracket"].append({"i": first["j"], "j": first["i"], "value": first["value"]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-algebra", str(path)]) == 2
    assert "antisymmetry" in capsys.readouterr().err


def test_check_algebra_missing_file_is_io_error(capsys):
    assert main(["check-algebra", "no-such-file.json"]) == 2


def test_cohomology_builtin(capsys):
    assert main(["cohomology", "se4:theta=1", "--k", "1", "--s", "0"]) == 0
    out = capsys.readouterr().out
    assert "residual table" in out
    assert main(["cohomology", "gl2:theta=0", "--k", "2", "--s", "1"]) == 0


def test_cohomology_top_degree_is_degenerate_pass(capsys):
    assert main(["cohomology", "se4:theta=1", "--k", "4", "--s", "0"]) == 0


def test_cohomology_with_cochain_file(tmp_path, capsys):
    from skewhom.cohomology import cochain, save_cochain
    from skewhom.linalg import basis_vec

    eta = cochain(1, 4, 4, {(i,): basis_vec(4, i) for i in range(4)})
    path = tmp_path / "eta.json"
    save_cochain(eta, path)
    assert main(
        ["cohomology", "se4:theta=0", "--cochain", str(path), "--k", "1", "--s", "0"]
    ) == 0
    out = capsys.readouterr().out
    assert "coboundary of degree-1 cochain" in out


def test_algebra_reference_is_a_file_when_the_path_exists(tmp_path, capsys, monkeypatch):
    from skewhom.constructions import resolve_algebra

    # a file named like a builtin loads as the file: r3 has 3 generators, se4 has 4
    monkeypatch.chdir(tmp_path)
    save_algebra(build_r3_cross(identity(3)), tmp_path / "se4:theta=1")
    assert resolve_algebra("se4:theta=1").dim == 3
    assert main(["cohomology", "se4:theta=1", "--k", "1", "--s", "0"]) == 0
    assert "basis cochain (0,) axis 2: 0" in capsys.readouterr().out
    assert resolve_algebra("se4:theta=1/2").dim == 4


def usage_error(ref):
    return (
        f"error: {ref!r} is neither an existing algebra file nor a builtin family"
        " (se4, gl2, r3)\n"
    )


def test_unknown_algebra_reference_is_usage_error(capsys):
    assert main(["cohomology", "nope:theta=1", "--k", "1", "--s", "0"]) == 2
    assert capsys.readouterr().err == usage_error("nope:theta=1")


def test_missing_algebra_file_is_not_called_an_unknown_family(capsys):
    # a mistyped file name must not read as a request for a builtin family
    assert main(["cohomology", "missing.json", "--k", "1", "--s", "0"]) == 2
    assert capsys.readouterr().err == usage_error("missing.json")


# Each reference names a builtin family with a wrong key or a malformed value,
# with a fragment its one error line must hold.
MALFORMED_REFERENCES = [
    pytest.param("se4:tehta=1/2", "unknown key 'tehta'", id="se4-misspelt-key"),
    pytest.param("gl2:A=1", "unknown key 'A'", id="gl2-foreign-key"),
    pytest.param("r3:theta=1", "r3 takes A", id="r3-foreign-key"),
    pytest.param("r3:A=[[1.0,0,0],[0,1,0],[0,0,1]]", "not a scalar: 1.0", id="r3-float-entry"),
    pytest.param("r3:A=[[true,0,0],[0,1,0],[0,0,1]]", "not a scalar: True", id="r3-boolean-entry"),
    pytest.param("r3:A=5", "not a list of rows", id="r3-not-a-list"),
    pytest.param("r3:A=[[1,0],[0,1]]", "3x3", id="r3-2x2-matrix"),
    pytest.param("r3:A=[[1,1,0],[0,1,0],[0,0,1]]", "orthogonal", id="r3-not-orthogonal"),
]


@pytest.mark.parametrize("ref, reason", MALFORMED_REFERENCES)
def test_a_malformed_builtin_reference_is_a_usage_error(capsys, ref, reason):
    assert main(["cohomology", ref, "--k", "1", "--s", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and reason in line
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("ref, reason", MALFORMED_REFERENCES)
def test_a_malformed_reference_in_a_representation_file_is_located(tmp_path, ref, reason):
    # rho and phi make a zero representation of se4 and gl2, so only the reference can fail
    doc = {"algebra": ref, "m": 1, "rho": [[["0"]]] * 4, "phi": [["1"]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FileFormatError) as info:
        load_representation(path)
    assert info.value.location == "algebra" and reason in str(info.value)


@pytest.mark.parametrize(
    "algebra, ref, reason",
    [
        pytest.param("se4:theta=0", "se4:tehta=1/2", "unknown key 'tehta'", id="malformed"),
        pytest.param("se4:theta=0", "r3:A=[[1,0,0],[0,1,0],[0,0,1]]", "is not the algebra",
                     id="r3-for-se4"),
        pytest.param("gl2:theta=1", "r3:A=[[1,0,0],[0,1,0],[0,0,1]]", "is not the algebra",
                     id="r3-for-gl2"),
        pytest.param("se4:theta=0", "se4:theta=1", "is not the algebra", id="other-theta"),
        pytest.param("se4:theta=0", None, "missing algebra reference", id="missing"),
    ],
)
def test_cohomology_refuses_a_representation_of_another_algebra(
    tmp_path, capsys, algebra, ref, reason
):
    # a zero representation of se4 and gl2, so only the "algebra" field can fail
    doc = {"algebra": ref, "m": 1, "rho": [[["0"]]] * 4, "phi": [["1"]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["cohomology", algebra, "--rep", str(path), "--k", "1", "--s", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and reason in line and line.endswith("(algebra)")


def test_cohomology_takes_a_representation_naming_its_algebra_another_way(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    save_algebra(build_semi_euclidean(0)[0], tmp_path / "se4z.json")
    rep = tmp_path / "rep.json"
    for field, algebra in (
        ("se4z.json", "se4z.json"),
        (str(tmp_path / "se4z.json"), "se4z.json"),
        ("./se4z.json", "se4:theta=0"),
    ):
        doc = {"algebra": field, "m": 1, "rho": [[["0"]]] * 4, "phi": [["1"]]}
        rep.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["cohomology", algebra, "--rep", str(rep), "--k", "1", "--s", "0"]) == 0
        assert "PASS" in capsys.readouterr().out


def test_cohomology_reads_an_algebra_its_representation_names_the_same_way_once(
    tmp_path, capsys, monkeypatch
):
    from skewhom import algebra, cli

    monkeypatch.chdir(tmp_path)
    save_algebra(build_semi_euclidean(F(1, 2))[0], tmp_path / "se4h.json")
    rep = tmp_path / "rep.json"
    reads, resolved, loaded = [], [], []
    read_json, resolve, load = algebra.read_json, cli.resolve_algebra, cli.load_representation
    monkeypatch.setattr(algebra, "read_json", lambda path: reads.append(path) or read_json(path))
    monkeypatch.setattr(cli, "resolve_algebra", lambda ref: resolved.append(resolve(ref)) or resolved[-1])
    monkeypatch.setattr(cli, "load_representation", lambda *a: loaded.append(load(*a)) or loaded[-1])
    runs = []
    # the same file named another way is read a second time and compared, as before
    for field in ("se4h.json", "./se4h.json"):
        doc = {"algebra": field, "m": 2, "rho": [[["0", "1"], ["1", "0"]]] * 4,
               "phi": [["0", "1"], ["-1", "0"]]}
        rep.write_text(json.dumps(doc), encoding="utf-8")
        reads.clear()
        argv = ["cohomology", "se4h.json", "--rep", str(rep), "--k", "1", "--s", "1"]
        runs.append((main(argv), *capsys.readouterr()))
        assert len(reads) == (1 if field == "se4h.json" else 2)
        assert (loaded[-1].g is resolved[-1]) == (field == "se4h.json")
    assert runs[0] == runs[1] and runs[0][0] == 1 and runs[0][2] == ""


def test_cohomology_negative_degree_is_usage_error(capsys):
    assert main(["cohomology", "se4:theta=1", "--k", "-1", "--s", "0"]) == 2
    assert capsys.readouterr().err == "error: --k must be non-negative\n"


def test_cohomology_refuses_oversized_cochains(tmp_path, capsys):
    from skewhom.scalars import rational_backend

    n = 20
    g = HomAlgebra(n, {}, identity(n), rational_backend())
    path = tmp_path / "big.json"
    save_algebra(g, path)
    # C(20, 10) * 20 = 3,695,120 entries, over the limit of 65,536
    assert main(["cohomology", str(path), "--k", "10", "--s", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: degree-10 cochains on 20 generators")
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps({"k": 10, "entries": []}))
    assert main(["cohomology", str(path), "--cochain", str(eta), "--k", "0", "--s", "0"]) == 2
    err = capsys.readouterr().err
    assert "over the limit of 65536" in err and err.endswith("(k)\n")


def test_cohomology_bad_cochain_degree_is_located(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"k": -1, "entries": []}))
    args = ["cohomology", "se4:theta=0", "--cochain", str(path), "--k", "1", "--s", "0"]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: degree -1 is outside 0..4 (k)\n"


def test_cohomology_scans_once_and_keeps_its_report(tmp_path, capsys, monkeypatch):
    from skewhom import cohomology
    from skewhom.cli import _witness_str
    from skewhom.cohomology import basis_cochains, check_d_squared, coboundary
    from skewhom.linalg import vec_is_zero
    from skewhom.representation import zero_representation

    g, _ = build_semi_euclidean(F(1, 2))
    table = [list(row) for row in g.bracket]
    table[0][1] = table[0][1][:1] + (table[0][1][1] + 1,) + table[0][1][2:]
    table[1][0] = tuple(-x for x in table[0][1])
    mutated = HomAlgebra(4, tuple(map(tuple, table)), g.twist, g.backend)
    k, s = 1, 0

    calls = []
    original = cohomology.coboundary

    def counted(eta, rep, s):
        calls.append(eta.k)
        return original(eta, rep, s)

    for name, alg, code in (("mut.json", mutated, 1), ("pass.json", g, 0)):
        path = tmp_path / name
        save_algebra(alg, path)
        rep = zero_representation(alg, 4, identity(4))
        # the check row and the residual table as built from two separate scans
        report = check_d_squared(alg, rep, k, s)
        assert report.passed == (code == 0)
        table_text = f"squared-coboundary residual table (k={k}, s={s}):\n"
        failing = 0
        for key, axis, eta in basis_cochains(4, 4, k):
            twice = coboundary(coboundary(eta, rep, s), rep, s)
            nonzero = {
                out_key: value
                for out_key, value in sorted(twice.table.items())
                if not vec_is_zero(value)
            }
            failing += bool(nonzero)
            table_text += f"  basis cochain {key} axis {axis}: {nonzero or 0}\n"
        want = SuiteReport((
            CheckResult(f"{path}: coboundary nilpotency k={k} s={s}", report.passed,
                        _witness_str(report.witness)),
        ))
        assert (failing > 0) == (code == 1)

        monkeypatch.setattr(cohomology, "coboundary", counted)
        for fmt in ("text", "json"):
            argv = ["cohomology", str(path), "--k", str(k), "--s", str(s), "--format", fmt]
            calls.clear()
            assert main(argv) == code
            assert capsys.readouterr().out == table_text + want.render(fmt)
            # the residuals are read off the operator product: dense d never runs
            assert calls == []
            out_path = tmp_path / f"report.{fmt}"
            assert main(argv + ["--output", str(out_path)]) == code
            assert capsys.readouterr().out == table_text
            assert out_path.read_text() == want.render(fmt)
        monkeypatch.setattr(cohomology, "coboundary", original)


def test_cohomology_records_a_raising_scan(capsys, monkeypatch):
    from skewhom import cli
    from skewhom.errors import SingularMatrixError

    def broken(*args, **kwargs):
        raise SingularMatrixError("phi lost its inverse")

    monkeypatch.setattr(cli, "d_squared_failures", broken)
    assert main(["cohomology", "se4:theta=1", "--k", "1", "--s", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  se4:theta=1: coboundary nilpotency k=1 s=0" in out
    assert "witness: phi lost its inverse" in out
    # the table keeps its header and has no rows
    assert out.startswith("squared-coboundary residual table (k=1, s=0):\nFAIL")
    assert "basis cochain" not in out


def test_verify_records_a_raising_row_and_runs_the_rest(capsys, monkeypatch):
    from skewhom import cli
    from skewhom.errors import SingularMatrixError

    want = cmd_verify(SuiteConfig()).checks
    original = cli.check_power_sign_law

    def broken_at_two(g, m):
        if m == 2:
            raise SingularMatrixError("twist power lost its inverse")
        return original(g, m)

    monkeypatch.setattr(cli, "check_power_sign_law", broken_at_two)
    got = cmd_verify(SuiteConfig()).checks
    assert [c.name for c in got] == [c.name for c in want]
    broken = [i for i, c in enumerate(got) if "twist power 2" in c.name]
    assert len(broken) == 3  # one row per default theta
    for i, (g, w) in enumerate(zip(got, want)):
        if i in broken:
            assert (g.passed, g.witness) == (False, "twist power lost its inverse")
        else:
            assert g == w
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  se4(theta=0): twist power 2 carries bracket sign +1\n" \
        "      witness: twist power lost its inverse\n" in out
    assert out.endswith(f"{len(want) - 3}/{len(want)} checks passed\n")


def test_nullspace_csv(capsys):
    assert main(["nullspace", "--theta", "1/2", "--samples", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta,z,inner,cross_diff,Pz,z_in_vstar,Pz_in_vstar"
    assert len(lines) == 1 + 2 * 6
    assert any(line.endswith("true,true") for line in lines[1:])


def test_nullspace_exit_status_is_the_certificate_on_the_bracket(capsys, monkeypatch):
    # the bracket of this build leaves V* at (e_0, e_1) while P keeps it: the
    # rows are unchanged, and the exit status comes from the certificate
    from skewhom import cli

    g, ctx = build_semi_euclidean(F(1, 2))
    pairs = {**g.pairs, (0, 1): (F(1), F(0), F(0), F(0))}
    broken = HomAlgebra(4, pairs, g.twist, g.backend)
    argv = ["nullspace", "--theta", "1/2", "--samples", "6"]
    assert main(argv) == 0
    rows = capsys.readouterr().out
    monkeypatch.setattr(cli, "build_semi_euclidean", lambda theta: (broken, ctx))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (rows, "")
    # P maps every sampled member into V*, so the rows show no failure
    assert not any(line.endswith("true,false") for line in rows.splitlines())


R3_REFLECTION = "r3:A=[[1,0,0],[0,1,0],[0,0,-1]]"


def _r3_line_representation_file(tmp_path, phi):
    path = tmp_path / "rep.json"
    rep = {"algebra": R3_REFLECTION, "m": 1, "rho": [[["0"]], [["0"]], [["1"]]], "phi": [[phi]]}
    path.write_text(json.dumps(rep))
    return str(path)


def test_cohomology_vacuous_degree_forms_no_power_of_phi(tmp_path, capsys, monkeypatch):
    # k + 2 > n = 3: the check passes without building an operator, whose
    # phi^(k+1+s) at k = 3,000,000,000 and phi = 2 would exhaust memory
    from skewhom import cohomology

    def refuse(a, exponent):
        raise AssertionError(f"phi^{exponent} was formed")

    monkeypatch.setattr(cohomology, "mat_pow", refuse)
    rep = _r3_line_representation_file(tmp_path, "2")
    argv = ["cohomology", R3_REFLECTION, "--rep", rep, "--k", "3000000000", "--s", "0"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "squared-coboundary residual table (k=3000000000, s=0):\n"
        f"PASS  {R3_REFLECTION}: coboundary nilpotency k=3000000000 s=0\n"
        "1/1 checks passed\n"
    )


def test_cohomology_operator_index_over_the_limit_is_a_usage_error(tmp_path, capsys):
    from skewhom.cohomology import MAX_OPERATOR_INDEX

    # phi = -1 is an involution, so each power is cheap and only the limit refuses it
    rep = _r3_line_representation_file(tmp_path, "-1")
    for s in (MAX_OPERATOR_INDEX + 1, 3_000_000_000):
        assert main(["cohomology", R3_REFLECTION, "--rep", rep, "--k", "1", "--s", str(s)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: operator index {s} is over the limit of {MAX_OPERATOR_INDEX}\n"
        )
    assert main(["cohomology", R3_REFLECTION, "--rep", rep, "--k", "1",
                 "--s", str(MAX_OPERATOR_INDEX)]) == 1
    assert "error" not in capsys.readouterr().err


def test_a_reader_that_leaves_early_ends_the_run_quietly():
    # as in `skewhom nullspace ... | head -1`: the rows outgrow the pipe, so
    # the run is still writing when the reader closes it
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "skewhom", "nullspace", "--theta", "1/2", "--samples", "2000"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path}
    ) as proc:
        assert proc.stdout.readline().startswith(b"theta,z,")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (1, b"")


def test_nullspace_memory_does_not_grow_with_samples():
    class Sink:
        def write(self, text):
            return len(text)

    def peak(samples):
        tracemalloc.start()
        try:
            assert cmd_nullspace(F(1, 2), samples, out=Sink()) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cmd_nullspace(F(1, 2), 1000, out=Sink())  # first-use allocations of the interpreter
    small, large = peak(100), peak(1000)
    # rows are drawn and written one at a time: ten times the rows, the same peak
    assert large <= small + 16 * 1024


def test_counterexample_exit_codes(capsys):
    assert main(["counterexample", "gl2"]) == 1
    out = capsys.readouterr().out
    assert "no failing basis triple" in out
    assert main(["counterexample", "gl4"]) == 0
    out = capsys.readouterr().out
    assert "(0, 1, 2)" in out


def test_check_algebra_scans_once_and_keeps_its_report(tmp_path, capsys, monkeypatch):
    from skewhom import algebra, cli
    from skewhom.algebra import (
        Verdict,
        check_hom_jacobi,
        check_twist_sign,
        classify,
        load_algebra,
    )
    from skewhom.cli import _witness_str

    g, _ = build_semi_euclidean(F(1, 2))
    table = [list(row) for row in g.bracket]
    table[2][3] = table[2][3][:3] + (table[2][3][3] + 1,)
    table[3][2] = tuple(-x for x in table[2][3])
    mutated = HomAlgebra(4, tuple(map(tuple, table)), g.twist, g.backend)
    files = {"pass.json": g, "mut.json": mutated}

    def expected(path):
        # the report as built from three independent scans
        g = load_algebra(path)
        c, jac, ts = classify(g), check_hom_jacobi(g), check_twist_sign(g)
        sign_row = (False, _witness_str(ts.witness)) if ts.sign is None else (True, f"sign {ts.sign:+d}")
        return SuiteReport((
            CheckResult(f"{path}: verdict {c.verdict.value} (regular={c.regular})",
                        c.verdict != Verdict.NEITHER, _witness_str(c.witness)),
            CheckResult(f"{path}: twisted Jacobi identity", jac.passed, _witness_str(jac.witness)),
            CheckResult(f"{path}: bracket/twist sign", *sign_row),
        ))

    calls = {"check_hom_jacobi": 0, "check_twist_sign": 0}
    for name in calls:
        original = getattr(algebra, name)

        def counted(g, name=name, original=original):
            calls[name] += 1
            return original(g)

        monkeypatch.setattr(cli, name, counted)
        monkeypatch.setattr(algebra, name, counted)

    for name, alg in files.items():
        path = tmp_path / name
        save_algebra(alg, path)
        want = expected(str(path))
        for fmt in ("text", "json", "csv"):
            for key in calls:
                calls[key] = 0
            code = main(["check-algebra", str(path), "--format", fmt])
            assert code == (0 if name == "pass.json" else 1)
            assert capsys.readouterr().out == want.render(fmt)
            assert calls == {"check_hom_jacobi": 1, "check_twist_sign": 1}
    assert "verdict Neither" in want.to_text()


def _edit(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


def _malformed(kind, path, value, tmp_path):
    """Write a valid document of ``kind`` with one field replaced; return the argv."""
    from skewhom.algebra import algebra_to_dict
    from skewhom.cohomology import cochain, cochain_to_dict
    from skewhom.linalg import basis_vec
    from skewhom.representation import representation_to_dict, zero_representation

    if kind == "cochain":
        doc = cochain_to_dict(cochain(1, 4, 4, {(0,): basis_vec(4, 0)}))
        flag = ["--cochain"]
    elif kind == "rep":
        g, _ = build_semi_euclidean(0)
        doc = representation_to_dict(zero_representation(g, 4), "se4:theta=0")
        flag = ["--rep"]
    else:
        theta = F(1, 2) if kind == "quadratic" else 0
        doc = algebra_to_dict(build_semi_euclidean(theta)[0])
        flag = None
    _edit(doc, path, value)
    file = tmp_path / f"{kind}.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    if flag is None:
        return ["check-algebra", str(file)]
    return ["cohomology", "se4:theta=0", *flag, str(file), "--k", "1", "--s", "0"]


@pytest.mark.parametrize(
    "kind, path, value, location",
    [
        pytest.param("rational", ["bracket"], 5, "bracket", id="bracket-not-an-array"),
        pytest.param("rational", ["backend"], "rational", "dim/backend", id="backend-a-string"),
        pytest.param("quadratic", ["twist", 0, 0], {"b": "1"}, "twist[0]", id="twist-scalar-without-a"),
        pytest.param("rational", ["bracket", 0, "value", 0], 1.5, "bracket[0]", id="float-in-rational-bracket"),
        pytest.param("quadratic", ["bracket", 1, "value", 1], 1.5, "bracket[1]", id="float-in-quadratic-bracket"),
        pytest.param("rational", ["twist", 1, 2], 1.5, "twist[1]", id="float-in-twist"),
        pytest.param("rep", ["rho", 0, 0, 0], 1.5, "rho/phi", id="float-in-rho"),
        pytest.param("cochain", ["entries", 0, "value", 0], 1.5, "entries[0]", id="float-in-cochain-value"),
        pytest.param("rational", ["bracket", 0, "value", 0], float("nan"), "bracket[0]", id="nan-in-bracket"),
        pytest.param("rational", ["twist", 0, 0], float("inf"), "twist[0]", id="infinity-in-twist"),
        pytest.param("rational", ["bracket", 0, "i"], "1e400", "bracket[0]", id="exponent-string-index"),
        pytest.param("rational", ["bracket", 0, "value", 0], "1e4301", "bracket[0]", id="huge-exponent-scalar"),
        pytest.param("quadratic", ["twist", 0, 0], {"a": "1", "b": "-1e-4301"}, "twist[0]", id="huge-exponent-surd"),
        pytest.param("quadratic", ["backend", "theta"], "1e4301", "dim/backend", id="huge-exponent-theta"),
        pytest.param("rational", ["backend", "kind"], "float", "dim/backend", id="float-kind"),
        pytest.param("quadratic", ["backend", "theta"], float("nan"), "dim/backend", id="nan-theta"),
        pytest.param("quadratic", ["backend", "theta"], True, "dim/backend", id="bool-theta"),
        pytest.param("quadratic", ["backend", "theta"], "1/0", "dim/backend", id="zero-denominator-theta"),
        pytest.param("rational", ["bracket", 0, "value", 0], "1/0", "bracket[0]", id="zero-denominator-scalar"),
        pytest.param("quadratic", ["twist", 0, 0], {"a": "1/0", "b": "0"}, "twist[0]", id="zero-denominator-surd"),
        pytest.param("rational", ["dim"], 2.7, "dim/backend", id="fractional-dim"),
        pytest.param("rational", ["dim"], True, "dim/backend", id="boolean-dim"),
        pytest.param("rational", ["bracket", 0, "i"], 0.9, "bracket[0]", id="fractional-i"),
        pytest.param("rational", ["bracket", 0, "j"], True, "bracket[0]", id="boolean-j"),
        pytest.param("cochain", ["k"], 1.0, "k", id="float-k"),
        pytest.param("cochain", ["entries", 0, "indices", 0], 0.5, "entries[0]", id="fractional-index"),
        pytest.param("cochain", ["entries"], 5, "entries", id="entries-a-number"),
        pytest.param("cochain", ["entries"], None, "entries", id="entries-null"),
        pytest.param("cochain", ["entries"], {"0": [1, 0, 0, 0]}, "entries", id="entries-an-object"),
        pytest.param("rep", ["m"], 4.5, "rho/phi", id="fractional-m"),
        pytest.param("rep", ["m"], -1, "m", id="negative-m"),
        pytest.param("rep", ["m"], 0, "m", id="zero-m"),
    ],
)
def test_malformed_fields_are_located_file_errors(tmp_path, capsys, kind, path, value, location):
    assert main(_malformed(kind, path, value, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.endswith(f"({location})\n")
    assert "Traceback" not in captured.err
