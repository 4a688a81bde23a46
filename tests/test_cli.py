import json
from fractions import Fraction as F

from skewhom.algebra import HomAlgebra, save_algebra
from skewhom.cli import (
    CheckResult,
    SuiteConfig,
    SuiteReport,
    cmd_verify,
    main,
)
from skewhom.constructions import build_r3_cross, build_semi_euclidean
from skewhom.linalg import identity


FAST = ["--samples", "5", "--k", "1", "--s", "0", "--theta", "0,1"]


def test_verify_default_config_passes():
    report = cmd_verify(SuiteConfig(sample_count=20))
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


def test_verify_empty_theta_is_usage_error(capsys):
    assert main(["verify", "--theta", ""]) == 2


def test_verify_bad_samples_is_usage_error():
    assert main(["verify", "--samples", "0"]) == 2


def test_unknown_command_is_usage_error():
    assert main(["bogus"]) == 2


def test_help_exits_cleanly():
    assert main(["--help"]) == 0


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


def test_check_algebra_cross_file(tmp_path, capsys):
    path = tmp_path / "cross.json"
    save_algebra(build_r3_cross(identity(3)), path)
    assert main(["check-algebra", str(path)]) == 0
    assert "Lie" in capsys.readouterr().out


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


def test_cohomology_negative_degree_is_usage_error(capsys):
    assert main(["cohomology", "se4:theta=1", "--k", "-1", "--s", "0"]) == 2
    assert capsys.readouterr().err == "error: --k must be non-negative\n"


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
    path = tmp_path / "mut.json"
    save_algebra(mutated, path)
    rep = zero_representation(mutated, 4, identity(4))
    k, s = 1, 0
    # the check row and the residual table as built from two separate scans
    report = check_d_squared(mutated, rep, k, s)
    assert not report.passed
    table_text = f"squared-coboundary residual table (k={k}, s={s}):\n"
    for key, axis, eta in basis_cochains(4, 4, k):
        twice = coboundary(coboundary(eta, rep, s), rep, s)
        nonzero = {
            out_key: value
            for out_key, value in sorted(twice.table.items())
            if not vec_is_zero(value, g.backend)
        }
        table_text += f"  basis cochain {key} axis {axis}: {nonzero or 0}\n"
    want = SuiteReport((
        CheckResult(f"{path}: coboundary nilpotency k={k} s={s}", False,
                    _witness_str(report.witness)),
    ))

    calls = []
    original = cohomology.coboundary

    def counted(eta, rep, s):
        calls.append(eta.k)
        return original(eta, rep, s)

    monkeypatch.setattr(cohomology, "coboundary", counted)
    for fmt in ("text", "json"):
        argv = ["cohomology", str(path), "--k", str(k), "--s", str(s), "--format", fmt]
        calls.clear()
        assert main(argv) == 1
        assert capsys.readouterr().out == table_text + want.render(fmt)
        # d on each of the 16 basis cochains and on its image, once
        assert calls == [k, k + 1] * 16
        out_path = tmp_path / f"report.{fmt}"
        assert main(argv + ["--output", str(out_path)]) == 1
        assert capsys.readouterr().out == table_text
        assert out_path.read_text() == want.render(fmt)


def test_cohomology_records_a_raising_scan(capsys, monkeypatch):
    from skewhom import cli
    from skewhom.errors import SingularMatrixError

    def broken(*args, **kwargs):
        raise SingularMatrixError("phi lost its inverse")

    monkeypatch.setattr(cli, "check_d_squared", broken)
    assert main(["cohomology", "se4:theta=1", "--k", "1", "--s", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  se4:theta=1: coboundary nilpotency k=1 s=0" in out
    assert "witness: phi lost its inverse" in out


def test_nullspace_csv(capsys):
    assert main(["nullspace", "--theta", "1/2", "--samples", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta,z,inner,cross_diff,Pz,z_in_vstar,Pz_in_vstar"
    assert len(lines) == 1 + 2 * 6
    assert any(line.endswith("true,true") for line in lines[1:])


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
