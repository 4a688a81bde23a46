"""Files that skewhom writes: overwritten in place, byte for byte what stdout gets."""

import os
import stat

import pytest

from skewhom.algebra import load_algebra, open_output, save_algebra
from skewhom.cli import main
from skewhom.cohomology import cochain, save_cochain
from skewhom.constructions import GlContext, alpha_theta, build_gl_alpha, build_semi_euclidean
from skewhom.linalg import basis_vec
from skewhom.representation import save_representation, zero_representation


FAST = ["--k", "1", "--s", "0", "--theta", "0,1"]
VERIFY = ["verify", "--k", "1", "--s", "0", "--theta", "0"]
# every command that takes --output; check-algebra reads se4.json in the working directory
COMMANDS = {
    "verify-text": ["verify", *FAST, "--format", "text"],
    "verify-json": ["verify", *FAST, "--format", "json"],
    "verify-csv": ["verify", *FAST, "--format", "csv"],
    "verify-mutated": ["verify", *FAST, "--inject-mutation"],
    "check-algebra": ["check-algebra", "se4.json", "--format", "json"],
    "cohomology": ["cohomology", "se4:theta=1/2", "--k", "1", "--s", "0"],
    "nullspace": ["nullspace", "--theta", "1/2", "--samples", "5"],
}


@pytest.mark.parametrize("name", COMMANDS)
@pytest.mark.parametrize("before", ["longer", "shorter", "same"])
def test_the_output_file_holds_what_stdout_gets(tmp_path, capsys, monkeypatch, name, before):
    monkeypatch.chdir(tmp_path)
    save_algebra(build_semi_euclidean(0)[0], "se4.json")
    argv = COMMANDS[name]
    code = main(argv)
    stdout = capsys.readouterr().out
    out = tmp_path / "report"
    # cohomology prints its residual table to stdout either way; --output takes the report
    assert main(argv + ["--output", str(out)]) == code
    table = capsys.readouterr().out
    expected = stdout[len(table):].encode("utf-8")
    assert stdout.startswith(table) and expected
    size = {"longer": len(expected) + 4096, "shorter": 3, "same": len(expected)}[before]
    out.write_bytes(b"x" * size)
    assert main(argv + ["--output", str(out)]) == code
    assert capsys.readouterr().out == table
    assert out.read_bytes() == expected


def test_save_algebra_over_a_longer_file_loads_back_equal(tmp_path):
    path = tmp_path / "algebra.json"
    save_algebra(build_gl_alpha(GlContext(2, *alpha_theta(1))), path)
    assert len(path.read_bytes()) > 2000
    g = build_semi_euclidean(0)[0]
    save_algebra(g, path)
    assert load_algebra(path) == g


def test_a_multibyte_text_is_cut_at_its_byte_length(tmp_path):
    path = tmp_path / "text"
    path.write_bytes(b"x" * 100)
    with open_output(path) as handle:
        handle.write("\u221a5 \u03b8\n" * 3)
    assert path.read_bytes() == "\u221a5 \u03b8\n".encode("utf-8") * 3


def test_a_hard_link_sees_the_new_content(tmp_path, capsys):
    out, link = tmp_path / "report", tmp_path / "link"
    out.write_text("old content, longer than nothing\n" * 200, encoding="utf-8")
    os.link(out, link)
    assert main(VERIFY + ["--output", str(out)]) == 0
    assert link.read_bytes() == out.read_bytes()
    assert link.read_text(encoding="utf-8").endswith("checks passed\n")


def test_a_new_file_has_mode_0o666_less_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        out = tmp_path / "report"
        assert main(VERIFY + ["--output", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
@pytest.mark.parametrize("argv", [VERIFY, ["nullspace", "--theta", "1", "--samples", "3"]])
def test_output_to_the_null_device_exits_0(capsys, argv):
    assert main(argv + ["--output", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_output_to_a_directory_is_an_io_error(tmp_path, capsys):
    assert main(VERIFY + ["--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def _writers(tmp_path):
    """(argv or callable, the file it writes) for every way skewhom writes a file."""
    g = build_semi_euclidean(0)[0]
    algebra = tmp_path / "se4.json"
    save_algebra(g, algebra)
    report = str(tmp_path / "report")
    return [
        (VERIFY + ["--output", report], report),
        (["check-algebra", str(algebra), "--output", report], report),
        (["cohomology", "se4:theta=0", "--k", "1", "--s", "0", "--output", report], report),
        (["nullspace", "--theta", "1", "--samples", "3", "--output", report], report),
        (lambda path: save_algebra(g, path), str(algebra)),
        (lambda path: save_representation(zero_representation(g, 4), "se4:theta=0", path),
         str(tmp_path / "rep.json")),
        (lambda path: save_cochain(cochain(1, 4, 4, {(0,): basis_vec(4, 0)}), path),
         str(tmp_path / "eta.json")),
    ]


def test_no_write_truncates_with_o_trunc(tmp_path, capsys, monkeypatch):
    # the flush that O_TRUNC sets off on ext4 does not show reliably in wall time
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for write, target in _writers(tmp_path):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write("an existing file, rewritten\n" * 100)
        opened.clear()
        if callable(write):
            write(target)
        else:
            assert main(write) == 0
        flags = [f for path, f in opened if path == target]
        # every writer goes through os.open, so a write by another route fails here too
        assert flags and all(f & os.O_CREAT and not f & os.O_TRUNC for f in flags)
