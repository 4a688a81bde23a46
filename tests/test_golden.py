"""Whole reports of the command-line tool against stored golden files.

Each case runs ``skewhom.cli.main`` in process and compares everything it
writes to standard output, byte for byte, with ``tests/golden/<name>.txt``,
and its exit code with the one listed here.  The cases cover the verification
sweep with and without the mutation hook, a failing-free squared-coboundary
table and a failing one, a squared-twist counterexample, the null-subset CSV
and a classified algebra file, in each report format the command has, so a
change that moves any scalar, witness, type or rendered byte in these reports
shows here.  The saved-algebra cases compare ``save_algebra``'s file for gl(R^4)
at theta = 1/2 and 3/4, gl(R^2) at theta = 1 and se4 at theta = 1/2 with
``tests/golden/<name>.json``, so every stored scalar keeps its value and its
type, a zero or a rational-valued ``QuadExt`` included.

After a deliberate report change, regenerate the files from the root of the
checkout with

    PYTHONPATH=src python tests/test_golden.py

and record the change in CHANGES.md.
"""

import contextlib
import io
import os
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest

from skewhom.algebra import save_algebra
from skewhom.cli import _mutate_bracket, main
from skewhom.constructions import (
    GlContext,
    alpha_block,
    alpha_theta,
    build_gl_alpha,
    build_semi_euclidean,
)

GOLDEN = Path(__file__).parent / "golden"
MUTATED_FILE = "se4-half-mutated.json"

# name -> (argv, exit code)
CASES = {
    "verify": (["verify", "--format", "json"], 0),
    "verify-mutation": (["verify", "--format", "json", "--inject-mutation"], 1),
    "cohomology-se4-half": (
        ["cohomology", "se4:theta=1/2", "--k", "2", "--s", "1", "--format", "json"],
        0,
    ),
    "counterexample-gl4-half": (["counterexample", "gl4", "--theta", "1/2"], 0),
    "nullspace-half": (["nullspace", "--theta", "1/2", "--samples", "40"], 0),
    "check-algebra-mutated": (["check-algebra", MUTATED_FILE, "--format", "json"], 1),
    "verify-text": (["verify"], 0),
    "verify-csv": (["verify", "--format", "csv"], 0),
    "verify-mutation-text": (["verify", "--inject-mutation"], 1),
    "check-algebra-mutated-text": (["check-algebra", MUTATED_FILE], 1),
    "check-algebra-mutated-csv": (["check-algebra", MUTATED_FILE, "--format", "csv"], 1),
    "cohomology-mutated-csv": (
        ["cohomology", MUTATED_FILE, "--k", "1", "--s", "0", "--format", "csv"],
        1,
    ),
}


# name -> builder of the algebra whose saved file is tests/golden/<name>.json
ALGEBRAS = {
    "algebra-gl4-half": lambda: build_gl_alpha(GlContext(4, *alpha_block(4, F(1, 2)))),
    "algebra-gl4-three-quarters": lambda: build_gl_alpha(GlContext(4, *alpha_block(4, F(3, 4)))),
    "algebra-gl2-one": lambda: build_gl_alpha(GlContext(2, *alpha_theta(1))),
    "algebra-se4-half": lambda: build_semi_euclidean(F(1, 2))[0],
}


def run(name: str, workdir: Path):
    """Exit code and standard output of one case, run with ``workdir`` as the working directory."""
    argv, _ = CASES[name]
    save_algebra(_mutate_bracket(build_semi_euclidean(F(1, 2))[0]), workdir / MUTATED_FILE)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_its_golden_file(name, tmp_path):
    code, text = run(name, tmp_path)
    assert code == CASES[name][1]
    assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_saved_algebra_matches_its_golden_file(name, tmp_path):
    save_algebra(ALGEBRAS[name](), tmp_path / "saved.json")
    assert (tmp_path / "saved.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def write_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            code, text = run(name, Path(workdir))
        if code != CASES[name][1]:
            sys.exit(f"{name}: exit code {code}, expected {CASES[name][1]}")
        (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {name}.txt")
    for name in sorted(ALGEBRAS):
        save_algebra(ALGEBRAS[name](), GOLDEN / f"{name}.json")
        print(f"wrote {name}.json")


if __name__ == "__main__":
    write_all()
