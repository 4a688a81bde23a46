"""Command-line front end.

``verify`` runs the built-in verification sweep over the concrete families;
``check-algebra`` validates and classifies a user algebra file;
``cohomology`` runs the coboundary nilpotency check; ``nullspace`` emits the
null-subset membership table as CSV; ``counterexample`` scans for a basis
triple violating the squared-twist Jacobi identity.

Exit codes: 0 when every check passes, 1 when any check fails (or a
counterexample scan comes up empty), 2 for usage, IO, or parse errors.  A
reader that closes stdout early, as ``skewhom nullspace | head -1`` does,
ends the run with 1 and nothing on stderr: stdout is pointed at
``os.devnull``, as the note on SIGPIPE in the Python ``signal`` docs does.
Reports are deterministic for a fixed config and seed;
per-check timings are opt-in (``--timings``) because they are not.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from random import Random
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .algebra import (
    CheckReport,
    HomAlgebra,
    Verdict,
    Witness,
    check_hom_jacobi,
    check_power_sign_law,
    check_twist_sign,
    classify,
    load_algebra,
    open_output,
)
from .cohomology import (
    check_d_squared,
    coboundary,
    d_squared_failures,
    d_squared_report,
    load_cochain,
)
from .constructions import (
    GlContext,
    ad_alpha_squared_counterexample,
    alpha_block,
    alpha_theta,
    build_gl_alpha,
    build_r3_cross,
    build_semi_euclidean,
    check_pseudo_adjoint_identity,
    resolve_algebra,
)
from .errors import CounterexampleNotFoundError, FileFormatError, SkewhomError
from .linalg import Vec, identity, mat, mat_eq, mat_mul, mat_vec
from .representation import load_representation, zero_representation
from .se4geometry import SPAN, in_v_star, vstar_certificate, vstar_defect, vstar_draws
from .scalars import as_rational

__all__ = [
    "SuiteConfig",
    "CheckResult",
    "SuiteReport",
    "cmd_verify",
    "cmd_check_algebra",
    "cmd_cohomology",
    "cmd_nullspace",
    "cmd_counterexample",
    "main",
]


@dataclass(frozen=True)
class SuiteConfig:
    theta_list: Tuple[Fraction, ...] = (Fraction(0), Fraction(1), Fraction(1, 2))
    k_list: Tuple[int, ...] = (1, 2)
    s_list: Tuple[int, ...] = (0, 1, 2)
    timings: bool = False
    inject_mutation: bool = False


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Optional[str] = None
    seconds: Optional[float] = None


@dataclass(frozen=True)
class SuiteReport:
    checks: Tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        # vars, not asdict: the fields are flat, and asdict's deep copy doubled this call's time
        return json.dumps({"checks": [vars(c) for c in self.checks]}, indent=2)

    @staticmethod
    def from_json(text: str) -> "SuiteReport":
        return SuiteReport(tuple(CheckResult(**entry) for entry in json.loads(text)["checks"]))

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status}  {c.name}"
            if c.seconds is not None:
                line += f"  [{c.seconds:.3f}s]"
            if c.witness:
                line += f"\n      witness: {c.witness}"
            lines.append(line)
        passed = sum(1 for c in self.checks if c.passed)
        lines.append(f"{passed}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["name,passed,witness,seconds"]
        for c in self.checks:
            name, witness = _csv_field(c.name), _csv_field(c.witness or "")
            seconds = "" if c.seconds is None else f"{c.seconds:.6f}"
            lines.append(f"{name},{str(c.passed).lower()},{witness},{seconds}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            return self.to_csv()
        return self.to_text()


def _csv_field(text: str) -> str:
    """``text`` as one quoted CSV field, each embedded quote doubled (RFC 4180)."""
    return '"' + text.replace('"', '""') + '"'


def _witness_str(witness: Union[Witness, str, None]) -> Optional[str]:
    if witness is None or isinstance(witness, str):
        return witness
    text = f"at {witness.at}: residual {witness.residual}"
    if witness.note:
        text += f" ({witness.note})"
    return text


def _run_checks(
    rows: Iterable[Tuple[str, Callable[[], CheckReport]]], timings: bool = False
) -> SuiteReport:
    """Run each ``(name, check)`` row in order, timing it under ``timings``.

    A check that raises :class:`SkewhomError` fails its own row, with the
    message as the witness, and the later rows still run.
    """
    results = []
    for name, check in rows:
        start = time.perf_counter() if timings else None
        try:
            report = check()
        except SkewhomError as exc:
            report = CheckReport(False, str(exc))
        seconds = None if start is None else time.perf_counter() - start
        results.append(CheckResult(name, report.passed, _witness_str(report.witness), seconds))
    return SuiteReport(tuple(results))


def _classifies_as(g: HomAlgebra, expected: Verdict) -> CheckReport:
    c = classify(g)
    return CheckReport(c.verdict == expected, c.witness)


def _squared_twist_failure(ctx: GlContext) -> Optional[Tuple[tuple, Vec]]:
    """The first triple failing the squared-twist Jacobi identity and its residual, or None."""
    try:
        return ad_alpha_squared_counterexample(ctx)
    except CounterexampleNotFoundError:
        return None


def _mutate_bracket(g: HomAlgebra) -> HomAlgebra:
    """Failure-path hook: corrupt one structure constant, keeping antisymmetry."""
    value = list(g.bracket_at(0, 1))
    value[1] = value[1] + 1
    return HomAlgebra(g.dim, {**g.pairs, (0, 1): value}, g.twist, g.backend)


def cmd_verify(config: SuiteConfig) -> SuiteReport:
    """The full built-in verification sweep."""
    rows = []

    def add(name: str, check: Callable[..., CheckReport], *args) -> None:
        rows.append((name, partial(check, *args)))

    se4 = []
    for theta in config.theta_list:
        g, ctx = build_semi_euclidean(theta)
        if config.inject_mutation:
            g = _mutate_bracket(g)
        se4.append(g)
        label = f"se4(theta={theta})"
        add(f"{label}: classifies as SkewHomLie", _classifies_as, g, Verdict.SKEW_HOM_LIE)
        add(f"{label}: bracket and twist preserve the null subset", vstar_certificate, g, ctx)
        for m in (1, 2, 3):
            add(f"{label}: twist power {m} carries bracket sign {(-1) ** m:+d}",
                check_power_sign_law, g, m)

    gl2_ctx = GlContext(2, *alpha_theta(0))
    gl2 = build_gl_alpha(gl2_ctx)
    for theta, gl in ((0, gl2), (1, build_gl_alpha(GlContext(2, *alpha_theta(1))))):
        add(f"gl2(theta={theta}): classifies as SkewHomLie",
            _classifies_as, gl, Verdict.SKEW_HOM_LIE)

    def gl2_scan() -> CheckReport:
        failure = _squared_twist_failure(gl2_ctx)
        if failure is None:
            return CheckReport(True)
        return CheckReport(False, f"unexpected failing triple {failure[0]}: {failure[1]}")

    def gl4_scan() -> CheckReport:
        # an empty scan raises, and the runner fails the row with its message
        triple, _ = ad_alpha_squared_counterexample(GlContext(4, *alpha_block(4, 0)))
        return CheckReport(True, f"first failing triple {triple}")

    add("gl2(theta=0): conjugation twist is an involution",
        lambda: CheckReport(mat_eq(mat_mul(gl2.twist, gl2.twist), identity(4))))
    add("gl2(theta=0): squared-twist Jacobi residuals vanish identically (exhaustive scan)",
        gl2_scan)
    add("gl4(theta=0): squared-twist Jacobi counterexample exists", gl4_scan)

    r3_cases = (
        ("identity", identity(3), Verdict.LIE),
        ("reflection diag(1,1,-1)", mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]]), Verdict.SKEW_HOM_LIE),
        ("rotation by 90 degrees", mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), Verdict.HOM_LIE),
    )
    for name, twist, expected in r3_cases:
        add(f"r3 with {name} twist: classifies as {expected.value}",
            _classifies_as, build_r3_cross(twist), expected)

    theta, se4_first = config.theta_list[0], se4[0]
    label = f"se4(theta={theta})"
    add(f"{label}: pseudo-adjoint composition identity", check_pseudo_adjoint_identity, se4_first)
    add("gl2(theta=0): pseudo-adjoint composition identity", check_pseudo_adjoint_identity, gl2)
    d2_targets = (
        (label, se4_first, alpha_block(4, theta, se4_first.backend)[0]),
        ("gl2(theta=0)", gl2, identity(4)),
    )
    for label, g, phi in d2_targets:
        rep = zero_representation(g, 4, phi)
        for k in config.k_list:
            for s in config.s_list:
                add(f"{label}: coboundary nilpotency k={k} s={s}", check_d_squared, g, rep, k, s)

    return _run_checks(rows, config.timings)


def cmd_check_algebra(path: str) -> SuiteReport:
    """Load, validate, and classify an algebra file.

    The twist-sign and Jacobi scans run once each; the verdict row is
    derived from their results.
    """
    g = load_algebra(path)
    sign = check_twist_sign(g)
    jacobi = check_hom_jacobi(g)
    c = classify(g, sign, jacobi)
    if sign.sign is None:
        sign_row = CheckReport(False, sign.witness)
    else:
        note = " (abelian)" if sign.abelian else " (both signs hold)" if sign.both else ""
        sign_row = CheckReport(True, f"sign {sign.sign:+d}{note}")
    rows = (
        (f"{path}: verdict {c.verdict.value} (regular={c.regular})",
         CheckReport(c.verdict != Verdict.NEITHER, c.witness)),
        (f"{path}: twisted Jacobi identity", jacobi),
        (f"{path}: bracket/twist sign", sign_row),
    )
    return SuiteReport(
        tuple(CheckResult(name, r.passed, _witness_str(r.witness)) for name, r in rows)
    )


def cmd_cohomology(
    algebra_ref: str,
    k: int,
    s: int,
    rep_path: Optional[str] = None,
    cochain_path: Optional[str] = None,
) -> SuiteReport:
    """Coboundary nilpotency for one algebra, degree, and operator index.

    One scan gives both the check row and the residual table.
    """
    g = resolve_algebra(algebra_ref)
    if rep_path:
        rep = load_representation(rep_path, g, algebra_ref)
    else:
        rep = zero_representation(g, g.dim, identity(g.dim))
    if cochain_path:
        eta = load_cochain(cochain_path, g.dim, rep.m, g.backend)
        image = coboundary(eta, rep, s)
        print(f"coboundary of degree-{eta.k} cochain (s={s}):")
        for key in sorted(image.table):
            print(f"  {key}: {image.table[key]}")

    failures = None

    def scan():
        nonlocal failures
        failures = list(d_squared_failures(g, rep, k, s))
        return d_squared_report(failures, k, s)

    report = _run_checks([(f"{algebra_ref}: coboundary nilpotency k={k} s={s}", scan)])
    print(f"squared-coboundary residual table (k={k}, s={s}):")
    # no k-tuple exists above degree n, and combinations() would allocate k slots
    if failures is not None and k <= g.dim:
        nonzero = {(key, axis): value for key, axis, value in failures}
        for key, axis in itertools.product(itertools.combinations(range(g.dim), k), range(rep.m)):
            print(f"  basis cochain {key} axis {axis}: {nonzero.get((key, axis), 0)}")
    return report


def cmd_nullspace(
    theta: Fraction, samples: int = 50, seed: int = 0, out=None
) -> int:
    """Emit the null-subset membership table as CSV; exit 1 on a closure failure.

    The ``samples`` integer probes from ``Random(seed)``, then as many V*
    members from ``Random(seed + 1)``, are drawn and written one row at a
    time, so memory does not grow with ``samples``.  The rows are for
    reading; the exit status is :func:`vstar_certificate`'s verdict on the
    bracket and on P, for every vector.
    """
    out = out if out is not None else sys.stdout
    g, ctx = build_semi_euclidean(theta)
    backend = ctx.backend

    def fmt_vec(v):
        return "(" + ";".join(str(x) for x in v) + ")"

    print("theta,z,inner,cross_diff,Pz,z_in_vstar,Pz_in_vstar", file=out)
    rng = Random(seed)
    probes = (tuple(backend.coerce(rng.randint(-SPAN, SPAN)) for _ in range(4)) for _ in range(samples))
    for z in itertools.chain(probes, vstar_draws(ctx, samples, seed=seed + 1)):
        inner, cross = vstar_defect(z)
        z_in = in_v_star(z).member
        image = mat_vec(ctx.P, z)
        image_in = in_v_star(image).member
        print(
            f"{theta},{fmt_vec(z)},{inner},{cross},{fmt_vec(image)},"
            f"{str(z_in).lower()},{str(image_in).lower()}",
            file=out,
        )
    return 0 if vstar_certificate(g, ctx).passed else 1


def cmd_counterexample(family: str, theta: Fraction) -> int:
    """Scan a gl family for a squared-twist Jacobi counterexample."""
    if family not in ("gl2", "gl4"):
        raise ValueError(f"unknown counterexample target {family!r} (use gl2 or gl4)")
    m = 2 if family == "gl2" else 4
    failure = _squared_twist_failure(GlContext(m, *alpha_block(m, theta)))
    if failure is None:
        print(
            f"{family}(theta={theta}): no failing basis triple; the squared-twist "
            "Jacobi residual vanishes identically on this family"
        )
        return 1
    triple, residual = failure
    print(f"{family}(theta={theta}): first failing basis triple {triple}")
    print(f"residual: {residual}")
    return 0


def _fraction_list(text: str) -> List[Fraction]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    return [as_rational(piece) for piece in items]


def _int_list(text: str) -> List[int]:
    return [int(piece) for piece in text.split(",") if piece.strip()]


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: one shared instance, never change it."""
    parser = argparse.ArgumentParser(
        prog="skewhom",
        description="Exact verification of twisted-bracket algebra structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the built-in verification sweep")
    verify.add_argument("--theta", default="0,1,1/2", help="comma-separated rational list")
    verify.add_argument("--k", default="1,2", help="cochain degrees, comma-separated")
    verify.add_argument("--s", default="0,1,2", help="operator indices, comma-separated")
    verify.add_argument(
        "--seed", type=int, default=0, help="accepted and ignored: the sweep draws no samples"
    )
    verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    verify.add_argument("--output", default=None, help="write the report here instead of stdout")
    verify.add_argument("--timings", action="store_true", help="measure per-check wall time")
    verify.add_argument(
        "--inject-mutation",
        action="store_true",
        help="corrupt one structure constant first (failure-path self-test)",
    )

    check = sub.add_parser("check-algebra", help="validate and classify an algebra file")
    check.add_argument("path")
    check.add_argument("--format", choices=("text", "json", "csv"), default="text")
    check.add_argument("--output", default=None)

    coh = sub.add_parser("cohomology", help="coboundary nilpotency check")
    coh.add_argument("algebra", help="algebra file path or builtin name (se4:theta=1, ...)")
    coh.add_argument("--rep", default=None, help="representation file (default: zero action)")
    coh.add_argument("--cochain", default=None, help="also print the coboundary of this cochain")
    coh.add_argument("--k", type=int, required=True)
    coh.add_argument("--s", type=int, required=True)
    coh.add_argument("--format", choices=("text", "json", "csv"), default="text")
    coh.add_argument("--output", default=None)

    null = sub.add_parser("nullspace", help="emit the null-subset membership table (CSV)")
    null.add_argument("--theta", required=True)
    null.add_argument("--samples", type=int, default=50)
    null.add_argument("--seed", type=int, default=0)
    null.add_argument("--output", default=None)

    ce = sub.add_parser("counterexample", help="scan for a squared-twist Jacobi failure")
    ce.add_argument("family", choices=("gl2", "gl4"))
    ce.add_argument("--theta", default="0")

    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open_output(output) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        code = _run(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # the flush at exit then goes nowhere instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (FileFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command and return its exit code."""
    if args.command == "nullspace":
        if args.samples < 0:
            raise ValueError("--samples must be non-negative")
        theta = as_rational(args.theta)
        if args.output:
            with open_output(args.output) as handle:
                return cmd_nullspace(theta, args.samples, args.seed, out=handle)
        return cmd_nullspace(theta, args.samples, args.seed)

    if args.command == "counterexample":
        return cmd_counterexample(args.family, as_rational(args.theta))

    if args.command == "verify":
        thetas = _fraction_list(args.theta)
        if not thetas:
            raise ValueError("--theta list must be nonempty")
        k_list, s_list = tuple(_int_list(args.k)), tuple(_int_list(args.s))
        for flag, values in (("--k", k_list), ("--s", s_list)):
            if not values:
                raise ValueError(f"{flag} list must be nonempty")
            if min(values) < 0:
                raise ValueError(f"{flag} must be non-negative")
        config = SuiteConfig(
            theta_list=tuple(thetas),
            k_list=k_list,
            s_list=s_list,
            timings=args.timings,
            inject_mutation=args.inject_mutation,
        )
        report = cmd_verify(config)
    elif args.command == "check-algebra":
        report = cmd_check_algebra(args.path)
    else:
        for flag, value in (("--k", args.k), ("--s", args.s)):
            if value < 0:
                raise ValueError(f"{flag} must be non-negative")
        report = cmd_cohomology(
            args.algebra, args.k, args.s, rep_path=args.rep, cochain_path=args.cochain
        )
    _emit(report.render(args.format), args.output)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
