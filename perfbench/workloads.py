"""The benchmark's requests: what each workload asks of skewhom, and how each
answer is checked against the oracle in ``oracle.py``.

A request is a name, a ``run`` that calls skewhom and is timed, and a
``check`` that is not timed and returns ``None`` or the reason the answer is
wrong.  Every request builds its algebra from scratch, so no request reuses
work another one did.  The oracle's own answers are computed once per
process and kept, because they do not change from round to round.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from random import Random
from typing import Callable, List, Optional

import oracle as O
from skewhom import algebra as A
from skewhom import cli
from skewhom import cohomology as H
from skewhom import constructions as C
from skewhom import representation as R
from skewhom import se4geometry as G
from skewhom.errors import CounterexampleNotFoundError
from skewhom.linalg import mat_vec
from skewhom.scalars import QuadExt, quadratic_backend

HALF, ONE, ZERO, THREE_QUARTERS = Fraction(1, 2), Fraction(1), Fraction(0), Fraction(3, 4)
CORRUPTIONS = ("constant", "rho", "witness")


@dataclass
class Request:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def once(fn):
    """Memoise a zero-argument oracle computation."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


# -- program <-> oracle ------------------------------------------------------


def build(family: str, theta: Fraction):
    """A paper family built by skewhom from scratch."""
    if family == "se4":
        return C.build_semi_euclidean(theta)[0]
    m = 2 if family == "gl2" else 4
    alpha, backend = C.alpha_block(m, theta)
    return C.build_gl_alpha(C.GlContext(m, alpha, backend))


def oracle_table(family: str, theta: Fraction) -> O.Table:
    if family == "se4":
        return O.se4_table(theta)
    return O.gl_table(theta, 2 if family == "gl2" else 4)


def to_program(pair, f: O.Field, backend):
    """An oracle S-pair as a scalar of the program's backend."""
    a, b = Fraction(pair[0]), Fraction(pair[1])
    if f.root is not None:
        return a + b * f.root
    if b == 0:
        return a
    return QuadExt(a, b * f.q, backend.d)


def pairs_of(f: O.Field, values) -> tuple:
    return tuple(f.from_program(x) for x in values)


def table_mismatch(g, t: O.Table) -> Optional[str]:
    """First structure constant or twist entry where the program's algebra differs."""
    f = t.field
    if g.dim != t.n:
        return f"dimension {g.dim}, expected {t.n}"
    bracket, twist = t.dense()
    for i in range(t.n):
        for j in range(t.n):
            if pairs_of(f, g.bracket[i][j]) != bracket[i][j]:
                return f"bracket[{i}][{j}] differs from the oracle"
    for r in range(t.n):
        if pairs_of(f, g.twist[r]) != twist[r]:
            return f"twist row {r} differs from the oracle"
    return None


def mutate(g, i: int, j: int, k: int, delta: int):
    """skewhom's algebra with [e_i, e_j]_k raised by ``delta`` (antisymmetry kept)."""
    table = [list(row) for row in g.bracket]
    value = list(table[i][j])
    value[k] = value[k] + delta
    table[i][j] = tuple(value)
    table[j][i] = tuple(-x for x in value)
    return A.HomAlgebra(g.dim, tuple(tuple(row) for row in table), g.twist, g.backend)


def scaled_twist(g, c: int):
    return A.HomAlgebra(g.dim, g.bracket, tuple(tuple(c * x for x in row) for row in g.twist), g.backend)


def adjoint(g):
    """rho(x) = [x, .] with phi = beta; column c of rho(e_i) is [e_i, e_c]."""
    n = g.dim
    rho = tuple(tuple(tuple(g.bracket[i][c][r] for c in range(n)) for r in range(n)) for i in range(n))
    return R.Representation(g, n, rho, g.twist)


def corrupt_rho(rep):
    """The same representation with one entry of rho(e_last) raised by 1."""
    rho = [list(map(list, r)) for r in rep.rho]
    rho[-1][0][-1] = rho[-1][0][-1] + 1
    return R.Representation(rep.g, rep.m, tuple(map(lambda r: tuple(map(tuple, r)), rho)), rep.phi)


def bump(values: tuple) -> tuple:
    """A wrong witness residual: the reported one with its last entry raised by 1."""
    return values[:-1] + (values[-1] + 1,)


def witness_error(f: O.Field, got, expected) -> Optional[str]:
    """Compare a reported witness (position, residual) with the oracle's."""
    if expected is None:
        return None if got is None else "a witness was reported where the oracle finds none"
    if got is None:
        return f"no witness, oracle expects {expected[0]}"
    at, residual = got
    if tuple(at) != tuple(expected[0]):
        return f"witness at {tuple(at)}, oracle's first failure is at {expected[0]}"
    pairs = pairs_of(f, residual)
    if all(p == (0, 0) for p in pairs):
        return f"witness residual at {tuple(at)} is zero"
    if pairs != expected[1]:
        return f"witness residual at {tuple(at)} differs from the oracle's recomputation"
    return None


def expected_failure(t: O.Table):
    """What classify must report for ``t``: the twist-sign witness, else the Jacobi one."""
    sign, witness = O.twist_sign_scan(t)
    if sign is None:
        return witness
    return O.first_jacobi_failure(t)


def pick_mutation(t: O.Table, i: int, j: int, rng: Random, jacobi: bool = True):
    """(i, j, k, delta): [e_i, e_j]_k changed by a seeded delta so that pair (i, j)
    breaks the twist sign -1.

    The change is linear in delta, so every delta breaks the pair and leaves
    the first failing triple where it is.  Of the k that break it, the one
    whose first failing Jacobi triple comes earliest is taken (with
    ``jacobi``), so the scans that stop at a witness stop at the same place
    on every seed.
    """
    delta = rng.choice((-2, -1, 1, 2))
    best = None
    for k in reversed(range(t.n)):
        m = t.mutated(i, j, k, 1)
        lhs, rhs = O.twist_sign_sides(m, i, j)
        O.vadd(lhs, rhs)
        if not lhs:
            continue
        if not jacobi:
            return i, j, k, delta
        fail = O.first_jacobi_failure(m)
        at = fail[0] if fail else (t.n,) * 3
        if best is None or at < best[0]:
            best = (at, k)
    if best is None:
        raise ValueError(f"no constant of pair ({i}, {j}) breaks the twist sign")
    return i, j, best[1], delta


# -- identities --------------------------------------------------------------


def classify_request(family, theta, mutation=None, twist_factor=1, corrupt=None):
    label = f"{family}(theta={theta})"

    @once
    def oracle_t():
        t = oracle_table(family, theta)
        if mutation:
            t = t.mutated(*mutation)
        if twist_factor != 1:
            t = t.with_twist([O.vscale(twist_factor, c) for c in t.tw], t.st)
        return t

    expect = once(lambda: expected_failure(oracle_t()))
    genuine = mutation is None and twist_factor == 1

    def run():
        g = build(family, theta)
        if corrupt == "constant":
            g = mutate(g, 0, 1, 1, 1)
        if mutation:
            g = mutate(g, *mutation)
        if twist_factor != 1:
            g = scaled_twist(g, twist_factor)
        return g, A.classify(g)

    def check(out):
        g, c = out
        bad = table_mismatch(g, oracle_t())
        if bad:
            return bad
        if not c.regular:
            return "twist reported singular"
        want = expect()
        if genuine:
            if want is not None:
                return f"oracle: the family itself fails at {want[0]}"
            if c.verdict != A.Verdict.SKEW_HOM_LIE or c.witness is not None:
                return f"verdict {c.verdict.value}, expected SkewHomLie"
            return None
        if want is None:
            return "oracle: the changed copy is still skew-Hom-Lie"
        if c.verdict != A.Verdict.NEITHER:
            return f"verdict {c.verdict.value}, expected Neither"
        w = c.witness
        residual = bump(w.residual) if corrupt == "witness" else w.residual
        return witness_error(oracle_t().field, (w.at, residual), want)

    kind = "mutated classify" if mutation else ("twist x2 classify" if twist_factor != 1 else "classify")
    return Request(f"{label} {kind}", run, check)


def twist_sign_request(family, theta, mutation):
    label = f"{family}(theta={theta})"
    t = once(lambda: oracle_table(family, theta).mutated(*mutation))
    want = once(lambda: O.twist_sign_scan(t()))

    def run():
        g = mutate(build(family, theta), *mutation)
        return g, A.check_twist_sign(g)

    def check(out):
        g, ts = out
        bad = table_mismatch(g, t())
        if bad:
            return bad
        sign, witness = want()
        if ts.sign != sign:
            return f"twist sign {ts.sign}, oracle {sign}"
        got = (ts.witness.at, ts.witness.residual) if ts.witness else None
        return witness_error(t().field, got, witness)

    return Request(f"{label} mutated twist-sign scan", run, check)


def power_request(family, theta, m):
    t = once(lambda: oracle_table(family, theta))

    def run():
        g = build(family, theta)
        return g, A.check_power_sign_law(g, m)

    def check(out):
        g, report = out
        return table_mismatch(g, t()) or (None if report.passed else f"power-sign law m={m} failed")

    return Request(f"{family}(theta={theta}) power-sign law m={m}", run, check)


def squared_twist_request(m, theta):
    t = once(lambda: O.gl_table(theta, m))
    want = once(lambda: O.first_jacobi_failure(O.squared_twist(t()), distinct=True))

    def run():
        alpha, backend = C.alpha_block(m, theta)
        try:
            return C.ad_alpha_squared_counterexample(C.GlContext(m, alpha, backend))
        except CounterexampleNotFoundError:
            return None

    def check(out):
        expected = want()
        if out is None:
            return None if expected is None else f"no triple reported, oracle finds {expected[0]}"
        return witness_error(t().field, out, expected)

    return Request(f"gl{m}(theta={theta}) squared-twist scan", run, check)


def vstar_request(theta, seed, count=24):
    """V* closure: skewhom's own check plus bracket values and P-images checked here."""
    rng = Random(seed)
    pairs_xy = [tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(2)) for _ in range(count)]
    t = O.se4_table(theta)
    f = t.field
    members = O.vstar_members(f, Random(seed + 1), count)
    backend = quadratic_backend(theta)
    xs = [tuple(tuple(map(backend.coerce, v)) for v in xy) for xy in pairs_xy]
    zs = [tuple(to_program(c, f, backend) for c in z) for z in members]
    expected = once(lambda: (
        [O.bracket_true(t, *[tuple((Fraction(c), Fraction(0)) for c in v) for v in xy]) for xy in pairs_xy],
        [O.mat_apply_true(t, z) for z in members],
    ))

    def run():
        g, ctx = C.build_semi_euclidean(theta)
        report = G.check_vstar_closure(theta, samples=count, seed=seed)
        values = [A.bracket_eval(g, x, y) for x, y in xs]
        images = [mat_vec(ctx.P, z) for z in zs]
        return report, values, images

    def check(out):
        report, values, images = out
        if not report.passed:
            return f"check_vstar_closure failed at {report.witness.at}"
        want_values, want_images = expected()
        for got, want in zip(values, want_values):
            got = pairs_of(f, got)
            if got != want or not O.in_vstar(f, got):
                return "a bracket value is wrong or outside V*"
        for got, want in zip(images, want_images):
            got = pairs_of(f, got)
            if got != want or not O.in_vstar(f, got):
                return "a P-image is wrong or outside V*"
        return None

    return Request(f"se4(theta={theta}) V* closure", run, check)


def identities(seed: int, workdir: Path, corrupt: Optional[str] = None) -> List[Request]:
    rng = Random(seed)
    small = [(fam, th) for th in (ZERO, ONE, HALF) for fam in ("se4", "gl2")]
    if corrupt == "constant":
        return [classify_request("se4", HALF, corrupt="constant")]
    if corrupt == "witness":
        t = O.se4_table(HALF)
        return [classify_request("se4", HALF, pick_mutation(t, 2, 3, rng), corrupt="witness")]
    if corrupt is not None:
        return []
    reqs = []
    for fam, th in small:
        t = oracle_table(fam, th)
        reqs.append(classify_request(fam, th))
        reqs.append(classify_request(fam, th, pick_mutation(t, 2, 3, rng)))
        reqs.append(power_request(fam, th, 3 if fam == "se4" else 2))
        if fam == "se4":
            reqs.append(vstar_request(th, rng.randrange(1 << 30)))
        else:
            reqs.append(squared_twist_request(2, th))
    reqs.append(classify_request("gl4", ZERO))
    reqs.append(classify_request("gl4", ZERO, twist_factor=2))
    reqs.append(twist_sign_request("gl4", THREE_QUARTERS,
                                   pick_mutation(O.gl_table(THREE_QUARTERS, 4), 14, 15, rng, jacobi=False)))
    reqs.append(squared_twist_request(4, HALF))
    return reqs


# -- cohomology --------------------------------------------------------------


def d_squared_request(family, theta, rep_kind, k, s, corrupt=None):
    t = once(lambda: oracle_table(family, theta))
    rep_ok = once(lambda: O.adjoint_rep_equations(t()) if rep_kind == "adjoint" else None)

    def run():
        g = build(family, theta)
        if corrupt == "constant":
            g = mutate(g, 0, 1, 1, 1)
        if rep_kind == "adjoint":
            rep = adjoint(g)
        else:
            rep = R.zero_representation(g, 4, C.alpha_block(4, theta, g.backend)[0])
        if corrupt == "rho":
            rep = corrupt_rho(rep)
        return g, H.check_d_squared(g, rep, k, s)

    def check(out):
        g, report = out
        if rep_ok() is not None:
            return f"oracle: the adjoint representation fails at {rep_ok()}"
        bad = table_mismatch(g, t())
        if bad:
            return bad
        return None if report.passed else f"d^2 != 0 at {report.witness.at}"

    return Request(f"{family}(theta={theta}) {rep_kind} d^{s} squared, k={k}", run, check)


def representation_request(family, theta, rep_kind, corrupt=None):
    t = once(lambda: oracle_table(family, theta))

    def run():
        g = build(family, theta)
        rep = adjoint(g) if rep_kind == "adjoint" else R.zero_representation(g, 4, C.alpha_block(4, theta, g.backend)[0])
        if corrupt == "rho":
            rep = corrupt_rho(rep)
        return g, R.check_representation(rep)

    def check(out):
        g, report = out
        return table_mismatch(g, t()) or (None if report.passed else f"representation fails at {report.witness.at}")

    return Request(f"{family}(theta={theta}) {rep_kind} representation equations", run, check)


def coboundary_request(family, theta, rep_kind, k, s, seed, corrupt=None):
    """d^s of one seeded dense cochain, checked entry by entry against the formula."""
    rng = Random(seed)
    keys = list(itertools.combinations(range(4), k))
    values = {key: tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4)) for key in keys}
    t = once(lambda: oracle_table(family, theta))

    def expected():
        tt = t()
        zero = (Fraction(0), Fraction(0))
        eta = {key: tuple((Fraction(x), Fraction(0)) for x in v) for key, v in values.items()}
        if rep_kind == "adjoint":
            rho, phi = O.adjoint_matrices(tt), O.twist_matrix(tt)
        else:
            alpha = O.scaled_alpha(tt.field, 4)
            q = tt.field.q
            phi = [[(Fraction(x[0], q), Fraction(x[1], q)) for x in row] for row in alpha]
            rho = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
        return O.coboundary_formula(tt, rho, phi, eta, k, s)

    expected = once(expected)

    def run():
        g = build(family, theta)
        rep = adjoint(g) if rep_kind == "adjoint" else R.zero_representation(g, 4, C.alpha_block(4, theta, g.backend)[0])
        eta = H.cochain(k, 4, 4, {key: tuple(map(g.backend.coerce, v)) for key, v in values.items()})
        return g, H.coboundary(eta, rep, s)

    def check(out):
        g, image = out
        bad = table_mismatch(g, t())
        if bad:
            return bad
        f = t().field
        want = expected()
        if set(image.table) != set(want):
            return "coboundary has the wrong index set"
        for key in sorted(want):
            got = image.table[key]
            if corrupt == "witness":
                got = bump(got)
            if pairs_of(f, got) != want[key]:
                return f"d^{s} eta at {key} differs from the formula"
        return None

    return Request(f"{family}(theta={theta}) {rep_kind} d^{s} of a seeded {k}-cochain", run, check)


# (family, theta, representation, k, s): every k and every s for each family,
# representation and theta.  At theta = 1/2 each adjoint d^2 check costs
# 0.5-3 s, so there the grid is thinned to a fixed cover of k and s.  On these
# 4-dimensional algebras d^2 from degree 3 lands in degree 5, which is empty:
# those requests time the work of d on degree 3, but their verdict cannot fail.
COHOMOLOGY_GRID = (
    [(fam, ZERO, rep, k, (k + off) % 3)
     for off, (fam, rep) in enumerate([("se4", "adjoint"), ("se4", "zero"), ("gl2", "adjoint"), ("gl2", "zero")])
     for k in (1, 2, 3)]
    + [("se4", HALF, "adjoint", 1, 0), ("se4", HALF, "adjoint", 3, 2),
       ("gl2", HALF, "adjoint", 1, 1), ("gl2", HALF, "adjoint", 3, 0),
       ("se4", HALF, "zero", 2, 1), ("gl2", HALF, "zero", 2, 2)]
)


def cohomology(seed: int, workdir: Path, corrupt: Optional[str] = None) -> List[Request]:
    rng = Random(seed)
    if corrupt == "constant":
        return [d_squared_request("se4", HALF, "adjoint", 1, 1, corrupt="constant")]
    if corrupt == "rho":
        return [representation_request("gl2", HALF, "adjoint", corrupt="rho"),
                d_squared_request("gl2", ZERO, "adjoint", 2, 0, corrupt="rho")]
    if corrupt == "witness":
        return [coboundary_request("se4", HALF, "adjoint", 1, 1, rng.randrange(1 << 30), corrupt="witness")]
    reqs = [d_squared_request(*row) for row in COHOMOLOGY_GRID]
    for fam in ("se4", "gl2"):
        for th in (ZERO, HALF):
            for rep in ("adjoint", "zero"):
                reqs.append(representation_request(fam, th, rep))
    for fam, th, rep, k, s in (("se4", HALF, "adjoint", 1, 1), ("gl2", HALF, "adjoint", 2, 0),
                               ("se4", ZERO, "adjoint", 2, 2), ("gl2", HALF, "zero", 1, 2)):
        reqs.append(coboundary_request(fam, th, rep, k, s, rng.randrange(1 << 30)))
    return reqs


# -- cli-files ---------------------------------------------------------------


def write_algebra(t: O.Table, path: Path) -> None:
    f = t.field
    entries = []
    for i in range(t.n):
        for j in range(i + 1, t.n):
            v = t.entry(i, j)
            if any(x != (0, 0) for x in v):
                entries.append({"i": i, "j": j, "value": [f.to_file(x) for x in v]})
    twist = [[f.to_file(t.twist_entry(r, c)) for c in range(t.n)] for r in range(t.n)]
    doc = {"dim": t.n, "backend": f.backend_json(), "bracket": entries, "twist": twist}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def write_adjoint_rep(t: O.Table, algebra_path: Path, path: Path, corrupt: bool = False) -> None:
    f = t.field
    rho = [[[f.to_file(t.entry(i, c)[r]) for c in range(t.n)] for r in range(t.n)] for i in range(t.n)]
    if corrupt:
        x = t.entry(t.n - 1, t.n - 1)[0]
        rho[-1][0][-1] = f.to_file((x[0] + 1, x[1]))
    phi = [[f.to_file(t.twist_entry(r, c)) for c in range(t.n)] for r in range(t.n)]
    doc = {"algebra": str(algebra_path), "m": t.n, "rho": rho, "phi": phi}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


_SCALAR = re.compile(r"QuadExt\(([^,]+), ([^,]+), d=[^)]+\)|Fraction\((-?\d+), (\d+)\)")


def parse_witness(text: str):
    """(position, residual scalars) from a report witness 'at (..): residual (..)'."""
    m = re.match(r"at \(([^)]*)\): residual \((.*)\)", text or "")
    if not m:
        return None
    at = tuple(int(x) for x in m.group(1).split(",") if x.strip())
    values = []
    for q in _SCALAR.finditer(m.group(2)):
        if q.group(1) is not None:
            values.append(_Quad(Fraction(q.group(1)), Fraction(q.group(2))))
        else:
            values.append(Fraction(int(q.group(3)), int(q.group(4))))
    return at, tuple(values)


@dataclass(frozen=True)
class _Quad:
    a: Fraction
    b: Fraction

    def __add__(self, other):
        return _Quad(self.a + other, self.b)


def call_cli(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def check_algebra_request(path: Path, t: O.Table, expect_pass: bool, corrupt=None):
    want = once(lambda: None if expect_pass else (
        expected_failure(t), O.first_jacobi_failure(t), O.twist_sign_scan(t)))

    def run():
        return call_cli(["check-algebra", str(path), "--format", "json"])

    def check(out):
        code, text = out
        try:
            checks = json.loads(text)["checks"]
        except (ValueError, KeyError):
            return f"exit {code}, report is not JSON"
        if len(checks) != 3:
            return f"{len(checks)} checks in the report, expected 3"
        verdict, jacobi, sign = checks
        if expect_pass:
            if code != 0 or not all(c["passed"] for c in checks):
                return f"exit {code}; expected every check to pass"
            if "verdict SkewHomLie (regular=True)" not in verdict["name"]:
                return f"report says {verdict['name']!r}"
            return None if sign["witness"] == "sign -1" else f"twist sign {sign['witness']!r}"
        if code != 1 or verdict["passed"] or "verdict Neither" not in verdict["name"]:
            return f"exit {code}, {verdict['name']!r}; expected Neither and exit 1"
        first, jac, (ts_sign, ts_witness) = want()
        reported = [(verdict["witness"], first), (jacobi["witness"] if not jacobi["passed"] else None, jac)]
        if ts_sign is None:
            reported.append((sign["witness"], ts_witness))
        elif not sign["passed"] or sign["witness"] != f"sign {ts_sign:+d}":
            return f"twist sign {sign['witness']!r}, oracle {ts_sign:+d}"
        for text_w, expected in reported:
            got = parse_witness(text_w) if text_w else None
            if got and corrupt == "witness":
                got = (got[0], bump(got[1]))
            bad = witness_error(t.field, got, expected)
            if bad:
                return bad
        return None

    return Request(f"check-algebra {path.name}", run, check)


def cohomology_cli_request(alg: Path, rep: Path, out_path: Path, t: O.Table, k: int, s: int):
    def run():
        code, table = call_cli(["cohomology", str(alg), "--rep", str(rep), "--k", str(k), "--s", str(s),
                                "--format", "json", "--output", str(out_path)])
        return code, table, out_path.read_text(encoding="utf-8")

    def check(out):
        code, table, report = out
        checks = json.loads(report)["checks"]
        if code != 0 or len(checks) != 1 or not checks[0]["passed"]:
            return f"exit {code}; expected d^2 = 0"
        rows = [line for line in table.splitlines() if line.startswith("  basis cochain")]
        if len(rows) != comb(t.n, k) * t.n or any(not line.endswith(": 0") for line in rows):
            return "residual table is not all zero"
        return None

    return Request(f"cohomology {alg.name} --rep {rep.name} --k {k} --s {s}", run, check)


def verify_request(seed: int):
    gl4 = once(lambda: O.first_jacobi_failure(O.squared_twist(O.gl_table(ZERO, 4)), distinct=True))

    def run():
        return call_cli(["verify", "--format", "json", "--seed", str(seed)])

    def check(out):
        code, text = out
        checks = json.loads(text)["checks"]
        if code != 0 or len(checks) != 37 or not all(c["passed"] for c in checks):
            return f"exit {code}; expected 37 passing checks"
        note = next(c["witness"] for c in checks if c["name"].startswith("gl4"))
        return None if note == f"first failing triple {gl4()[0]}" else f"gl4 note {note!r}"

    return Request(f"verify --seed {seed}", run, check)


def cli_files(seed: int, workdir: Path, corrupt: Optional[str] = None) -> List[Request]:
    rng = Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    sum8 = O.change_basis(O.direct_sum(O.se4_table(ZERO), O.gl_table(ZERO, 2)), *O.unimodular(8, rng))
    se4h = O.change_basis(O.se4_table(HALF), *O.unimodular(4, rng))
    gl2h = O.change_basis(O.gl_table(HALF, 2), *O.unimodular(4, rng))
    se4z = O.change_basis(O.se4_table(ZERO), *O.unimodular(4, rng))
    files = {"sum8": sum8, "se4h": se4h, "gl2h": gl2h, "se4z": se4z}
    for name in ("sum8", "se4h", "gl2h"):
        files[f"{name}_mut"] = files[name].mutated(*pick_mutation(files[name], 0, 1, rng))
    for name, t in files.items():
        write_algebra(t, workdir / f"{name}.json")
    write_adjoint_rep(se4z, workdir / "se4z.json", workdir / "se4z_rep.json", corrupt == "rho")
    # d^2 from degree 2 is the first nontrivial case on a 4-dimensional algebra:
    # from degree 3 it lands in degree 5, which is empty, and passes for any rho.
    cohomology = cohomology_cli_request(workdir / "se4z.json", workdir / "se4z_rep.json",
                                        workdir / "cohomology.json", se4z, 2, 1)
    if corrupt == "constant":
        write_algebra(files["sum8_mut"], workdir / "sum8.json")
        return [check_algebra_request(workdir / "sum8.json", sum8, True)]
    if corrupt == "rho":
        return [cohomology]
    if corrupt == "witness":
        return [check_algebra_request(workdir / "se4h_mut.json", files["se4h_mut"], False, corrupt="witness")]
    checks = [check_algebra_request(workdir / f"{name}.json", t, not name.endswith("_mut"))
              for name, t in files.items() if name != "se4z"]
    return checks + [cohomology, verify_request(seed)]


BUILDERS = {"identities": identities, "cohomology": cohomology, "cli-files": cli_files}
WORKLOADS = tuple(BUILDERS)
