"""Finite-dimensional algebras with an antisymmetric bracket and a twist map.

The carrier is encoded by structure constants: ``pairs[(i, j)]`` is the
vector ``[e_i, e_j]`` in the chosen basis for ``i < j``, and ``twist`` is the
matrix of the linear map that twists the Jacobi identity.  The checkers
below decide, with an explicit witness on failure, whether a table describes
a Lie algebra, a Hom-Lie algebra (twist commutes with the bracket), or a
skew-Hom-Lie algebra (twist anti-commutes:
``beta([x,y]) = -[beta(x), beta(y)]``), and whether the twisted Jacobi
identity

    [[y,z], beta(x)] + [[z,x], beta(y)] + [[x,y], beta(z)] = 0

holds on every basis triple.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

from ._kernel import Kernel, Twist, _discriminant
from .errors import BackendMismatchError, DimensionError, FileFormatError
from .linalg import (
    Mat,
    Vec,
    det,
    flatten,
    identity,
    mat,
    mat_eq,
    mat_pow,
    vec,
    vec_is_zero,
    vec_neg,
    vec_sub,
    zero_vec,
)
from .scalars import PARSE_ERRORS, QuadExt, ScalarBackend, format_scalar, parse_int, parse_scalar


class Verdict(str, Enum):
    LIE = "Lie"
    HOM_LIE = "HomLie"
    SKEW_HOM_LIE = "SkewHomLie"
    NEITHER = "Neither"


@dataclass(frozen=True)
class Witness:
    """Concrete failure evidence: the offending input and its nonzero residual."""

    at: tuple
    residual: object
    note: str = ""


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class TwistSign:
    """Result of the bracket/twist compatibility scan.

    ``sign`` is +1 or -1 when one constant is consistent across all basis
    pairs, ``None`` when no constant works (see ``witness``).  ``both``
    marks both constants consistent, for which +1 is reported by
    convention; ``abelian`` marks the all-zero bracket, where that is so.
    """

    sign: Optional[int]
    witness: Optional[Witness] = None
    abelian: bool = False
    both: bool = False


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    regular: bool
    witness: Optional[Witness] = None


@dataclass(frozen=True)
class HomAlgebra:
    """Dimension, bracket pairs, twist matrix, the scalar backend, and a zero vector.

    ``pairs`` maps ``(i, j)`` with ``i < j`` to ``[e_i, e_j]`` and holds
    nonzero values only; every other ``[e_i, e_j]`` follows from
    antisymmetry, which therefore holds by construction.  ``zero`` is the
    vector that stands for a missing pair and the diagonal.
    :meth:`from_pairs` checks and filters a pair table.  A dense n x n
    table in place of ``pairs`` is checked for antisymmetry and read
    through its i<j half, with its ``[0][0]`` entry as the zero vector.
    """

    dim: int
    pairs: dict
    twist: Mat
    backend: ScalarBackend
    zero: Optional[Vec] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = self.dim
        if not isinstance(self.pairs, dict):
            table = tuple(tuple(vec(v) for v in row) for row in self.pairs)
            if len(table) != n or any(len(row) != n for row in table):
                raise DimensionError(f"bracket table must be {n}x{n}")
            for i, j in itertools.product(range(n), repeat=2):
                if len(table[i][j]) != n:
                    raise DimensionError(f"bracket[{i}][{j}] must have length {n}")
            # (j, i) fails exactly when (i, j) does, so i <= j finds the first
            # failure; two zeros sum to zero, so only a nonzero side is added
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                if any(a + b for a, b in zip(table[i][j], table[j][i]) if a or b):
                    raise ValueError(f"bracket is not antisymmetric at ({i}, {j})")
            upper = itertools.combinations(range(n), 2)
            pairs = {(i, j): table[i][j] for i, j in upper if not vec_is_zero(table[i][j])}
            object.__setattr__(self, "pairs", pairs)
            object.__setattr__(self, "zero", table[0][0] if n else ())
        if self.zero is None:
            object.__setattr__(self, "zero", zero_vec(n))
        object.__setattr__(self, "twist", mat(self.twist))
        if len(self.twist) != n or any(len(row) != n for row in self.twist):
            raise DimensionError(f"twist must be {n}x{n}")

    @classmethod
    def from_pairs(
        cls, dim: int, pairs: dict, twist: Mat, backend: ScalarBackend, zero: Optional[Vec] = None
    ) -> "HomAlgebra":
        """Build from ``{(i, j): [e_i, e_j]}`` entries with ``i < j``.

        Missing pairs are ``zero`` (rational zeros by default); all-zero
        values are dropped.
        """
        kept = {}
        for (i, j), value in sorted(pairs.items()):
            if not 0 <= i < j < dim:
                raise ValueError(f"pair ({i}, {j}) is not an i<j pair in range")
            value = vec(value)
            if len(value) != dim:
                raise DimensionError(f"bracket[{i}][{j}] must have length {dim}")
            if not vec_is_zero(value):
                kept[(i, j)] = value
        return cls(dim, kept, twist, backend, zero)

    @cached_property
    def bracket(self) -> tuple:
        """Read-only dense table ``bracket[i][j] = [e_i, e_j]``, built on first use.

        Each entry is :meth:`bracket_at`; no checker reads this table.
        """
        n = self.dim
        return tuple(tuple(self.bracket_at(i, j) for j in range(n)) for i in range(n))

    def bracket_at(self, i: int, j: int) -> Vec:
        """``[e_i, e_j]`` as :attr:`bracket` holds it, without building that table.

        The stored value for i < j, ``zero`` on the diagonal and for a
        missing pair, and ``[e_j, e_i] = -[e_i, e_j]``.
        """
        if i < j:
            return self.pairs.get((i, j), self.zero)
        value = self.pairs.get((j, i))
        return self.zero if value is None else vec_neg(value)

    @cached_property
    def kernel(self) -> Kernel:
        """Bracket and twist as sparse integer pairs; a float among them raises ``TypeError``."""
        return Kernel(self.dim, self.pairs, self.twist)

    def kernel_with(self, values: Vec) -> Kernel:
        """:attr:`kernel`, or its view over the discriminant of ``values`` if ours are rational.

        The view (:meth:`skewhom._kernel.Kernel.over`) shares the kernel's
        tables, so it costs no build.  Mixed discriminants among ``values``
        raise :class:`BackendMismatchError`.
        """
        if self.kernel.d is None and any(isinstance(x, QuadExt) and x for x in values):
            return self.kernel.over(_discriminant(values))
        return self.kernel


def bracket_eval(g: HomAlgebra, x: Vec, y: Vec) -> Vec:
    """Bilinear extension of the structure-constant table.

    This is ``sum_i x_i [e_i, y]`` on integer pairs,
    :meth:`skewhom._kernel.Kernel.bracket_eval` of ``g.kernel_with`` the
    arguments.  Every entry is a ``QuadExt`` exactly when that kernel has a
    discriminant (of ``g``'s scalars or of a nonzero argument), a
    ``Fraction`` otherwise, zero included.  Two discriminants among ``g``'s
    scalars and the arguments raise :class:`BackendMismatchError`, and a
    float raises ``TypeError``.
    """
    if len(x) != g.dim or len(y) != g.dim:
        raise DimensionError(f"arguments must have length {g.dim}")
    return g.kernel_with((*x, *y)).bracket_eval(x, y)


def check_hom_jacobi(g: HomAlgebra) -> CheckReport:
    """Twisted Jacobi identity on all ordered basis triples.

    Multilinearity makes basis triples sufficient.  The witness is the
    lexicographically first failing ordered triple, which the sparse kernel
    finds among the i<j<k triples: the twisted cyclic sum is alternating,
    since the bracket is antisymmetric, so it vanishes on repeated indices
    and the sorted rearrangement of a failing triple fails too and comes
    first (the proof is in ``Kernel.first_jacobi_failure``).  The residual
    is the sum that scan found nonzero, typed as :func:`bracket_eval` types
    its entries.
    """
    failure = g.kernel.first_jacobi_failure()
    return CheckReport(True) if failure is None else CheckReport(False, Witness(*failure))


def check_twist_sign(g: HomAlgebra) -> TwistSign:
    """Detect the constant eps with beta([e_i, e_j]) = eps * [beta e_i, beta e_j].

    This is the bracket law of :func:`check_morphism` for beta into ``g``
    itself with both signs admissible.  When both signs survive, +1 is
    reported with ``both`` set; ``abelian`` is set only for the all-zero
    bracket, on which every constant is consistent (a zero twist keeps both
    signs on any bracket).  The witness is the first ordered pair after
    which no constant is left, with the residual for +1 if that is nonzero
    there and for -1 otherwise (``Kernel.first_sign_failure``).
    """
    abelian = all(vec_is_zero(v) for v in g.pairs.values())
    source, target, twist = _compiled(g.twist, g, g)
    signs, failure = target.first_sign_failure(source, twist, {1, -1})
    if failure is not None:
        return TwistSign(None, Witness(*failure), abelian)
    if abelian or signs == {1, -1}:
        return TwistSign(1, None, abelian, both=True)
    return TwistSign(signs.pop())


def classify(
    g: HomAlgebra,
    twist_sign: Optional[TwistSign] = None,
    jacobi: Optional[CheckReport] = None,
) -> Classification:
    """Sort the triple into Lie / HomLie / SkewHomLie / Neither.

    SkewHomLie needs twist sign -1 plus the twisted Jacobi identity; HomLie
    needs sign +1 plus the identity; Lie additionally requires the twist to
    be the identity map.  ``regular`` reports whether the twist is a linear
    automorphism.  A caller that already ran ``check_twist_sign`` or
    ``check_hom_jacobi`` on ``g`` may pass the result; the Jacobi scan is
    not run at all when no twist sign exists.
    """
    sign = twist_sign if twist_sign is not None else check_twist_sign(g)
    regular = bool(det(g.twist))
    if sign.sign is None:
        return Classification(Verdict.NEITHER, regular, sign.witness)
    if jacobi is None:
        jacobi = check_hom_jacobi(g)
    if not jacobi.passed:
        return Classification(Verdict.NEITHER, regular, jacobi.witness)
    if sign.sign == -1:
        return Classification(Verdict.SKEW_HOM_LIE, regular)
    if mat_eq(g.twist, identity(g.dim)):
        return Classification(Verdict.LIE, regular)
    return Classification(Verdict.HOM_LIE, regular)


def _compiled(f: Mat, g: HomAlgebra, h: HomAlgebra) -> tuple:
    """``g``'s and ``h``'s kernels in one ring, and ``f`` compiled on ``h``'s.

    The bracket law ``f([e_i,e_j]_g) = eps * [f e_i, f e_j]_h`` is then
    ``Kernel.first_sign_failure`` of ``h``'s kernel; both sides are
    antisymmetric, so its scan of the i<j pairs finds the first failing
    ordered pair.  Mixed discriminants raise :class:`BackendMismatchError`.
    """
    target = h.kernel_with(flatten(f))
    source = g.kernel.over(target.d)
    target = target.over(source.d)
    return source, target, target.twist if f is h.twist else Twist(target, f)


def check_power_sign_law(g: HomAlgebra, m: int) -> CheckReport:
    """Check beta^m([e_i,e_j]) = (-1)^m * [beta^m e_i, beta^m e_j] on all pairs.

    For a skew twist the sign alternates with the power: odd powers
    anti-commute with the bracket, even powers commute.  This is the bracket
    law of :func:`check_morphism` for beta^m into ``g`` itself.
    """
    if m < 1:
        raise ValueError("power must be a positive integer")
    source, target, twist = _compiled(mat_pow(g.twist, m), g, g)
    _, failure = target.first_sign_failure(source, twist, {(-1) ** m})
    if failure is None:
        return CheckReport(True)
    return CheckReport(False, Witness(*failure, note=f"m={m}"))


def check_morphism(f: Mat, g: HomAlgebra, h: HomAlgebra, sign: int) -> CheckReport:
    """Check that the matrix ``f`` is a (sign-twisted) morphism g -> h.

    Verifies ``f([e_i, e_j]_g) = sign * [f e_i, f e_j]_h`` on all basis pairs
    and the intertwining law ``f . twist_g = twist_h . f`` as matrices.
    ``sign`` is +1 for morphisms of Hom-Lie algebras and -1 for morphisms of
    skew-Hom-Lie algebras.  Both are decided on the kernels, and the
    witness residual is the one the failing scan summed: the vector
    ``f([e_i,e_j]_g) - sign * [f e_i, f e_j]_h``, or the entry of
    ``f twist_g - twist_h f``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if g.backend != h.backend:
        raise BackendMismatchError("source and target use different backends")
    if len(f) != h.dim or any(len(row) != g.dim for row in f):
        raise DimensionError(f"morphism matrix must be {h.dim}x{g.dim}")
    source, target, t = _compiled(f, g, h)
    _, failure = target.first_sign_failure(source, t, {sign})
    if failure is not None:
        (i, j), res = failure
        return CheckReport(False, Witness(("bracket", i, j), res))
    failure = target.first_twist_failure(source, t)
    if failure is None:
        return CheckReport(True)
    (r, c), diff = failure
    return CheckReport(False, Witness(("twist", r, c), diff))


# ---------------------------------------------------------------------------
# Algebra file format (UTF-8 JSON): {"dim", "backend", "bracket", "twist"}
# with bracket entries {"i", "j", "value"} for i < j; missing pairs are zero.

# Largest "dim" a file may declare (gl(R^11) has dimension 121).  The loader
# keeps only the pairs a file lists, but the twist has dim**2 entries, and the
# classifier's det and a dense bracket view grow like dim**3.
MAX_DIM = 128


def algebra_to_dict(g: HomAlgebra) -> dict:
    return {
        "dim": g.dim,
        "backend": g.backend.to_json(),
        "bracket": [
            {"i": i, "j": j, "value": [format_scalar(x) for x in value]}
            for (i, j), value in g.pairs.items()
            if not vec_is_zero(value)
        ],
        "twist": [[format_scalar(x) for x in row] for row in g.twist],
    }


def algebra_from_dict(obj: dict) -> HomAlgebra:
    if not isinstance(obj, dict):
        raise FileFormatError("algebra document must be a JSON object")
    try:
        dim = parse_int(obj["dim"])
        backend = ScalarBackend.from_json(obj["backend"])
    except PARSE_ERRORS as exc:
        raise FileFormatError(f"bad header: {exc}", location="dim/backend") from exc
    if dim < 1:
        raise FileFormatError("dimension must be positive", location="dim")
    if dim > MAX_DIM:
        raise FileFormatError(f"dimension {dim} exceeds the limit of {MAX_DIM}", location="dim")

    entries = obj.get("bracket", [])
    if not isinstance(entries, list):
        raise FileFormatError("bracket must be an array of entries", location="bracket")
    pairs: dict = {}
    seen: set = set()
    for idx, entry in enumerate(entries):
        where = f"bracket[{idx}]"
        try:
            i, j = parse_int(entry["i"]), parse_int(entry["j"])
            value = vec(parse_scalar(x, backend) for x in entry["value"])
        except PARSE_ERRORS as exc:
            raise FileFormatError(f"bad bracket entry: {exc}", location=where) from exc
        if not (0 <= i < dim and 0 <= j < dim):
            raise FileFormatError(f"indices ({i}, {j}) out of range", location=where)
        if len(value) != dim:
            raise FileFormatError(
                f"value must have length {dim}, got {len(value)}", location=where
            )
        if i == j:
            if not vec_is_zero(value):
                raise FileFormatError(f"diagonal entry ({i}, {i}) must be zero", location=where)
            continue
        if (i, j) in seen:
            raise FileFormatError(f"duplicate entry for ({i}, {j})", location=where)
        seen.add((i, j))
        key, upper = ((i, j), value) if i < j else ((j, i), vec_neg(value))
        if key in pairs:
            # the mirror entry came first
            if not vec_is_zero(vec_sub(upper, pairs[key])):
                raise FileFormatError(
                    f"entries ({j}, {i}) and ({i}, {j}) violate antisymmetry",
                    location=where,
                )
            continue
        pairs[key] = upper

    twist_rows = obj.get("twist")
    if not isinstance(twist_rows, list) or len(twist_rows) != dim:
        raise FileFormatError(f"twist must be a {dim}x{dim} array", location="twist")
    parsed_twist = []
    for r, row in enumerate(twist_rows):
        if not isinstance(row, list) or len(row) != dim:
            raise FileFormatError(f"twist row must have length {dim}", location=f"twist[{r}]")
        try:
            parsed_twist.append(vec(parse_scalar(x, backend) for x in row))
        except PARSE_ERRORS as exc:
            raise FileFormatError(f"bad twist row: {exc}", location=f"twist[{r}]") from exc
    try:
        return HomAlgebra.from_pairs(dim, pairs, mat(parsed_twist), backend)
    except (ValueError, DimensionError) as exc:
        raise FileFormatError(str(exc), location="document") from exc


@contextmanager
def open_output(path: Union[str, Path]):
    """Yield a UTF-8 handle overwriting ``path`` in place: ext4 flushes on close after ``O_TRUNC``.

    Leaving, also on an error, cuts a regular file (not ``/dev/null``, a pipe) to the length written.
    New files get 0o666 less the umask; old ones keep inode, links and mode.  Newlines are as with
    ``Path.write_text``.  Not atomic or crash-safe: a kill or crash before the cut leaves old bytes.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "w", encoding="utf-8") as handle:
        try:
            yield handle
        finally:
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                os.ftruncate(handle.fileno(), handle.tell())  # tell() flushes the text first


def write_json(doc: dict, path: Union[str, Path]) -> None:
    """Write one of the package's file documents: indented UTF-8 JSON."""
    with open_output(path) as handle:
        handle.write(json.dumps(doc, indent=2) + "\n")


def read_json(path: Union[str, Path]):
    """Parse a JSON file; a syntax error is a ``FileFormatError`` at its line and column."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"not valid JSON: {exc.msg}", location=f"line {exc.lineno}, column {exc.colno}"
        ) from exc


def save_algebra(g: HomAlgebra, path: Union[str, Path]) -> None:
    write_json(algebra_to_dict(g), path)


def load_algebra(path: Union[str, Path]) -> HomAlgebra:
    return algebra_from_dict(read_json(path))
