"""Alternating cochains and the degree-raising coboundary operators d^s.

A degree-k cochain eta stores one value vector per strictly increasing
k-tuple of basis indices; evaluation extends it as a k-linear alternating
map.  For each integer s >= 0 the coboundary of eta at (x_1, ..., x_{k+1})
is the two-sum expression

    sum_i (-1)^(i+1) phi^(k+1+s) rho(x_i) phi^(-k-2-s)
                       eta(beta(x_1), ..., ^x_i, ..., beta(x_{k+1}))
  + sum_{i<j} (-1)^(i+j) eta([x_i, x_j], beta(x_1), ..., ^x_{i,j}, ...,
                             beta(x_{k+1}))

with 1-based positions, hats marking removed arguments, and the bracket
argument placed first.  Whenever rho satisfies the representation equations
and the algebra is skew-Hom-Lie, d^s . d^s = 0; ``check_d_squared`` verifies
this exactly on a spanning set of basis cochains.

Lemma: d^s = Phi^s d^0 Phi^(-s) in every degree, with Phi = id (x) phi
applying phi to every value.  Proof: let eta' = Phi^(-s) eta, so that
eta(y) = phi^s eta'(y).  A term of the first sum is then
phi^(k+1+s) rho(x_i) phi^(-k-2-s) phi^s eta'(...), phi^s times the same
term of d^0 eta', and so is a signed value eta(...) = phi^s eta'(...) of
the second.  So d^s eta = Phi^s d^0 eta', and d^s d^s = Phi^s d^0 d^0
Phi^(-s) is 0 exactly when d^0 d^0 is; H(d^s) is isomorphic to H(d^0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ._kernel import Coboundary, Kernel, Sparse
from .algebra import CheckReport, HomAlgebra, Witness, read_json, write_json
from .errors import DimensionError, FileFormatError
from .linalg import Vec, basis_vec, mat_pow, vec, vec_is_zero, zero_vec
from .representation import Representation
from .scalars import PARSE_ERRORS, format_scalar, parse_int, scalar_reader

# Largest C(n, k) * m a degree-k cochain on n generators with values in
# dimension m may have.  A cochain holds one value vector per increasing
# k-tuple, so a larger degree is refused before anything is allocated.
MAX_COCHAIN_ENTRIES = 1 << 16

# Largest operator index s that d^s is built for: phi^(k+1+s) is formed first, so
# a huge s would exhaust memory, and H(d^s) is isomorphic to H(d^0) (lemma above).
MAX_OPERATOR_INDEX = 64


def _check_index(s: int) -> None:
    if s < 0:
        raise ValueError("the operator family is indexed by s >= 0")
    if s > MAX_OPERATOR_INDEX:
        raise ValueError(f"operator index {s} is over the limit of {MAX_OPERATOR_INDEX}")


def _check_size(n: int, k: int, m: int) -> None:
    if k >= 0 and math.comb(n, k) * m > MAX_COCHAIN_ENTRIES:
        raise ValueError(
            f"degree-{k} cochains on {n} generators with values in dimension {m} "
            f"have {math.comb(n, k) * m} entries, over the limit of {MAX_COCHAIN_ENTRIES}"
        )


@dataclass(frozen=True)
class Cochain:
    """Degree, carrier dimension n, value dimension m, and the value table.

    The table maps every strictly increasing k-tuple of indices below n to a
    value vector of length m; degree 0 is a single vector keyed by ().
    """

    k: int
    n: int
    m: int
    table: Dict[Tuple[int, ...], Vec]

    def __post_init__(self) -> None:
        expected = set(_tuples(self.n, self.k))
        keys = set(self.table)
        if keys != expected:
            raise DimensionError(
                f"degree-{self.k} cochain on {self.n} generators needs "
                f"{len(expected)} entries, got {len(keys)}"
            )
        for key, value in self.table.items():
            if len(value) != self.m:
                raise DimensionError(f"value at {key} must have length {self.m}")


def _tuples(n: int, k: int):
    """The increasing k-tuples below n: none above degree n, where combinations() would allocate k slots."""
    return itertools.combinations(range(n), k) if k <= n else iter(())


def cochain(k: int, n: int, m: int, entries: Optional[dict] = None) -> Cochain:
    """Build a cochain; index tuples absent from ``entries`` get zero."""
    _check_size(n, k, m)
    table = {key: zero_vec(m) for key in _tuples(n, k)}
    for key, value in (entries or {}).items():
        key = tuple(int(i) for i in key)
        if key not in table:
            raise DimensionError(f"{key} is not a strictly increasing {k}-tuple below {n}")
        table[key] = vec(value)
    return Cochain(k, n, m, table)


def basis_cochains(n: int, m: int, k: int):
    """Yield (key, axis, cochain) with a single basis-vector entry set."""
    for key in _tuples(n, k):
        for axis in range(m):
            yield key, axis, cochain(k, n, m, {key: basis_vec(m, axis)})


def coboundary(eta: Cochain, rep: Representation, s: int) -> Cochain:
    """The degree-(k+1) cochain d^s eta; above top degree it is empty.

    ``eta`` must have ``rep.g.dim`` generators and values in dimension
    ``rep.m``; other shapes raise :class:`DimensionError`, and an ``s`` out of
    0..``MAX_OPERATOR_INDEX`` raises ``ValueError`` in every degree.

    This applies the matrix of ``d^s`` on degree k (:func:`_operator`) to
    eta's values as integer pairs; the m = 1 matrix of a zero rho is applied
    to each value axis alone.  Its kernel, taken with eta's values too,
    gives the type of every entry: a ``QuadExt`` when that kernel has a
    discriminant (a quadratic cochain on a rational algebra brings its own),
    a ``Fraction`` otherwise.  Mixed discriminants raise
    :class:`BackendMismatchError`, and a float raises ``TypeError``.
    """
    _check_index(s)
    g = rep.g
    n, k, m = eta.n, eta.k, eta.m
    if (n, m) != (g.dim, rep.m):
        raise DimensionError(
            f"a cochain on {n} generators with values in dimension {m} does not fit a "
            f"representation of a {g.dim}-dimensional algebra on dimension {rep.m}"
        )
    if k + 1 > n:
        return Cochain(k + 1, n, m, {})
    _check_size(n, k + 1, m)
    values = [x for key in itertools.combinations(range(n), k) for x in eta.table[key]]
    op = _operator(g, rep, k, s)
    # a rational operator takes the discriminant of eta's values
    kernel = op.kernel if op.kernel.d is not None else g.kernel_with(values)
    pairs, scale = kernel.pairs(values)
    axes = m // op.m  # 1, or m for the m = 1 matrix of a zero rho
    image: Sparse = {}
    for a in range(axes):
        column = {c: x for c, x in enumerate(pairs[a::axes]) if x is not None}
        image.update((r * axes + a, x) for r, x in op.apply(column).items())
    rows = range(len(op.targets))
    return Cochain(k + 1, n, m, _vectors(kernel, image, op.scale * scale, op.targets, m, rows))


def _vectors(kernel: Kernel, column: Sparse, scale: int, targets: list, m: int, rows) -> dict:
    """``{targets[u]: value}`` for each ``u`` in ``rows`` of an operator image's pair column.

    Component ``a`` at ``targets[u]`` is entry ``u * m + a`` over ``scale``,
    converted by :meth:`skewhom._kernel.Kernel.scalar`.
    """
    return {
        targets[u]: tuple(kernel.scalar(column.get(u * m + a, (0, 0)), scale) for a in range(m))
        for u in rows
    }


def _operator(g: HomAlgebra, rep: Representation, k: int, s: int, minors=None) -> Coboundary:
    """The matrix of ``d^s`` on degree-k cochains.

    ``rep`` is a representation of ``g``.  ``M_t = pre rho(e_t) post``, with
    ``pre = phi^(k+1+s)`` and ``post = phi^(-(k+2+s))`` from the cached
    :func:`skewhom.linalg.mat_pow`, is formed once per basis index as an
    integer-pair product on :attr:`Representation.kernel`.  ``pre`` and
    ``post`` are compiled over their own scales ``L_pre`` and ``L_post`` and
    every rho(e_t) is over ``L_rho``, so every ``M_t`` is over the positive
    integer ``L_pre * L_rho * L_post``; :class:`skewhom._kernel.Coboundary`,
    which has the entries, takes it into its own scale.  A zero rho gives
    ``M_t = 0``, so for every s and phi the matrix on m value axes is the
    m = 1 matrix on each axis alone: that one is returned, built once per
    degree and kept in ``g.kernel.zero_ops``.  rho is zero when the compiled
    rows of ``rep.kernel.rho`` are empty, so rho and phi are compiled in both
    cases, and a float raises ``TypeError`` and mixed discriminants
    :class:`BackendMismatchError` there too, as in
    :func:`skewhom.representation.check_representation`.  An ``s`` out of
    0..``MAX_OPERATOR_INDEX`` raises ``ValueError`` before any power is formed.
    """
    _check_index(s)
    for degree in (k, k + 1):
        _check_size(g.dim, degree, rep.m)
    if any(map(any, rep.kernel.rho)):
        pre = mat_pow(rep.phi, k + 1 + s)
        post = mat_pow(rep.phi, -(k + 2 + s))
        conj, scale = rep.kernel.conjugated(pre, post)
        return Coboundary(rep.kernel.kernel, k, rep.m, conj, scale, minors)
    ops = g.kernel.zero_ops
    if k not in ops:
        ops[k] = Coboundary(g.kernel, k, 1, [[{}]] * g.dim, 1, minors)
    return ops[k]


def d_squared_failures(g: HomAlgebra, rep: Representation, k: int, s: int):
    """Yield ``(key, axis, nonzero)`` for each degree-k basis cochain with d^s d^s != 0.

    Failing basis cochains come in ``basis_cochains`` order; ``nonzero``
    maps each output tuple where ``d^s(d^s(eta))`` is not zero to that
    residual, in sorted order.  Cochain sizes over ``MAX_COCHAIN_ENTRIES``
    and an ``s`` out of 0..``MAX_OPERATOR_INDEX`` raise ``ValueError`` on
    the call, before anything is built; the scan itself is lazy.

    The matrices of ``D_k = d^s`` on degree k and ``D_{k+1}`` are built
    once each (their entries are in :class:`skewhom._kernel.Coboundary`): a
    basis cochain fails exactly where its column of ``D_{k+1} D_k`` is not
    zero, and that column is its residual, typed as :func:`coboundary` types
    its entries; the two builds share one table of twist minors.  For
    ``k + 2 > n`` the target degree is empty, so nothing is built or fails.
    A zero rho is decided on :func:`_operator`'s m = 1 matrices: a failing
    ``key`` is read out as ``(key, axis)`` for axis 0..m-1, with the residual
    in component ``axis`` and zeros of the same type in the others.
    """
    if rep.g != g:
        rep = replace(rep, g=g)
    n, m = g.dim, rep.m
    _check_index(s)
    for degree in (k, k + 1, k + 2):
        _check_size(n, degree, m)
    if k + 2 > n:
        return iter(())
    minors: dict = {}
    op, after = _operator(g, rep, k, s, minors), _operator(g, rep, k + 1, s, minors)

    def columns():
        scale = op.scale * after.scale
        for key, axis, column in op.squared_failures(after):
            rows = sorted({r // op.m for r, (a, b) in column.items() if a or b})
            for axis in (axis,) if op.m == m else range(m):  # an m = 1 column on each axis
                at = column if op.m == m else {r * m + axis: x for r, x in column.items()}
                yield key, axis, _vectors(op.kernel, at, scale, after.targets, m, rows)

    return columns()


def d_squared_report(failures, k: int, s: int) -> CheckReport:
    """The report of a :func:`d_squared_failures` stream: its first item, if any.

    The witness is the failing basis cochain ``(key, axis)``, its first
    output tuple in sorted order, and the residual there.
    """
    for key, axis, nonzero in failures:
        out_key, value = next(iter(nonzero.items()))
        return CheckReport(False, Witness((key, axis, out_key), value, note=f"k={k} s={s}"))
    return CheckReport(True)


def check_d_squared(g: HomAlgebra, rep: Representation, k: int, s: int) -> CheckReport:
    """Verify d^s(d^s(eta)) = 0 exactly on every degree-k basis cochain.

    Linearity of the operator extends the verdict to all degree-k cochains.
    This is the first item of :func:`d_squared_failures`, so the scan stops
    at the first failing basis cochain.
    """
    return d_squared_report(d_squared_failures(g, rep, k, s), k, s)


# ---------------------------------------------------------------------------
# Cochain file format: {"k": int, "entries": [{"indices": [...], "value": [...]}]}


def cochain_to_dict(eta: Cochain) -> dict:
    entries = []
    for key in sorted(eta.table):
        value = eta.table[key]
        if vec_is_zero(value):
            continue
        entries.append(
            {"indices": list(key), "value": [format_scalar(x) for x in value]}
        )
    return {"k": eta.k, "entries": entries}


def cochain_from_dict(obj: dict, n: int, m: int, backend) -> Cochain:
    if not isinstance(obj, dict) or "k" not in obj:
        raise FileFormatError("cochain document must be an object with a degree")
    try:
        k = parse_int(obj["k"])
    except PARSE_ERRORS as exc:
        raise FileFormatError(f"bad degree: {exc}", location="k") from exc
    if not 0 <= k <= n:
        raise FileFormatError(f"degree {k} is outside 0..{n}", location="k")
    try:
        _check_size(n, k, m)
    except ValueError as exc:
        raise FileFormatError(str(exc), location="k") from exc
    listed = obj.get("entries", [])
    if not isinstance(listed, list):
        raise FileFormatError("entries must be an array of entries", location="entries")
    entries = {}
    read = scalar_reader(backend)
    for idx, entry in enumerate(listed):
        where = f"entries[{idx}]"
        try:
            key = tuple(parse_int(i) for i in entry["indices"])
            value = vec(map(read, entry["value"]))
        except PARSE_ERRORS as exc:
            raise FileFormatError(f"bad entry: {exc}", location=where) from exc
        if key in entries:
            raise FileFormatError(f"duplicate indices {key}", location=where)
        entries[key] = value
    try:
        return cochain(k, n, m, entries)
    except DimensionError as exc:
        raise FileFormatError(str(exc), location="entries") from exc


def save_cochain(eta: Cochain, path: Union[str, Path]) -> None:
    write_json(cochain_to_dict(eta), path)


def load_cochain(path: Union[str, Path], n: int, m: int, backend) -> Cochain:
    return cochain_from_dict(read_json(path), n, m, backend)
