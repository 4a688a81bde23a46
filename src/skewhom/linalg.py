"""Small dense vectors and matrices over backend scalars.

Vectors are tuples of scalars, matrices are tuples of row tuples; both are
immutable values and every operation is pure.  Dimensions are dynamic and
checked at call time.  Elimination lifts ``int`` entries to ``Fraction`` and
uses exact division with first-nonzero pivoting: exact backends need no
stability pivoting, and a zero-divisor pivot in a degenerate quadratic ring
surfaces as the underlying backend error.  Products read each row and column
once as integer numerators (:func:`_numerators`) and make one scalar per
entry: a ``QuadExt`` exactly when one, a zero included, sits in its row or
column.  A float raises ``TypeError``, two discriminants
:class:`BackendMismatchError`.

Also home to the 3D cross product of the cross-product construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import eq, mul
from typing import Iterable, Optional, Union

from .errors import BackendMismatchError, DimensionError, SingularMatrixError
from .scalars import QuadExt, _reduced

Scalar = Union[Fraction, QuadExt, int]
Vec = tuple
Mat = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vec(entries: Iterable[Scalar]) -> Vec:
    return tuple(entries)


def mat(rows: Iterable[Iterable[Scalar]]) -> Mat:
    return tuple(tuple(row) for row in rows)


def zero_vec(n: int) -> Vec:
    return (_ZERO,) * n


def basis_vec(n: int, i: int) -> Vec:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionError(f"vector lengths {len(u)} and {len(v)} differ")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionError(f"vector lengths {len(u)} and {len(v)} differ")
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vec_scale(c: Scalar, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vec_is_zero(u: Vec) -> bool:
    return not any(u)


def vec_eq(u: Vec, v: Vec) -> bool:
    """Entrywise ``==``; exact scalars are in canonical form."""
    if len(u) != len(v):
        raise DimensionError(f"vector lengths {len(u)} and {len(v)} differ")
    return all(map(eq, u, v))


def identity(n: int) -> Mat:
    return tuple(basis_vec(n, i) for i in range(n))


def zero_mat(rows: int, cols: int) -> Mat:
    return (zero_vec(cols),) * rows


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_neg(a: Mat) -> Mat:
    return tuple(vec_neg(row) for row in a)


def _numerators(entries: Iterable[Scalar]) -> tuple:
    """``(ps, qs, den, disc)``: entry k is ``(ps[k] + qs[k]*R) / den`` in integers, ``den > 0``.

    ``disc = (d, dn, dd)`` is the discriminant of the ``QuadExt`` entries,
    zeros included, and ``R = dd*sqrt(d)``, so ``R*R = dn*dd``; with no
    ``QuadExt``, ``qs`` and ``disc`` are ``None``.
    """
    split, den, disc = [], 1, None
    for x in entries:
        if isinstance(x, QuadExt):
            if disc is None:
                disc = x.disc
            elif x.disc is not disc and x.disc != disc:
                raise BackendMismatchError(f"mixed discriminants {disc[0]} and {x.d}")
            p, q, r = x.p * disc[2], x.q, x.r * disc[2]
        elif isinstance(x, (int, Fraction)):
            (p, r), q = x.as_integer_ratio(), 0
        else:
            raise TypeError(f"not an exact scalar: {x!r}")
        split.append((p, q, r))
        if den % r:
            den = math.lcm(den, r)
    ps = [p * (den // r) for p, _, r in split]
    return ps, None if disc is None else [q * (den // r) for _, q, r in split], den, disc


def _scalar(kind: int, a: int, b: int, den: int, disc: Optional[tuple]) -> Scalar:
    """``(a + b*R) / den`` as an ``int`` (kind 0, den | a), a ``Fraction`` (1, b = 0) or a ``QuadExt`` (2)."""
    if kind == 2:
        return _reduced(a, b * disc[2], den, disc)
    return Fraction(a, den) if kind else a // den


def _entries(a: Mat) -> tuple:
    """``(e, den, disc, rr)``: ``e[k] = (kind, P, Q)`` is the row-major entry k of ``a`` read by
    :func:`_numerators`, and ``rr = R*R``.  ``kind`` is the one :func:`_scalar` makes of
    the entry; a product takes its factors' largest kind, as ``int < Fraction < QuadExt``.
    """
    flat = flatten(a)
    ps, qs, den, disc = _numerators(flat)
    kinds = [2 if isinstance(x, QuadExt) else 1 if isinstance(x, Fraction) else 0 for x in flat]
    return list(zip(kinds, ps, qs or [0] * len(ps))), den, disc, disc[1] * disc[2] if disc else 0


def _dot(u: tuple, v: tuple) -> Scalar:
    """``sum_k u_k v_k`` of two :func:`_numerators` readings, typed as a dense sum from ``Fraction(0)``."""
    (ps, qs, den, disc), (pt, qt, dt, dv) = u, v
    a = sum(map(mul, ps, pt))
    if disc is None and dv is None:
        return Fraction(a, den * dt)
    if disc and dv:
        if dv is not disc and dv != disc:
            raise BackendMismatchError(f"mixed discriminants {disc[0]} and {dv[0]}")
        a += sum(map(mul, qs, qt)) * disc[1] * disc[2]
    b = (sum(map(mul, ps, qt)) if qt else 0) + (sum(map(mul, qs, pt)) if qs else 0)
    return _scalar(2, a, b, den * dt, disc or dv)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if not a or not b or len(a[0]) != len(b):
        raise DimensionError(
            f"cannot multiply {_shape(a)} by {_shape(b)}"
        )
    cols = [_numerators(col) for col in zip(*b)]
    return tuple(tuple(_dot(row, col) for col in cols) for row in map(_numerators, a))


def mat_vec(a: Mat, x: Vec) -> Vec:
    if not a or len(a[0]) != len(x):
        raise DimensionError(f"cannot apply {_shape(a)} to a vector of length {len(x)}")
    x = _numerators(x)
    return tuple(_dot(row, x) for row in map(_numerators, a))


def mat_eq(a: Mat, b: Mat) -> bool:
    """Entrywise ``==`` of two matrices of one shape (``False`` for two shapes)."""
    return _shape(a) == _shape(b) and all(map(vec_eq, a, b))


def flatten(a: Mat) -> Vec:
    """Row-major entries of a matrix as one vector."""
    return tuple(x for row in a for x in row)


def _shape(a: Mat) -> tuple:
    return (len(a), len(a[0]) if a else 0)


def _square_dim(a: Mat) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionError(f"matrix of shape {_shape(a)} is not square")
    return n


def _exact_row(row: Vec) -> list:
    """``row`` with each ``int`` lifted to ``Fraction``, so that ``/`` divides exactly."""
    return [Fraction(x) if isinstance(x, int) else x for x in row]


def det(a: Mat) -> Scalar:
    """Determinant by exact elimination with first-nonzero pivoting."""
    n = _square_dim(a)
    rows = [_exact_row(row) for row in a]
    flip = False
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            return _ZERO
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            flip = not flip
        pivot = rows[col][col]
        for r in range(col + 1, n):
            if not rows[r][col]:
                continue
            factor = rows[r][col] / pivot
            rows[r] = [rows[r][c] - factor * rows[col][c] for c in range(n)]
    out = _ONE
    for i in range(n):
        out = out * rows[i][i]
    return -out if flip else out


def mat_inv(a: Mat) -> Mat:
    """Exact inverse via Gauss-Jordan; raises :class:`SingularMatrixError`."""
    n = _square_dim(a)
    rows = [_exact_row(row) + list(basis_vec(n, i)) for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"matrix has no inverse (pivot column {col})")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n):
            if r == col or not rows[r][col]:
                continue
            factor = rows[r][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def _scalar_types(a: Mat) -> tuple:
    """Each entry's type, or its discriminant for a ``QuadExt``.

    ``3 == Fraction(3) == QuadExt(3, 0, d)`` hash alike, so a cache key needs these,
    placed before the matrix, to keep their powers (and ``QuadExt`` entries
    of unequal discriminants) apart.
    """
    return tuple(getattr(x, "d", type(x)) for row in a for x in row)


# Bounded, because keys are whole matrices; one benchmark round of any
# workload leaves at most 37 entries (the cohomology workload).
@lru_cache(maxsize=128)
def _mat_pow_cached(types: tuple, a: Mat, exponent: int) -> Mat:
    if exponent == 0:
        return identity(len(a))
    if exponent < 0:
        inverse = mat_inv(a)
        return _mat_pow_cached(_scalar_types(inverse), inverse, -exponent)
    half = _mat_pow_cached(types, a, exponent // 2)
    out = mat_mul(half, half)
    if exponent % 2:
        out = mat_mul(out, a)
    return out


def mat_pow(a: Mat, exponent: int) -> Mat:
    """Integer matrix power; negative exponents invert once and cache."""
    _square_dim(a)
    a = mat(a)
    return _mat_pow_cached(_scalar_types(a), a, int(exponent))


def cross3(u: Vec, v: Vec) -> Vec:
    if len(u) != 3 or len(v) != 3:
        raise DimensionError("cross product needs two vectors of length 3")
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )

