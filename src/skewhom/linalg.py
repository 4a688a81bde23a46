"""Small dense vectors and matrices over backend scalars.

Vectors are tuples of scalars, matrices are tuples of row tuples; both are
immutable values and every operation is pure.  Dimensions are dynamic and
checked at call time.  Elimination uses exact division with first-nonzero
pivoting: exact backends need no stability pivoting, and a zero-divisor pivot
in a degenerate quadratic ring surfaces as the underlying backend error.

Also home to the 3D cross product of the cross-product construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from .errors import DimensionError, SingularMatrixError
from .scalars import QuadExt

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
    """``-u``; a zero entry is returned as is."""
    return tuple(-a if a else a for a in u)


def vec_scale(c: Scalar, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vec_is_zero(u: Vec) -> bool:
    return not any(u)


def vec_eq(u: Vec, v: Vec) -> bool:
    return vec_is_zero(vec_sub(u, v))


def identity(n: int) -> Mat:
    return tuple(basis_vec(n, i) for i in range(n))


def zero_mat(rows: int, cols: int) -> Mat:
    return (zero_vec(cols),) * rows


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_sub(a: Mat, b: Mat) -> Mat:
    _check_same_shape(a, b)
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b))


def mat_neg(a: Mat) -> Mat:
    return tuple(vec_neg(row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if not a or not b or len(a[0]) != len(b):
        raise DimensionError(
            f"cannot multiply {_shape(a)} by {_shape(b)}"
        )
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), _ZERO) for col in bt) for row in a
    )


def mat_vec(a: Mat, x: Vec) -> Vec:
    if not a or len(a[0]) != len(x):
        raise DimensionError(f"cannot apply {_shape(a)} to a vector of length {len(x)}")
    return tuple(sum((c * v for c, v in zip(row, x)), _ZERO) for row in a)


def mat_is_zero(a: Mat) -> bool:
    return all(map(vec_is_zero, a))


def mat_eq(a: Mat, b: Mat) -> bool:
    if _shape(a) != _shape(b):
        return False
    return mat_is_zero(mat_sub(a, b))


def flatten(a: Mat) -> Vec:
    """Row-major entries of a matrix as one vector."""
    return tuple(x for row in a for x in row)


def _shape(a: Mat) -> tuple:
    return (len(a), len(a[0]) if a else 0)


def _check_same_shape(a: Mat, b: Mat) -> None:
    if _shape(a) != _shape(b):
        raise DimensionError(f"shapes {_shape(a)} and {_shape(b)} differ")


def _square_dim(a: Mat) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionError(f"matrix of shape {_shape(a)} is not square")
    return n


def det(a: Mat) -> Scalar:
    """Determinant by exact elimination with first-nonzero pivoting."""
    n = _square_dim(a)
    rows = [list(row) for row in a]
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
    rows = [list(row) + list(basis_vec(n, i)) for i, row in enumerate(a)]
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

