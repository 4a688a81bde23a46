"""Sparse integer-pair structure constants for the exact identity checkers.

An exact scalar ``a + b*sqrt(d)``, with ``d = dn/dd`` in lowest terms, is
stored as the integer pair ``(A, B)`` standing for ``A + B*R``, where
``R = dd*sqrt(d)`` and ``R*R = dn*dd`` is an integer.  Rationals have
``B = 0``.  Each tensor (the bracket, or one twist-like matrix) is multiplied
by one positive common denominator, its scale, so that all of its pairs are
integers.  The arithmetic is that of the ring Q[s]/(s**2 - d) written in the
generator ``R``, so a pair is zero exactly when the scalar it stands for is
zero, for a perfect-square ``d`` too.

Every identity checked here is homogeneous in each tensor: scaling the
bracket by ``L_C`` and a twist by ``L_t`` multiplies the twisted Jacobi sum
by ``L_C**2 * L_t`` and a sign-law residual by ``L_C * L_t**2`` (its left
side is multiplied by ``L_t`` once more to match), positive integers that do
not change whether a residual is zero.

The bracket is stored once, for ``i < j``, and read back through
``[e_j, e_i] = -[e_i, e_j]``.  The kernel only decides where an identity
first fails; the checkers in :mod:`skewhom.algebra` recompute the witness
residual there with their dense expression.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import BackendMismatchError
from .scalars import QuadExt

Pair = Tuple[int, int]
Sparse = Dict[int, Pair]

_ZERO: Pair = (0, 0)


def _discriminant(values: Iterable) -> Optional[Fraction]:
    """The one discriminant of the ``QuadExt`` scalars among ``values``, if any."""
    d = None
    for x in values:
        if isinstance(x, QuadExt) and x.d != d:
            if d is not None:
                raise BackendMismatchError(f"mixed discriminants {d} and {x.d}")
            d = x.d
    return d


def _nonzero(v: Sparse) -> bool:
    return any(a or b for a, b in v.values())


def _differs(u: Sparse, v: Sparse, sign: int) -> bool:
    """True when ``u - sign * v`` has a nonzero entry."""
    for k in u.keys() | v.keys():
        a, b = u.get(k, _ZERO)
        c, e = v.get(k, _ZERO)
        if a != sign * c or b != sign * e:
            return True
    return False


class _Twist:
    """A twist-like matrix by columns, its scale, and ``ad[j][p] = [e_p, t e_j]``."""

    def __init__(self, kernel: "Kernel", m) -> None:
        n = kernel.dim
        pairs, self.scale = kernel.pairs(m[r][c] for c in range(n) for r in range(n))
        self.cols: List[Sparse] = [
            {r: pairs[c * n + r] for r in range(n) if pairs[c * n + r] is not None}
            for c in range(n)
        ]
        self.ad: List[List[Sparse]] = [
            [kernel.basis_bracket(p, col) for p in range(n)] for col in self.cols
        ]


class Kernel:
    """The bracket of one exact algebra and its twist as sparse integer pairs.

    Antisymmetry of ``bracket`` is assumed; :class:`skewhom.algebra.HomAlgebra`
    validates it exactly on construction.  Mixed discriminants raise
    :class:`BackendMismatchError`.
    """

    def __init__(self, dim: int, bracket: tuple, twist: tuple) -> None:
        self.dim = n = dim
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.d = _discriminant(
            itertools.chain(
                (x for i, j in upper for x in bracket[i][j]),
                (x for row in twist for x in row),
            )
        )
        self.dd = self.d.denominator if self.d is not None else 1
        self.rr = self.d.numerator * self.d.denominator if self.d is not None else 0
        pairs, _ = self.pairs(x for i, j in upper for x in bracket[i][j])
        self.rows: List[Dict[int, Sparse]] = [{} for _ in range(n)]
        for idx, (i, j) in enumerate(upper):
            value = {k: pairs[idx * n + k] for k in range(n) if pairs[idx * n + k] is not None}
            if value:
                self.rows[i][j] = value
        self.twist = _Twist(self, twist)

    def pairs(self, values: Iterable) -> Tuple[List[Optional[Pair]], int]:
        """``values`` as integer pairs over one common scale (``None`` for zero)."""
        split: List[Optional[Tuple[Fraction, Fraction]]] = []
        for x in values:
            if not x:
                split.append(None)
            elif isinstance(x, QuadExt):
                if x.d != self.d:
                    raise BackendMismatchError(f"mixed discriminants {self.d} and {x.d}")
                split.append((x.a, x.b / self.dd))
            elif isinstance(x, (int, Fraction)):
                split.append((Fraction(x), Fraction(0)))
            else:
                raise TypeError(f"not an exact scalar: {x!r}")
        scale = math.lcm(*(q.denominator for p in split if p is not None for q in p))
        return [
            None if p is None else ((p[0] * scale).numerator, (p[1] * scale).numerator)
            for p in split
        ], scale

    def bracket(self, i: int, j: int) -> Sparse:
        """``[e_i, e_j]`` for ``i < j`` (empty when it is zero)."""
        return self.rows[i].get(j, {})

    def _add(self, acc: Sparse, coeff: Pair, v: Sparse, factor: int) -> None:
        """``acc += factor * coeff * v`` in the ring with ``R*R = rr``."""
        a, b = coeff
        a, b, rr = a * factor, b * factor, self.rr
        for k, (c, e) in v.items():
            x, y = acc.get(k, _ZERO)
            acc[k] = (x + a * c + b * e * rr, y + a * e + b * c)

    def _combine(self, acc: Sparse, u: Sparse, vecs: List[Sparse], factor: int) -> Sparse:
        """``acc += factor * sum_p u[p] * vecs[p]``; returns ``acc``."""
        for p, coeff in u.items():
            if vecs[p]:
                self._add(acc, coeff, vecs[p], factor)
        return acc

    def basis_bracket(self, p: int, v: Sparse) -> Sparse:
        """``[e_p, v]``, reading ``[e_p, e_q]`` for ``q < p`` as ``-[e_q, e_p]``."""
        acc: Sparse = {}
        for q, coeff in v.items():
            if q > p and q in self.rows[p]:
                self._add(acc, coeff, self.rows[p][q], 1)
            elif q < p and p in self.rows[q]:
                self._add(acc, coeff, self.rows[q][p], -1)
        return acc

    def first_jacobi_failure(self) -> Optional[Tuple[int, int, int]]:
        """Lexicographically first ordered basis triple whose twisted Jacobi sum is nonzero.

        ``J(x, y, z) = [[y,z], b x] + [[z,x], b y] + [[x,y], b z]`` is
        invariant under cyclic shifts by its form, and swapping ``x`` and
        ``y`` sends it to ``[[x,z], b y] + [[z,y], b x] + [[y,x], b z]``,
        which is ``-J(x, y, z)`` because the bracket is antisymmetric.  So
        ``J`` is alternating: on any rearrangement of ``(i, j, k)`` it is
        ``+-J(i, j, k)``, and it vanishes when two indices agree.  A failing
        ordered triple therefore has distinct entries, its sorted
        rearrangement fails as well and is lexicographically no larger, and
        the first failing ordered triple is the first failing ``i < j < k``
        triple, which is what this scan returns.
        """
        ad = self.twist.ad
        for i, j, k in itertools.combinations(range(self.dim), 3):
            acc = self._combine({}, self.bracket(j, k), ad[i], 1)
            self._combine(acc, self.bracket(i, k), ad[j], -1)
            self._combine(acc, self.bracket(i, j), ad[k], 1)
            if _nonzero(acc):
                return i, j, k
        return None

    def _sign_sides(self, t: _Twist) -> Iterable[Tuple[int, int, Sparse, Sparse]]:
        """``(i, j, L_t * t([e_i, e_j]), [t e_i, t e_j])`` for ``i < j``, scaled alike."""
        for i, j in itertools.combinations(range(self.dim), 2):
            lhs = self._combine({}, self.bracket(i, j), t.cols, t.scale)
            rhs = self._combine({}, t.cols[i], t.ad[j], 1)
            yield i, j, lhs, rhs

    def first_sign_failure(self, m, sign: int) -> Optional[Tuple[int, int]]:
        """First ordered basis pair where ``m([e_i,e_j]) != sign * [m e_i, m e_j]``.

        Both sides are antisymmetric in ``(i, j)`` and vanish for ``i = j``,
        so the first failing ordered pair is the first failing ``i < j``
        pair.
        """
        for i, j, lhs, rhs in self._sign_sides(_Twist(self, m)):
            if _differs(lhs, rhs, sign):
                return i, j
        return None

    def twist_sign_candidates(self) -> Tuple[Set[int], Optional[Tuple[int, int]]]:
        """Signs ``eps`` with ``b([e_i,e_j]) = eps * [b e_i, b e_j]`` on every pair so
        far, and the first pair that leaves none (``None`` if the scan ends).

        Pairs where both sides vanish are skipped.  Pair ``(j, i)`` admits
        exactly the signs that ``(i, j)`` admits, since both sides are
        antisymmetric, and ``(i, i)`` is skipped.  Every ordered pair
        ``(j, i)`` with ``j > i`` comes after ``(i, j)`` in lexicographic
        order, so it never removes a candidate: the ordered scan first runs
        out of candidates at an ``i < j`` pair, with the same candidates as
        this scan of ``i < j`` pairs has there, and ends with the same
        candidates.
        """
        candidates = {1, -1}
        for i, j, lhs, rhs in self._sign_sides(self.twist):
            if not _nonzero(lhs) and not _nonzero(rhs):
                continue
            candidates &= {s for s in (1, -1) if not _differs(lhs, rhs, s)}
            if not candidates:
                return candidates, (i, j)
        return candidates, None
