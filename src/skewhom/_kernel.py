"""Sparse integer-pair structure constants for the exact identity checkers.

An exact scalar ``a + b*sqrt(d)``, with ``d = dn/dd`` in lowest terms, is
stored as the integer pair ``(A, B)`` standing for ``A + B*R``, where
``R = dd*sqrt(d)`` and ``R*R = dn*dd`` is an integer.  Rationals have
``B = 0``.  Each tensor (the bracket, one twist-like matrix, a
representation's ``rho`` or ``phi``) is multiplied by one positive common
denominator, its scale, so that all of its pairs are integers.  The
arithmetic is that of the ring Q[s]/(s**2 - d) written in the generator
``R``, so a pair is zero exactly when the scalar it stands for is zero, for
a perfect-square ``d`` too.  A rational kernel's pairs are the same in
every ring, so :meth:`Kernel.over` moves it into another without a build.

A scalar enters the kernel in integer arithmetic only.  A rational
``n/q`` in lowest terms has denominator ``q``; a ``QuadExt`` stored as
``(p + q*s) / r`` has ``A = p/r`` and ``B = q/(r*dd)``, each reduced by
the gcd of its numerator and denominator.  A tensor's scale is the lcm of
those reduced denominators, and each component ``num/den`` becomes the
integer ``num * (scale // den)``.  A pair comes back as a ``Fraction`` over
the scale, or as the ``QuadExt`` ``(A + B*dd*s) / scale`` in canonical
form; a rational zero component comes back as one shared ``Fraction(0)``.

Every identity checked here is homogeneous in each tensor: scaling the
bracket by ``L_C`` and a twist by ``L_t`` multiplies the twisted Jacobi sum
by ``L_C**2 * L_t`` and a sign-law residual by ``L_C * L_t**2`` (its left
side is multiplied by ``L_t`` once more to match), positive integers that do
not change whether a residual is zero.  Where two terms of one equation
carry different scales, each is multiplied by the positive integer that
brings it to their common one (see :class:`Rep`, and
:meth:`Kernel.first_sign_failure` for a morphism into a second algebra,
whose bracket law reads two kernels).

The bracket is stored once, for ``i < j``, and read back through
``[e_j, e_i] = -[e_i, e_j]``.  The kernel evaluates exact brackets, decides
where an identity (the twisted Jacobi identity, a sign law, a
representation equation) first fails, builds and applies the matrices of
the coboundary operators, and decides ranks by one exact elimination.  Each scan returns the residual it summed at
its first failure through :meth:`Kernel.scalar` over the scale it is summed
over, so a witness is the identity's true residual, whatever the scales,
and each identity is written once.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .errors import BackendMismatchError, SingularMatrixError, ZeroDivisorError
from .scalars import QuadExt, _reduced

Pair = Tuple[int, int]
Sparse = Dict[int, Pair]
Rows = List[Sparse]  # a matrix by rows: rows[r][c] is entry (r, c)

_ZERO: Pair = (0, 0)
_NIL = Fraction(0)  # every zero component that scalar() returns


def _discriminant(values: Iterable) -> Optional[Fraction]:
    """The one discriminant of the nonzero ``QuadExt`` scalars among ``values``, if any.

    A zero is skipped, as in :meth:`Kernel.pairs`, so its type never picks the ring."""
    d = None
    for x in values:
        if isinstance(x, QuadExt) and x and x.d != d:
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


def reading(ms: List, size: int) -> Tuple["Kernel", List[Rows], int]:
    """A kernel of no algebra in the ring of the first nonzero ``QuadExt`` of the matrices
    ``ms``, and ``ms`` on it (:meth:`Kernel.matrices`)."""
    kernel = Kernel(0, {}, ())
    return (kernel, *kernel.matrices(ms, size, True))


class Twist:
    """A linear map into the kernel's algebra: its columns and their scale.

    Its source is that algebra for a twist, or a second algebra for a morphism.
    ``ad`` is built on first read by :meth:`Kernel.ad`; a twist keeps no
    reference to its kernel.
    """

    def __init__(self, kernel: "Kernel", m, adopt: bool = False) -> None:
        # the columns of m are the rows of its transpose
        (self.cols,), self.scale = kernel.matrices([tuple(zip(*m))], kernel.dim, adopt)
        self.ad: Optional[List[List[Sparse]]] = None


class Kernel:
    """The bracket of one exact algebra and its twist as sparse integer pairs.

    ``bracket`` is an algebra's ``{(i, j): [e_i, e_j]}`` table for ``i < j``
    (:attr:`skewhom.algebra.HomAlgebra.pairs`), so antisymmetry holds by
    construction.  Mixed discriminants raise :class:`BackendMismatchError`,
    and :meth:`over` moves a rational kernel into a quadratic ring.
    """

    def __init__(self, dim: int, bracket: dict, twist: tuple) -> None:
        self.dim = n = dim
        self._ring(None)
        pairs, self.scale = self.pairs((x for value in bracket.values() for x in value), True)
        self.rows: List[Dict[int, Sparse]] = [{} for _ in range(n)]
        for idx, (i, j) in enumerate(bracket):
            self.rows[i][j] = {
                k: pairs[idx * n + k] for k in range(n) if pairs[idx * n + k] is not None
            }
        self.twist = Twist(self, twist, True)
        # the m = 1 coboundary matrices of a zero rho, by degree (skewhom.cohomology._operator)
        self.zero_ops: Dict[int, "Coboundary"] = {}

    def _ring(self, d: Optional[Fraction]) -> None:
        """Take the ring Q[s]/(s**2 - d) in the generator ``R = dd*sqrt(d)``, or Q for ``None``."""
        self.d = d
        self.disc = None if d is None else (d, d.numerator, d.denominator)
        self.dd = 1 if d is None else d.denominator
        self.rr = 0 if d is None else d.numerator * d.denominator

    def over(self, d: Optional[Fraction]) -> "Kernel":
        """This kernel in the ring of ``d``: itself for ``None`` or its own ``d``.

        A rational kernel gives a view that shares its rows, scale and twist
        and changes only ``d``, ``disc``, ``dd`` and ``rr`` (its ``zero_ops``
        starts empty): a rational scalar's pair ``(A, 0)`` and its scale do
        not depend on ``d``, and products of such pairs never reach ``R*R``.
        A quadratic kernel over another ``d`` raises :class:`BackendMismatchError`.
        """
        if d is None or d == self.d:
            return self
        if self.d is not None:
            raise BackendMismatchError(f"mixed discriminants {self.d} and {d}")
        view = copy.copy(self)
        view._ring(d)
        view.zero_ops = {}
        return view

    def pairs(self, values: Iterable, adopt: bool = False) -> Tuple[List[Optional[Pair]], int]:
        """``values`` as integer pairs over one common scale (``None`` for zero).

        Each value is read as numerators and denominators, and the scale is
        the lcm of the reduced denominators (module docstring); no
        ``Fraction`` is built.  With ``adopt``, a rational kernel takes the
        ring of the first nonzero ``QuadExt`` it meets: the pairs read before
        it are rational, so they do not depend on ``d``.
        """
        disc, dd = self.disc, self.dd
        # (A numerator, A denominator, B numerator, B denominator) per value
        split: List[Optional[Tuple[int, int, int, int]]] = []
        scale = 1
        for x in values:
            # the type first: a float zero is refused, not read as an exact zero
            if not isinstance(x, (int, Fraction, QuadExt)):
                raise TypeError(f"not an exact scalar: {x!r}")
            if not x:
                split.append(None)
                continue
            if isinstance(x, QuadExt):
                if x.disc is not disc and x.disc != disc:
                    if disc is not None or not adopt:
                        raise BackendMismatchError(f"mixed discriminants {self.d} and {x.d}")
                    self._ring(x.d)
                    disc, dd = self.disc, self.dd
                r, rd = x.r, x.r * dd
                g, h = math.gcd(x.p, r), math.gcd(x.q, rd)
                p = (x.p // g, r // g, x.q // h, rd // h)
            else:
                p = (x.numerator, x.denominator, 0, 1)
            split.append(p)
            if scale % p[1] or scale % p[3]:
                scale = math.lcm(scale, p[1], p[3])
        return [
            None if p is None else (p[0] * (scale // p[1]), p[2] * (scale // p[3]))
            for p in split
        ], scale

    def matrices(self, ms: List, size: int, adopt: bool = False) -> Tuple[List[Rows], int]:
        """The matrices ``ms``, rows of ``size`` entries, as sparse pair rows over one scale."""
        values, scale = self.pairs((x for m in ms for row in m for x in row), adopt)
        rows = (
            {c: x for c, x in enumerate(values[r * size : (r + 1) * size]) if x is not None}
            for r in range(sum(map(len, ms)))
        )
        return [list(itertools.islice(rows, len(m))) for m in ms], scale

    def scalar(self, x: Pair, scale: int):
        """The scalar that the pair ``x`` over ``scale`` stands for.

        It is a ``QuadExt`` exactly when the kernel has a discriminant, and a
        ``Fraction`` otherwise, zero included.
        """
        a, b = x
        if self.disc is None:
            return Fraction(a, scale) if a else _NIL
        return _reduced(a, b * self.dd, scale, self.disc)

    def eliminate(self, rows: Rows, width: int, jordan: bool = False) -> Tuple[List[Tuple[int, int]], Rows]:
        """The pivots ``(row, column)`` of a fraction-free (Bareiss) elimination of ``rows`` on
        columns ``0..width-1``, so their number is the rank, and the eliminated rows.

        In each column the pivot ``p`` is, of the rows with a nonzero there and no pivot yet,
        the one with the fewest nonzeros.  Those rows (all others, with ``jordan``) with an
        entry ``a`` there become ``(p * row - a * pivot_row) / t``, ``t`` the pivot of the step
        where the row last changed (1 at first), once the pivot row is brought up by
        ``last / t`` to the step before; a skipped row would only gain ``p / last``.  By
        Sylvester's identity every entry is then a minor of ``rows``, so each division, through
        the conjugate and the integer norm ``A*A - B*B*rr``, is exact.  A pivot of norm zero,
        a zero divisor of a perfect-square ring, raises :class:`ZeroDivisorError`.
        """
        rr, rows, free, pivots, last = self.rr, list(rows), set(range(len(rows))), [], (1, 0)
        tags = [last] * len(rows)
        for c in range(width):
            hits = [r for r in free if c in rows[r]]
            if not hits:
                continue
            p = min(hits, key=lambda r: (len(rows[r]), r))
            if tags[p] != last:
                rows[p] = {k: self._quotient(self._mul(x, last), tags[p]) for k, x in rows[p].items()}
            prow, (pa, pb) = rows[p], rows[p][c]
            if pa * pa == pb * pb * rr:
                raise ZeroDivisorError(f"pivot {self.scalar((pa, pb), 1)} has conjugate norm 0")
            free.discard(p)
            pivots.append((p, c))
            tags[p] = last = pa, pb
            for i in range(len(rows)) if jordan else free:
                row = rows[i]
                if i == p or c not in row:
                    continue
                (xa, xb), (ta, tb) = row[c], tags[i]
                ca, cb, norm = (1, 0, ta) if not tb else (ta, -tb, ta * ta - tb * tb * rr)
                new = rows[i] = {}
                tags[i] = last
                for k in row.keys() | prow.keys():
                    (ya, yb), (za, zb) = row.get(k, _ZERO), prow.get(k, _ZERO)
                    ua = pa * ya + (pb * yb - xb * zb) * rr - xa * za
                    ub = pa * yb + pb * ya - xa * zb - xb * za
                    if ua or ub:
                        new[k] = ((ua * ca + ub * cb * rr) // norm, (ub * ca + ua * cb) // norm)
        return pivots, rows

    def inverse(self, rows: Rows, scale: int) -> tuple:
        """The inverse of the square matrix that ``rows`` over ``scale`` stand for, as scalars.

        Eliminated with ``jordan``, the pivot row of column ``c`` of ``[rows | 1]`` is its pivot
        times ``[e_c | row c of the inverse]``; a rank below ``n`` raises SingularMatrixError.
        """
        n = len(rows)
        pivots, rows = self.eliminate([{**row, n + r: (1, 0)} for r, row in enumerate(rows)], n, True)
        if len(pivots) < n:
            col = min(set(range(n)) - {c for _, c in pivots})
            raise SingularMatrixError(f"matrix has no inverse (pivot column {col})")
        out = [()] * n
        for r, c in pivots:
            a, b = rows[r][c]
            norm = a * a - b * b * self.rr
            f = scale if norm > 0 else -scale
            out[c] = tuple(self.scalar(self._mul(rows[r].get(n + j, _ZERO), (f * a, -f * b)), abs(norm))
                           for j in range(n))
        return tuple(out)

    def product(self, a: Rows, b: Rows) -> Rows:
        """``a b``, scaled by the product of their scales."""
        return [self._combine({}, row, b, 1) for row in a]

    def vector(self, v: Sparse, scale: int, size: int) -> tuple:
        """The ``size`` scalars that the pairs ``v`` over ``scale`` stand for, zeros included."""
        return tuple(self.scalar(v.get(k, _ZERO), scale) for k in range(size))

    def bracket(self, i: int, j: int) -> Sparse:
        """``[e_i, e_j]`` for ``i < j`` (empty when it is zero)."""
        return self.rows[i].get(j, {})

    def ad(self, t: Twist) -> List[List[Sparse]]:
        """``t.ad``, ``[e_p, t e_j]`` at ``[j][p]`` for a map ``t`` into this algebra, built on
        first read; a view (:meth:`over`) builds the same table, as its pairs are rational."""
        if t.ad is None:
            t.ad = [[self.basis_bracket(p, col) for p in range(self.dim)] for col in t.cols]
        return t.ad

    def _mul(self, x: Pair, y: Pair) -> Pair:
        (a, b), (c, e) = x, y
        return a * c + b * e * self.rr, a * e + b * c

    def _quotient(self, x: Pair, y: Pair) -> Pair:
        """``x / y`` where ``y`` divides ``x``: ``x * conj(y)`` over the norm of ``y``."""
        (a, b), (c, e), rr = x, y, self.rr
        norm = c * c - e * e * rr
        return (a * c - b * e * rr) // norm, (b * c - a * e) // norm

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

    def bracket_eval(self, x: Iterable, y: Iterable) -> tuple:
        """``[x, y] = sum_i x_i [e_i, y]`` for two vectors of exact scalars.

        Both are converted over one scale ``S``, so the sum is over
        ``L_C * S**2``; each entry comes back through :meth:`scalar`.
        """
        n = self.dim
        values, scale = self.pairs(itertools.chain(x, y))
        ys = {j: p for j, p in enumerate(values[n:]) if p is not None}
        acc: Sparse = {}
        for i, p in enumerate(values[:n]):
            if p is not None:
                self._add(acc, p, self.basis_bracket(i, ys), 1)
        return self.vector(acc, self.scale * scale * scale, n)

    def jacobi(self, i: int, j: int, k: int) -> Sparse:
        """The twisted Jacobi sum ``J(e_i, e_j, e_k)`` for ``i < j < k``, over ``L_C**2 * L_t``.

        Its middle term ``[[e_k, e_i], b e_j]`` is read as ``-[[e_i, e_k], b e_j]``.
        """
        ad = self.ad(self.twist)
        acc = self._combine({}, self.bracket(j, k), ad[i], 1)
        self._combine(acc, self.bracket(i, k), ad[j], -1)
        return self._combine(acc, self.bracket(i, j), ad[k], 1)

    def first_jacobi_failure(self) -> Optional[Tuple[Tuple[int, int, int], tuple]]:
        """The lexicographically first ordered basis triple whose twisted Jacobi
        sum is nonzero, and that sum (``None`` if there is none).

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
        for at in itertools.combinations(range(self.dim), 3):
            acc = self.jacobi(*at)
            if _nonzero(acc):
                return at, self.vector(acc, self.scale**2 * self.twist.scale, self.dim)
        return None

    def first_sign_failure(
        self, source: "Kernel", t: Twist, signs: Set[int]
    ) -> Tuple[Set[int], Optional[tuple]]:
        """The ``signs`` eps with ``t([e_i,e_j]) = eps * [t e_i, t e_j]`` on every
        ordered basis pair so far, and ``((i, j), residual)`` at the first pair
        that leaves none (``None`` if the scan ends).  The residual is
        ``t([e_i,e_j]) - eps * [t e_i, t e_j]`` for the first eps of ``signs``,
        +1 before -1, for which it is nonzero there.

        ``t`` maps the algebra of ``source``, a kernel in this one's ring
        (:meth:`over`), into this kernel's.  The left side is over
        ``L_Cs * L_t`` and the right over ``L_t**2 * L_C``, so with
        ``c = gcd(L_Cs, L_C)`` they are multiplied by ``L_t * L_C / c`` and
        ``L_Cs / c``: ``L_t`` and 1 when ``source`` is this kernel.

        Both sides are antisymmetric in ``(i, j)`` and vanish for ``i = j``,
        so pair ``(j, i)`` admits exactly the signs that ``(i, j)`` admits and
        ``(i, i)`` admits all.  Every ordered pair ``(j, i)`` with ``j > i``
        comes after ``(i, j)`` in lexicographic order, so it never removes a
        sign: the ordered scan first runs out of signs at an ``i < j`` pair,
        with the same signs as this scan of ``i < j`` pairs has there, and
        ends with the same signs.  A pair whose two sides vanish admits every
        sign, so it needs no skipping over the integers.
        """
        c = math.gcd(source.scale, self.scale)
        left, right = t.scale * self.scale // c, source.scale // c
        given, ad = sorted(signs, reverse=True), self.ad(t)
        for i, j in itertools.combinations(range(source.dim), 2):
            lhs = self._combine({}, source.bracket(i, j), t.cols, left)
            rhs = self._combine({}, t.cols[i], ad[j], right)
            signs = {s for s in signs if not _differs(lhs, rhs, s)}
            if not signs:
                self._add(lhs, (-next(s for s in given if _differs(lhs, rhs, s)), 0), rhs, 1)
                scale = t.scale**2 * self.scale * source.scale // c
                return signs, ((i, j), self.vector(lhs, scale, self.dim))
        return signs, None

    def first_twist_failure(self, source: "Kernel", t: Twist) -> Optional[tuple]:
        """The first ``(r, c)``, row-major, where ``t beta_s != beta t``, and the
        entry of ``t beta_s - beta t`` there (``None`` if there is none).

        ``t`` maps ``source``'s algebra, twisted by ``beta_s``, into this one's as in
        :meth:`first_sign_failure`.  The sides, over ``L_t L_s`` and ``L_beta L_t``, are
        multiplied by ``L_beta / g`` and ``L_s / g`` with ``g = gcd(L_s, L_beta)``.
        """
        beta_s, beta = source.twist, self.twist
        g, failures = math.gcd(beta_s.scale, beta.scale), []
        for c, column in enumerate(beta_s.cols):
            diff = self._combine({}, column, t.cols, beta.scale // g)
            self._combine(diff, t.cols[c], beta.cols, -(beta_s.scale // g))
            failures += [((r, c), x) for r, x in diff.items() if x != _ZERO]
        if not failures:
            return None
        at, x = min(failures)
        return at, self.scalar(x, t.scale * beta_s.scale * beta.scale // g)


class Rep:
    """A representation ``(rho, phi)`` of the kernel's algebra as sparse pair rows.

    ``rho[i]`` is ``rho(e_i)`` over the scale ``L_rho`` shared by all of
    them, ``phi`` is over ``L_phi``, and ``rho_beta[i]`` is
    ``rho(beta e_i) = sum_r beta_ri rho(e_r)``, over ``L_t * L_rho`` since
    the twist's columns are over ``L_t``; it is built on first read, since
    the coboundary reads only ``rho``.
    """

    def __init__(self, kernel: Kernel, rho: List, phi) -> None:
        m = len(phi)
        self.kernel, self.m = kernel, m
        self.rho, self.rho_scale = kernel.matrices(rho, m)
        (self.phi,), self.phi_scale = kernel.matrices([phi], m)

    @functools.cached_property
    def rho_beta(self) -> List[Rows]:
        rows = [[r[a] for r in self.rho] for a in range(self.m)]
        return [[self.kernel._combine({}, col, row, 1) for row in rows] for col in self.kernel.twist.cols]

    def first_failure(self) -> Optional[tuple]:
        """``(("compat", i), residual)`` for the first ``i`` where the
        compatibility equation fails, else ``(("bracket", i, j), residual)``
        for the first ``i < j`` where the bracket equation fails, else
        ``None``; ``residual`` is the equation's m x m residual there.  Each
        term is multiplied by the positive integer that brings it to its
        equation's common scale, as set out in
        :func:`skewhom.representation.check_representation`.
        """
        kernel, m, rho, rho_beta = self.kernel, self.m, self.rho, self.rho_beta
        t_scale = kernel.twist.scale

        def matrix(rows: Rows, scale: int) -> tuple:
            return tuple(kernel.vector(row, scale, m) for row in rows)

        for i in range(kernel.dim):
            res = kernel.product(rho_beta[i], self.phi)
            for acc, row in zip(res, self.phi):
                kernel._combine(acc, row, rho[i], t_scale)
            if any(map(_nonzero, res)):
                return ("compat", i), matrix(res, t_scale * self.rho_scale * self.phi_scale)
        rho_phi = [kernel.product(r, self.phi) for r in rho]
        # by_row[a][k] is row a of rho(e_k) phi
        by_row = [[r[a] for r in rho_phi] for a in range(m)]
        left, right = t_scale * self.rho_scale, kernel.scale * self.phi_scale
        for i, j in itertools.combinations(range(kernel.dim), 2):
            c = kernel.bracket(i, j)
            res = [kernel._combine({}, c, row, left) for row in by_row]
            for a, acc in enumerate(res):
                kernel._combine(acc, rho_beta[i][a], rho[j], -right)
                kernel._combine(acc, rho_beta[j][a], rho[i], right)
            if any(map(_nonzero, res)):
                return ("bracket", i, j), matrix(res, left * right * self.rho_scale)
        return None

    def conjugated(self, pre, post) -> Tuple[List[Rows], int]:
        """``pre rho(e_t) post`` for every ``t`` and their scale, ``L_pre * L_rho * L_post``."""
        kernel = self.kernel
        (pre,), pre_scale = kernel.matrices([pre], self.m)
        (post,), post_scale = kernel.matrices([post], self.m)
        blocks = [kernel.product(kernel.product(pre, r), post) for r in self.rho]
        return blocks, pre_scale * self.rho_scale * post_scale


class Coboundary:
    """The matrix of ``D^s_k : C^k -> C^{k+1}`` as sparse integer-pair columns.

    Column ``K_index * m + b`` is the image of the basis cochain with value
    ``e_b`` at ``K = sources[K_index]``; row ``u_index * m + a`` is component
    ``a`` at ``u = targets[u_index]``.  Both index lists are the increasing
    tuples in ``itertools.combinations`` order, which is sorted order.  With
    0-based positions, ``beta[K; v]`` the twist's minor with rows ``K`` and
    columns ``v``, and ``M_t`` the pair rows ``conj[t]``, the entries are

        D[(u,a),(K,b)] = sum_i (-1)^i M_{u_i}[a][b] det beta[K; u - u_i]
                       + [a = b] sum_{i<j} (-1)^(i+j)
                             det [ [e_{u_i}, e_{u_j}]|_K | beta[K; u - {u_i, u_j}] ]

    since a basis cochain evaluates at ``(y_1, ..., y_k)`` to the determinant
    of the rows ``K`` of those vectors times ``e_b``.  ``conj`` is scaled by
    ``L_M = conj_scale``, the bracket by ``L_C`` and the twist by ``L_t``;
    the first sum is multiplied by ``L_C`` and the second by ``L_M * L_t``,
    so every entry is ``scale = L_C * L_M * L_t**k`` times its true value.

    A column is built from its nonzero terms, index sets being bitmasks: each
    nonzero ``det beta[K; v]``, expanded along the rows of ``K``, at ``u = v + {t}``
    for each ``M_t != 0``, and (expanding along the bracket column) each nonzero
    ``det beta[K - K_r; rest]`` at ``u = rest + {p, q}`` for the ``p < q`` whose
    bracket has a nonzero ``K_r`` component.  So the cost follows the nonzeros
    of the minors, the bracket and the ``M_t``; builds may share ``minors``.
    """

    def __init__(self, kernel: Kernel, k: int, m: int, conj: List[Rows], conj_scale: int,
                 minors: Optional[Dict[tuple, Sparse]] = None) -> None:
        n, mul, rr = kernel.dim, kernel._mul, kernel.rr
        self.kernel, self.m = kernel, m
        self.sources = list(itertools.combinations(range(n), k))
        self.targets = list(itertools.combinations(range(n), k + 1))
        t_scale = kernel.twist.scale
        self.scale = kernel.scale * conj_scale * t_scale**k
        offset = {sum(1 << t for t in u): uu * m for uu, u in enumerate(self.targets)}
        beta = [[(c, col[r]) for c, col in enumerate(kernel.twist.cols) if r in col]
                for r in range(n)]
        # action[t][b] is column b of M_t, and hits[c] the brackets with a component c
        action = [[[(a, row[b]) for a, row in enumerate(mt) if row.get(b, _ZERO) != _ZERO]
                   for b in range(m)] for mt in conj]
        acting = [t for t in range(n) if any(action[t])]
        hits = [[(1 << p, 1 << q, v[c]) for p, row in enumerate(kernel.rows)
                 for q, v in row.items() if c in v] for c in range(n)]
        table = {} if minors is None else minors
        table[()] = {0: (1, 0)}

        def add(acc: Sparse, at: int, x: Pair, odd: int) -> None:
            (a, b), (c, e) = x, acc.get(at, _ZERO)
            acc[at] = (c - a, e - b) if odd else (c + a, e + b)

        def nonzero_minors(rows: tuple) -> Sparse:
            """``{v: det beta[rows; v] * L_t**len(rows)}`` for the nonzero minors."""
            if rows not in table:
                acc: Sparse = {}
                for v, det in nonzero_minors(rows[1:]).items():
                    for c, x in beta[rows[0]]:
                        if not v & 1 << c:
                            add(acc, v | 1 << c, mul(x, det), (v & ((1 << c) - 1)).bit_count() % 2)
                table[rows] = {v: x for v, x in acc.items() if x != _ZERO}
            return table[rows]

        self.cols: List[Sparse] = []
        for K in self.sources:
            cols: List[Sparse] = [{} for _ in range(m)]
            for v, (c, e) in nonzero_minors(K).items():
                c, e = c * kernel.scale, e * kernel.scale
                for t in acting:
                    if not v & 1 << t:
                        at = offset[v | 1 << t]
                        sc, se = (-c, -e) if (v & ((1 << t) - 1)).bit_count() % 2 else (c, e)
                        for col, entries in zip(cols, action[t]):
                            for a, (x, y) in entries:
                                p, q = col.get(at + a, _ZERO)
                                col[at + a] = (p + x * sc + y * se * rr, q + x * se + y * sc)
            bracket: Sparse = {}
            for r, row in enumerate(K):
                for rest, det in nonzero_minors(K[:r] + K[r + 1 :]).items():
                    for p, q, x in hits[row]:
                        if not rest & (p | q):
                            u = rest | p | q
                            odd = ((u & (p - 1)).bit_count() + (u & (q - 1)).bit_count() + r) % 2
                            add(bracket, u, mul(x, det), odd)
            factor = conj_scale * t_scale
            for u, (x, y) in bracket.items():
                for b, col in enumerate(cols):
                    add(col, offset[u] + b, (x * factor, y * factor), 0)
            self.cols += ({at: x for at, x in col.items() if x != _ZERO} for col in cols)

    def apply(self, column: Sparse) -> Sparse:
        """``self . column`` for a cochain's pairs indexed like the columns.

        The image is over ``self.scale`` times the scale of ``column``.  When
        the kernel is rational every entry of the matrix has ``B = 0``, and
        then the product takes ``column``'s pairs in any ``R*R``.
        """
        return self.kernel._combine({}, column, self.cols, 1)

    def squared_failures(self, after: "Coboundary") -> Iterator[Tuple[tuple, int, Sparse]]:
        """``(key, axis, column)`` for every nonzero column of ``after . self``, in basis-cochain order.

        ``column`` is indexed like the rows of ``after`` and is over
        ``self.scale * after.scale``; both scales are positive, so they do not
        change which entries are zero.
        """
        m = self.m
        for c, column in enumerate(self.cols):
            product = after.apply(column)
            if _nonzero(product):
                yield self.sources[c // m], c % m, product
