"""Semi-Euclidean R^4 with signature (-, -, +, +): causal types and the
invariant null subset.

The pseudoscalar product is <x, y> = -x1 y1 - x2 y2 + x3 y3 + x4 y4.  The
null set V0 = {<x, x> = 0} is not a vector space; inside it sits

    V* = {x in V0 : x1 x2 = x3 x4},

which contains the null vector r(theta), every bracket value of the
semi-Euclidean algebra (all of shape (a, 0, 0, a)), and is carried into
itself by the twist P(theta).

V* is a union of four planes.  In 0-based coordinates, with
Q = x0 x1 - x2 x3,

    <x, x> + 2Q = -(x0 - x1 - x2 + x3)(x0 - x1 + x2 - x3),
    <x, x> - 2Q = -(x0 + x1 - x2 - x3)(x0 + x1 + x2 + x3),

so x is in V* exactly when one factor of each product vanishes.  Over a
field of characteristic 0, each choice of two factors cuts out a plane, and
V* is the union of

    {x0 = sigma x2, x1 = sigma x3}  and  {x0 = sigma x3, x1 = sigma x2}

for sigma = +1, -1.  The planes are rational, so this holds over Q and over
every Q(sqrt(1 + theta**2)).  :func:`vstar_certificate` decides closure
under the bracket and the twist from this description, for every vector,
and is the module's one closure checker; :func:`vstar_draws` draws V*
members plane by plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from random import Random
from typing import Iterator, Union

from .algebra import CheckReport, HomAlgebra, Witness, bracket_eval
from .constructions import SemiEuclideanContext, build_semi_euclidean
from .errors import DimensionError
from .linalg import Vec, basis_vec, mat_vec, vec_add, vec_is_zero, vec_scale
from .scalars import sign


class CausalType(Enum):
    SPACELIKE = "spacelike"
    NULL = "null"
    TIMELIKE = "timelike"
    ZERO = "zero"


@dataclass(frozen=True)
class VStarMembership:
    """The two membership conditions, evaluated exactly."""

    in_null_space: bool
    cross_condition: bool

    @property
    def member(self) -> bool:
        return self.in_null_space and self.cross_condition


def pseudo_inner(x: Vec, y: Vec):
    """The signature (-, -, +, +) bilinear form."""
    if len(x) != 4 or len(y) != 4:
        raise DimensionError("the pseudoscalar product takes vectors of length 4")
    return -x[0] * y[0] - x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def causal_type(x: Vec) -> CausalType:
    """Causal class by the sign of <x, x>; the zero vector gets its own class."""
    if vec_is_zero(x):
        return CausalType.ZERO
    inner = sign(pseudo_inner(x, x))
    if inner > 0:
        return CausalType.SPACELIKE
    if inner < 0:
        return CausalType.TIMELIKE
    return CausalType.NULL


def vstar_defect(x: Vec):
    """(inner, cross difference); both zero exactly on members of V*."""
    return pseudo_inner(x, x), x[0] * x[1] - x[2] * x[3]


def in_v_star(x: Vec) -> VStarMembership:
    inner, cross = vstar_defect(x)
    return VStarMembership(not inner, not cross)


# Sampled integer coordinates lie in -SPAN..SPAN.
SPAN = 9

# The four planes whose union is V*: (sigma, crossed) is
# {x2 = sigma x0, x3 = sigma x1}, or {x2 = sigma x1, x3 = sigma x0} when crossed.
PLANES = ((1, False), (-1, False), (1, True), (-1, True))


def _plane_basis(plane) -> tuple:
    sigma, crossed = plane
    one, zero, s = Fraction(1), Fraction(0), Fraction(sigma)
    if crossed:
        return (one, zero, zero, s), (zero, one, s, zero)
    return (one, zero, s, zero), (zero, one, zero, s)


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError("sample count must be non-negative")


def vstar_draws(ctx: SemiEuclideanContext, count: int, seed: int = 0) -> Iterator[Vec]:
    """``count`` members of V*, drawn plane by plane, one at a time.

    Member t is p b1 + q b2 for the basis (b1, b2) of ``PLANES[t % 4]``,
    with integers p, q in -SPAN..SPAN.  Every draw is a member, and any
    four consecutive draws visit all four planes.  A negative ``count``
    raises ``ValueError`` when called, before any draw.
    """
    _check_count(count)
    return _draws(ctx, count, seed)


def _draws(ctx: SemiEuclideanContext, count: int, seed: int) -> Iterator[Vec]:
    rng = Random(seed)
    for t in range(count):
        b1, b2 = _plane_basis(PLANES[t % 4])
        p, q = rng.randint(-SPAN, SPAN), rng.randint(-SPAN, SPAN)
        yield tuple(ctx.backend.coerce(p * a + q * b) for a, b in zip(b1, b2))


def check_vstar_closure(
    theta: Union[int, str, Fraction], samples: int = 200, seed: int = 0
) -> CheckReport:
    """:func:`vstar_certificate` on ``build_semi_euclidean(theta)``.

    ``samples`` and ``seed`` stay only because perfbench passes them; a negative
    ``samples`` still raises ``ValueError``.  ROADMAP item 4 deletes this wrapper
    once item 7 lands."""
    _check_count(samples)
    return vstar_certificate(*build_semi_euclidean(theta))


# Moment-curve parameters 0..CURVE-1 and line parameters 0..LINE-1 of the
# witness searches in vstar_certificate (bounds proved there).
CURVE = 13
LINE = 5


def _in_plane(x: Vec, plane) -> bool:
    sigma, crossed = plane
    a, b = (x[1], x[0]) if crossed else (x[0], x[1])
    return x[2] == sigma * a and x[3] == sigma * b


def _one_plane_holds(values) -> bool:
    return any(all(_in_plane(v, plane) for v in values) for plane in PLANES)


def vstar_certificate(g: HomAlgebra, ctx: SemiEuclideanContext) -> CheckReport:
    """Closure of V* under the bracket of ``g`` and under ``ctx.P``, proved.

    V* is the union of the four planes of the module
    docstring, and a linear subspace, or the image of a polynomial map from
    K^8, that lies in a finite union of planes lies in one of them (it is
    irreducible).  Hence:

    * Bracket.  [x, y] is bilinear with values spanned by the structure
      constants, so V* holds every bracket value iff one plane holds every
      value in ``g.pairs``.
    * Twist.  P is linear, so V* is P-invariant iff, for each plane with
      basis (b1, b2), one plane holds both P b1 and P b2.

    A failure carries a witness naming where a value leaves V*, with
    ``vstar_defect`` of that value as the residual:

    * ``("bracket", e_i, e_j)`` at the first structure constant outside V*;
    * otherwise ``("bracket", x, y)`` with x = m(t), y = m(u) on the moment
      curve m(t) = (1, t, t^2, t^3), at the first t, u in 0..12 whose
      bracket leaves V*.  For each plane pick a functional l of its two
      that some structure constant violates; F(x, y) = l([x, y]) is then a
      nonzero bilinear form, and [x, y] is outside V* when all four F are
      nonzero at (x, y).  Any 4 points of the curve are independent
      (Vandermonde), so each F(m(t), .) vanishes for at most 3 values of t,
      which leaves a t in 0..12 with all four F(m(t), .) nonzero; by the
      same count a u in 0..12 follows.
    * ``("twist", z)`` with z = b1 + t b2, t in 0..4, in the first plane
      (b1, b2) that P does not map into one plane, at the first t with
      P z outside V*.  P z lies in a given plane for at most one t, since
      two values would put both P b1 and P b2 there, so 4 planes rule out
      at most 4 of the 5 values.
    """
    if g.dim != 4:
        raise DimensionError("the V* certificate takes a 4-dimensional algebra")

    def leaves(value: Vec) -> bool:
        return not in_v_star(value).member

    pairs = sorted(g.pairs.items())
    for (i, j), value in pairs:
        if leaves(value):
            at = ("bracket", basis_vec(4, i), basis_vec(4, j))
            return CheckReport(False, Witness(at, vstar_defect(value)))
    if not _one_plane_holds([value for _, value in pairs]):
        curve = [tuple(Fraction(t ** k) for k in range(4)) for t in range(CURVE)]
        x, y, value = next(
            (x, y, value)
            for x in curve
            for y in curve
            for value in (bracket_eval(g, x, y),)
            if leaves(value)
        )
        return CheckReport(False, Witness(("bracket", x, y), vstar_defect(value)))
    for plane in PLANES:
        b1, b2 = _plane_basis(plane)
        if not _one_plane_holds([mat_vec(ctx.P, b1), mat_vec(ctx.P, b2)]):
            z, image = next(
                (z, image)
                for t in range(LINE)
                for z in (vec_add(b1, vec_scale(Fraction(t), b2)),)
                for image in (mat_vec(ctx.P, z),)
                if leaves(image)
            )
            return CheckReport(False, Witness(("twist", z), vstar_defect(image)))
    return CheckReport(True)
