"""Semi-Euclidean R^4 with signature (-, -, +, +): causal types and the
invariant null subset.

The pseudoscalar product is <x, y> = -x1 y1 - x2 y2 + x3 y3 + x4 y4.  The
null set V0 = {<x, x> = 0} is not a vector space; inside it sits

    V* = {x in V0 : x1 x2 = x3 x4},

which contains the null vector r(theta), every bracket value of the
semi-Euclidean algebra (all of shape (a, 0, 0, a)), and is carried into
itself by the twist P(theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from random import Random
from typing import List, Optional, Union

from .algebra import CheckReport, Witness, bracket_eval
from .constructions import SemiEuclideanContext, build_semi_euclidean
from .errors import DimensionError
from .linalg import Vec, mat_vec, vec_scale
from .scalars import ScalarBackend


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


def causal_type(x: Vec, backend: Optional[ScalarBackend] = None) -> CausalType:
    """Causal class by the sign of <x, x>; the zero vector gets its own class.

    In the float backend, values within the tolerance of zero count as null
    (and as the zero vector when every coordinate is within tolerance).
    """
    backend = backend or ScalarBackend("rational")
    if all(backend.is_zero(c) for c in x):
        return CausalType.ZERO
    sign = backend.sign(pseudo_inner(x, x))
    if sign > 0:
        return CausalType.SPACELIKE
    if sign < 0:
        return CausalType.TIMELIKE
    return CausalType.NULL


def in_v_star(x: Vec, backend: Optional[ScalarBackend] = None) -> VStarMembership:
    backend = backend or ScalarBackend("rational")
    return VStarMembership(
        in_null_space=backend.is_zero(pseudo_inner(x, x)),
        cross_condition=backend.eq(x[0] * x[1], x[2] * x[3]),
    )


def vstar_defect(x: Vec):
    """(inner, cross difference); both zero exactly on members of V*."""
    return pseudo_inner(x, x), x[0] * x[1] - x[2] * x[3]


# Sampled integer coordinates lie in -SPAN..SPAN.
SPAN = 9


def vstar_samples(ctx: SemiEuclideanContext, count: int, seed: int = 0) -> List[Vec]:
    """A sound sample of V* members (never emits a non-member).

    Mixes the structural families lambda*r, (a, 0, 0, a), and (p, q, p, q)
    with rejection-sampled integer vectors; every candidate is filtered by
    the exact membership predicate before it is emitted.
    """
    rng = Random(seed)
    backend = ctx.backend
    out: List[Vec] = []

    def keep(z: Vec) -> bool:
        if in_v_star(z, backend).member:
            out.append(z)
            return True
        return False

    structural = 0
    while len(out) < count and structural < count:
        kind = structural % 3
        structural += 1
        lam = backend.coerce(rng.randint(-SPAN, SPAN))
        if kind == 0:
            keep(vec_scale(lam, ctx.r))
        elif kind == 1:
            keep((lam, backend.coerce(0), backend.coerce(0), lam))
        else:
            mu = backend.coerce(rng.randint(-SPAN, SPAN))
            keep((lam, mu, lam, mu))
    guard = 0
    while len(out) < count and guard < 10000:
        guard += 1
        z = tuple(backend.coerce(rng.randint(-SPAN, SPAN)) for _ in range(4))
        keep(z)
    return out[:count]


def check_vstar_closure(
    theta: Union[int, str, Fraction], samples: int = 200, seed: int = 0
) -> CheckReport:
    """Closure of V* under the bracket (for arbitrary inputs) and under P.

    (a) bracket values of random integer vector pairs land in V*;
    (b) P images of generated V* members stay in V*.  Exact arithmetic
    throughout.
    """
    g, ctx = build_semi_euclidean(theta)
    backend = ctx.backend
    rng = Random(seed)
    for trial in range(samples):
        x = tuple(backend.coerce(rng.randint(-SPAN, SPAN)) for _ in range(4))
        y = tuple(backend.coerce(rng.randint(-SPAN, SPAN)) for _ in range(4))
        value = bracket_eval(g, x, y)
        verdict = in_v_star(value, backend)
        if not verdict.member:
            return CheckReport(
                False, Witness(("bracket", x, y), vstar_defect(value))
            )
    for z in vstar_samples(ctx, samples, seed=seed + 1):
        image = mat_vec(ctx.P, z)
        verdict = in_v_star(image, backend)
        if not verdict.member:
            return CheckReport(False, Witness(("twist", z), vstar_defect(image)))
    return CheckReport(True)
