"""Builders for the three concrete families and the pseudo-adjoint map.

* the cross-product algebra on R^3 twisted by an orthogonal matrix A, which
  is Hom-Lie for det A = +1 and skew-Hom-Lie for det A = -1;
* the algebra gl(V) with bracket ``[A, B] = aAaBa - aBaAa`` and twist
  ``Ad_a : B -> aBa`` for a fixed ``a`` with ``a**2 = -id``, which is
  skew-Hom-Lie; the same bracket with the squared twist ``Ad_a**2`` fails
  the twisted Jacobi identity once dim V >= 4, but satisfies it
  identically for dim V = 2 (the counterexample scan reports whichever
  holds);
* the semi-Euclidean family on R^4 with twist ``P(theta)`` and bracket
  ``[x, y] = wedge3(Px, r, y) - wedge3(Py, r, x)`` built from the null
  vector ``r(theta)``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

from .algebra import CheckReport, HomAlgebra, Witness, bracket_eval, check_hom_jacobi
from .errors import (
    BackendMismatchError,
    ConstructionError,
    CounterexampleNotFoundError,
    PreconditionError,
)
from .linalg import (
    Mat,
    Vec,
    basis_vec,
    cross3,
    flatten,
    identity,
    mat,
    mat_col,
    mat_eq,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_vec,
    matrix_unit,
    transpose,
    vec_eq,
    vec_neg,
    vec_sub,
    wedge3,
)
from .scalars import (
    ScalarBackend,
    as_rational,
    float_backend,
    quadratic_backend,
    rational_is_square,
)


def default_backend(theta: Union[int, str, Fraction, float]) -> ScalarBackend:
    """Exact quadratic backend for rational theta, float backend otherwise."""
    if isinstance(theta, float):
        return float_backend(theta=theta)
    return quadratic_backend(as_rational(theta))


def _root_one_plus_sq(theta, backend: ScalarBackend):
    """sqrt(1 + theta**2) as a scalar of ``backend``; raises if it has none."""
    if backend.kind == "float":
        t = float(theta)
        return math.sqrt(1.0 + t * t)
    d = 1 + as_rational(theta) ** 2
    root = rational_is_square(d)
    if root is not None:
        return root
    if backend.kind == "quadratic" and backend.d == d:
        return backend.sqrt_d
    raise BackendMismatchError(
        f"sqrt(1 + ({theta})**2) does not live in this backend"
    )


def alpha_theta(
    theta: Union[int, str, Fraction, float],
    backend: Optional[ScalarBackend] = None,
) -> Tuple[Mat, ScalarBackend]:
    """The 2x2 family [[-theta, s], [-s, theta]] with s = sqrt(1 + theta**2).

    Squares to minus the identity for every theta; orthogonal only at
    theta = 0.  Returns the matrix together with the backend its entries
    live in.
    """
    backend = backend or default_backend(theta)
    th = backend.coerce(theta)
    s = _root_one_plus_sq(theta, backend)
    a = ((-th, s), (-s, th))
    return a, backend


def alpha_block(
    m: int,
    theta: Union[int, str, Fraction, float],
    backend: Optional[ScalarBackend] = None,
) -> Tuple[Mat, ScalarBackend]:
    """Block-diagonal m x m matrix of 2x2 alpha_theta blocks (m even)."""
    if m % 2 != 0:
        raise PreconditionError("a square root of -id needs even dimension")
    block, backend = alpha_theta(theta, backend)
    zero = backend.coerce(0)
    rows = []
    for i in range(m):
        row = [zero] * m
        base = (i // 2) * 2
        row[base] = block[i % 2][0]
        row[base + 1] = block[i % 2][1]
        rows.append(tuple(row))
    return tuple(rows), backend


@dataclass(frozen=True)
class GlContext:
    """A base space dimension and a fixed square root of minus the identity.

    The induced algebra lives on the m**2 matrix units, ordered row-major
    (e11, e12, ..., e21, ...).
    """

    m: int
    alpha: Mat
    backend: ScalarBackend

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", mat(self.alpha))
        if len(self.alpha) != self.m or any(len(r) != self.m for r in self.alpha):
            raise PreconditionError(f"alpha must be {self.m}x{self.m}")
        minus_id = mat_neg(identity(self.m))
        if not mat_eq(mat_mul(self.alpha, self.alpha), minus_id, self.backend):
            raise PreconditionError("alpha**2 must equal minus the identity")

    @property
    def basis(self) -> Tuple[Mat, ...]:
        return tuple(
            matrix_unit(self.m, p, q)
            for p in range(self.m)
            for q in range(self.m)
        )


def gl_bracket(ctx: GlContext, a: Mat, b: Mat) -> Mat:
    """The twisted commutator aAaBa - aBaAa on matrices."""
    al = ctx.alpha
    left = mat_mul(mat_mul(mat_mul(mat_mul(al, a), al), b), al)
    right = mat_mul(mat_mul(mat_mul(mat_mul(al, b), al), a), al)
    return mat_sub(left, right)


def ad_alpha(ctx: GlContext, b: Mat) -> Mat:
    return mat_mul(mat_mul(ctx.alpha, b), ctx.alpha)


def _typed_zero(entries) -> object:
    """The zero a dense product over ``entries`` comes out as.

    ``mat_mul`` starts every sum at ``Fraction(0)``, so one ``QuadExt`` or
    float factor turns a whole sum into that type (and ``-0.0`` into
    ``0.0``).  Adding this zero to a closed-form value gives it the type and
    the text form the dense products would have given it.
    """
    return sum((x * 0 for x in entries), Fraction(0))


def _conjugation_matrix(a: Mat) -> Mat:
    """Matrix of B -> aBa in the row-major matrix-unit basis, read off ``a``.

    Entry ((r, s), (p, q)) is ``a_rp * a_qs``.  In the dense product
    ``(a E_pq) a`` that entry is a ``QuadExt`` (or float) exactly when row r
    or column s of ``a`` holds one, so its zero is the sum of the typed
    zeros of that row and that column.
    """
    m = len(a)
    row_zero = [_typed_zero(row) for row in a]
    col_zero = [_typed_zero(col) for col in transpose(a)]
    rows = []
    for r in range(m):
        for s in range(m):
            z = row_zero[r] + col_zero[s]
            rows.append(tuple(
                z + a[r][p] * a[q][s] if a[r][p] and a[q][s] else z
                for p in range(m)
                for q in range(m)
            ))
    return tuple(rows)


def ad_alpha_matrix(ctx: GlContext) -> Mat:
    """Matrix of B -> aBa in the row-major matrix-unit basis."""
    return _conjugation_matrix(ctx.alpha)


def build_gl_alpha(ctx: GlContext) -> HomAlgebra:
    """The m**2-dimensional skew-Hom-Lie algebra on matrix units.

    Each structure constant is read straight from the entries of a:

        [E_pq, E_uv]_rs = a_qu a_rp a_vs - a_vp a_ru a_qs,

    visiting only the nonzero entries of column p (or u) and row v (or q),
    for i < j; the diagonal is zero and (j, i) is the negation of (i, j).
    Every product is formed in the order ``gl_bracket`` forms it and every
    entry gets the type of the dense result, so floats agree bit for bit and
    exact entries have the same text form.
    """
    m, a = ctx.m, ctx.alpha
    n = m * m
    # the dense bracket has a QuadExt (or float) in every entry once a does
    zero = _typed_zero(flatten(a))
    col_nz = [[(r, a[r][p]) for r in range(m) if a[r][p]] for p in range(m)]
    row_nz = [[(s, a[v][s]) for s in range(m) if a[v][s]] for v in range(m)]
    zeros = (zero,) * n
    table = [[zeros] * n for _ in range(n)]
    for i in range(n):
        p, q = divmod(i, m)
        for j in range(i + 1, n):
            u, v = divmod(j, m)
            acc = {}
            c = a[q][u]
            if c:
                for r, x in col_nz[p]:
                    xc = x * c
                    for s, y in row_nz[v]:
                        acc[r * m + s] = xc * y
            c = a[v][p]
            if c:
                for r, x in col_nz[u]:
                    xc = x * c
                    for s, y in row_nz[q]:
                        acc[r * m + s] = acc.get(r * m + s, 0) - xc * y
            if not acc:
                continue
            value = [zero] * n
            for at, x in acc.items():
                value[at] = zero + x
            table[i][j] = tuple(value)
            table[j][i] = tuple(zero - x for x in value)
    return HomAlgebra(n, table, ad_alpha_matrix(ctx), ctx.backend)


def ad_alpha_squared_matrix(ctx: GlContext) -> Mat:
    """Matrix of B -> a**2 B a**2 (the identity map whenever a**2 = -id)."""
    return _conjugation_matrix(mat_mul(ctx.alpha, ctx.alpha))


def ad_alpha_squared_counterexample(ctx: GlContext) -> Tuple[tuple, Vec]:
    """First basis triple where the Ad_a**2-twisted Jacobi identity fails.

    This is the first Jacobi failure of the algebra with the same bracket
    and the squared twist (``check_hom_jacobi``), returned as the triple
    and its residual; triples with a repeated index never fail, because the
    twisted cyclic sum is alternating.  An empty scan raises, since silence
    would hide an inconsistency.
    """
    base = build_gl_alpha(ctx)
    g = HomAlgebra(base.dim, base.bracket, ad_alpha_squared_matrix(ctx), ctx.backend)
    report = check_hom_jacobi(g)
    if report.passed:
        raise CounterexampleNotFoundError(
            "every Ad_alpha**2-twisted Jacobi residual vanished"
        )
    return report.witness.at, report.witness.residual


def build_r3_cross(A: Mat, backend: Optional[ScalarBackend] = None) -> HomAlgebra:
    """Cross-product algebra on R^3 with bracket A(x ^ y) and twist A.

    Requires A orthogonal (A A^T = id) exactly; classification then follows
    the determinant: +1 gives Hom-Lie, -1 gives skew-Hom-Lie.
    """
    backend = backend or ScalarBackend("rational")
    A = mat(A)
    if len(A) != 3 or any(len(r) != 3 for r in A):
        raise PreconditionError("twist must be a 3x3 matrix")
    if not mat_eq(mat_mul(A, transpose(A)), identity(3), backend):
        raise PreconditionError("twist must be orthogonal (A A^T = id)")
    table = tuple(
        tuple(mat_vec(A, cross3(basis_vec(3, i), basis_vec(3, j))) for j in range(3))
        for i in range(3)
    )
    return HomAlgebra(3, table, A, backend)


@dataclass(frozen=True)
class SemiEuclideanContext:
    """theta, the root s = sqrt(1 + theta**2), the twist P, and the null vector r."""

    theta: object
    s: object
    P: Mat
    r: Vec
    backend: ScalarBackend


def p_matrix(theta, backend: ScalarBackend) -> Mat:
    th = backend.coerce(theta)
    s = _root_one_plus_sq(theta, backend)
    t2 = th * th
    ts = th * s
    one = backend.coerce(1)
    return (
        (t2, ts, -ts, -one - t2),
        (-ts, -t2, one + t2, ts),
        (ts, one + t2, -t2, -ts),
        (-one - t2, -ts, ts, t2),
    )


def r_vector(theta, backend: ScalarBackend) -> Vec:
    th = backend.coerce(theta)
    s = _root_one_plus_sq(theta, backend)
    return (-th, s, -s, th)


def build_semi_euclidean(
    theta: Union[int, str, Fraction, float],
    backend: Optional[ScalarBackend] = None,
) -> Tuple[HomAlgebra, SemiEuclideanContext]:
    """The 4-dimensional semi-Euclidean family at a given theta.

    P is written down entrywise and independently re-derived as the matrix
    of Ad_alpha(theta) on matrix units; any mismatch, or a failure of
    P**2 = id or P r = -r, aborts with a construction error.  The bracket is
    ``[e_i, e_j] = wedge3(P e_i, r, e_j) - wedge3(P e_j, r, e_i)``.
    """
    backend = backend or default_backend(theta)
    P = p_matrix(theta, backend)
    r = r_vector(theta, backend)

    alpha, _ = alpha_theta(theta, backend)
    derived = ad_alpha_matrix(GlContext(2, alpha, backend))
    if not mat_eq(P, derived, backend):
        raise ConstructionError("twist entries disagree with the Ad_alpha derivation")
    if not mat_eq(mat_mul(P, P), identity(4), backend):
        raise ConstructionError("twist is not an involution")
    if not vec_eq(mat_vec(P, r), vec_neg(r), backend):
        raise ConstructionError("P r = -r failed")

    p_cols = [mat_col(P, i) for i in range(4)]
    basis = [basis_vec(4, i) for i in range(4)]
    table = tuple(
        tuple(
            vec_sub(wedge3(p_cols[i], r, basis[j]), wedge3(p_cols[j], r, basis[i]))
            for j in range(4)
        )
        for i in range(4)
    )
    g = HomAlgebra(4, table, P, backend)
    ctx = SemiEuclideanContext(
        backend.coerce(theta), _root_one_plus_sq(theta, backend), P, r, backend
    )
    return g, ctx


def closed_form_bracket(ctx: SemiEuclideanContext, x: Vec, y: Vec) -> Vec:
    """Independent closed form of the semi-Euclidean bracket: (a, 0, 0, a).

    In 1-based coordinates,

        a = -s * [(x1 - x4)(y2 + y3) - (x2 + x3)(y1 - y4)]
            + 2 * theta * (x3 y2 - x2 y3),

    the direct polynomial expansion of wedge3(Px, r, y) - wedge3(Py, r, x):
    the s-part is the antisymmetrization of the wedge's s-terms, while the
    theta-term is already antisymmetric in (x, y) and therefore doubles
    rather than cancels.  It vanishes at theta = 0, where the pure-s formula
    alone is exact.
    """
    a = -ctx.s * ((x[0] - x[3]) * (y[1] + y[2]) - (x[1] + x[2]) * (y[0] - y[3]))
    a = a + 2 * ctx.theta * (x[2] * y[1] - x[1] * y[2])
    zero = ctx.backend.coerce(0)
    return (a, zero, zero, a)


def pseudo_adjoint(g: HomAlgebra) -> Callable[[Vec], Mat]:
    """The map x -> matrix of y -> -[x, y]."""

    def ad_star(x: Vec) -> Mat:
        cols = [
            vec_neg(bracket_eval(g, x, basis_vec(g.dim, j))) for j in range(g.dim)
        ]
        return transpose(mat(cols))

    return ad_star


def check_pseudo_adjoint_identity(g: HomAlgebra) -> CheckReport:
    """Check ad*_{[x,y]} . beta = -ad*_{beta x} . ad*_y + ad*_{beta y} . ad*_x.

    A matrix identity per basis pair (x, y); holds on any skew-Hom-Lie
    algebra as a consequence of the twisted Jacobi identity.
    """
    ad_star = pseudo_adjoint(g)
    mats = [ad_star(basis_vec(g.dim, i)) for i in range(g.dim)]
    twisted = [ad_star(g.twist_col(i)) for i in range(g.dim)]
    for i, j in itertools.product(range(g.dim), repeat=2):
        lhs = mat_mul(ad_star(g.bracket[i][j]), g.twist)
        rhs = mat_sub(mat_mul(twisted[j], mats[i]), mat_mul(twisted[i], mats[j]))
        res = mat_sub(lhs, rhs)
        if not mat_is_zero(res, g.backend):
            return CheckReport(False, Witness((i, j), res))
    return CheckReport(True)


def check_pseudo_adjoint_morphism(g: HomAlgebra) -> CheckReport:
    """Check that x -> ad*_x is a skew morphism into (gl(g), [.,.]_beta, Ad_beta).

    Requires twist**2 = -id exactly (an involutive twist such as the
    semi-Euclidean P is rejected).  Verifies ad*_{beta x} = Ad_beta(ad*_x)
    and ad*_{[x,y]} = -[ad*_x, ad*_y]_beta on all basis pairs.
    """
    minus_id = mat_neg(identity(g.dim))
    if not mat_eq(mat_mul(g.twist, g.twist), minus_id, g.backend):
        raise PreconditionError("twist**2 = -id is required for the morphism law")
    ad_star = pseudo_adjoint(g)
    mats = [ad_star(basis_vec(g.dim, i)) for i in range(g.dim)]
    twisted = [ad_star(g.twist_col(i)) for i in range(g.dim)]
    beta = g.twist
    for i in range(g.dim):
        res = mat_sub(twisted[i], mat_mul(mat_mul(beta, mats[i]), beta))
        if not mat_is_zero(res, g.backend):
            return CheckReport(False, Witness(("intertwine", i), res))
    for i, j in itertools.product(range(g.dim), repeat=2):
        a, b = mats[i], mats[j]
        left = mat_mul(mat_mul(mat_mul(mat_mul(beta, a), beta), b), beta)
        right = mat_mul(mat_mul(mat_mul(mat_mul(beta, b), beta), a), beta)
        lhs = ad_star(g.bracket[i][j])
        res = mat_sub(lhs, mat_neg(mat_sub(left, right)))
        if not mat_is_zero(res, g.backend):
            return CheckReport(False, Witness(("bracket", i, j), res))
    return CheckReport(True)


def builtin_algebra(name: str):
    """Resolve a builtin family name to (label, algebra, context-or-None).

    Accepted forms: ``se4:theta=<p/q>``, ``gl2:theta=<p/q>``, and
    ``r3:A=<JSON matrix literal>`` whose entries are numbers or "p/q"
    strings.
    """
    family, _, argtext = name.partition(":")
    args = {}
    if argtext:
        key, _, raw = argtext.partition("=")
        if not raw:
            raise ValueError(f"missing value in builtin name {name!r}")
        args[key] = raw
    if family == "se4":
        theta = as_rational(args.get("theta", "0"))
        g, ctx = build_semi_euclidean(theta)
        return f"se4(theta={theta})", g, ctx
    if family == "gl2":
        theta = as_rational(args.get("theta", "0"))
        alpha, backend = alpha_theta(theta)
        ctx = GlContext(2, alpha, backend)
        return f"gl2(theta={theta})", build_gl_alpha(ctx), ctx
    if family == "r3":
        raw = args.get("A")
        if raw is None:
            raise ValueError("r3 needs A=<matrix literal>")
        rows = json.loads(raw)
        backend = ScalarBackend("rational")
        A = mat(tuple(backend.coerce(x) for x in row) for row in rows)
        return "r3", build_r3_cross(A, backend), None
    raise ValueError(f"unknown builtin family {family!r}")
