"""Builders for the three concrete families, the pseudo-adjoint map, and
:func:`resolve_algebra`, which turns a file path or a builtin name into an
algebra.

* the cross-product algebra on R^3 twisted by an orthogonal matrix A, which
  is Hom-Lie for det A = +1 and skew-Hom-Lie for det A = -1;
* the algebra gl(V) with bracket ``[A, B] = aAaBa - aBaAa`` and twist
  ``Ad_a : B -> aBa`` for a fixed ``a`` with ``a**2 = -id``, which is
  skew-Hom-Lie; the same bracket with the squared twist ``Ad_a**2`` fails
  the twisted Jacobi identity once dim V >= 4, but satisfies it
  identically for dim V = 2 (the counterexample scan reports whichever
  holds);
* the semi-Euclidean family on R^4 with twist ``P(theta)`` and bracket
  defined by ``[x, y] = Px ^ r ^ y - Py ^ r ^ x`` with the null vector
  ``r(theta)``, and computed by its closed form :func:`closed_form_bracket`.
  ``u ^ v ^ w`` is the paper's ternary wedge, the formal 4x4 determinant
  with symbolic first row ``(e1, -e2, e3, e4)`` and data rows u, v, w.  P
  is checked to be ``Ad_alpha(theta)`` and r to be alpha read row by row;
  with ``alpha**2 = -id`` these give ``P**2 = id`` and ``P r = -r`` (proof
  in :func:`build_semi_euclidean`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

from .algebra import (
    CheckReport,
    HomAlgebra,
    Witness,
    bracket_eval,
    check_hom_jacobi,
    check_morphism,
    load_algebra,
)
from .errors import (
    BackendMismatchError,
    ConstructionError,
    CounterexampleNotFoundError,
    PreconditionError,
)
from .linalg import (
    Mat,
    Vec,
    _entries,
    _scalar,
    basis_vec,
    cross3,
    flatten,
    identity,
    mat,
    mat_eq,
    mat_mul,
    mat_neg,
    mat_vec,
    transpose,
    vec_eq,
    vec_neg,
    zero_vec,
)
from .scalars import (
    PARSE_ERRORS,
    ScalarBackend,
    as_rational,
    parse_scalar,
    quadratic_backend,
    rational_is_square,
)


def _root_one_plus_sq(theta, backend: ScalarBackend):
    """sqrt(1 + theta**2) as a scalar of ``backend``; raises if it has none."""
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
    theta: Union[int, str, Fraction],
    backend: Optional[ScalarBackend] = None,
) -> Tuple[Mat, ScalarBackend]:
    """The 2x2 family [[-theta, s], [-s, theta]] with s = sqrt(1 + theta**2).

    Squares to minus the identity for every theta; orthogonal only at
    theta = 0.  Returns the matrix together with the backend its entries
    live in.
    """
    backend = backend or quadratic_backend(theta)
    th = backend.coerce(theta)
    s = _root_one_plus_sq(theta, backend)
    a = ((-th, s), (-s, th))
    return a, backend


def alpha_block(
    m: int,
    theta: Union[int, str, Fraction],
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
        if not mat_eq(mat_mul(self.alpha, self.alpha), minus_id):
            raise PreconditionError("alpha**2 must equal minus the identity")


def _conjugation_matrix(a: Mat) -> Mat:
    """Matrix of B -> aBa in the row-major matrix-unit basis, read off ``a``.

    Entry ((r, s), (p, q)) is ``a_rp * a_qs``, multiplied in integers for the
    nonzero pairs; every other entry is the zero of that product's type.
    """
    m = len(a)
    e, den, disc, rr = _entries(a)
    zeros = (0, Fraction(0), disc and _scalar(2, 0, 0, 1, disc))
    out = [
        [zeros[max(e[r * m + p][0], e[q * m + s][0])] for p in range(m) for q in range(m)]
        for r in range(m)
        for s in range(m)
    ]
    nonzero = [(divmod(i, m), k, x, y) for i, (k, x, y) in enumerate(e) if x or y]
    for (r, p), k, x, y in nonzero:
        for (q, s), l, u, v in nonzero:
            out[r * m + s][p * m + q] = _scalar(max(k, l), x * u + y * v * rr, x * v + y * u, den * den, disc)
    return tuple(map(tuple, out))


def ad_alpha_matrix(ctx: GlContext) -> Mat:
    """Matrix of B -> aBa in the row-major matrix-unit basis."""
    return _conjugation_matrix(ctx.alpha)


def build_gl_alpha(ctx: GlContext) -> HomAlgebra:
    """The m**2-dimensional skew-Hom-Lie algebra on matrix units.

    Each structure constant is read straight from the entries of a:

        [E_pq, E_uv]_rs = a_qu a_rp a_vs - a_vp a_ru a_qs,

    visiting only the nonzero entries of column p (or u) and row v (or q),
    for i < j.  The products are taken on a's integer numerators
    (:func:`skewhom.linalg._entries`), and a component is made once, with the
    type its product terms give it.
    """
    m, a = ctx.m, ctx.alpha
    n = m * m
    e, den, disc, rr = _entries(a)
    e = [x if x[1] or x[2] else None for x in e]  # entry (r, c) at r*m + c, a zero as None
    col_nz = [[(r, e[r * m + p]) for r in range(m) if e[r * m + p]] for p in range(m)]
    row_nz = [[(s, e[v * m + s]) for s in range(m) if e[v * m + s]] for v in range(m)]
    pairs = {}
    for i in range(n):
        p, q = divmod(i, m)
        for j in range(i + 1, n):
            u, v = divmod(j, m)
            acc = {}
            for c, col, row, sign in ((e[q * m + u], col_nz[p], row_nz[v], 1),
                                      (e[v * m + p], col_nz[u], row_nz[q], -1)):
                if c:
                    kc, cp, cq = c
                    for r, (k, xp, xq) in col:
                        # x * c, then times y
                        k, xp, xq = max(k, kc), xp * cp + xq * cq * rr, xp * cq + xq * cp
                        for s, (l, yp, yq) in row:
                            kind, A, B = acc.get(r * m + s, (0, 0, 0))
                            acc[r * m + s] = (max(kind, k, l), A + sign * (xp * yp + xq * yq * rr),
                                              B + sign * (xp * yq + xq * yp))
            if acc:
                value = list(zero_vec(n))
                for at, (kind, A, B) in acc.items():
                    value[at] = _scalar(kind, A, B, den**3, disc)
                pairs[(i, j)] = value
    return HomAlgebra(n, pairs, ad_alpha_matrix(ctx), ctx.backend)


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
    g = replace(build_gl_alpha(ctx), twist=ad_alpha_squared_matrix(ctx))
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
    if not mat_eq(mat_mul(A, transpose(A)), identity(3)):
        raise PreconditionError("twist must be orthogonal (A A^T = id)")
    pairs = {
        (i, j): mat_vec(A, cross3(basis_vec(3, i), basis_vec(3, j)))
        for i, j in itertools.combinations(range(3), 2)
    }
    return HomAlgebra(3, pairs, A, backend)


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
    theta: Union[int, str, Fraction],
    backend: Optional[ScalarBackend] = None,
) -> Tuple[HomAlgebra, SemiEuclideanContext]:
    """The 4-dimensional semi-Euclidean family at a given theta.

    The bracket is defined by the wedge ``[x, y] = Px ^ r ^ y - Py ^ r ^ x``
    and computed by its expansion :func:`closed_form_bracket` on the six
    basis pairs i < j.

    P is written down entrywise and must equal the matrix of Ad_alpha(theta)
    on matrix units, with alpha**2 = -id (checked by :class:`GlContext`),
    and r must be alpha read row by row; any mismatch aborts with a
    construction error.  With vec the row-major reading, P vec(B) =
    vec(alpha B alpha) and r = vec(alpha), so the twist's laws follow:

        P**2 vec(B) = vec(alpha**2 B alpha**2) = vec(B), so P**2 = id;
        P r = vec(alpha alpha alpha) = vec(alpha**3) = vec(-alpha) = -r.
    """
    backend = backend or quadratic_backend(theta)
    P = p_matrix(theta, backend)
    r = r_vector(theta, backend)

    alpha, _ = alpha_theta(theta, backend)
    if not mat_eq(P, ad_alpha_matrix(GlContext(2, alpha, backend))):
        raise ConstructionError("twist entries disagree with the Ad_alpha derivation")
    if not vec_eq(r, flatten(alpha)):
        raise ConstructionError("null vector is not alpha read row by row")

    ctx = SemiEuclideanContext(
        backend.coerce(theta), _root_one_plus_sq(theta, backend), P, r, backend
    )
    # int units keep the closed form's arithmetic on ctx's two scalars
    units = [tuple(int(k == i) for k in range(4)) for i in range(4)]
    pairs = {
        (i, j): closed_form_bracket(ctx, units[i], units[j])
        for i, j in itertools.combinations(range(4), 2)
    }
    return HomAlgebra(4, pairs, P, backend), ctx


def closed_form_bracket(ctx: SemiEuclideanContext, x: Vec, y: Vec) -> Vec:
    """Closed form of the semi-Euclidean bracket: (a, 0, 0, a).

    In 1-based coordinates,

        a = -s * [(x1 - x4)(y2 + y3) - (x2 + x3)(y1 - y4)]
            + 2 * theta * (x3 y2 - x2 y3),

    the direct polynomial expansion of Px ^ r ^ y - Py ^ r ^ x:
    the s-part is the antisymmetrization of the wedge's s-terms, while the
    theta-term is already antisymmetric in (x, y) and therefore doubles
    rather than cancels.  It vanishes at theta = 0, where the pure-s formula
    alone is exact.
    """
    a = -ctx.s * ((x[0] - x[3]) * (y[1] + y[2]) - (x[1] + x[2]) * (y[0] - y[3]))
    a = a + 2 * ctx.theta * (x[2] * y[1] - x[1] * y[2])
    # the zero components take a's type, as bracket_eval gives them
    zero = a - a
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

    A matrix identity per basis pair (x, y) = (e_i, e_j), decided by the
    twisted Jacobi scan.  With ``ad*_x y = -[x, y]``, column z of the
    residual matrix is

        -[[e_i,e_j], b e_z] - [b e_j, [e_i,e_z]] + [b e_i, [e_j,e_z]]
            = -([[e_j,e_z], b e_i] + [[e_z,e_i], b e_j] + [[e_i,e_j], b e_z])
            = -J(e_i, e_j, e_z),

    using only the antisymmetry of the bracket, where ``J`` is the twisted
    Jacobi sum of :func:`check_hom_jacobi`.  So a pair fails exactly when
    some triple it begins fails, and the first failing ordered pair is the
    ``(i, j)`` prefix of the first failing ordered triple.  The identity
    thus holds on every algebra satisfying the twisted Jacobi identity; the
    witness is that pair with its residual matrix.  ``J`` is alternating,
    so column z is ``Kernel.jacobi`` of the sorted triple times minus the
    sign of the sort, and zero when z is i or j.
    """
    jacobi = check_hom_jacobi(g)
    if jacobi.passed:
        return CheckReport(True)
    i, j, _ = jacobi.witness.at
    kernel = g.kernel
    scale = kernel.scale**2 * kernel.twist.scale
    cols = []
    for z in range(g.dim):
        # minus the sign of the sort: (i, j, z) sorts by a cyclic shift unless i < z < j
        factor = 0 if z in (i, j) else 1 if i < z < j else -1
        column = kernel.jacobi(*sorted((i, j, z))) if factor else {}
        column = {r: (factor * a, factor * b) for r, (a, b) in column.items()}
        cols.append(kernel.vector(column, scale, g.dim))
    return CheckReport(False, Witness((i, j), transpose(cols)))


def check_pseudo_adjoint_morphism(g: HomAlgebra) -> CheckReport:
    """Check that x -> ad*_x is a skew morphism into (gl(g), [.,.]_beta, Ad_beta).

    Requires twist**2 = -id exactly (an involutive twist such as the
    semi-Euclidean P is rejected).  This is :func:`check_morphism` with sign
    -1 of ad* into the gl algebra built from beta, as ``theorem_equivalence``
    checks a representation: ad*_{[x,y]} = -[ad*_x, ad*_y]_beta on all basis
    pairs, then ad*_{beta x} = Ad_beta(ad*_x).

    With beta^2 = -id the check passes exactly on abelian algebras.  A twist
    sign of -1 already forces a zero bracket: the sign law twice gives
    beta^2[x,y] = [beta^2 x, beta^2 y] = [x,y], while beta^2 = -id gives
    -[x,y].  So does the twist law [beta x, y] = beta[x, beta y] alone:
    -[x,y] = [beta^2 x, y] = beta[beta x, beta y] = beta^2[x, -y] = [x,y].
    An algebra with no stored pair therefore passes without building the
    n**2-dimensional gl(g); any other keeps the scan, which finds the witness.
    """
    minus_id = mat_neg(identity(g.dim))
    if not mat_eq(mat_mul(g.twist, g.twist), minus_id):
        raise PreconditionError("twist**2 = -id is required for the morphism law")
    if not g.pairs:
        return CheckReport(True)
    ad_star = pseudo_adjoint(g)
    f = transpose(mat(flatten(ad_star(basis_vec(g.dim, i))) for i in range(g.dim)))
    target = build_gl_alpha(GlContext(g.dim, g.twist, g.backend))
    return check_morphism(f, g, target, sign=-1)


# The one key each builtin family takes, and its value when the key is left out.
BUILTIN_KEYS = {"se4": ("theta", "0"), "gl2": ("theta", "0"), "r3": ("A", None)}


def resolve_algebra(ref: str) -> HomAlgebra:
    """The algebra that ``ref`` names: an algebra file, else a builtin family.

    ``ref`` loads as an algebra file when that path exists.  Otherwise it
    is ``family`` or ``family:key=value``, with one key per family:
    ``se4:theta=<p/q>`` and ``gl2:theta=<p/q>`` (theta defaults to 0), and
    ``r3:A=<JSON 3x3 matrix>``, whose entries are integers or ``"p/q"``
    strings and which must be orthogonal.  Any other family or key, and any
    malformed value, raises ``ValueError``.
    """
    if Path(ref).exists():
        return load_algebra(ref)
    family, _, argtext = ref.partition(":")
    if family not in BUILTIN_KEYS:
        raise ValueError(
            f"{ref!r} is neither an existing algebra file nor a builtin family"
            f" ({', '.join(BUILTIN_KEYS)})"
        )
    key, raw = BUILTIN_KEYS[family]
    if argtext:
        given, _, raw = argtext.partition("=")
        if given != key:
            raise ValueError(f"unknown key {given!r} in builtin name {ref!r}; {family} takes {key}")
        if not raw:
            raise ValueError(f"missing value in builtin name {ref!r}")
    if family == "se4":
        return build_semi_euclidean(as_rational(raw))[0]
    if family == "gl2":
        return build_gl_alpha(GlContext(2, *alpha_theta(as_rational(raw))))
    if raw is None:
        raise ValueError("r3 needs A=<matrix literal>")
    backend = ScalarBackend("rational")
    try:
        rows = json.loads(raw)
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError(f"not a list of rows: {raw}")
        A = mat(tuple(parse_scalar(x, backend) for x in row) for row in rows)
        return build_r3_cross(A, backend)
    except (*PARSE_ERRORS, PreconditionError) as exc:
        raise ValueError(f"bad matrix in builtin name {ref!r}: {exc}") from exc
