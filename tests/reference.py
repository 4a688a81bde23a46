"""Dense reference loops that the exact checkers are tested against.

Every checker in ``skewhom`` decides its identity on the sparse integer-pair
kernel.  The functions here are the dense loops the checkers ran before that,
kept for the tests only: they scan every ordered position, evaluate brackets
over the dense view ``g.bracket``, evaluate cochains by their multilinear
extension, and compute each witness from those values.  Their values equal
the kernel's.  Only the types here follow the dense sums: a sum leaves a
``Fraction`` entry where it summed no ``QuadExt`` term, so on inputs that
mix ``Fraction`` and ``QuadExt`` scalars a reference witness can hold a
``Fraction`` where the checker's, taken from its kernel scan, holds the
``QuadExt`` that ``Kernel.scalar`` gives for the kernel's discriminant.
``mat_add``, ``mat_sub``, ``mat_scale``, ``mat_col``, ``mat_is_zero``,
``twist_col`` and ``rho_eval`` are the dense helpers of those loops, which the
checkers no longer use.  ``mat_mul`` and ``mat_vec`` are the products as sums
of ``Fraction``/``QuadExt`` products started at ``Fraction(0)``, which
``skewhom.linalg`` replaced with dot products on integer numerators; the
loops here run on them.  ``conjugation_matrix`` and ``build_gl_alpha`` are
the matrix of Ad_alpha with every product ``a_rp * a_qs`` taken, and the gl
build with its structure constants summed as ``QuadExt`` products, which
``skewhom.constructions`` replaced with integer numerators.

``build_semi_euclidean`` is the se4 build from its ``wedge3`` definition,
with the dense re-checks of P that the closed-form build proves instead.
``wedge3`` is the paper's ternary wedge, with minors by the full cofactor
expansion ``det3``.  ``gl_bracket`` and ``ad_alpha`` are gl(V)'s bracket
and twist as dense matrix products on the ``matrix_units``, which the
closed-form gl build replaced, and ``cochain_add`` and ``cochain_scale``
make linear combinations of cochains.
``check_vstar_closure`` is the sampled V* closure check that the
four-plane certificate replaced, kept as the reference it is compared with.
``kernel_pairs`` is the ``Fraction``-based conversion of scalars into a
kernel's integer pairs that ``Kernel.pairs`` replaced with integer
arithmetic, and ``antisymmetry_failure`` is the dense table check that
added every ``(i, j)`` and ``(j, i)`` entry, zeros included.
``coboundary_cols`` is the build of a coboundary matrix that visits every
pair of a source and a target index set, which ``Coboundary`` replaced
with a build from the nonzero minors and bracket outputs.
``zero_rep_failures`` and ``zero_rep_coboundary`` decide a zero
representation on its full m-axis matrices from ``coboundary_cols``, as the
checkers did before they took the m = 1 matrix on each value axis alone.
``REFERENCE`` maps each public checker, and the se4 build, to its reference; the
``both_paths`` fixture runs a checker and its reference on the same input.
``DataclassQuadExt`` is the frozen-dataclass ``QuadExt`` that the slotted
class replaced, kept as the reference for its arithmetic.
"""

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from random import Random

from skewhom import algebra, cohomology, constructions, representation
from skewhom.algebra import CheckReport, TwistSign, Witness
from skewhom.cohomology import Cochain, _check_size, cochain, d_squared_report
from skewhom.errors import (
    BackendMismatchError,
    ConstructionError,
    DimensionError,
    ZeroDivisorError,
)
from skewhom.linalg import (
    basis_vec,
    identity,
    mat,
    mat_eq,
    mat_pow,
    transpose,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_neg,
    vec_scale,
    vec_sub,
    zero_mat,
    zero_vec,
)
from skewhom.scalars import QuadExt, _fraction_sign, as_rational, quadratic_backend
from skewhom.se4geometry import SPAN, in_v_star, vstar_defect, vstar_draws


def mat_add(a, b):
    return tuple(vec_add(ra, rb) for ra, rb in zip(a, b))


def mat_sub(a, b):
    if len(a) != len(b):
        raise DimensionError(f"shapes {len(a)} and {len(b)} rows differ")
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b))


def mat_is_zero(a):
    return all(map(vec_is_zero, a))


def mat_mul(a, b):
    """``a b``, each entry a sum of products started at ``Fraction(0)``."""
    if not a or not b or len(a[0]) != len(b):
        raise DimensionError("cannot multiply these shapes")
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt) for row in a
    )


def mat_vec(a, x):
    """``a x``, each entry a sum of products started at ``Fraction(0)``."""
    if not a or len(a[0]) != len(x):
        raise DimensionError("cannot apply this shape")
    return tuple(sum((c * v for c, v in zip(row, x)), Fraction(0)) for row in a)


def mat_scale(c, a):
    return tuple(vec_scale(c, row) for row in a)


def mat_col(a, j):
    return tuple(row[j] for row in a)


def twist_col(g, i):
    """The image of the i-th basis vector under the twist of ``g``."""
    return mat_col(g.twist, i)


def rho_eval(rep, x):
    """The linear extension ``sum_i x_i rho(e_i)``."""
    if len(x) != rep.g.dim:
        raise DimensionError(f"argument must have length {rep.g.dim}")
    acc = zero_mat(rep.m, rep.m)
    for xi, r in zip(x, rep.rho):
        if xi:
            acc = mat_add(acc, mat_scale(xi, r))
    return acc


def bracket_eval(g, x, y):
    """``[x, y]`` summed over all ordered pairs of ``g.bracket``."""
    if len(x) != g.dim or len(y) != g.dim:
        raise DimensionError(f"arguments must have length {g.dim}")
    acc = zero_vec(g.dim)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            acc = vec_add(acc, vec_scale(xi * yj, g.bracket[i][j]))
    return acc


def check_hom_jacobi(g):
    """The twisted Jacobi sum on all n**3 ordered basis triples."""
    beta = [twist_col(g, i) for i in range(g.dim)]

    def residual(i, j, k):
        res = bracket_eval(g, g.bracket_at(j, k), beta[i])
        res = vec_add(res, bracket_eval(g, g.bracket_at(k, i), beta[j]))
        return vec_add(res, bracket_eval(g, g.bracket_at(i, j), beta[k]))

    triples = itertools.product(range(g.dim), repeat=3)
    at = next((at for at in triples if not vec_is_zero(residual(*at))), None)
    return CheckReport(True) if at is None else CheckReport(False, Witness(at, residual(*at)))


def bracket_failure(f, g, h, signs):
    """The bracket law ``f([e_i,e_j]_g) = eps * [f e_i, f e_j]_h`` as a scan of all ordered pairs.

    The signs that hold up to the first pair where none is left, and
    ``((i, j), residual)`` there, as ``Kernel.first_sign_failure`` returns them.
    """
    cols = [mat_col(f, i) for i in range(g.dim)]

    def sides(i, j):
        return mat_vec(f, g.bracket_at(i, j)), bracket_eval(h, cols[i], cols[j])

    def residual(lhs, rhs, sign):
        return vec_sub(lhs, vec_scale(Fraction(sign), rhs))

    left, at = signs, None
    for i, j in itertools.product(range(g.dim), repeat=2):
        lhs, rhs = sides(i, j)
        if vec_is_zero(lhs) and vec_is_zero(rhs):
            continue
        left = {s for s in left if vec_is_zero(residual(lhs, rhs, s))}
        if not left:
            at = (i, j)
            break
    if at is None:
        return left, None
    lhs, rhs = sides(*at)
    res = (residual(lhs, rhs, s) for s in sorted(signs, reverse=True))
    return left, (at, next(r for r in res if not vec_is_zero(r)))


def check_twist_sign(g):
    abelian = all(vec_is_zero(v) for v in g.pairs.values())
    signs, failure = bracket_failure(g.twist, g, g, {1, -1})
    if failure is not None:
        return TwistSign(None, Witness(*failure), abelian)
    if abelian or signs == {1, -1}:
        return TwistSign(1, None, abelian, both=True)
    return TwistSign(signs.pop())


def classify(g):
    sign = check_twist_sign(g)
    return algebra.classify(g, sign, None if sign.sign is None else check_hom_jacobi(g))


def check_power_sign_law(g, m):
    if m < 1:
        raise ValueError("power must be a positive integer")
    _, failure = bracket_failure(mat_pow(g.twist, m), g, g, {(-1) ** m})
    if failure is None:
        return CheckReport(True)
    return CheckReport(False, Witness(*failure, note=f"m={m}"))


def check_morphism(f, g, h, sign):
    """The bracket law by :func:`bracket_failure`, then the intertwining law."""
    if g.backend != h.backend:
        raise BackendMismatchError("source and target use different backends")
    _, failure = bracket_failure(f, g, h, {sign})
    if failure is not None:
        (i, j), res = failure
        return CheckReport(False, Witness(("bracket", i, j), res))
    intertwine, other = mat_mul(f, g.twist), mat_mul(h.twist, f)
    for r in range(h.dim):
        for c in range(g.dim):
            diff = intertwine[r][c] - other[r][c]
            if diff:
                return CheckReport(False, Witness(("twist", r, c), diff))
    return CheckReport(True)


def pseudo_adjoint(g):
    """x -> the matrix of y -> -[x, y], with the dense bracket."""

    def ad_star(x):
        cols = [vec_neg(bracket_eval(g, x, basis_vec(g.dim, j))) for j in range(g.dim)]
        return transpose(mat(cols))

    return ad_star


def check_pseudo_adjoint_identity(g):
    """The dense Jacobi scan, and the residual matrix from the dense ``ad*``."""
    jacobi = check_hom_jacobi(g)
    if jacobi.passed:
        return CheckReport(True)
    i, j, _ = jacobi.witness.at
    ad_star = pseudo_adjoint(g)
    lhs = mat_mul(ad_star(g.bracket_at(i, j)), g.twist)
    rhs = mat_sub(
        mat_mul(ad_star(twist_col(g, j)), ad_star(basis_vec(g.dim, i))),
        mat_mul(ad_star(twist_col(g, i)), ad_star(basis_vec(g.dim, j))),
    )
    return CheckReport(False, Witness((i, j), mat_sub(lhs, rhs)))


def check_representation(rep):
    """Both representation equations on every basis vector and ordered pair."""
    g, phi = rep.g, rep.phi
    n = g.dim

    @cache
    def rho_beta(i):
        return rho_eval(rep, twist_col(g, i))

    def residual(at):
        if at[0] == "compat":
            i = at[1]
            return mat_add(mat_mul(rho_beta(i), phi), mat_mul(phi, rep.rho[i]))
        _, i, j = at
        lhs = mat_mul(rho_eval(rep, g.bracket_at(i, j)), phi)
        rhs = mat_sub(mat_mul(rho_beta(i), rep.rho[j]), mat_mul(rho_beta(j), rep.rho[i]))
        return mat_sub(lhs, rhs)

    scan = itertools.chain(
        (("compat", i) for i in range(n)),
        (("bracket", i, j) for i, j in itertools.product(range(n), repeat=2)),
    )
    at = next((at for at in scan if not mat_is_zero(residual(at))), None)
    return CheckReport(True) if at is None else CheckReport(False, Witness(at, residual(at)))


def sort_with_parity(idx):
    """``idx`` sorted, and the sign of the permutation that sorts it."""
    order = list(idx)
    sign = 1
    for i in range(1, len(order)):
        j = i
        while j > 0 and order[j - 1] > order[j]:
            order[j - 1], order[j] = order[j], order[j - 1]
            sign = -sign
            j -= 1
    return tuple(order), sign


def cochain_eval(eta, args):
    """Multilinear alternating extension of the table to arbitrary vectors."""
    if len(args) != eta.k:
        raise DimensionError(f"degree-{eta.k} cochain takes {eta.k} arguments")
    for a in args:
        if len(a) != eta.n:
            raise DimensionError(f"arguments must have length {eta.n}")
    if eta.k == 0:
        return eta.table[()]
    supports = [[j for j, c in enumerate(a) if c != 0] for a in args]
    acc = zero_vec(eta.m)
    for idx in itertools.product(*supports):
        if len(set(idx)) < eta.k:
            continue
        coeff = args[0][idx[0]]
        for t in range(1, eta.k):
            coeff = coeff * args[t][idx[t]]
        key, sign = sort_with_parity(idx)
        acc = vec_add(acc, vec_scale(sign * coeff, eta.table[key]))
    return acc


def coboundary_at(eta, rep, s, args):
    """The coboundary formula of ``skewhom.cohomology`` at k+1 arbitrary vectors."""
    if s < 0:
        raise ValueError("the operator family is indexed by s >= 0")
    g = rep.g
    k = eta.k
    if len(args) != k + 1:
        raise DimensionError(f"coboundary of a degree-{k} cochain takes {k + 1} arguments")
    beta_args = [mat_vec(g.twist, x) for x in args]

    total = zero_vec(eta.m)
    if not all(x == 0 for r in rep.rho for row in r for x in row):
        pre = mat_pow(rep.phi, k + 1 + s)
        post = mat_pow(rep.phi, -(k + 2 + s))
        for i in range(k + 1):
            w = cochain_eval(eta, beta_args[:i] + beta_args[i + 1 :])
            if vec_is_zero(w):
                continue
            w = mat_vec(pre, mat_vec(rho_eval(rep, args[i]), mat_vec(post, w)))
            # 1-based sign (-1)^(i+1): positive at even 0-based i
            total = vec_add(total, w) if i % 2 == 0 else vec_sub(total, w)
    for i, j in itertools.combinations(range(k + 1), 2):
        head = bracket_eval(g, args[i], args[j])
        rest = [beta_args[t] for t in range(k + 1) if t not in (i, j)]
        w = cochain_eval(eta, [head] + rest)
        # 1-based sign (-1)^(i+j) equals the 0-based one
        total = vec_add(total, w) if (i + j) % 2 == 0 else vec_sub(total, w)
    return total


def coboundary(eta, rep, s):
    """:func:`coboundary_at` at every output tuple, after the checks ``coboundary`` makes."""
    if s < 0:
        raise ValueError("the operator family is indexed by s >= 0")
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
    basis = [basis_vec(n, i) for i in range(n)]
    table = {
        key: coboundary_at(eta, rep, s, [basis[t] for t in key])
        for key in itertools.combinations(range(n), k + 1)
    }
    return Cochain(k + 1, n, m, table)


def d_squared_failures(g, rep, k, s):
    """:func:`coboundary` twice on every degree-k basis cochain, as a failure stream."""
    if rep.g != g:
        rep = replace(rep, g=g)
    n, m = g.dim, rep.m
    for degree in (k, k + 1, k + 2):
        _check_size(n, degree, m)

    def residuals():
        for key, axis in itertools.product(itertools.combinations(range(n), k), range(m)):
            eta = cochain(k, n, m, {key: basis_vec(m, axis)})
            twice = coboundary(coboundary(eta, rep, s), rep, s).table
            nonzero = {u: twice[u] for u in sorted(twice) if not vec_is_zero(twice[u])}
            if nonzero:
                yield key, axis, nonzero

    return residuals()


def check_d_squared(g, rep, k, s):
    return d_squared_report(d_squared_failures(g, rep, k, s), k, s)


def cochain_add(x, y):
    if (x.k, x.n, x.m) != (y.k, y.n, y.m):
        raise DimensionError("cochain shapes differ")
    return Cochain(x.k, x.n, x.m, {key: vec_add(v, y.table[key]) for key, v in x.table.items()})


def cochain_scale(c, x):
    return Cochain(x.k, x.n, x.m, {key: vec_scale(c, v) for key, v in x.table.items()})


def coboundary_cols(kernel, k, m, conj, conj_scale):
    """``Coboundary``'s sources, targets, columns and scale, from every (source, target) pair.

    Each pair ``(K, u)`` of a k-set and a (k+1)-set forms its k+1 twist
    minors ``det beta[K; u - u_i]`` and reads its C(k+1, 2) brackets, with
    the minors memoised by (rows, columns) and expanded along their first
    column; the entries and their scale are those set out in
    ``skewhom._kernel.Coboundary``.
    """
    n = kernel.dim
    sources = list(itertools.combinations(range(n), k))
    targets = list(itertools.combinations(range(n), k + 1))
    blocks = [
        {(a, b): x for a, row in enumerate(mt) for b, x in row.items() if x != (0, 0)}
        for mt in conj
    ]
    t_scale = kernel.twist.scale
    scale = kernel.scale * conj_scale * t_scale**k
    minors = {}

    def minor(rows, cols):
        """``det beta[rows; cols]`` times ``L_t**len(rows)``, by its first column."""
        if not rows:
            return (1, 0)
        got = minors.get((rows, cols))
        if got is None:
            x = y = 0
            column = kernel.twist.cols[cols[0]]
            for r, row in enumerate(rows):
                if row in column:
                    a, b = kernel._mul(column[row], minor(rows[:r] + rows[r + 1 :], cols[1:]))
                    x, y = (x + a, y + b) if r % 2 == 0 else (x - a, y - b)
            got = minors[(rows, cols)] = (x, y)
        return got

    cols = [{} for _ in range(len(sources) * m)]
    for kk, K in enumerate(sources):
        for uu, u in enumerate(targets):
            entries = {}
            for i, t in enumerate(u):
                det = minor(K, u[:i] + u[i + 1 :])
                if blocks[t] and det != (0, 0):
                    factor = kernel.scale if i % 2 == 0 else -kernel.scale
                    c, e = det[0] * factor, det[1] * factor
                    for ab, value in blocks[t].items():
                        a, b = kernel._mul(value, (c, e))
                        x, y = entries.get(ab, (0, 0))
                        entries[ab] = (x + a, y + b)
            x = y = 0
            for i, j in itertools.combinations(range(k + 1), 2):
                head = kernel.bracket(u[i], u[j])
                rest = tuple(u[p] for p in range(k + 1) if p not in (i, j))
                for r, row in enumerate(K):
                    if row in head:
                        a, b = kernel._mul(head[row], minor(K[:r] + K[r + 1 :], rest))
                        x, y = (x + a, y + b) if (i + j + r) % 2 == 0 else (x - a, y - b)
            if x or y:
                x, y = x * conj_scale * t_scale, y * conj_scale * t_scale
                for a in range(m):
                    c, e = entries.get((a, a), (0, 0))
                    entries[(a, a)] = (c + x, e + y)
            for (a, b), value in entries.items():
                if value != (0, 0):
                    cols[kk * m + b][uu * m + a] = value
    return sources, targets, cols, scale


def zero_rep_failures(g, m, k):
    """``d_squared_failures`` of a zero rho on m value axes, from the m-axis matrices.

    With rho = 0 every block ``M_t`` is zero over scale 1, whatever s and
    phi.  Each basis cochain ``(key, axis)``, in order, whose column of
    ``D_{k+1} D_k`` is not zero comes with its residual at each nonzero
    output tuple, every component taken through ``g.kernel.scalar``.
    """
    n, kernel = g.dim, g.kernel
    if k + 2 > n:
        return []
    zero = [[{}] * m] * n
    sources, _, cols, scale = coboundary_cols(kernel, k, m, zero, 1)
    _, targets, after, after_scale = coboundary_cols(kernel, k + 1, m, zero, 1)
    stream = []
    for c, col in enumerate(cols):
        product = kernel._combine({}, col, after, 1)
        rows = sorted({r // m for r, (a, b) in product.items() if a or b})
        if rows:
            residual = {
                targets[u]: tuple(
                    kernel.scalar(product.get(u * m + a, (0, 0)), scale * after_scale)
                    for a in range(m)
                )
                for u in rows
            }
            stream.append((sources[c // m], c % m, residual))
    return stream


def zero_rep_coboundary(eta, g):
    """``coboundary`` of ``eta`` for a zero rho, from the m-axis matrix of its degree.

    The entries take the type of ``g.kernel_with`` eta's values.
    """
    n, k, m = eta.n, eta.k, eta.m
    if k + 1 > n:
        return Cochain(k + 1, n, m, {})
    _, targets, cols, op_scale = coboundary_cols(g.kernel, k, m, [[{}] * m] * n, 1)
    values = [x for key in itertools.combinations(range(n), k) for x in eta.table[key]]
    kernel = g.kernel_with(values)
    pairs, scale = kernel.pairs(values)
    image = g.kernel._combine({}, {c: x for c, x in enumerate(pairs) if x is not None}, cols, 1)
    return Cochain(k + 1, n, m, {
        u: tuple(kernel.scalar(image.get(uu * m + a, (0, 0)), op_scale * scale) for a in range(m))
        for uu, u in enumerate(targets)
    })


def det3(rows):
    """A 3x3 determinant by its full cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def wedge3(u, v, w):
    """The ternary wedge of three vectors in R^4.

    The formal expansion of the 4x4 determinant with symbolic first row
    ``(e1, -e2, e3, e4)`` and data rows ``u, v, w``.  The sign pattern of
    that row is part of the definition, so this is not the Euclidean 4D
    cross product.
    """
    for x in (u, v, w):
        if len(x) != 4:
            raise DimensionError("ternary wedge needs three vectors of length 4")

    def minor(col):
        cols = [c for c in range(4) if c != col]
        return det3([[row[c] for c in cols] for row in (u, v, w)])

    return (minor(0), minor(1), minor(2), -minor(3))


def matrix_unit(n, p, q):
    return tuple(
        tuple(Fraction(int((i, j) == (p, q))) for j in range(n)) for i in range(n)
    )


def matrix_units(m):
    """The m**2 matrix units in the row-major order of gl(R^m)'s basis."""
    return tuple(matrix_unit(m, p, q) for p in range(m) for q in range(m))


def unflatten(v, rows, cols):
    return tuple(tuple(v[i * cols + j] for j in range(cols)) for i in range(rows))


def gl_bracket(ctx, a, b):
    """The twisted commutator aAaBa - aBaAa on matrices."""
    al = ctx.alpha
    left = mat_mul(mat_mul(mat_mul(mat_mul(al, a), al), b), al)
    right = mat_mul(mat_mul(mat_mul(mat_mul(al, b), al), a), al)
    return mat_sub(left, right)


def ad_alpha(ctx, b):
    return mat_mul(mat_mul(ctx.alpha, b), ctx.alpha)


def conjugation_matrix(a):
    """Matrix of B -> aBa on matrix units: entry ((r, s), (p, q)) is ``a_rp * a_qs``, every product taken."""
    m = len(a)
    return tuple(
        tuple(a[r][p] * a[q][s] for p in range(m) for q in range(m))
        for r in range(m)
        for s in range(m)
    )


def build_gl_alpha(ctx):
    """gl(V)'s closed form ``a_qu a_rp a_vs - a_vp a_ru a_qs`` summed as scalar products.

    Only nonzero entries of a are multiplied, and a component keeps the
    type of its sum, a cancelled one included.
    """
    m, a = ctx.m, ctx.alpha
    n = m * m
    col_nz = [[(r, a[r][p]) for r in range(m) if a[r][p]] for p in range(m)]
    row_nz = [[(s, a[v][s]) for s in range(m) if a[v][s]] for v in range(m)]
    pairs = {}
    for i in range(n):
        p, q = divmod(i, m)
        for j in range(i + 1, n):
            u, v = divmod(j, m)
            acc = {}
            c = a[q][u]
            if c:
                for r, x in col_nz[p]:
                    for s, y in row_nz[v]:
                        acc[r * m + s] = x * c * y
            c = a[v][p]
            if c:
                for r, x in col_nz[u]:
                    for s, y in row_nz[q]:
                        acc[r * m + s] = acc.get(r * m + s, 0) - x * c * y
            if acc:
                value = list(zero_vec(n))
                for at, x in acc.items():
                    value[at] = x
                pairs[(i, j)] = value
    return algebra.HomAlgebra(n, pairs, conjugation_matrix(a), ctx.backend)


def build_semi_euclidean(theta, backend=None):
    """The semi-Euclidean build from its definition, with P's laws checked densely.

    The bracket is the table ``wedge3(P e_i, r, e_j) - wedge3(P e_j, r, e_i)``
    for i < j, and P is checked against ``Ad_alpha`` and then, by dense
    products, for ``P**2 = id`` and ``P r = -r``.  The inputs are read
    through the ``constructions`` module, so a patched ``p_matrix``,
    ``r_vector`` or ``alpha_theta`` reaches this build too.
    """
    backend = backend or quadratic_backend(theta)
    P = constructions.p_matrix(theta, backend)
    r = constructions.r_vector(theta, backend)
    alpha, _ = constructions.alpha_theta(theta, backend)
    derived = constructions.ad_alpha_matrix(constructions.GlContext(2, alpha, backend))
    if not mat_eq(P, derived):
        raise ConstructionError("twist entries disagree with the Ad_alpha derivation")
    if not mat_eq(mat_mul(P, P), identity(4)):
        raise ConstructionError("twist is not an involution")
    if not vec_eq(mat_vec(P, r), vec_neg(r)):
        raise ConstructionError("P r = -r failed")
    p_cols = [mat_col(P, i) for i in range(4)]
    e = [basis_vec(4, i) for i in range(4)]
    pairs = {
        (i, j): vec_sub(wedge3(p_cols[i], r, e[j]), wedge3(p_cols[j], r, e[i]))
        for i, j in itertools.combinations(range(4), 2)
    }
    g = algebra.HomAlgebra(4, pairs, P, backend)
    s = constructions._root_one_plus_sq(theta, backend)
    return g, constructions.SemiEuclideanContext(backend.coerce(theta), s, P, r, backend)


def check_vstar_closure(g, ctx, samples, seed):
    """V* closure by sampling, the reference for ``se4geometry.vstar_certificate``.

    The brackets of ``samples`` pairs of random integer vectors from
    ``Random(seed)``, then the P-images of ``samples`` members from
    ``vstar_draws(ctx, samples, seed + 1)``, must lie in V*.  The first
    that does not gives the witness ``("bracket", x, y)`` or ``("twist", z)``
    with ``vstar_defect`` of its value.  A pass holds only for the samples.
    """
    rng = Random(seed)
    for _ in range(samples):
        x = tuple(ctx.backend.coerce(rng.randint(-SPAN, SPAN)) for _ in range(4))
        y = tuple(ctx.backend.coerce(rng.randint(-SPAN, SPAN)) for _ in range(4))
        value = bracket_eval(g, x, y)
        if not in_v_star(value).member:
            return CheckReport(False, Witness(("bracket", x, y), vstar_defect(value)))
    for z in vstar_draws(ctx, samples, seed=seed + 1):
        image = mat_vec(ctx.P, z)
        if not in_v_star(image).member:
            return CheckReport(False, Witness(("twist", z), vstar_defect(image)))
    return CheckReport(True)


def kernel_pairs(kernel, values):
    """``kernel.pairs(values)`` computed with ``Fraction`` arithmetic."""
    split = []
    for x in values:
        # the type first: a float zero is refused, not read as an exact zero
        if not isinstance(x, (int, Fraction, QuadExt)):
            raise TypeError(f"not an exact scalar: {x!r}")
        if not x:
            split.append(None)
        elif isinstance(x, QuadExt):
            if x.d != kernel.d:
                raise BackendMismatchError(f"mixed discriminants {kernel.d} and {x.d}")
            split.append((x.a, x.b / kernel.dd))
        else:
            split.append((Fraction(x), Fraction(0)))
    scale = math.lcm(*(q.denominator for p in split if p is not None for q in p))
    return [
        None if p is None else ((p[0] * scale).numerator, (p[1] * scale).numerator)
        for p in split
    ], scale


def antisymmetry_failure(table):
    """The first ``(i, j)``, ``i <= j``, where ``table[i][j] + table[j][i]`` is nonzero."""
    n = len(table)
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        if not vec_is_zero(vec_add(table[i][j], table[j][i])):
            return i, j
    return None


REFERENCE = {
    algebra.bracket_eval: bracket_eval,
    algebra.check_hom_jacobi: check_hom_jacobi,
    algebra.check_twist_sign: check_twist_sign,
    algebra.check_power_sign_law: check_power_sign_law,
    algebra.check_morphism: check_morphism,
    algebra.classify: classify,
    constructions.check_pseudo_adjoint_identity: check_pseudo_adjoint_identity,
    representation.check_representation: check_representation,
    cohomology.coboundary: coboundary,
    cohomology.d_squared_failures: d_squared_failures,
    cohomology.check_d_squared: check_d_squared,
    constructions.build_semi_euclidean: build_semi_euclidean,
}


@dataclass(frozen=True, eq=False)
class DataclassQuadExt:
    """``skewhom.scalars.QuadExt`` as a frozen dataclass that normalises every result."""

    a: Fraction
    b: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        object.__setattr__(self, "d", as_rational(self.d))

    def _lift(self, other):
        if isinstance(other, DataclassQuadExt):
            if other.d != self.d:
                raise BackendMismatchError(f"mixed discriminants {self.d} and {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return DataclassQuadExt(as_rational(other), Fraction(0), self.d)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return DataclassQuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return DataclassQuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return DataclassQuadExt(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return DataclassQuadExt(
            self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return DataclassQuadExt(-self.a, -self.b, self.d)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = DataclassQuadExt(Fraction(1), Fraction(0), self.d)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, DataclassQuadExt):
            if other.d != self.d:
                raise BackendMismatchError(f"mixed discriminants {self.d} and {other.d}")
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def norm(self):
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisorError(f"{self} has conjugate norm 0")
        return DataclassQuadExt(self.a / n, -self.b / n, self.d)

    def sign(self):
        if self.d <= 0:
            raise ValueError("sign is defined only for positive discriminants")
        if self.b == 0:
            return _fraction_sign(self.a)
        if self.a == 0:
            return _fraction_sign(self.b)
        sa, sb = _fraction_sign(self.a), _fraction_sign(self.b)
        if sa == sb:
            return sa
        t = self.norm()
        if t > 0:
            return sa
        if t < 0:
            return sb
        return 0
