"""Independent exact oracle for the benchmark; it does not import skewhom.

Scalars of Q(sqrt(1 + theta^2)) with theta = p/q in lowest terms are written
over S = sqrt(D), D = p^2 + q^2, so that s = sqrt(1 + theta^2) = S/q.  An
element is an integer pair (a, b) meaning a + b*S.  When D is a perfect
square, S is an integer and every pair keeps b = 0.

Tables are sparse and scaled to integers: a family's bracket is stored as
``sb`` times its true value and its twist as ``st`` times its true value.
Every identity checked here is homogeneous in the bracket and in the twist,
so a zero test on scaled values decides the same question; residuals are
divided by their scale only when they are compared with a reported witness.

The families are built from their definitions, written apart from the
program: gl(V) from the conjugation ``B -> aBa`` and the bracket
``aAaBa - aBaAa`` with ``a`` block-diagonal ``[[-theta, s], [-s, theta]]``;
the semi-Euclidean R^4 from the closed form ``[x, y] = (a', 0, 0, a')`` with
``a' = -s[(x1-x4)(y2+y3) - (x2+x3)(y1-y4)] + 2 theta (x3 y2 - x2 y3)`` and
with twist P, the matrix of that conjugation on 2x2 matrix units.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt


class Field:
    """Q(S), S^2 = D, for theta = p/q; scalars are pairs (a, b) = a + b*S."""

    def __init__(self, theta: Fraction):
        theta = Fraction(theta)
        self.theta = theta
        self.p, self.q = theta.numerator, theta.denominator
        self.D = self.p * self.p + self.q * self.q
        root = isqrt(self.D)
        self.root = root if root * root == self.D else None
        self.S = (root, 0) if self.root is not None else (0, 1)

    def mul(self, x, y):
        return (x[0] * y[0] + x[1] * y[1] * self.D, x[0] * y[1] + x[1] * y[0])

    def from_program(self, x):
        """A program scalar (Fraction, int or a + b*s with fields a, b) as an S-pair."""
        if hasattr(x, "b"):
            if self.root is not None:
                raise ValueError("quadratic scalar in a degenerate field")
            return (Fraction(x.a), Fraction(x.b) / self.q)
        return (Fraction(x), Fraction(0))

    def to_file(self, pair):
        """File-format text of an S-pair: "p/q", or {"a", "b"} for a + b*s."""
        a, b = Fraction(pair[0]), Fraction(pair[1])
        if self.root is not None:
            return str(a + b * self.root)
        if b == 0:
            return str(a)
        return {"a": str(a), "b": str(b * self.q)}

    def backend_json(self) -> dict:
        return {"kind": "quadratic", "theta": str(self.theta)}


# -- sparse vectors: dict index -> pair --------------------------------------


def vadd(acc: dict, v: dict, c=None, field: Field = None) -> None:
    """acc += c * v in place (c an S-pair, or None for 1); drops zeros."""
    for k, x in v.items():
        if c is not None:
            x = field.mul(c, x)
        if k in acc:
            y = acc[k]
            z = (y[0] + x[0], y[1] + x[1])
            if z == (0, 0):
                del acc[k]
            else:
                acc[k] = z
        elif x != (0, 0):
            acc[k] = x


def vscale(c: int, v: dict) -> dict:
    return {k: (c * x[0], c * x[1]) for k, x in v.items() if c}


def true_vec(v: dict, n: int, scale: int) -> tuple:
    """Dense tuple of Fraction S-pairs: the sparse scaled vector over ``scale``."""
    return tuple(
        (Fraction(v[k][0], scale), Fraction(v[k][1], scale)) if k in v else (Fraction(0), Fraction(0))
        for k in range(n)
    )


class Table:
    """Sparse scaled algebra: ``br[(i, j)]`` = sb * [e_i, e_j], ``tw[i]`` = st * beta(e_i)."""

    def __init__(self, field: Field, n: int, br: dict, tw: list, sb: int, st: int):
        self.field, self.n, self.br, self.tw, self.sb, self.st = field, n, br, tw, sb, st
        self._dense = None

    def dense(self) -> tuple:
        """(brackets[i][j], twist rows) as true S-pairs, computed once."""
        if self._dense is None:
            n = self.n
            self._dense = (
                [[self.entry(i, j) for j in range(n)] for i in range(n)],
                [tuple(self.twist_entry(r, c) for c in range(n)) for r in range(n)],
            )
        return self._dense

    def bracket(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, x in u.items():
            for j, y in v.items():
                e = self.br.get((i, j))
                if e:
                    vadd(out, e, self.field.mul(x, y), self.field)
        return out

    def twist(self, v: dict) -> dict:
        out: dict = {}
        for i, x in v.items():
            vadd(out, self.tw[i], x, self.field)
        return out

    def entry(self, i: int, j: int) -> tuple:
        """True value of [e_i, e_j] as a dense tuple of S-pairs."""
        return true_vec(self.br.get((i, j), {}), self.n, self.sb)

    def twist_entry(self, r: int, c: int) -> tuple:
        x = self.tw[c].get(r, (0, 0))
        return (Fraction(x[0], self.st), Fraction(x[1], self.st))

    def with_twist(self, tw: list, st: int) -> "Table":
        return Table(self.field, self.n, self.br, tw, self.sb, st)

    def mutated(self, i: int, j: int, k: int, delta: int) -> "Table":
        """Copy with the true constant [e_i, e_j]_k raised by ``delta`` (antisymmetry kept)."""
        br = dict(self.br)
        for (a, b), sign in (((i, j), 1), ((j, i), -1)):
            v = dict(br.get((a, b), {}))
            vadd(v, {k: (sign * delta * self.sb, 0)})
            br[(a, b)] = v
        return Table(self.field, self.n, br, self.tw, self.sb, self.st)


def _matrix_units_conjugation(field: Field, alpha: list, m: int):
    """Scaled bracket aAaBa - aBaAa and twist aBa on the row-major matrix units."""
    mul = field.mul
    br: dict = {}
    tw: list = []
    units = [(a, b) for a in range(m) for b in range(m)]
    for c, d in units:
        col: dict = {}
        for i in range(m):
            for l in range(m):
                vadd(col, {i * m + l: mul(alpha[i][c], alpha[d][l])})
        tw.append(col)
    for x, (a, b) in enumerate(units):
        for y, (c, d) in enumerate(units):
            if x == y:
                continue
            out: dict = {}
            k1, k2 = alpha[b][c], alpha[d][a]
            for i in range(m):
                for l in range(m):
                    term = mul(k1, mul(alpha[i][a], alpha[d][l]))
                    other = mul(k2, mul(alpha[i][c], alpha[b][l]))
                    vadd(out, {i * m + l: (term[0] - other[0], term[1] - other[1])})
            if out:
                br[(x, y)] = out
    return br, tw


def scaled_alpha(field: Field, m: int) -> list:
    """q times the block-diagonal square root of -id, [[-theta, s], [-s, theta]] per block."""
    p, S = field.p, field.S
    out = [[(0, 0)] * m for _ in range(m)]
    for b in range(0, m, 2):
        out[b][b], out[b][b + 1] = (-p, 0), S
        out[b + 1][b], out[b + 1][b + 1] = (-S[0], -S[1]), (p, 0)
    return out


def gl_table(theta, m: int) -> Table:
    """gl(R^m) with bracket aAaBa - aBaAa and twist Ad_a, scaled by q^3 and q^2."""
    field = Field(theta)
    br, tw = _matrix_units_conjugation(field, scaled_alpha(field, m), m)
    return Table(field, m * m, br, tw, field.q ** 3, field.q ** 2)


def se4_closed_form(field: Field, x, y):
    """q * a'(x, y) for integer coordinate vectors, as an S-pair."""
    s_part = (x[0] - x[3]) * (y[1] + y[2]) - (x[1] + x[2]) * (y[0] - y[3])
    t_part = 2 * field.p * (x[2] * y[1] - x[1] * y[2])
    S = field.S
    return (t_part - s_part * S[0], -s_part * S[1])


def se4_table(theta) -> Table:
    """Semi-Euclidean R^4: closed-form bracket (scale q), twist P = Ad_a on 2x2 units (scale q^2)."""
    field = Field(theta)
    _, tw = _matrix_units_conjugation(field, scaled_alpha(field, 2), 2)
    basis = [[1 if t == i else 0 for t in range(4)] for i in range(4)]
    br = {}
    for i, j in itertools.permutations(range(4), 2):
        a = se4_closed_form(field, basis[i], basis[j])
        if a != (0, 0):
            br[(i, j)] = {0: a, 3: a}
    return Table(field, 4, br, tw, field.q, field.q ** 2)


def direct_sum(first: Table, second: Table) -> Table:
    if (first.field.theta, first.sb, first.st) != (second.field.theta, second.sb, second.st):
        raise ValueError("direct sums need one field and one scale")
    off = first.n
    br = dict(first.br)
    for (i, j), v in second.br.items():
        br[(i + off, j + off)] = {k + off: x for k, x in v.items()}
    tw = list(first.tw) + [{k + off: x for k, x in v.items()} for v in second.tw]
    return Table(first.field, first.n + second.n, br, tw, first.sb, first.st)


# -- change of basis -------------------------------------------------------


def unimodular(n: int, rng) -> tuple:
    """A dense unimodular M = K Pi and its integer inverse.

    K = L U is fixed, with L and U unit bidiagonal of alternating signs, so
    its inverse is dense; Pi is a seeded signed permutation.  In the basis M
    every seed's table has the same entries up to order and sign, so its
    density and the size of its numbers do not depend on the seed.
    """
    L = [[int(i == j) for j in range(n)] for i in range(n)]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        L[i][i - 1] = (-1) ** i
        U[i - 1][i] = (-1) ** (i // 2)
    K = [[sum(L[i][t] * U[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    Linv = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            Linv[i][c] = -L[i][i - 1] * Linv[i - 1][c]
        for i in range(c - 1, -1, -1):
            Uinv[i][c] = -U[i][i + 1] * Uinv[i + 1][c]
    Kinv = [[sum(Uinv[i][t] * Linv[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    # Pi e_i = signs[i] e_order[i]
    M = [[K[r][order[i]] * signs[i] for i in range(n)] for r in range(n)]
    Minv = [[Kinv[order[i]][c] * signs[i] for c in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if sum(M[i][t] * Minv[t][j] for t in range(n)) != int(i == j):
                raise AssertionError("unimodular inverse is wrong")
    return M, Minv


def change_basis(t: Table, M: list, Minv: list) -> Table:
    """The same algebra written in the basis f_i = sum_k M[k][i] e_k."""
    n = t.n
    cols = [{k: (M[k][i], 0) for k in range(n) if M[k][i]} for i in range(n)]

    def to_new(v: dict) -> dict:
        out: dict = {}
        for k, x in v.items():
            vadd(out, {r: (Minv[r][k] * x[0], Minv[r][k] * x[1]) for r in range(n) if Minv[r][k]})
        return out

    br = {}
    for i, j in itertools.permutations(range(n), 2):
        v = to_new(t.bracket(cols[i], cols[j]))
        if v:
            br[(i, j)] = v
    tw = [to_new(t.twist(cols[i])) for i in range(n)]
    return Table(t.field, n, br, tw, t.sb, t.st)


# -- checks ----------------------------------------------------------------


def jacobi_at(t: Table, i: int, j: int, k: int) -> dict:
    """Scaled twisted cyclic sum [[e_j,e_k],b e_i] + [[e_k,e_i],b e_j] + [[e_i,e_j],b e_k]."""
    out: dict = {}
    for (a, b), c in (((j, k), i), ((k, i), j), ((i, j), k)):
        inner = t.br.get((a, b))
        if inner:
            vadd(out, t.bracket(inner, t.tw[c]))
    return out


def first_jacobi_failure(t: Table, distinct: bool = False):
    """Lexicographically first ordered basis triple with a nonzero residual, or None.

    Returns ``((i, j, k), residual)`` with the residual as true S-pairs.
    """
    for i, j, k in itertools.product(range(t.n), repeat=3):
        if distinct and len({i, j, k}) < 3:
            continue
        res = jacobi_at(t, i, j, k)
        if res:
            return (i, j, k), true_vec(res, t.n, t.sb * t.sb * t.st)
    return None


def twist_sign_sides(t: Table, i: int, j: int):
    """st * beta[e_i, e_j] and [beta e_i, beta e_j], both at scale sb * st^2."""
    lhs = vscale(t.st, t.twist(t.br.get((i, j), {})))
    rhs = t.bracket(t.tw[i], t.tw[j])
    return lhs, rhs


def twist_sign_scan(t: Table):
    """(sign, witness) by the rule of the program's scan, recomputed here.

    Pairs with both sides zero are skipped; the first pair that leaves no
    consistent constant is the witness, with residual beta[x,y] - [bx,by]
    if that is nonzero and beta[x,y] + [bx,by] otherwise.
    """
    scale = t.sb * t.st * t.st
    candidates = {1, -1}
    for i, j in itertools.product(range(t.n), repeat=2):
        lhs, rhs = twist_sign_sides(t, i, j)
        if not lhs and not rhs:
            continue
        plus = dict(lhs)
        vadd(plus, vscale(-1, rhs))
        minus = dict(lhs)
        vadd(minus, rhs)
        local = set()
        if not plus:
            local.add(1)
        if not minus:
            local.add(-1)
        candidates &= local
        if not candidates:
            res = plus if plus else minus
            return None, ((i, j), true_vec(res, t.n, scale))
    if candidates == {1, -1}:
        return 1, None
    return candidates.pop(), None


def squared_twist(t: Table) -> Table:
    """The same bracket twisted by beta^2 (computed as a product, not assumed)."""
    return t.with_twist([t.twist(col) for col in t.tw], t.st * t.st)


def adjoint_rep_equations(t: Table):
    """First failure of the adjoint representation rho(x) = [x, .], phi = beta, or None.

    compat:  [beta x, beta y] = -beta [x, y]
    bracket: [[x, y], beta z] = [beta x, [y, z]] - [beta y, [x, z]]
    """
    n = t.n
    for i, j in itertools.product(range(n), repeat=2):
        lhs, rhs = twist_sign_sides(t, i, j)
        vadd(lhs, rhs)
        if lhs:
            return ("compat", i, j)
    for i, j, k in itertools.product(range(n), repeat=3):
        out = t.bracket(t.br.get((i, j), {}), t.tw[k])
        vadd(out, vscale(-1, t.bracket(t.tw[i], t.br.get((j, k), {}))))
        vadd(out, t.bracket(t.tw[j], t.br.get((i, k), {})))
        if out:
            return ("bracket", i, j, k)
    return None


# -- V* --------------------------------------------------------------------


def in_vstar(field: Field, x) -> bool:
    """<x, x> = 0 and x1 x2 = x3 x4 for a vector of S-pairs (exact)."""
    mul = field.mul
    sq = [mul(c, c) for c in x]
    inner = tuple(-sq[0][t] - sq[1][t] + sq[2][t] + sq[3][t] for t in range(2))
    left, right = mul(x[0], x[1]), mul(x[2], x[3])
    return inner == (0, 0) and left == right


def vstar_members(field: Field, rng, count: int) -> list:
    """V* members lambda r, (a, 0, 0, a) and (u, v, u, v) as true S-pair vectors."""
    q = field.q
    S = (Fraction(field.S[0]), Fraction(field.S[1]))
    r = ((Fraction(-field.p, q), Fraction(0)), (S[0] / q, S[1] / q), (-S[0] / q, -S[1] / q),
         (Fraction(field.p, q), Fraction(0)))
    out = []
    for t in range(count):
        lam = rng.randint(1, 9) * rng.choice((-1, 1))
        if t % 3 == 0:
            out.append(tuple((lam * a, lam * b) for a, b in r))
        elif t % 3 == 1:
            z = (Fraction(0), Fraction(0))
            out.append(((Fraction(lam), Fraction(0)), z, z, (Fraction(lam), Fraction(0))))
        else:
            mu = (Fraction(rng.randint(-9, 9)), Fraction(0))
            out.append(((Fraction(lam), Fraction(0)), mu, (Fraction(lam), Fraction(0)), mu))
    return out


def mat_apply_true(t: Table, x) -> tuple:
    """beta(x) for a dense vector of true S-pairs."""
    out = [(Fraction(0), Fraction(0))] * t.n
    for c, xc in enumerate(x):
        if xc == (0, 0):
            continue
        for r, v in t.tw[c].items():
            y = t.field.mul(xc, (Fraction(v[0], t.st), Fraction(v[1], t.st)))
            out[r] = (out[r][0] + y[0], out[r][1] + y[1])
    return tuple(out)


def bracket_true(t: Table, x, y) -> tuple:
    """[x, y] for dense vectors of true S-pairs."""
    out = [(Fraction(0), Fraction(0))] * t.n
    mul = t.field.mul
    for i, xi in enumerate(x):
        if xi == (0, 0):
            continue
        for j, yj in enumerate(y):
            if yj == (0, 0):
                continue
            e = t.br.get((i, j))
            if not e:
                continue
            c = mul(xi, yj)
            for k, v in e.items():
                z = mul(c, (Fraction(v[0], t.sb), Fraction(v[1], t.sb)))
                out[k] = (out[k][0] + z[0], out[k][1] + z[1])
    return tuple(out)


# -- the coboundary d^s, from its formula --------------------------------


def _cochain_value(eta: dict, n: int, m: int, args, field: Field):
    """Alternating multilinear extension of ``eta`` (sorted key -> value S-pairs)."""
    k = len(args)
    zero = (Fraction(0), Fraction(0))
    out = [zero] * m
    if k == 0:
        return tuple(eta.get((), out))
    supports = [[j for j in range(n) if a[j] != zero] for a in args]
    for idx in itertools.product(*supports):
        if len(set(idx)) < k:
            continue
        sign = 1
        order = list(idx)
        for a in range(k):
            for b in range(a + 1, k):
                if order[a] > order[b]:
                    sign = -sign
        value = eta.get(tuple(sorted(idx)))
        if value is None:
            continue
        coeff = (Fraction(sign), Fraction(0))
        for t, a in zip(idx, args):
            coeff = field.mul(coeff, a[t])
        for r in range(m):
            z = field.mul(coeff, value[r])
            out[r] = (out[r][0] + z[0], out[r][1] + z[1])
    return tuple(out)


def _mat_vec_true(field: Field, A, x):
    out = []
    for row in A:
        acc = (Fraction(0), Fraction(0))
        for a, b in zip(row, x):
            z = field.mul(a, b)
            acc = (acc[0] + z[0], acc[1] + z[1])
        out.append(acc)
    return tuple(out)


def _mat_mul_true(field: Field, A, B):
    cols = list(zip(*B))
    return [[sum_pairs(field.mul(a, b) for a, b in zip(row, col)) for col in cols] for row in A]


def sum_pairs(pairs):
    a, b = Fraction(0), Fraction(0)
    for x in pairs:
        a += x[0]
        b += x[1]
    return (a, b)


def _mat_inv_true(field: Field, A):
    """Inverse of a matrix of S-pairs by Gauss-Jordan over Q(S) (field case only)."""
    n = len(A)

    def inv(x):
        a, b = x
        norm = a * a - b * b * field.D
        return (a / norm, -b / norm)

    rows = [list(r) + [(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i, r in enumerate(A)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != (0, 0))
        rows[c], rows[piv] = rows[piv], rows[c]
        pinv = inv(rows[c][c])
        rows[c] = [field.mul(pinv, x) for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != (0, 0):
                f = rows[r][c]
                rows[r] = [(x[0] - y[0], x[1] - y[1]) for x, y in
                           zip(rows[r], (field.mul(f, z) for z in rows[c]))]
    return [row[n:] for row in rows]


def _mat_pow_true(field: Field, A, e: int):
    n = len(A)
    if e < 0:
        A, e = _mat_inv_true(field, A), -e
    out = [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = _mat_mul_true(field, out, A)
    return out


def coboundary_formula(t: Table, rho, phi, eta: dict, k: int, s: int) -> dict:
    """d^s eta on every increasing (k+1)-tuple of basis vectors, from the formula.

    ``rho`` is a list of n matrices and ``phi`` a matrix, all of true
    S-pairs (m x m); ``eta`` maps increasing k-tuples to value vectors.
    Returns {key: value vector}.
    """
    field, n = t.field, t.n
    m = len(phi)
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))
    basis = [tuple(one if c == i else zero for c in range(n)) for i in range(n)]
    beta = [mat_apply_true(t, b) for b in basis]
    action = any(x != zero for r in rho for row in r for x in row)
    pre = _mat_pow_true(field, phi, k + 1 + s) if action else None
    post = _mat_pow_true(field, phi, -(k + 2 + s)) if action else None
    out = {}
    for key in itertools.combinations(range(n), k + 1):
        args = [basis[i] for i in key]
        bargs = [beta[i] for i in key]
        total = [zero] * m
        for i in range(k + 1 if action else 0):
            w = _cochain_value(eta, n, m, bargs[:i] + bargs[i + 1:], field)
            w = _mat_vec_true(field, pre, _mat_vec_true(field, rho[key[i]], _mat_vec_true(field, post, w)))
            sign = 1 if i % 2 == 0 else -1
            total = [(x[0] + sign * y[0], x[1] + sign * y[1]) for x, y in zip(total, w)]
        for i, j in itertools.combinations(range(k + 1), 2):
            head = bracket_true(t, args[i], args[j])
            rest = [bargs[c] for c in range(k + 1) if c not in (i, j)]
            w = _cochain_value(eta, n, m, [head] + rest, field)
            sign = 1 if (i + j) % 2 == 0 else -1
            total = [(x[0] + sign * y[0], x[1] + sign * y[1]) for x, y in zip(total, w)]
        out[key] = tuple(total)
    return out


def adjoint_matrices(t: Table):
    """rho(e_i) = [e_i, .] as m x m matrices of true S-pairs (column j = [e_i, e_j])."""
    n = t.n
    return [[[t.entry(i, j)[r] for j in range(n)] for r in range(n)] for i in range(n)]


def twist_matrix(t: Table):
    return [[t.twist_entry(r, c) for c in range(t.n)] for r in range(t.n)]
