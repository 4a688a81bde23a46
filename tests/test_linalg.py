import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewhom._kernel import reading
from skewhom.algebra import HomAlgebra, classify
from skewhom.constructions import GlContext, alpha_block, alpha_theta, build_gl_alpha, p_matrix
from skewhom.errors import (
    BackendMismatchError,
    DimensionError,
    PreconditionError,
    SingularMatrixError,
    ZeroDivisorError,
)
from skewhom.linalg import (
    basis_vec,
    identity,
    mat,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_pow,
    mat_vec,
    vec_add,
    vec_eq,
    vec_scale,
    vec_sub,
    zero_mat,
)
from skewhom.representation import zero_representation
from skewhom.scalars import QuadExt, quadratic_backend, rational_backend

import reference
from reference import wedge3
from strategies import exact_scalars, int_vectors, quad_elements, rationals


def rank(a):
    """The rank of the square matrix ``a``, by the kernel's elimination on its integer pairs."""
    kernel, (rows,), _ = reading([a], len(a))
    return len(kernel.eliminate(rows, len(a))[0])


def test_identity_is_neutral():
    a = mat([[1, 2], [3, 4]])
    assert mat_mul(identity(2), a) == a
    assert mat_mul(a, identity(2)) == a


def test_alpha_zero_squares_to_minus_identity():
    alpha, be = alpha_theta(0)
    assert alpha == ((F(0), F(1)), (F(-1), F(0)))
    assert mat_mul(alpha, alpha) == mat_neg(identity(2))


def test_p_zero_is_an_involution():
    be = quadratic_backend(0)
    p = p_matrix(0, be)
    assert mat_mul(p, p) == identity(4)


def test_mat_inv_examples():
    assert mat_inv(identity(3)) == identity(3)
    alpha, _ = alpha_theta(0)
    assert mat_inv(alpha) == mat_neg(alpha)
    with pytest.raises(SingularMatrixError):
        mat_inv(zero_mat(2, 2))


def test_rank_examples():
    assert rank(identity(3)) == 3
    assert rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])) == 3
    assert rank(zero_mat(3, 3)) == 0
    alpha, be = alpha_theta(1)
    # [[-1, sqrt2], [-sqrt2, 1]] has determinant -1 + 2 = 1
    assert rank(alpha) == 2


def test_rank_of_quadratic_matrix_stays_exact():
    be = quadratic_backend(1)
    s = be.sqrt_d
    assert rank(mat([[s, 1], [1, s]])) == 2  # s*s - 1 = 2 - 1
    assert rank(mat([[s, 2], [1, s]])) == 1  # s*s - 2 = 0


def test_wedge3_basis_example():
    e = [basis_vec(4, i) for i in range(4)]
    assert wedge3(e[1], e[2], e[3]) == (F(1), F(0), F(0), F(0))


def test_wedge3_repeated_argument_vanishes():
    u = (F(1), F(2), F(3), F(4))
    w = (F(5), F(-1), F(0), F(2))
    assert wedge3(u, u, w) == (0, 0, 0, 0)


def test_wedge3_bracket_combination_at_theta_zero():
    # closed-form coefficient a = -1 for x = e1, y = e2 at theta = 0
    be = quadratic_backend(0)
    p = p_matrix(0, be)
    r = (F(0), F(1), F(-1), F(0))
    e1, e2 = basis_vec(4, 0), basis_vec(4, 1)
    pe1 = mat_vec(p, e1)
    pe2 = mat_vec(p, e2)
    value = vec_sub(wedge3(pe1, r, e2), wedge3(pe2, r, e1))
    assert value == (F(-1), F(0), F(0), F(-1))


def test_wedge3_dimension_error():
    with pytest.raises(DimensionError):
        wedge3((1, 2, 3), (1, 2, 3), (1, 2, 3))


@given(int_vectors(4), int_vectors(4), int_vectors(4))
def test_wedge3_alternating(u, v, w):
    assert wedge3(u, v, w) == tuple(-x for x in wedge3(v, u, w))
    assert wedge3(u, v, w) == tuple(-x for x in wedge3(u, w, v))
    assert wedge3(u, u, w) == (0, 0, 0, 0)
    assert wedge3(u, v, v) == (0, 0, 0, 0)


@given(
    int_vectors(4),
    int_vectors(4),
    int_vectors(4),
    int_vectors(4),
    st.integers(-5, 5).map(F),
    st.integers(-5, 5).map(F),
)
def test_wedge3_linear_in_first_argument(u1, u2, v, w, a, b):
    combo = vec_add(vec_scale(a, u1), vec_scale(b, u2))
    lhs = wedge3(combo, v, w)
    rhs = vec_add(
        vec_scale(a, wedge3(u1, v, w)), vec_scale(b, wedge3(u2, v, w))
    )
    assert lhs == rhs


def int_matrices(n=3, bound=4):
    entry = st.integers(min_value=-bound, max_value=bound).map(F)
    return st.tuples(*([st.tuples(*([entry] * n))] * n))


@settings(max_examples=30, deadline=None)
@given(int_matrices())
def test_inverse_is_exact(a):
    assume(rank(a) == 3)
    assert mat_mul(mat_inv(a), a) == identity(3)


@settings(max_examples=30, deadline=None)
@given(int_matrices(), int_matrices())
def test_a_product_has_full_rank_exactly_when_both_factors_do(a, b):
    # det(a b) = det(a) det(b), and Q has no zero divisors
    assert (rank(mat_mul(a, b)) == 3) == (rank(a) == 3 and rank(b) == 3)


def test_mat_pow_negative_exponent():
    a = mat([[2, 1], [1, 1]])
    assert mat_pow(a, 0) == identity(2)
    assert mat_pow(a, 3) == mat_mul(a, mat_mul(a, a))
    assert mat_mul(mat_pow(a, -2), mat_pow(a, 2)) == identity(2)


def test_mixed_quadratic_and_rational_entries():
    be = quadratic_backend(1)
    s = be.sqrt_d
    m = mat([[F(1), s], [s, F(3)]])
    inv = mat_inv(m)
    assert mat_mul(inv, m) == identity(2)


def test_mat_pow_cache_is_bounded():
    from skewhom.linalg import _mat_pow_cached

    assert _mat_pow_cached.cache_info().maxsize is not None


def test_mat_pow_cache_keeps_the_scalar_types_of_equal_matrices():
    from skewhom.scalars import QuadExt

    # 3 == F(3) == QuadExt(3, 0, d), with equal hashes, so the three matrices
    # below are equal keys unless the cache tells their types apart
    d = F(5, 4)
    quad = ((QuadExt(0, 0, d), F(0)), (F(0), QuadExt(3, 0, d)))
    rational = ((F(0), F(0)), (F(0), F(3)))
    ints = ((0, 0), (0, 3))
    for a in (quad, rational, ints, rational, quad):
        assert repr(mat_pow(a, 2)) == repr(mat_mul(a, a))
        assert repr(mat_pow(a, 3)) == repr(mat_mul(mat_mul(a, a), a))
    other = ((QuadExt(1, 0, F(2)), F(0)), (F(0), QuadExt(3, 0, F(2))))
    mat_pow(other, 2)  # unequal discriminants are never compared
    assert repr(mat_pow(quad, 2)) == repr(mat_mul(quad, quad))


# a singular int matrix: row 3 is 2 * row 1 + row 2, and float elimination leaves -1.24e-14
SINGULAR = ((3, 1, 2), (1, 5, 4), (5, 11, 10))


def test_the_rank_of_an_int_matrix_is_exact():
    assert rank(SINGULAR) == 2
    assert rank(((2, 1), (1, 1))) == 2


def test_mat_inv_of_an_int_matrix_is_exact():
    assert repr(mat_inv(((2, 1), (1, 1)))) == repr(((F(1), F(-1)), (F(-1), F(2))))
    with pytest.raises(SingularMatrixError):
        mat_inv(SINGULAR)


def test_classify_calls_a_singular_int_twist_irregular():
    for twist in (SINGULAR, tuple(tuple(map(F, row)) for row in SINGULAR)):
        assert classify(HomAlgebra(3, {}, twist, rational_backend())).regular is False


def test_a_singular_int_phi_is_refused():
    g = HomAlgebra(3, {}, identity(3), rational_backend())
    with pytest.raises(PreconditionError):
        zero_representation(g, 3, SINGULAR)


def test_mat_pow_of_an_int_matrix_inverts_exactly():
    assert repr(mat_pow(((2, 1), (1, 1)), -1)) == repr(((F(1), F(-1)), (F(-1), F(2))))


@pytest.mark.parametrize("product", ["mat_mul", "mat_vec"])
def test_a_float_entry_raises_type_error(product):
    with pytest.raises(TypeError, match="not an exact scalar"):
        if product == "mat_mul":
            mat_mul(((1, 0.5),), ((1,), (2,)))
        else:
            mat_vec(((1, 2),), (F(1), 0.0))


def test_mat_eq_and_vec_eq_compare_values_across_types():
    d = F(5, 4)
    assert vec_eq((0, F(1, 2), QuadExt(3, 0, d)), (F(0), QuadExt(F(1, 2), 0, d), 3))
    assert not vec_eq((QuadExt(0, 1, d),), (0,))
    with pytest.raises(BackendMismatchError):
        vec_eq((QuadExt(1, 1, d),), (QuadExt(1, 1, 2),))
    with pytest.raises(DimensionError):
        vec_eq((1, 2), (1,))
    assert mat_eq(((1, 2), (3, 4)), ((F(1), F(2)), (F(3), F(4))))
    assert not mat_eq(((1, 2),), ((1, 2), (3, 4)))


D1, D2 = F(5, 4), F(2)


def outcome(product, *args):
    """The ``repr`` of the value, or the type of the exception it raised."""
    try:
        return repr(product(*args))
    except (BackendMismatchError, TypeError) as exc:
        return type(exc)


@st.composite
def product_cases(draw, vector=False):
    """Two factors of exact scalars over D1, one entry over D2 in some draws."""
    rows, inner = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cols = 1 if vector else draw(st.integers(1, 4))
    entry = exact_scalars(D1)
    a = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    if draw(st.booleans()):
        table, r = draw(st.sampled_from([(a, rows), (b, inner)]))
        at, c = draw(st.integers(0, r - 1)), draw(st.integers(0, len(table[0]) - 1))
        table[at][c] = draw(exact_scalars(D2).filter(lambda x: isinstance(x, QuadExt)))
    a = tuple(map(tuple, a))
    return (a, tuple(row[0] for row in b)) if vector else (a, tuple(map(tuple, b)))


@settings(max_examples=300, deadline=None)
@given(product_cases())
def test_mat_mul_matches_the_dense_sums(case):
    assert outcome(mat_mul, *case) == outcome(reference.mat_mul, *case)


@settings(max_examples=300, deadline=None)
@given(product_cases(vector=True))
def test_mat_vec_matches_the_dense_sums(case):
    assert outcome(mat_vec, *case) == outcome(reference.mat_vec, *case)


def test_the_products_take_the_types_of_the_dense_sums():
    d = D1
    q0, qr = QuadExt(0, 0, d), QuadExt(F(1, 2), 0, d)
    a = ((1, q0), (2, F(1, 3)), (qr, 0))
    b = ((3, 1), (F(0), 4))
    want = ((QuadExt(3, 0, d), QuadExt(1, 0, d)), (F(6), F(10, 3)), (QuadExt(F(3, 2), 0, d), QuadExt(F(1, 2), 0, d)))
    assert repr(mat_mul(a, b)) == repr(want) == repr(reference.mat_mul(a, b))
    want = (QuadExt(1, 0, d), F(2), QuadExt(F(1, 2), 0, d))
    assert repr(mat_vec(a, (1, 0))) == repr(want) == repr(reference.mat_vec(a, (1, 0)))
    mixed = ((QuadExt(0, 1, d),), (QuadExt(0, 1, D2),))
    assert repr(mat_mul(mixed, ((1,),))) == repr(reference.mat_mul(mixed, ((1,),)))
    for product in (mat_mul, reference.mat_mul):
        with pytest.raises(BackendMismatchError):
            product(((QuadExt(0, 1, d), 1),), ((1,), (QuadExt(0, 0, D2),)))


# --- the fraction-free elimination against the dense det and mat_inv

SQUARE = F(25, 16)  # rr = 400 is a perfect square: the formal ring has zero divisors
BACKENDS = {
    None: rational_backend(),
    F(2): quadratic_backend(1),
    F(5, 4): quadratic_backend(F(1, 2)),
    SQUARE: quadratic_backend(F(3, 4)),
}


@st.composite
def square_matrices(draw, d):
    """An n x n matrix over ``d``, n = 1..6, sparse, dense or sparse on a permutation's
    cells; in half the draws one row is made a combination of two others, so it is singular."""
    n = draw(st.integers(1, 6))
    zero = st.sampled_from([0, F(0)] + ([] if d is None else [QuadExt(0, 0, d)]))
    entry = st.one_of(st.integers(-4, 4), rationals(5, 4))
    if d is not None:
        entry = st.one_of(entry, quad_elements(d, 5, 4))
    shape = draw(st.sampled_from(["sparse", "dense", "permutation"]))
    cell = entry if shape == "dense" else st.one_of(zero, zero, zero, entry)
    a = [[draw(cell) for _ in range(n)] for _ in range(n)]
    if shape == "permutation":
        for r, c in enumerate(draw(st.permutations(range(n)))):
            a[r][c] = draw(entry.filter(bool))
    if n > 1 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        if i not in (j, k):
            x, y = draw(entry), draw(entry)
            a[i] = [x * u + y * v for u, v in zip(a[j], a[k])]
    return tuple(map(tuple, a))


def dense(fn, a):
    """``fn(a)``, or ``ZeroDivisorError`` where the dense elimination met a zero divisor."""
    try:
        return fn(a)
    except ZeroDivisorError:
        return ZeroDivisorError


@pytest.mark.parametrize("d", list(BACKENDS), ids=str)
def test_elimination_matches_the_dense_det_and_mat_inv(d):
    # full rank is a nonzero dense det, the inverse is the dense one by value with the
    # kernel's types, and classify's regular flag and the phi check read the same rank;
    # in the perfect-square ring either side may meet a zero divisor on its own pivots
    @settings(max_examples=120, deadline=None)
    @given(square_matrices(d))
    def check(a):
        n = len(a)
        try:
            full = rank(a) == n
            inverse = mat_inv(a) if full else None
        except ZeroDivisorError:
            assert d == SQUARE
            return
        det = dense(reference.det, a)
        if det is not ZeroDivisorError:
            assert full == bool(det)
        if full and det is not ZeroDivisorError:
            # the last pivot is a minor, det(scale * a) up to sign, not a multiple of one
            kernel, (rows,), scale = reading([a], n)
            pivots, out = kernel.eliminate(rows, n)
            r, c = pivots[-1]
            assert kernel.scalar(out[r][c], scale**n) in (det, -det)
        if full:
            ref = dense(reference.mat_inv, a)
            assert ref is ZeroDivisorError and d == SQUARE or mat_eq(inverse, ref)
            assert mat_eq(mat_mul(inverse, a), identity(n))
            kind = QuadExt if any(isinstance(x, QuadExt) and x for row in a for x in row) else F
            assert all(type(x) is kind for row in inverse for x in row)
        else:
            with pytest.raises(SingularMatrixError) as ours:
                mat_inv(a)
            ref = dense(lambda a: pytest.raises(SingularMatrixError, reference.mat_inv, a), a)
            assert ref is ZeroDivisorError and d == SQUARE or str(ours.value) == str(ref.value)
        g = HomAlgebra(n, {}, a, BACKENDS[d])
        # classify eliminates the columns, in another pivot order
        regular = dense(lambda a: classify(g).regular, a)
        assert regular is ZeroDivisorError and d == SQUARE or regular == full
        if full:
            assert zero_representation(g, n, a).phi == a
        else:
            with pytest.raises(PreconditionError):
                zero_representation(g, n, a)

    check()


@pytest.mark.parametrize("d", [None, F(2), F(5, 4)], ids=str)
def test_rank_matches_sympy(d):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    root = None if d is None else sympy.sqrt(sympy.Rational(d.numerator, d.denominator))
    domain = sympy.QQ if d is None else sympy.QQ.algebraic_field(root)

    def exact(x):
        if isinstance(x, QuadExt):
            return exact(x.a) + exact(x.b) * root
        x = F(x)
        return sympy.Rational(x.numerator, x.denominator)

    @settings(max_examples=40, deadline=None)
    @given(square_matrices(d))
    def check(a):
        m = DomainMatrix.from_Matrix(sympy.Matrix([[exact(x) for x in row] for row in a]))
        assert rank(a) == m.convert_to(domain).rank()

    check()


def test_a_zero_divisor_pivot_raises_in_the_perfect_square_ring():
    # s - 5/4 has norm 25/16 - 25/16 = 0; it is nonzero, and (s - 5/4)(s + 5/4) = 0
    z = QuadExt(F(-5, 4), 1, SQUARE)
    a = ((z, 0), (0, 1))
    for decide in (rank, mat_inv):
        with pytest.raises(ZeroDivisorError, match="conjugate norm 0"):
            decide(a)
    g = HomAlgebra(2, {}, a, BACKENDS[SQUARE])
    with pytest.raises(ZeroDivisorError):
        classify(g)
    with pytest.raises(ZeroDivisorError):
        zero_representation(HomAlgebra(2, {}, identity(2), BACKENDS[SQUARE]), 2, a)
    # the dense det never divides by that pivot and returns it: the dense
    # classify and phi check called this twist and phi invertible
    assert reference.det(a) == z
    with pytest.raises(ZeroDivisorError):
        reference.mat_inv(a)
    # pivots of nonzero norm eliminate in the same ring: det = (s + 1) - 1 = s
    s = QuadExt(0, 1, SQUARE)
    b = ((s + 1, 1), (1, 1))
    assert rank(b) == 2 and mat_inv(b) == reference.mat_inv(b)


def test_entry_growth_on_the_gl8_twist_is_bounded():
    # every entry of an eliminated row is a minor of the twist's pairs, of size
    # k <= 64: under either embedding R -> +-sqrt(rr) it is at most k! M**k for the
    # largest embedded entry M, so A and B each have at most 64 log2(64 M) + 1 bits
    g = build_gl_alpha(GlContext(8, *alpha_block(8, 1)))
    kernel = g.kernel
    rows = kernel.twist.cols
    m = max(abs(a) + abs(b) * (math.isqrt(abs(kernel.rr)) + 1) for row in rows for a, b in row.values())
    bits = 64 * (m * 64).bit_length() + 1
    for jordan in (False, True):
        pivots, out = kernel.eliminate(rows, 64, jordan)
        assert len(pivots) == 64
        assert max(abs(x).bit_length() for row in out for pair in row.values() for x in pair) <= bits
    assert classify(g).regular
