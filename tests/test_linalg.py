from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewhom.algebra import HomAlgebra, classify
from skewhom.constructions import alpha_theta, p_matrix
from skewhom.errors import (
    BackendMismatchError,
    DimensionError,
    PreconditionError,
    SingularMatrixError,
)
from skewhom.linalg import (
    basis_vec,
    det,
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
from strategies import exact_scalars, int_vectors


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


def test_det_examples():
    assert det(identity(3)) == 1
    assert det(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])) == -1
    alpha, be = alpha_theta(1)
    # [[-1, sqrt2], [-sqrt2, 1]] has determinant -1 + 2 = 1
    assert det(alpha) == 1


def test_det_of_quadratic_matrix_stays_exact():
    be = quadratic_backend(1)
    s = be.sqrt_d
    m = mat([[s, 1], [1, s]])
    assert det(m) == 1  # s*s - 1 = 2 - 1


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
    assume(det(a) != 0)
    assert mat_mul(mat_inv(a), a) == identity(3)


@settings(max_examples=30, deadline=None)
@given(int_matrices(), int_matrices())
def test_det_is_multiplicative(a, b):
    assert det(mat_mul(a, b)) == det(a) * det(b)


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


def test_det_of_an_int_matrix_is_eliminated_in_fractions():
    assert repr(det(SINGULAR)) == "Fraction(0, 1)"
    assert repr(det(((2, 1), (1, 1)))) == "Fraction(1, 1)"


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
