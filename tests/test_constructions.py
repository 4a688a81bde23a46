from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from skewhom.algebra import Verdict, bracket_eval, classify
from skewhom.constructions import (
    GlContext,
    ad_alpha,
    ad_alpha_matrix,
    ad_alpha_squared_counterexample,
    ad_alpha_squared_matrix,
    alpha_block,
    alpha_theta,
    build_gl_alpha,
    build_r3_cross,
    build_semi_euclidean,
    builtin_algebra,
    check_pseudo_adjoint_identity,
    check_pseudo_adjoint_morphism,
    closed_form_bracket,
    gl_bracket,
    p_matrix,
    pseudo_adjoint,
)
from skewhom.errors import (
    BackendMismatchError,
    CounterexampleNotFoundError,
    PreconditionError,
)
from skewhom.linalg import (
    basis_vec,
    flatten,
    identity,
    mat,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_vec,
    matrix_unit,
    transpose,
    unflatten,
    vec_neg,
    zero_vec,
)
from skewhom.scalars import quadratic_backend, rational_backend

from strategies import int_vectors, rationals


# --- cross-product family on R^3


def test_r3_identity_twist_is_lie():
    assert classify(build_r3_cross(identity(3))).verdict == Verdict.LIE


def test_r3_reflection_twist_is_skew():
    g = build_r3_cross(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    assert classify(g).verdict == Verdict.SKEW_HOM_LIE


def test_r3_rotation_twist_is_hom_lie():
    g = build_r3_cross(mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]]))
    assert classify(g).verdict == Verdict.HOM_LIE


def test_r3_rejects_non_orthogonal_twist():
    with pytest.raises(PreconditionError):
        build_r3_cross(mat([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


def _cayley_orthogonal(a, b, c):
    """Exact rational orthogonal matrix with determinant +1."""
    skew = mat([[F(0), a, b], [-a, F(0), c], [-b, -c, F(0)]])
    i3 = identity(3)
    plus = tuple(
        tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(i3, skew)
    )
    return mat_mul(mat_sub(i3, skew), mat_inv(plus))


@settings(max_examples=25, deadline=None)
@given(rationals(3, 3), rationals(3, 3), rationals(3, 3), int_vectors(3), int_vectors(3))
def test_r3_twist_sign_matches_determinant(a, b, c, x, y):
    rot = _cayley_orthogonal(a, b, c)
    for A, sign in ((rot, 1), (mat_mul(rot, mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])), -1)):
        g = build_r3_cross(A)
        lhs = mat_vec(A, bracket_eval(g, x, y))
        rhs = bracket_eval(g, mat_vec(A, x), mat_vec(A, y))
        if sign == 1:
            assert lhs == rhs
        else:
            assert lhs == vec_neg(rhs)


# --- gl(V) family


@pytest.fixture(scope="module")
def gl2_zero():
    alpha, backend = alpha_theta(0)
    ctx = GlContext(2, alpha, backend)
    return ctx, build_gl_alpha(ctx)


def test_alpha_theta_squares_to_minus_identity():
    for theta in (0, 1, F(1, 2), F(3, 4)):
        alpha, backend = alpha_theta(theta)
        assert mat_eq(mat_mul(alpha, alpha), mat_neg(identity(2)), backend)


def test_alpha_theta_orthogonality_defect():
    # alpha alpha^T = [[1 + 2 t^2, 2 t s], [2 t s, 1 + 2 t^2]]; orthogonal only at t = 0
    theta = F(1, 2)
    alpha, backend = alpha_theta(theta)
    product = mat_mul(alpha, transpose(alpha))
    s = backend.sqrt_d
    expected = (
        (1 + 2 * theta * theta, 2 * theta * s),
        (2 * theta * s, 1 + 2 * theta * theta),
    )
    assert mat_eq(product, expected, backend)
    assert not mat_eq(product, identity(2), backend)


def test_gl_context_rejects_bad_alpha():
    with pytest.raises(PreconditionError):
        GlContext(2, identity(2), rational_backend())


def test_ad_alpha_on_first_unit(gl2_zero):
    ctx, _ = gl2_zero
    assert ad_alpha(ctx, matrix_unit(2, 0, 0)) == mat_neg(matrix_unit(2, 1, 1))


def test_gl_bracket_of_diagonal_units(gl2_zero):
    ctx, g = gl2_zero
    # [e11, e22] = e12 + e21, read back from the structure constants
    value = unflatten(g.bracket[0][3], 2, 2)
    expected = mat([[0, 1], [1, 0]])
    assert value == expected


def test_gl2_classifies_skew(gl2_zero):
    _, g = gl2_zero
    assert classify(g).verdict == Verdict.SKEW_HOM_LIE
    alpha1, backend1 = alpha_theta(1)
    g1 = build_gl_alpha(GlContext(2, alpha1, backend1))
    assert classify(g1).verdict == Verdict.SKEW_HOM_LIE


def test_ad_alpha_is_involutive(gl2_zero):
    _, g = gl2_zero
    assert mat_eq(mat_mul(g.twist, g.twist), identity(4), g.backend)


def _dense_gl(ctx):
    """Bracket table, twist and squared twist of gl(V) by dense matrix products."""
    units = ctx.basis
    n = len(units)
    table = tuple(
        tuple(flatten(gl_bracket(ctx, units[i], units[j])) for j in range(n))
        for i in range(n)
    )
    twist = transpose(mat(flatten(ad_alpha(ctx, unit)) for unit in units))
    a2 = mat_mul(ctx.alpha, ctx.alpha)
    squared = transpose(mat(flatten(mat_mul(mat_mul(a2, unit), a2)) for unit in units))
    return table, twist, squared


def _assert_same_entries(got, want):
    # repr tells Fraction(0) from QuadExt(0, 0, d) and 0.0 from -0.0
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x == y and repr(x) == repr(y) and type(x) is type(y)


def _assert_matches_dense(ctx):
    g = build_gl_alpha(ctx)
    table, twist, squared = _dense_gl(ctx)
    for i in range(g.dim):
        for j in range(g.dim):
            _assert_same_entries(g.bracket[i][j], table[i][j])
    _assert_same_entries(flatten(g.twist), flatten(twist))
    _assert_same_entries(flatten(ad_alpha_squared_matrix(ctx)), flatten(squared))


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("theta", [0, F(1, 2), F(3, 4), 1, 0.5, 0.3])
def test_closed_form_gl_matches_dense_products(m, theta):
    # at 0.3 no factor is a power of two, so float rounding shows the order
    # in which each triple product is formed
    alpha, backend = alpha_block(m, theta)
    _assert_matches_dense(GlContext(m, alpha, backend))


def test_closed_form_gl_needs_no_block_structure():
    alpha, backend = alpha_block(4, F(1, 2))
    q = mat([[1, 2, 0, 1], [0, 1, 3, 0], [1, 0, 1, 0], [0, 0, 1, 1]])
    q = mat(tuple(F(x) for x in row) for row in q)
    conjugate = mat_mul(mat_mul(q, alpha), mat_inv(q))
    assert any(conjugate[r][c] != 0 for r in range(4) for c in range(4) if r // 2 != c // 2)
    _assert_matches_dense(GlContext(4, conjugate, backend))


def test_closed_form_gl_keeps_mixed_entry_types():
    # a rational block beside a quadratic one: the dense twist has Fraction
    # entries where both the row and the column of alpha are rational
    backend = quadratic_backend(F(1, 2))
    block, _ = alpha_theta(F(1, 2), backend)
    z = F(0)
    alpha = (
        (z, F(1), z, z),
        (F(-1), z, z, z),
        (z, z, block[0][0], block[0][1]),
        (z, z, block[1][0], block[1][1]),
    )
    _assert_matches_dense(GlContext(4, alpha, backend))


@settings(max_examples=25, deadline=None)
@given(rationals(5, 12))
def test_closed_form_gl2_matches_dense_at_random_theta(theta):
    alpha, backend = alpha_theta(theta)
    _assert_matches_dense(GlContext(2, alpha, backend))


def _direct_cyclic_residual(A, B, C, alpha):
    """Independent evaluation of the squared-twist Jacobi sum by matrix products."""

    def term(A, B, C):
        left = mat_mul(mat_mul(mat_mul(A, alpha), B), mat_mul(C, alpha))
        mid = mat_mul(mat_mul(alpha, C), mat_mul(mat_mul(A, alpha), B))
        right = mat_mul(mat_mul(mat_mul(B, alpha), A), mat_mul(C, alpha))
        last = mat_mul(mat_mul(alpha, C), mat_mul(mat_mul(B, alpha), A))
        return mat_sub(mat_sub(left, mid), mat_sub(right, last))

    total = term(A, B, C)
    total = tuple(
        tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(total, term(B, C, A))
    )
    return tuple(
        tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(total, term(C, A, B))
    )


def test_gl2_squared_twist_scan_finds_nothing(gl2_zero):
    ctx, _ = gl2_zero
    with pytest.raises(CounterexampleNotFoundError):
        ad_alpha_squared_counterexample(ctx)
    # independent oracle: the direct cyclic sum vanishes on every unit triple
    units = ctx.basis
    for a in units:
        for b in units:
            for c in units:
                res = _direct_cyclic_residual(a, b, c, ctx.alpha)
                assert all(x == 0 for row in res for x in row)


def test_gl4_squared_twist_counterexample():
    alpha, backend = alpha_block(4, 0)
    ctx = GlContext(4, alpha, backend)
    triple, residual = ad_alpha_squared_counterexample(ctx)
    assert triple == (0, 1, 2)
    units = ctx.basis
    direct = _direct_cyclic_residual(units[0], units[1], units[2], alpha)
    assert flatten(direct) == residual
    assert any(x != 0 for x in residual)


# --- semi-Euclidean family


def test_p_matrix_at_zero():
    be = quadratic_backend(0)
    assert p_matrix(0, be) == (
        (0, 0, 0, -1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (-1, 0, 0, 0),
    )


def test_p_equals_matrix_of_conjugation_twist():
    for theta in (0, 1, F(1, 2), F(3, 4)):
        alpha, backend = alpha_theta(theta)
        assert mat_eq(
            p_matrix(theta, backend),
            ad_alpha_matrix(GlContext(2, alpha, backend)),
            backend,
        )


def test_p_fixes_null_vector_up_to_sign():
    for theta in (0, 1, F(1, 2)):
        g, ctx = build_semi_euclidean(theta)
        assert mat_vec(ctx.P, ctx.r) == vec_neg(ctx.r)
        assert mat_eq(mat_mul(ctx.P, ctx.P), identity(4), ctx.backend)


def test_p_not_orthogonal_for_nonzero_theta():
    _, ctx = build_semi_euclidean(F(1, 2))
    assert not mat_eq(mat_mul(transpose(ctx.P), ctx.P), identity(4), ctx.backend)
    _, ctx0 = build_semi_euclidean(0)
    assert mat_eq(mat_mul(transpose(ctx0.P), ctx0.P), identity(4), ctx0.backend)


def test_se4_classifies_skew():
    g, _ = build_semi_euclidean(1)
    c = classify(g)
    assert c.verdict == Verdict.SKEW_HOM_LIE and c.regular


SE4_CASES = {theta: build_semi_euclidean(theta) for theta in (0, 1, F(1, 2), F(3, 4))}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(SE4_CASES, key=str)),
    int_vectors(4),
    int_vectors(4),
)
def test_bracket_paths_agree(theta, x, y):
    g, ctx = SE4_CASES[theta]
    assert bracket_eval(g, x, y) == closed_form_bracket(ctx, x, y)


@given(int_vectors(4), int_vectors(4))
def test_pure_root_coefficient_needs_theta_correction(x, y):
    # dropping the 2*theta*(x3 y2 - x2 y3) term from the closed form leaves
    # exactly that defect; at theta = 0 the pure-root formula alone is exact
    g, ctx = SE4_CASES[1]
    s = ctx.s
    pure = -s * ((x[0] - x[3]) * (y[1] + y[2]) - (x[1] + x[2]) * (y[0] - y[3]))
    full = closed_form_bracket(ctx, x, y)[0]
    assert full - pure == 2 * ctx.theta * (x[2] * y[1] - x[1] * y[2])
    g0, ctx0 = SE4_CASES[0]
    pure0 = -ctx0.s * ((x[0] - x[3]) * (y[1] + y[2]) - (x[1] + x[2]) * (y[0] - y[3]))
    assert closed_form_bracket(ctx0, x, y)[0] == pure0


def test_alpha_theta_rejects_mismatched_backend():
    be0 = quadratic_backend(0)
    with pytest.raises(BackendMismatchError):
        alpha_theta(1, be0)


# --- pseudo-adjoint


def test_pseudo_adjoint_kills_its_own_argument():
    g, _ = build_semi_euclidean(1)
    ad = pseudo_adjoint(g)
    x = (F(2), F(-1), F(3), F(5))
    assert mat_vec(ad(x), x) == (0, 0, 0, 0)


def test_pseudo_adjoint_cross_product_matrix():
    g = build_r3_cross(identity(3))
    ad = pseudo_adjoint(g)
    # e2 -> -e3 and e3 -> e2 under ad*_{e1}
    assert ad(basis_vec(3, 0)) == ((0, 0, 0), (0, 0, 1), (0, -1, 0))


def test_pseudo_adjoint_identity_holds():
    g0, _ = build_semi_euclidean(0)
    assert check_pseudo_adjoint_identity(g0).passed
    alpha, backend = alpha_theta(0)
    assert check_pseudo_adjoint_identity(build_gl_alpha(GlContext(2, alpha, backend))).passed


def test_pseudo_adjoint_identity_abelian():
    be = rational_backend()
    zero_table = tuple(tuple(zero_vec(2) for _ in range(2)) for _ in range(2))
    from skewhom.algebra import HomAlgebra

    g = HomAlgebra(2, zero_table, identity(2), be)
    assert check_pseudo_adjoint_identity(g).passed


def test_pseudo_adjoint_morphism_requires_complex_structure():
    g, _ = build_semi_euclidean(0)
    with pytest.raises(PreconditionError):
        check_pseudo_adjoint_morphism(g)  # P squares to +id
    alpha, backend = alpha_theta(0)
    gl = build_gl_alpha(GlContext(2, alpha, backend))
    with pytest.raises(PreconditionError):
        check_pseudo_adjoint_morphism(gl)  # Ad_alpha squares to +id as well


def test_pseudo_adjoint_morphism_abelian_rotation_twist():
    from skewhom.algebra import HomAlgebra

    be = rational_backend()
    zero_table = tuple(tuple(zero_vec(2) for _ in range(2)) for _ in range(2))
    g = HomAlgebra(2, zero_table, mat([[0, 1], [-1, 0]]), be)
    assert check_pseudo_adjoint_morphism(g).passed


# --- builtin name resolution


def test_builtin_names():
    label, g, ctx = builtin_algebra("se4:theta=1/2")
    assert "1/2" in label and g.dim == 4 and ctx is not None
    label, g, ctx = builtin_algebra("gl2:theta=0")
    assert g.dim == 4 and classify(g).verdict == Verdict.SKEW_HOM_LIE
    label, g, _ = builtin_algebra('r3:A=[[1,0,0],[0,1,0],[0,0,-1]]')
    assert classify(g).verdict == Verdict.SKEW_HOM_LIE
    with pytest.raises(ValueError):
        builtin_algebra("nope:theta=1")
