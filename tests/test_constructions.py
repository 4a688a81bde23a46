import itertools
import json
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewhom import constructions
from skewhom.algebra import (
    CheckReport,
    HomAlgebra,
    Verdict,
    Witness,
    algebra_from_dict,
    algebra_to_dict,
    bracket_eval,
    check_hom_jacobi,
    check_morphism,
    classify,
    load_algebra,
    save_algebra,
)
from skewhom.constructions import (
    GlContext,
    _conjugation_matrix,
    ad_alpha_matrix,
    ad_alpha_squared_counterexample,
    ad_alpha_squared_matrix,
    alpha_block,
    alpha_theta,
    build_gl_alpha,
    build_r3_cross,
    build_semi_euclidean,
    check_pseudo_adjoint_identity,
    check_pseudo_adjoint_morphism,
    closed_form_bracket,
    p_matrix,
    pseudo_adjoint,
    resolve_algebra,
)
from skewhom.errors import (
    BackendMismatchError,
    CounterexampleNotFoundError,
    PreconditionError,
)
from skewhom.linalg import (
    basis_vec,
    cross3,
    flatten,
    identity,
    mat,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_vec,
    transpose,
    vec_add,
    vec_neg,
    vec_sub,
    zero_vec,
)
from skewhom.scalars import (
    QuadExt,
    parse_scalar,
    quadratic_backend,
    rational_backend,
)

from strategies import exact_scalars, int_vectors, rationals
import reference
from reference import mat_col, mat_is_zero, mat_sub, twist_col
from test_kernel import FAMILIES as KERNEL_FAMILIES, mutated
from test_kernel import algebras as kernel_algebras


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
        assert mat_eq(mat_mul(alpha, alpha), mat_neg(identity(2)))


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
    assert mat_eq(product, expected)
    assert not mat_eq(product, identity(2))


def test_gl_context_rejects_bad_alpha():
    with pytest.raises(PreconditionError):
        GlContext(2, identity(2), rational_backend())


def test_ad_alpha_on_first_unit(gl2_zero):
    ctx, _ = gl2_zero
    e11, e22 = reference.matrix_unit(2, 0, 0), reference.matrix_unit(2, 1, 1)
    assert reference.ad_alpha(ctx, e11) == mat_neg(e22)


def test_gl_bracket_of_diagonal_units(gl2_zero):
    ctx, g = gl2_zero
    # [e11, e22] = e12 + e21, read back from the structure constants
    value = reference.unflatten(g.bracket[0][3], 2, 2)
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
    assert mat_eq(mat_mul(g.twist, g.twist), identity(4))


def _dense_gl(ctx):
    """Bracket table, twist and squared twist of gl(V) by dense matrix products."""
    units = reference.matrix_units(ctx.m)
    n = len(units)
    table = tuple(
        tuple(flatten(reference.gl_bracket(ctx, units[i], units[j])) for j in range(n))
        for i in range(n)
    )
    twist = transpose(mat(flatten(reference.ad_alpha(ctx, unit)) for unit in units))
    a2 = mat_mul(ctx.alpha, ctx.alpha)
    squared = transpose(mat(flatten(mat_mul(mat_mul(a2, unit), a2)) for unit in units))
    return table, twist, squared


def _assert_same_entries(got, want):
    # repr tells Fraction(0) from QuadExt(0, 0, d) and 0.0 from -0.0
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x == y and repr(x) == repr(y) and type(x) is type(y)


def _assert_equal_entries(got, want):
    # values only: the dense products type a zero by the terms summed into
    # it, while the builders store each product as it comes out and the
    # view reads a missing pair and the diagonal as Fraction zeros
    assert len(got) == len(want)
    assert all(x == y for x, y in zip(got, want))


def _assert_matches_dense(ctx):
    g = build_gl_alpha(ctx)
    table, twist, squared = _dense_gl(ctx)
    _assert_view(g, table, _assert_equal_entries)
    _assert_equal_entries(flatten(g.twist), flatten(twist))
    _assert_equal_entries(flatten(ad_alpha_squared_matrix(ctx)), flatten(squared))
    return g


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("theta", [0, F(1, 2), F(3, 4), 1, "0.5", "0.3"])
def test_closed_form_gl_matches_dense_products(m, theta):
    # a decimal string is an exact theta: "0.3" is 3/10, with d = 109/100
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
    # a rational block beside a quadratic one: a structure constant or twist
    # entry read off rational entries of alpha stays a Fraction
    backend = quadratic_backend(F(1, 2))
    block, _ = alpha_theta(F(1, 2), backend)
    z = F(0)
    alpha = (
        (z, F(1), z, z),
        (F(-1), z, z, z),
        (z, z, block[0][0], block[0][1]),
        (z, z, block[1][0], block[1][1]),
    )
    g = _assert_matches_dense(GlContext(4, alpha, backend))
    for entries in (flatten(g.pairs.values()), flatten(g.twist)):
        assert {type(x) for x in entries if x} == {F, QuadExt}


@settings(max_examples=25, deadline=None)
@given(rationals(5, 12))
def test_closed_form_gl2_matches_dense_at_random_theta(theta):
    alpha, backend = alpha_theta(theta)
    _assert_matches_dense(GlContext(2, alpha, backend))


# a discriminant no drawn theta gives (1 + theta**2 for theta in 1/2, 1/3, 1)
FOREIGN = F(3)


def outcome(build, *args):
    """The ``repr`` of the value, or the type of the exception it raised."""
    try:
        return repr(build(*args))
    except BackendMismatchError as exc:
        return type(exc)


@st.composite
def square_roots_of_minus_id(draw):
    """A GlContext at m in {2, 4, 6}: 2x2 blocks of int, Fraction and QuadExt
    entries (rational-valued QuadExt included) on zeros typed as drawn, and in
    half the draws conjugated by an integer matrix, so no block is left."""
    m = draw(st.sampled_from([2, 4, 6]))
    backend = quadratic_backend(draw(st.sampled_from([F(1, 2), F(1, 3), 1])))
    d = backend.d
    quad, _ = alpha_theta(backend.theta, backend)
    blocks = [
        ((0, 1), (-1, 0)),
        ((F(1), F(2)), (F(-1), F(-1))),
        ((2, F(-5, 2)), (2, -2)),
        quad,
        tuple(tuple(x if isinstance(x, QuadExt) else QuadExt(x, 0, d) for x in row) for row in quad),
    ]
    a = [[draw(st.sampled_from([0, F(0), QuadExt(0, 0, d)])) for _ in range(m)] for _ in range(m)]
    for b in range(0, m, 2):
        block = draw(st.sampled_from(blocks))
        for i, j in itertools.product(range(2), repeat=2):
            a[b + i][b + j] = block[i][j]
    if draw(st.booleans()):
        # a unit upper times a unit lower triangular integer matrix has determinant 1
        upper = [[int(i == j) or (j > i) * draw(st.integers(-2, 2)) for j in range(m)] for i in range(m)]
        lower = [[int(i == j) or (j < i) * draw(st.integers(-2, 2)) for j in range(m)] for i in range(m)]
        q = reference.mat_mul(upper, lower)
        a = reference.mat_mul(reference.mat_mul(q, a), mat_inv(q))
    return GlContext(m, a, backend)


@settings(max_examples=40, deadline=None)
@given(square_roots_of_minus_id())
def test_gl_build_and_conjugation_match_the_scalar_products(ctx):
    assert repr(build_gl_alpha(ctx)) == repr(reference.build_gl_alpha(ctx))
    assert repr(_conjugation_matrix(ctx.alpha)) == repr(reference.conjugation_matrix(ctx.alpha))


@settings(max_examples=30, deadline=None)
@given(square_roots_of_minus_id(), st.data())
def test_gl_build_with_a_second_discriminant_matches_the_scalar_products(ctx, data):
    # GlContext refuses such an alpha, so it is set past the check
    m = ctx.m
    a = [list(row) for row in ctx.alpha]
    r, c = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    a[r][c] = data.draw(exact_scalars(FOREIGN).filter(lambda x: isinstance(x, QuadExt)))
    object.__setattr__(ctx, "alpha", tuple(map(tuple, a)))
    assert outcome(build_gl_alpha, ctx) == outcome(reference.build_gl_alpha, ctx)


def test_two_discriminants_in_alpha_raise_on_both_sides():
    alpha, backend = alpha_block(2, F(1, 2))
    ctx = GlContext(2, alpha, backend)
    object.__setattr__(ctx, "alpha", ((QuadExt(1, 1, FOREIGN), alpha[0][1]), alpha[1]))
    for build in (build_gl_alpha, reference.build_gl_alpha):
        with pytest.raises(BackendMismatchError):
            build(ctx)
    for conjugate in (_conjugation_matrix, reference.conjugation_matrix):
        with pytest.raises(BackendMismatchError):
            conjugate(ctx.alpha)


@st.composite
def square_matrices(draw):
    """Any square matrix of exact scalars over 5/4, with one entry over FOREIGN in some draws."""
    m = draw(st.integers(1, 4))
    a = [[draw(exact_scalars(F(5, 4))) for _ in range(m)] for _ in range(m)]
    if draw(st.booleans()):
        at = draw(st.integers(0, m * m - 1))
        a[at // m][at % m] = draw(exact_scalars(FOREIGN).filter(lambda x: isinstance(x, QuadExt)))
    return tuple(map(tuple, a))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_conjugation_matrix_matches_every_product(a):
    assert outcome(_conjugation_matrix, a) == outcome(reference.conjugation_matrix, a)


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
    units = reference.matrix_units(ctx.m)
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
    units = reference.matrix_units(ctx.m)
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
        assert mat_eq(p_matrix(theta, backend), ad_alpha_matrix(GlContext(2, alpha, backend)))


def test_p_fixes_null_vector_up_to_sign():
    for theta in (0, 1, F(1, 2)):
        g, ctx = build_semi_euclidean(theta)
        assert mat_vec(ctx.P, ctx.r) == vec_neg(ctx.r)
        assert mat_eq(mat_mul(ctx.P, ctx.P), identity(4))


def test_p_not_orthogonal_for_nonzero_theta():
    _, ctx = build_semi_euclidean(F(1, 2))
    assert not mat_eq(mat_mul(transpose(ctx.P), ctx.P), identity(4))
    _, ctx0 = build_semi_euclidean(0)
    assert mat_eq(mat_mul(transpose(ctx0.P), ctx0.P), identity(4))


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
    # the build reads its pairs off closed_form_bracket, so this checks the
    # pair table and bracket_eval, not the closed form; the independent
    # paths are the wedge3 reference build (test_se4_build), acceptance
    # criterion 02 and _dense_se4 below
    g, ctx = SE4_CASES[theta]
    assert bracket_eval(g, x, y) == closed_form_bracket(ctx, x, y)


def test_closed_form_zeros_take_the_type_of_a():
    # over Q(sqrt 5) all four components are QuadExts, as bracket_eval's are
    g, ctx = SE4_CASES[F(1, 2)]
    x, y = (1, 2, 0, 1), (0, 1, 3, -1)
    value = closed_form_bracket(ctx, x, y)
    assert all(type(c) is QuadExt for c in value)
    assert repr(value) == repr(bracket_eval(g, x, y))
    assert repr(value[1]) == "QuadExt(0, 0, d=5/4)"


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([F(0), F(1, 2), F(1)]), int_vectors(4), int_vectors(4))
def test_closed_form_prints_like_bracket_eval(theta, x, y):
    g, ctx = SE4_CASES[theta]
    assert repr(closed_form_bracket(ctx, x, y)) == repr(bracket_eval(g, x, y))


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


# --- the dense bracket view against dense references
#
# The builders and the loader store the i<j pairs; ``g.bracket`` rebuilds
# the dense table from them.  The references are the dense tables the pairs
# replaced: the se4 wedge3 table, the r3 table of A(e_i x e_j), and the
# loader's fill (rational zeros, each listed pair and its negation).

# "0.5" and "0.3" are the exact decimal thetas 1/2 and 3/10
THETAS = [0, F(1, 2), F(3, 4), 1, "0.5", "0.3"]


def _dense_se4(theta):
    _, ctx = build_semi_euclidean(theta)
    cols = [mat_col(ctx.P, i) for i in range(4)]
    e = [basis_vec(4, i) for i in range(4)]
    wedge3 = reference.wedge3
    return tuple(
        tuple(vec_sub(wedge3(cols[i], ctx.r, e[j]), wedge3(cols[j], ctx.r, e[i])) for j in range(4))
        for i in range(4)
    )


def _dense_r3(A):
    e = [basis_vec(3, i) for i in range(3)]
    return tuple(tuple(mat_vec(A, cross3(e[i], e[j])) for j in range(3)) for i in range(3))


def _dense_fill(dim, pairs):
    table = [[zero_vec(dim)] * dim for _ in range(dim)]
    for (i, j), value in pairs.items():
        table[i][j] = tuple(value)
        table[j][i] = vec_neg(tuple(value))
    return table


def _assert_view(g, table, assert_entries=_assert_same_entries):
    assert len(g.bracket) == g.dim
    for i in range(g.dim):
        for j in range(g.dim):
            assert_entries(g.bracket[i][j], table[i][j])


def _family(name, theta):
    if name == "se4":
        return build_semi_euclidean(theta)[0]
    m = 2 if name == "gl2" else 4
    return build_gl_alpha(GlContext(m, *alpha_block(m, theta)))


@pytest.mark.parametrize("theta", THETAS)
def test_se4_view_matches_the_wedge_table(theta):
    g, _ = build_semi_euclidean(theta)
    table = _dense_se4(theta)
    _assert_view(g, table, _assert_equal_entries)
    for (i, j), value in g.pairs.items():
        _assert_same_entries(value, table[i][j])


def _r3_twists():
    c = QuadExt(0, F(1, 2), F(2))  # sqrt(2)/2, beside a rational row
    cos, sin = F(3, 5), F(4, 5)
    return [
        (identity(3), None),
        (mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]]), None),
        (mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), None),
        (_cayley_orthogonal(F(1, 2), F(-1, 3), F(2)), None),
        (((c, -c, 0), (c, c, 0), (0, 0, 1)), quadratic_backend(1)),
        (((cos, -sin, 0), (sin, cos, 0), (0, 0, -1)), rational_backend()),
    ]


@pytest.mark.parametrize("A, backend", _r3_twists())
def test_r3_view_matches_the_cross_product_table(A, backend):
    _assert_view(build_r3_cross(A, backend), _dense_r3(mat(A)), _assert_equal_entries)


@pytest.mark.parametrize("family", ["se4", "gl2", "gl4"])
@pytest.mark.parametrize("theta", THETAS)
def test_loaded_view_matches_the_loader_fill(family, theta):
    doc = json.loads(json.dumps(algebra_to_dict(_family(family, theta))))
    g = algebra_from_dict(doc)
    pairs = {
        (e["i"], e["j"]): [parse_scalar(x, g.backend) for x in e["value"]] for e in doc["bracket"]
    }
    _assert_view(g, _dense_fill(g.dim, pairs))


@pytest.mark.parametrize("family", ["se4", "gl2"])
@pytest.mark.parametrize("theta", THETAS)
def test_dense_constructor_reads_a_view_back(family, theta):
    # a dense table keeps its mirror entries
    g = _family(family, theta)
    again = HomAlgebra(g.dim, g.bracket, g.twist, g.backend)
    assert again == g
    _assert_view(again, g.bracket)


def test_constructor_view_keeps_ints_and_fractions():
    pairs = {(0, 1): (1, F(0), F(-5, 2)), (1, 2): (F(0), F(1, 2), 3), (0, 2): (0, F(0), 0)}
    g = HomAlgebra(3, pairs, identity(3), rational_backend())
    assert set(g.pairs) == {(0, 1), (1, 2)}
    _assert_view(g, _dense_fill(3, {k: v for k, v in pairs.items() if k != (0, 2)}))


def test_build_and_exact_classify_leave_the_view_unbuilt(tmp_path):
    se4 = build_semi_euclidean(F(1, 2))[0]
    path = tmp_path / "se4.json"
    save_algebra(se4, path)
    for g, verdict in (
        (se4, Verdict.SKEW_HOM_LIE),
        (load_algebra(path), Verdict.SKEW_HOM_LIE),
        (build_gl_alpha(GlContext(4, *alpha_block(4, F(1, 2)))), Verdict.SKEW_HOM_LIE),
        (build_r3_cross(identity(3)), Verdict.LIE),
    ):
        assert classify(g).verdict == verdict
        assert "bracket" not in vars(g)
    # built once on first use, then kept
    assert g.bracket is g.bracket


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


def reference_pseudo_adjoint_identity(g):
    """The matrix loop ``check_pseudo_adjoint_identity`` ran before it became
    the twisted Jacobi scan: the residual matrix on every ordered pair, with
    the dense bracket."""
    ad_star = reference.pseudo_adjoint(g)
    mats = [ad_star(basis_vec(g.dim, i)) for i in range(g.dim)]
    twisted = [ad_star(twist_col(g, i)) for i in range(g.dim)]
    for i, j in itertools.product(range(g.dim), repeat=2):
        lhs = mat_mul(ad_star(g.bracket[i][j]), g.twist)
        rhs = mat_sub(mat_mul(twisted[j], mats[i]), mat_mul(twisted[i], mats[j]))
        res = mat_sub(lhs, rhs)
        if not mat_is_zero(res):
            return CheckReport(False, Witness((i, j), res))
    return CheckReport(True)


def pseudo_adjoint_outcome(report):
    w = report.witness
    return report.passed, None if w is None else (w.at, repr(w.residual))


def assert_pseudo_adjoint_matches_reference(g, both_paths):
    want = pseudo_adjoint_outcome(reference_pseudo_adjoint_identity(g))
    for got in both_paths(check_pseudo_adjoint_identity, g):
        assert pseudo_adjoint_outcome(got) == want


@pytest.mark.parametrize("kind", ["rational", "half", "degenerate"])
def test_pseudo_adjoint_identity_matches_the_reference_loop(kind, both_paths):
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(kernel_algebras(kind))
    def check(g):
        want = reference_pseudo_adjoint_identity(g)
        fast, dense = both_paths(check_pseudo_adjoint_identity, g)
        assert pseudo_adjoint_outcome(dense) == pseudo_adjoint_outcome(want)
        # the exact residual equals the dense reference entry by entry, typed
        # as exact bracket_eval types its entries; on tables that mix
        # Fraction and QuadExt scalars the reference keeps Fraction entries
        assert fast.passed == want.passed
        if not fast.passed:
            assert fast.witness.at == want.witness.at
            assert fast.witness.residual == want.witness.residual
            expected = QuadExt if g.kernel.d is not None else F
            assert all(type(x) is expected for row in fast.witness.residual for x in row)

    check()


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.sampled_from(sorted(KERNEL_FAMILIES, key=str)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] != p[1]),
    st.integers(0, 3),
    st.sampled_from((0, -1, 1, 2, F(1, 3))),
    st.sampled_from((1, 1, -1, 2)),
)
def test_pseudo_adjoint_identity_matches_the_reference_on_mutated_families(
    both_paths, family, pair, k, delta, factor
):
    g = mutated(KERNEL_FAMILIES[family], *pair, k, delta, factor)
    assert_pseudo_adjoint_matches_reference(g, both_paths)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(KERNEL_FAMILIES, key=str)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] != p[1]),
    st.integers(0, 3),
    st.sampled_from((-1, 1, 2, F(1, 3))),
    st.sampled_from((1, -1, 2)),
)
def test_pseudo_adjoint_residual_columns_are_minus_the_jacobi_sums(family, pair, k, delta, factor):
    g = mutated(KERNEL_FAMILIES[family], *pair, k, delta, factor)
    beta = [twist_col(g, z) for z in range(g.dim)]

    def jacobi(x, y, z):
        # J(x, y, z) = [[y,z], b x] + [[z,x], b y] + [[x,y], b z]
        res = bracket_eval(g, g.bracket[y][z], beta[x])
        res = vec_add(res, bracket_eval(g, g.bracket[z][x], beta[y]))
        return vec_add(res, bracket_eval(g, g.bracket[x][y], beta[z]))

    report = check_pseudo_adjoint_identity(g)
    assert report.passed == check_hom_jacobi(g).passed
    if not report.passed:
        i, j = report.witness.at
        for z in range(g.dim):
            column = mat_col(report.witness.residual, z)
            assert column == vec_neg(jacobi(i, j, z))


@pytest.mark.parametrize("theta", [F(0), F(1)])
def test_pseudo_adjoint_identity_holds_on_gl4(theta, both_paths):
    # the reference loop takes about 14 s here, and the dense Jacobi scan at
    # theta = 1 about a minute, so only the kernel decides theta = 1
    g = build_gl_alpha(GlContext(4, *alpha_block(4, theta)))
    reports = both_paths(check_pseudo_adjoint_identity, g) if theta == 0 else [
        check_pseudo_adjoint_identity(g)
    ]
    assert all(r.passed for r in reports)


def test_pseudo_adjoint_identity_fails_with_the_squared_twist_on_gl4(both_paths):
    ctx = GlContext(4, *alpha_block(4, 0))
    g = replace(build_gl_alpha(ctx), twist=ad_alpha_squared_matrix(ctx))
    assert_pseudo_adjoint_matches_reference(g, both_paths)
    assert check_pseudo_adjoint_identity(g).witness.at == (0, 1)


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


def reference_pseudo_adjoint_morphism(g):
    """The hand-written loops ``check_pseudo_adjoint_morphism`` ran before it
    became ``check_morphism`` into gl(g): the twist law first, then the
    bracket law on all ordered pairs."""
    if not mat_eq(mat_mul(g.twist, g.twist), mat_neg(identity(g.dim))):
        raise PreconditionError("twist**2 = -id is required for the morphism law")
    ad_star = pseudo_adjoint(g)
    mats = [ad_star(basis_vec(g.dim, i)) for i in range(g.dim)]
    twisted = [ad_star(twist_col(g, i)) for i in range(g.dim)]
    beta = g.twist
    for i in range(g.dim):
        if not mat_is_zero(mat_sub(twisted[i], mat_mul(mat_mul(beta, mats[i]), beta))):
            return False
    for i in range(g.dim):
        for j in range(g.dim):
            a, b = mats[i], mats[j]
            left = mat_mul(mat_mul(mat_mul(mat_mul(beta, a), beta), b), beta)
            right = mat_mul(mat_mul(mat_mul(mat_mul(beta, b), beta), a), beta)
            res = mat_sub(ad_star(g.bracket[i][j]), mat_neg(mat_sub(left, right)))
            if not mat_is_zero(res):
                return False
    return True


def j_sum(n, scale=1):
    """``scale`` times J + ... + J with J = [[0, -1], [1, 0]], an n x n matrix."""
    return tuple(
        tuple(F(scale * (-1 if c == r + 1 else 1)) if c == r ^ 1 else F(0) for c in range(n))
        for r in range(n)
    )


@st.composite
def j_sum_tables(draw, scale=1):
    """Random rational tables on 2 or 4 generators with twist ``scale`` J + J."""
    from skewhom.algebra import HomAlgebra

    n = draw(st.sampled_from((2, 4)))
    entry = st.sampled_from((F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2)))
    pairs = {
        (i, j): tuple(draw(entry) for _ in range(n))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    }
    return HomAlgebra(n, pairs, j_sum(n, scale), rational_backend())


@settings(max_examples=60, deadline=None)
@given(j_sum_tables())
def test_pseudo_adjoint_morphism_matches_the_reference_loops(g):
    passed = check_pseudo_adjoint_morphism(g).passed
    assert passed == reference_pseudo_adjoint_morphism(g)
    # with beta^2 = -id the twist law alone forces a zero bracket
    assert passed == (not g.pairs)


def scanned_pseudo_adjoint_morphism(g):
    """``check_pseudo_adjoint_morphism`` with the morphism scan for every table."""
    if not mat_eq(mat_mul(g.twist, g.twist), mat_neg(identity(g.dim))):
        raise PreconditionError("twist**2 = -id is required for the morphism law")
    ad_star = pseudo_adjoint(g)
    f = transpose(mat(flatten(ad_star(basis_vec(g.dim, i))) for i in range(g.dim)))
    return check_morphism(f, g, build_gl_alpha(GlContext(g.dim, g.twist, g.backend)), sign=-1)


def test_pseudo_adjoint_morphism_passes_abelian_tables_without_building_gl(monkeypatch):
    def refuse(ctx):
        raise AssertionError("gl(g) was built")

    monkeypatch.setattr(constructions, "build_gl_alpha", refuse)
    s = QuadExt(0, 1, F(5, 4))
    complex_twist = ((F(1, 2), s), (-s, F(-1, 2)))  # squares to -id in Q(sqrt 5)
    for g in (
        HomAlgebra(2, {}, j_sum(2), rational_backend()),
        HomAlgebra(4, {(0, 1): zero_vec(4)}, j_sum(4), rational_backend()),
        HomAlgebra(2, {}, complex_twist, quadratic_backend(F(1, 2))),
    ):
        assert check_pseudo_adjoint_morphism(g).passed
    # the precondition still comes first
    with pytest.raises(PreconditionError):
        check_pseudo_adjoint_morphism(HomAlgebra(2, {}, identity(2), rational_backend()))


@settings(max_examples=60, deadline=None)
@given(j_sum_tables())
def test_pseudo_adjoint_morphism_witness_is_the_scans(g):
    got, want = check_pseudo_adjoint_morphism(g), scanned_pseudo_adjoint_morphism(g)
    assert got.passed == (not g.pairs) == want.passed
    if not got.passed:
        assert got.witness.at == want.witness.at
        assert repr(got.witness.residual) == repr(want.witness.residual)


@settings(max_examples=10, deadline=None)
@given(j_sum_tables(scale=2))
def test_pseudo_adjoint_morphism_refuses_a_twist_not_squaring_to_minus_one(g):
    # (2J)**2 = -4 id
    for check in (check_pseudo_adjoint_morphism, reference_pseudo_adjoint_morphism):
        with pytest.raises(PreconditionError):
            check(g)


@settings(max_examples=100, deadline=None)
@given(j_sum_tables())
def test_twist_sign_minus_one_with_square_minus_id_forces_a_zero_bracket(g):
    # the sign law twice gives beta^2 [x,y] = [beta^2 x, beta^2 y] = [x,y],
    # while beta^2 = -id gives -[x,y]
    from skewhom.algebra import check_twist_sign

    if check_twist_sign(g).sign == -1:
        assert not g.pairs


# --- builtin name resolution


def test_builtin_names():
    g = resolve_algebra("se4:theta=1/2")
    assert g.dim == 4 and g.twist == build_semi_euclidean(F(1, 2))[0].twist
    g = resolve_algebra("gl2:theta=0")
    assert g.dim == 4 and classify(g).verdict == Verdict.SKEW_HOM_LIE
    g = resolve_algebra('r3:A=[[1,0,0],[0,1,0],[0,0,-1]]')
    assert classify(g).verdict == Verdict.SKEW_HOM_LIE
    with pytest.raises(ValueError):
        resolve_algebra("nope:theta=1")
