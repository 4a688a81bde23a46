import dataclasses
from fractions import Fraction as F
from random import Random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewhom import se4geometry
from skewhom.algebra import HomAlgebra, bracket_eval
from skewhom.constructions import build_semi_euclidean
from skewhom.errors import DimensionError
from skewhom.linalg import basis_vec, identity, mat, mat_vec, vec_add, vec_scale
from skewhom.scalars import ScalarBackend, rational_backend
from skewhom.se4geometry import (
    CausalType,
    PLANES,
    causal_type,
    check_vstar_closure,
    in_v_star,
    pseudo_inner,
    vstar_certificate,
    vstar_defect,
    vstar_draws,
)

from strategies import int_vectors, rationals


SE4 = {theta: build_semi_euclidean(theta) for theta in (0, 1, F(1, 2))}


def test_signature_on_basis_vectors():
    e = [basis_vec(4, i) for i in range(4)]
    assert pseudo_inner(e[0], e[0]) == -1
    assert pseudo_inner(e[1], e[1]) == -1
    assert pseudo_inner(e[2], e[2]) == 1
    assert pseudo_inner(e[3], e[3]) == 1


def test_distinguished_null_vector_is_null():
    _, ctx = SE4[1]
    assert pseudo_inner(ctx.r, ctx.r) == 0


def test_pseudo_inner_dimension_error():
    with pytest.raises(DimensionError):
        pseudo_inner((1, 2, 3), (1, 2, 3))


def test_causal_types():
    assert causal_type((F(1), F(0), F(0), F(0))) == CausalType.TIMELIKE
    assert causal_type((F(0), F(0), F(1), F(0))) == CausalType.SPACELIKE
    assert causal_type((F(1), F(0), F(1), F(0))) == CausalType.NULL
    assert causal_type((F(0), F(0), F(0), F(0))) == CausalType.ZERO


def test_causal_type_with_root_coordinates():
    _, ctx = SE4[1]
    assert causal_type(ctx.r) == CausalType.NULL


def test_null_subset_membership():
    for theta in (0, 1, F(1, 2)):
        _, ctx = SE4.get(theta) or build_semi_euclidean(theta)
        verdict = in_v_star(ctx.r)
        assert verdict.member, theta


def test_diagonal_pairs_are_members():
    assert in_v_star((F(7), F(0), F(0), F(7))).member
    assert in_v_star((F(2), F(1), F(2), F(1))).member


def test_null_but_not_member():
    verdict = in_v_star((F(3), F(4), F(5), F(0)))
    assert verdict.in_null_space and not verdict.cross_condition
    assert not verdict.member


def test_generator_soundness_example():
    # (3,4,5,0) is null but fails the cross condition, and its twist image
    # (0,5,4,-3) fails it too; the sample generator must never emit it
    _, ctx = SE4[0]
    z = (F(3), F(4), F(5), F(0))
    image = mat_vec(ctx.P, z)
    assert image == (F(0), F(5), F(4), F(-3))
    assert not in_v_star(image).member


def test_vstar_samples_are_sound():
    for theta in (0, 1, F(1, 2), "0.3"):
        # a decimal string is the exact theta 3/10
        g, ctx = build_semi_euclidean(theta)
        samples = list(vstar_draws(ctx, 60, seed=3))
        assert len(samples) == 60
        for z in samples:
            assert in_v_star(z).member


@pytest.mark.parametrize("theta", [0, 1, F(1, 2), "0.5"])
@pytest.mark.parametrize("count", [4, 5, 11])
def test_vstar_samples_visit_every_plane(theta, count):
    # member t is drawn from PLANES[t % 4], so any 4 draws visit every plane
    _, ctx = build_semi_euclidean(theta)
    samples = list(vstar_draws(ctx, count, seed=count))
    assert len(samples) == count
    for t, z in enumerate(samples):
        assert se4geometry._in_plane(z, PLANES[t % 4])


def test_closure_check_passes():
    for theta in (0, 1, F(1, 2)):
        assert check_vstar_closure(theta, samples=60, seed=0).passed


@pytest.mark.parametrize("count", [-1, -3])
def test_a_negative_sample_count_raises(count):
    # a negative count used to check nothing and pass
    _, ctx = SE4[F(1, 2)]
    for sample in (
        lambda: check_vstar_closure(F(1, 2), samples=count),
        lambda: vstar_draws(ctx, count),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            sample()
    assert check_vstar_closure(F(1, 2), samples=0).passed
    assert list(vstar_draws(ctx, 0)) == []


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 1, F(1, 2)]), int_vectors(4))
def test_twist_image_inner_identity(theta, z):
    # <Pz, Pz> = (1 + 2 t^2)(z1^2 + z2^2 - z3^2 - z4^2) + 4 t s (z1 z2 - z3 z4)
    g, ctx = SE4[theta]
    image = mat_vec(ctx.P, z)
    t = ctx.theta
    s = ctx.s
    expected = (1 + 2 * t * t) * (
        z[0] * z[0] + z[1] * z[1] - z[2] * z[2] - z[3] * z[3]
    ) + 4 * t * s * (z[0] * z[1] - z[2] * z[3])
    assert pseudo_inner(image, image) == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 1, F(1, 2)]), int_vectors(4), int_vectors(4))
def test_bracket_values_have_diagonal_shape(theta, x, y):
    g, ctx = SE4[theta]
    value = bracket_eval(g, x, y)
    assert value[1] == 0 and value[2] == 0
    assert value[0] == value[3]
    assert in_v_star(value).member


@settings(max_examples=30, deadline=None)
@given(int_vectors(4), rationals(9, 9))
def test_causal_type_scale_invariant(x, lam):
    assume(lam != 0)
    assert causal_type(vec_scale(lam, x)) == causal_type(x)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0, 1, F(1, 2)]), st.integers(0, 10_000))
def test_members_stay_members_under_twist(theta, pick):
    g, ctx = SE4[theta]
    samples = list(vstar_draws(ctx, 40, seed=pick % 17))
    z = samples[pick % len(samples)]
    image = mat_vec(ctx.P, z)
    verdict = in_v_star(image)
    assert verdict.member
    inner, cross = vstar_defect(image)
    assert inner == 0 and cross == 0


# -- the four-plane certificate -------------------------------------------------


def plane_member(plane, a, b):
    """a b1 + b b2 for the plane's basis, written out from its equations."""
    sigma, crossed = plane
    return (a, b, sigma * b, sigma * a) if crossed else (a, b, sigma * a, sigma * b)


def test_factorisations_hold_identically():
    sympy = pytest.importorskip("sympy")
    x0, x1, x2, x3 = sympy.symbols("x0:4")
    inner = -x0**2 - x1**2 + x2**2 + x3**2
    q = x0 * x1 - x2 * x3
    assert sympy.expand(inner + 2 * q + (x0 - x1 - x2 + x3) * (x0 - x1 + x2 - x3)) == 0
    assert sympy.expand(inner - 2 * q + (x0 + x1 - x2 - x3) * (x0 + x1 + x2 + x3)) == 0


@settings(max_examples=200, deadline=None)
@given(int_vectors(4, bound=3))
def test_vstar_is_the_union_of_the_four_planes(x):
    in_planes = any(se4geometry._in_plane(x, plane) for plane in PLANES)
    assert in_v_star(x).member == in_planes


@pytest.mark.parametrize("theta", [0, 1, F(1, 2), F(3, 4), F(-7, 3)])
def test_certificate_passes_on_the_family(theta):
    g, ctx = build_semi_euclidean(theta)
    assert vstar_certificate(g, ctx) == check_vstar_closure(theta, samples=24, seed=1)
    assert vstar_certificate(g, ctx).passed


def test_certificate_needs_an_exact_backend():
    # every backend is exact: a float theta is refused before anything is built
    with pytest.raises(ValueError, match="unknown backend kind"):
        ScalarBackend("float")
    with pytest.raises(TypeError):
        build_semi_euclidean(0.5)


def assert_witness_leaves_vstar(g, ctx, report):
    """Re-check a failing certificate's witness with the membership predicate."""
    kind, *at = report.witness.at
    if kind == "bracket":
        x, y = at
        value = bracket_eval(g, x, y)
    else:
        assert kind == "twist"
        (z,) = at
        assert in_v_star(z).member
        value = mat_vec(ctx.P, z)
    assert not in_v_star(value).member
    assert report.witness.residual == vstar_defect(value)
    return kind


@st.composite
def se4_variants(draw):
    """se4 at a random rational theta, with at most one structure constant
    changed and its twist P possibly replaced by a small integer matrix."""
    theta = draw(st.one_of(st.just(F(3, 4)), st.fractions(-3, 3, max_denominator=4)))
    g, ctx = build_semi_euclidean(theta)
    backend = ctx.backend
    pairs = dict(g.pairs)
    change = draw(st.sampled_from(("none", "entry", "plane member")))
    if change != "none":
        i, j = draw(st.sampled_from([(i, j) for i in range(4) for j in range(i + 1, 4)]))
        value = list(g.bracket_at(i, j))
        if change == "entry":
            k = draw(st.integers(0, 3))
            value[k] = value[k] + draw(st.sampled_from((1, -1, F(1, 2)))) * draw(
                st.sampled_from((1, backend.sqrt_d))
            )
        else:
            small = st.integers(-2, 2).map(F)
            value = plane_member(draw(st.sampled_from(PLANES)), draw(small), draw(small))
        pairs[(i, j)] = tuple(value)
    shape = draw(st.sampled_from(("keep", "integer", "signed permutation")))
    if shape == "integer":
        P = mat([[draw(st.integers(-2, 2)) for _ in range(4)] for _ in range(4)])
    elif shape == "signed permutation":
        order = draw(st.permutations(range(4)))
        signs = [draw(st.sampled_from((1, -1))) for _ in range(4)]
        P = mat([[signs[r] if c == order[r] else 0 for c in range(4)] for r in range(4)])
    else:
        P = ctx.P
    g = HomAlgebra(4, pairs, g.twist, backend)
    return g, dataclasses.replace(ctx, P=P)


@settings(max_examples=80, deadline=None)
@given(se4_variants(), st.integers(0, 1000))
def test_certificate_agrees_with_the_sampled_check(variant, seed):
    g, ctx = variant
    backend = ctx.backend
    report = vstar_certificate(g, ctx)
    with mock.patch.object(se4geometry, "build_semi_euclidean", lambda theta: (g, ctx)):
        sampled = check_vstar_closure(ctx.theta, samples=24, seed=seed)
    if not sampled.passed:
        # a sampled failure is a real one, and a bracket failure is found first
        assert not report.passed
        if sampled.witness.at[0] == "bracket":
            assert report.witness.at[0] == "bracket"
    if not report.passed:
        assert_witness_leaves_vstar(g, ctx, report)
        return
    # a pass holds for every vector: random pairs, and members of every plane
    rng = Random(seed)

    def draw():
        return tuple(F(rng.randint(-9, 9)) for _ in range(4))

    for _ in range(20):
        assert in_v_star(bracket_eval(g, draw(), draw())).member
    for plane in PLANES:
        for _ in range(5):
            z = plane_member(plane, F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
            assert in_v_star(mat_vec(ctx.P, z)).member


def test_certificate_names_the_first_structure_constant_outside_vstar():
    g, ctx = build_semi_euclidean(1)
    pairs = {**g.pairs, (1, 3): (F(1), F(0), F(0), F(0))}
    mutated = HomAlgebra(4, pairs, g.twist, g.backend)
    report = vstar_certificate(mutated, ctx)
    assert report.witness.at == ("bracket", basis_vec(4, 1), basis_vec(4, 3))
    assert report.witness.residual == (-1, 0)


def test_certificate_searches_the_moment_curve_when_no_plane_holds_every_constant():
    # each structure constant lies in V*, but no plane holds both, so the
    # witness is a pair of moment-curve points
    backend = rational_backend()
    first, second = plane_member(PLANES[0], F(1), F(0)), plane_member(PLANES[1], F(1), F(0))
    g = HomAlgebra(4, {(0, 1): first, (0, 2): second}, identity(4), backend)
    assert all(in_v_star(v).member for v in g.pairs.values())
    _, ctx = build_semi_euclidean(0)
    ctx = dataclasses.replace(ctx, P=identity(4), backend=backend)
    report = vstar_certificate(g, ctx)
    assert not report.passed
    assert assert_witness_leaves_vstar(g, ctx, report) == "bracket"
    _, x, y = report.witness.at
    curve = [tuple(F(t**k) for k in range(4)) for t in range(se4geometry.CURVE)]
    assert x in curve and y in curve


def test_certificate_twist_witness_lies_on_a_line_of_the_first_bad_plane():
    # P negates x3, which maps the basis (1, 0, 1, 0), (0, 1, 0, 1) of the
    # first plane into two different planes
    g, ctx = build_semi_euclidean(0)
    P = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    ctx = dataclasses.replace(ctx, P=P)
    report = vstar_certificate(g, ctx)
    assert assert_witness_leaves_vstar(g, ctx, report) == "twist"
    (z,) = report.witness.at[1:]
    b1, b2 = se4geometry._plane_basis(PLANES[0])
    assert z in [vec_add(b1, vec_scale(F(t), b2)) for t in range(se4geometry.LINE)]


def test_sampled_check_finds_a_twist_that_misses_one_plane():
    # this P maps three of the planes into V* but not {x0 = -x2, x1 = -x3};
    # the sampled check draws members of that plane too, so it fails with the
    # certificate
    g, ctx = build_semi_euclidean(1)
    P = mat([[1, -1, -1, 1], [0, 1, -1, 0], [1, -1, -1, 1], [0, -1, 1, 0]])
    ctx = dataclasses.replace(ctx, P=P)
    with mock.patch.object(se4geometry, "build_semi_euclidean", lambda theta: (g, ctx)):
        report = check_vstar_closure(1, samples=200, seed=0)
    assert not report.passed
    assert assert_witness_leaves_vstar(g, ctx, report) == "twist"
    assert not vstar_certificate(g, ctx).passed
