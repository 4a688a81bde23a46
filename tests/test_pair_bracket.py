"""Exact brackets on the integer-pair kernel against the dense loop.

``bracket_eval`` is a product on the kernel (``Kernel.bracket_eval``); the
reference here is the loop over the dense view ``g.bracket`` that it
replaced, ``reference.bracket_eval``.  Values must equal the loop's entry by
entry, and every entry must be typed by the kernel's rule: a ``QuadExt``
when ``g.kernel_with(x + y)`` has a discriminant, a ``Fraction`` otherwise,
zero included (the loop types each component by its own terms, so the two
differ only on tables and arguments that mix ``Fraction`` and ``QuadExt``
scalars).  The witness residuals of the checkers read
``HomAlgebra.bracket_at`` and must leave the dense view unbuilt.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference
from skewhom._kernel import Kernel
from skewhom.algebra import (
    HomAlgebra,
    Verdict,
    bracket_eval,
    check_hom_jacobi,
    check_power_sign_law,
    check_twist_sign,
    classify,
)
from skewhom.cohomology import cochain, coboundary
from skewhom.constructions import (
    GlContext,
    alpha_block,
    build_gl_alpha,
    build_r3_cross,
    build_semi_euclidean,
    check_pseudo_adjoint_identity,
)
from skewhom.errors import BackendMismatchError
from skewhom.linalg import identity, mat, zero_vec
from skewhom.representation import Representation
from skewhom.scalars import QuadExt, quadratic_backend, rational_backend
from skewhom.se4geometry import PLANES, check_vstar_closure, vstar_certificate

from test_kernel import algebras, mutated
from test_se4geometry import plane_member

THETAS = (F(0), F(1, 2), F(3, 4), F(1))
dense_bracket_eval = reference.bracket_eval


def outcome(fn, *args):
    """``repr`` of the value, or the name of the exception raised."""
    try:
        return repr(fn(*args))
    except BackendMismatchError as exc:
        return type(exc).__name__


def gl(m, theta):
    return build_gl_alpha(GlContext(m, *alpha_block(m, theta)))


def _r3_rotations():
    c = QuadExt(0, F(1, 2), F(2))  # sqrt(2)/2
    return {
        ("r3", "reflection"): build_r3_cross(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])),
        ("r3", "quarter turn"): build_r3_cross(mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]])),
        ("r3", "eighth turn"): build_r3_cross(((c, -c, 0), (c, c, 0), (0, 0, 1)), quadratic_backend(1)),
    }


FAMILIES = {
    **{("se4", t): build_semi_euclidean(t)[0] for t in THETAS},
    **{("gl2", t): gl(2, t) for t in THETAS},
    **{("gl4", t): gl(4, t) for t in THETAS},
    **_r3_rotations(),
}


def discriminant(g):
    """The algebra's discriminant, or that of Q(sqrt 5) for a rational table."""
    return g.kernel.d if g.kernel.d is not None else F(5, 4)


def arguments(n, d):
    """Vectors mixing ints, Fractions and QuadExt (zeros too), sparse, dense or zero."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entry = st.one_of(
        st.just(0),
        st.just(F(0)),
        st.just(QuadExt(0, 0, d)),
        st.integers(-3, 3),
        small,
        st.builds(lambda a, b: QuadExt(a, b, d), small, small),
    )
    rational = st.one_of(st.just(0), st.just(F(0)), st.integers(-3, 3), small)
    return st.one_of(
        st.just((F(0),) * n),
        st.tuples(*[rational] * n),
        st.tuples(*[entry] * n),
        st.integers(0, n - 1).map(lambda i: tuple(F(int(k == i)) for k in range(n))),
    )


def assert_typed_and_equal(g, x, y):
    """``bracket_eval`` equals the dense loop entry by entry and follows the kernel's type rule."""
    value = bracket_eval(g, x, y)
    kind = QuadExt if g.kernel_with((*x, *y)).d is not None else F
    assert all(type(v) is kind for v in value), value
    assert len(value) == g.dim and all(a == b for a, b in zip(value, dense_bracket_eval(g, x, y)))


def assert_matches_dense(g, data):
    d = discriminant(g)
    x = data.draw(arguments(g.dim, d))
    y = data.draw(arguments(g.dim, d))
    assert_typed_and_equal(g, x, y)


@pytest.mark.parametrize("family", sorted(FAMILIES, key=str))
def test_exact_bracket_matches_the_dense_loop_on_the_families(family):
    g = FAMILIES[family]

    @settings(max_examples=10 if family[0] == "gl4" else 30, deadline=None)
    @given(st.data())
    def check(data):
        assert_matches_dense(g, data)

    check()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted((k for k in FAMILIES if k[0] != "gl4"), key=str)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda p: p[0] != p[1]),
    st.integers(0, 2),
    st.sampled_from((-1, 1, 2, F(1, 3))),
    st.data(),
)
def test_exact_bracket_matches_the_dense_loop_on_mutated_tables(family, pair, k, delta, data):
    assert_matches_dense(mutated(FAMILIES[family], *pair, k, delta), data)


@pytest.mark.parametrize("kind", ["rational", "half", "degenerate"])
def test_exact_bracket_matches_the_dense_loop_on_random_tables(kind):
    @settings(max_examples=60, deadline=None)
    @given(algebras(kind), st.data())
    def check(g, data):
        assert_matches_dense(g, data)

    check()


def test_zero_and_missing_pairs_type_the_components_like_the_dense_loop():
    d = F(5, 4)
    q = QuadExt(0, 0, d)
    # the diagonal and the missing (0, 2) read as Fraction zeros
    g = HomAlgebra(3, {(0, 1): (F(1), F(0), F(2))}, identity(3), quadratic_backend(F(1, 2)))
    cases = [
        ((F(1), F(0), F(0)), (F(1), F(0), F(0))),  # the diagonal only
        ((F(1), F(0), F(0)), (F(0), F(0), F(1))),  # the missing pair only
        ((F(1), F(0), F(0)), (F(0), F(1), F(0))),  # the stored pair only
        ((F(0), F(1), F(0)), (F(1), F(0), F(0))),  # its mirror
        ((F(1), F(1), F(0)), (F(1), F(-1), F(0))),  # c = -2, and the diagonal
        ((q, F(1), F(0)), (F(1), F(0), F(0))),  # a QuadExt zero argument is skipped
        ((QuadExt(1, 0, d), F(0), F(0)), (F(0), F(1), F(0))),  # a rational QuadExt argument
        (zero_vec(3), (F(1), F(1), F(1))),  # empty support
    ]
    for x, y in cases:
        assert_typed_and_equal(g, x, y)


def test_mixed_discriminants_raise_or_pass_as_in_the_dense_loop():
    two, three = QuadExt(1, 1, 2), QuadExt(1, 1, 3)
    # two discriminants in different components never meet in the dense sum,
    # but the kernel holds all of the algebra's scalars and refuses them
    split = HomAlgebra(2, {(0, 1): (two, three)}, identity(2), rational_backend())
    g = FAMILIES[("se4", F(1, 2))]
    cases = [
        (split, (F(1), F(0)), (F(0), F(1))),
        (split, (two, F(0)), (F(0), F(1))),
        (g, (two, 0, 0, 0), (0, 1, 0, 0)),
        (g, (two, 0, 0, 0), (three, 1, 0, 0)),
        (FAMILIES[("se4", F(0))], (two, 0, 0, 0), (0, three, 0, 0)),
    ]
    for h, x, y in cases[1:]:
        assert outcome(bracket_eval, h, x, y) == outcome(dense_bracket_eval, h, x, y)
    assert outcome(dense_bracket_eval, *cases[0]) != "BackendMismatchError"
    assert outcome(bracket_eval, *cases[0]) == "BackendMismatchError"
    assert outcome(bracket_eval, *cases[2]) == "BackendMismatchError"


def quadratic_arguments(d):
    """A Q(sqrt d) argument and a rational one for gl(R^2) at theta = 0."""
    return (QuadExt(1, 2, d), F(0), F(-1), F(3)), (F(2), F(1), F(0), F(-1))


def lifted(g, d):
    """A kernel built from ``g``'s table and twist with each scalar lifted into Q(sqrt d)."""

    def lift(v):
        return tuple(QuadExt(x, 0, d) for x in v)

    return Kernel(g.dim, {key: lift(v) for key, v in g.pairs.items()}, tuple(map(lift, g.twist)))


RATIONAL_FAMILIES = sorted((k for k, g in FAMILIES.items() if g.kernel.d is None), key=str)


@pytest.mark.parametrize("d", [F(5), F(5, 4), F(25, 16), F(2)])
@pytest.mark.parametrize("family", RATIONAL_FAMILIES, ids=lambda k: f"{k[0]}-{k[1]}")
def test_kernel_with_is_a_view_equal_to_a_kernel_built_over_the_arguments_ring(family, d):
    g = FAMILIES[family]
    x = tuple(QuadExt(k - 1, k % 3, d) for k in range(g.dim))
    y = tuple(F(k % 4 - 1, 2) for k in range(g.dim))
    view = g.kernel_with((*x, *y))
    assert view is not g.kernel and view.d == d and g.kernel.d is None
    assert view.rows is g.kernel.rows and view.twist is g.kernel.twist
    assert g.kernel_with(y) is g.kernel
    fresh = lifted(g, d)
    assert fresh.d == d
    assert (view.rows, view.scale) == (fresh.rows, fresh.scale)
    assert (view.twist.cols, view.ad(view.twist), view.twist.scale) == (
        fresh.twist.cols, fresh.ad(fresh.twist), fresh.twist.scale
    )
    assert repr(view.bracket_eval(x, y)) == repr(fresh.bracket_eval(x, y))
    # a quadratic kernel stays in its own ring
    assert view.over(d) is view and view.over(None) is view
    with pytest.raises(BackendMismatchError, match="mixed discriminants"):
        view.over(F(7))
    with pytest.raises(BackendMismatchError, match="mixed discriminants"):
        fresh.over(F(7))


@pytest.mark.parametrize("d", [F(5), F(5, 4), F(2)])
def test_a_kept_kernel_gives_the_values_and_types_of_a_fresh_one(d):
    g = gl(4, 0)
    x, y = quadratic_arguments(d)
    x, y = x * 4, y * 4
    fresh = lifted(g, d)
    first = bracket_eval(g, x, y)
    assert repr(bracket_eval(g, x, y)) == repr(first) == repr(fresh.bracket_eval(x, y))
    assert all(type(v) is QuadExt for v in first)
    assert_typed_and_equal(g, x, y)
    assert_typed_and_equal(g, y, x)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FAMILIES, key=str)), st.data())
def test_float_arguments_raise_type_error(family, data):
    # one nonzero float among exact entries and float zeros is refused
    g = FAMILIES[family]
    entry = st.one_of(st.just(0), st.just(F(1)), st.just(0.0), st.just(-0.0))
    x = list(data.draw(st.tuples(*[entry] * g.dim)))
    y = list(data.draw(st.tuples(*[entry] * g.dim)))
    at = data.draw(st.integers(0, 2 * g.dim - 1))
    (x if at < g.dim else y)[at % g.dim] = data.draw(st.floats(-3, 3, allow_nan=False).filter(bool))
    with pytest.raises(TypeError):
        bracket_eval(g, tuple(x), tuple(y))


# --- witness residuals read the pairs

SE4_HALF_MUTATED = (("se4", F(1, 2)), 0, 1, 0, 1)
GL2_HALF_MUTATED = (("gl2", F(1, 2)), 0, 2, 1, 1)


def _failing_checks():
    """``(name, (check, its reference), failed)`` for checks that fail on the tables below."""
    power = (lambda g: check_power_sign_law(g, 3), lambda g: reference.check_power_sign_law(g, 3))
    return [
        ("twist sign", (check_twist_sign, reference.check_twist_sign), lambda r: r.sign is None),
        ("jacobi", (check_hom_jacobi, reference.check_hom_jacobi), lambda r: not r.passed),
        ("power sign m=3", power, lambda r: not r.passed),
        (
            "pseudo-adjoint identity",
            (check_pseudo_adjoint_identity, reference.check_pseudo_adjoint_identity),
            lambda r: not r.passed,
        ),
    ]


@pytest.mark.parametrize("name, check, failed", _failing_checks(), ids=lambda v: v if isinstance(v, str) else "")
@pytest.mark.parametrize("table", [SE4_HALF_MUTATED, GL2_HALF_MUTATED], ids=["se4", "gl2"])
def test_exact_witnesses_read_the_pairs_not_the_dense_view(name, check, failed, table):
    family, *mutation = table
    check, dense_check = check
    fast_g = mutated(FAMILIES[family], *mutation)
    fast = check(fast_g)
    assert failed(fast)
    assert "bracket" not in fast_g.__dict__
    dense = dense_check(mutated(FAMILIES[family], *mutation))
    assert fast.witness.at == dense.witness.at
    assert repr(fast.witness.residual) == repr(dense.witness.residual)


def test_bracket_at_is_the_view_entry():
    for g in [*FAMILIES.values(), mutated(FAMILIES[("se4", F(1))], 1, 0, 2, 1)]:
        fresh = HomAlgebra(g.dim, g.pairs, g.twist, g.backend)
        entries = [repr(fresh.bracket_at(i, j)) for i in range(g.dim) for j in range(g.dim)]
        assert "bracket" not in fresh.__dict__
        assert entries == [repr(v) for row in fresh.bracket for v in row]


# --- the exact paths that read brackets leave the dense view unbuilt


def _adjoint(g):
    """rho(e_i) = [e_i, .] with phi the twist, read through ``bracket_at``."""
    n = g.dim
    rho = tuple(
        tuple(tuple(g.bracket_at(i, c)[r] for c in range(n)) for r in range(n)) for i in range(n)
    )
    return Representation(g, n, rho, g.twist)


def test_exact_paths_do_not_build_the_dense_view(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense bracket view was built")

    monkeypatch.setattr(HomAlgebra, "bracket", property(refuse))
    assert check_vstar_closure(F(1, 2), 24, 5).passed
    g, ctx = build_semi_euclidean(F(1, 2))
    assert vstar_certificate(g, ctx).passed
    # no plane holds both constants, so the certificate evaluates brackets
    # on the moment curve
    first, second = plane_member(PLANES[0], F(1), F(0)), plane_member(PLANES[1], F(1), F(0))
    split = HomAlgebra(4, {(0, 1): first, (0, 2): second}, identity(4), rational_backend())
    assert not vstar_certificate(split, ctx).passed
    assert classify(g).verdict == Verdict.SKEW_HOM_LIE
    eta = cochain(1, 4, 4, {(i,): tuple(F(i + r) for r in range(4)) for i in range(4)})
    image = coboundary(eta, _adjoint(g), 0)
    assert image.k == 2 and len(image.table) == 6
