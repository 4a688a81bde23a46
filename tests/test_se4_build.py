"""The semi-Euclidean build against its wedge3 definition, and its checks.

``build_semi_euclidean`` computes the bracket by ``closed_form_bracket`` and
proves ``P**2 = id`` and ``P r = -r`` from ``P = Ad_alpha``, ``r = vec(alpha)``
and ``alpha**2 = -id``.  ``reference.build_semi_euclidean`` keeps the
``wedge3(P e_i, r, e_j) - wedge3(P e_j, r, e_i)`` table and the dense
re-checks of P; the two builds must agree to the ``repr`` of every scalar.

Since the build reads its table off ``closed_form_bracket``,
``test_constructions.test_bracket_paths_agree`` compares that closed form
with itself through the pair table.  The independent checks of the closed
form are the wedge3 reference here, acceptance criterion 02 (the
determinant path) and ``test_constructions._dense_se4``.
"""

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference
from skewhom import constructions
from skewhom.constructions import build_semi_euclidean
from skewhom.errors import ConstructionError, PreconditionError, SkewhomError
from skewhom.linalg import flatten, vec_neg
from skewhom.scalars import quadratic_backend, rational_backend

# 0, the degenerate values (1 + theta**2 a square) and their negatives
SPECIAL = [0, 1, -1, F(1, 2), F(3, 4), F(-3, 4), F(12, 5), F(-12, 5), F(5, 12), "0.5", "-7/3"]
BACKENDS = {
    "default": lambda theta: None,
    "own": quadratic_backend,
    "rational": lambda theta: rational_backend(),
    "sqrt 2": lambda theta: quadratic_backend(1),
}


def built(build, theta, backend):
    """The ``repr`` of everything a build returns, or the name of what it raised."""
    try:
        g, ctx = build(theta, backend)
    except SkewhomError as exc:
        return type(exc).__name__
    return repr((g.dim, g.pairs, g.twist, g.backend, ctx))


thetas = st.one_of(
    st.sampled_from(SPECIAL),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**9),
    st.integers(-10**6, 10**6),
)


@settings(max_examples=150, deadline=None)
@given(thetas, st.sampled_from(sorted(BACKENDS)))
def test_the_build_matches_the_wedge_reference(theta, backend):
    be = BACKENDS[backend](theta)
    assert built(build_semi_euclidean, theta, be) == built(reference.build_semi_euclidean, theta, be)


@pytest.mark.parametrize("theta", SPECIAL)
def test_the_build_matches_the_wedge_reference_at_special_values(theta):
    for make in BACKENDS.values():
        be = make(theta)
        assert built(build_semi_euclidean, theta, be) == built(reference.build_semi_euclidean, theta, be)


# --- every corruption the dense re-checks caught is still caught

BUILDS = {"closed form": build_semi_euclidean, "wedge reference": reference.build_semi_euclidean}
CORRUPT_AT = [0, F(1, 2), F(3, 4), F(-12, 5), 7]


def plus_one_at(entries, at):
    entries = list(entries)
    entries[at] = entries[at] + 1
    return entries


def p_changed_at(at):
    """``p_matrix`` with flat entry ``at`` increased by one."""
    real = constructions.p_matrix

    def changed(theta, backend):
        entries = plus_one_at(flatten(real(theta, backend)), at)
        return tuple(tuple(entries[4 * i : 4 * i + 4]) for i in range(4))

    return changed


def r_changed_at(at):
    """``r_vector`` with entry ``at`` increased by one."""
    real = constructions.r_vector
    return lambda theta, backend: tuple(plus_one_at(real(theta, backend), at))


@pytest.mark.parametrize("theta", CORRUPT_AT)
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_one_wrong_entry_of_p_is_refused(theta, build):
    for at in range(16):
        with mock.patch.object(constructions, "p_matrix", p_changed_at(at)):
            with pytest.raises(ConstructionError):
                BUILDS[build](theta)


@pytest.mark.parametrize("theta", CORRUPT_AT)
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_one_wrong_entry_of_r_is_refused(theta, build):
    for at in range(4):
        with mock.patch.object(constructions, "r_vector", r_changed_at(at)):
            with pytest.raises(ConstructionError):
                BUILDS[build](theta)


@pytest.mark.parametrize("theta", CORRUPT_AT)
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_an_alpha_not_squaring_to_minus_id_is_refused(theta, build):
    real = constructions.alpha_theta

    def scaled(theta, backend=None):
        alpha, backend = real(theta, backend)
        return tuple(tuple(2 * x for x in row) for row in alpha), backend

    with mock.patch.object(constructions, "alpha_theta", scaled):
        with pytest.raises(PreconditionError):
            BUILDS[build](theta)


@pytest.mark.parametrize("theta", CORRUPT_AT)
def test_another_square_root_of_minus_id_is_refused(theta):
    # alpha transposed also squares to -id.  Off theta = 0 its Ad is not P;
    # at theta = 0 it is -alpha, whose Ad is P, and only r = vec(alpha) tells
    real = constructions.alpha_theta

    def transposed(theta, backend=None):
        alpha, backend = real(theta, backend)
        return tuple(zip(*alpha)), backend

    with mock.patch.object(constructions, "alpha_theta", transposed):
        with pytest.raises(ConstructionError):
            build_semi_euclidean(theta)
        if theta:
            with pytest.raises(ConstructionError):
                reference.build_semi_euclidean(theta)
        else:
            reference.build_semi_euclidean(theta)


@pytest.mark.parametrize("theta", CORRUPT_AT)
def test_minus_r_is_refused_although_p_negates_it(theta):
    # r = -vec(alpha) satisfies P r = -r, which the wedge reference checks,
    # but is not alpha read row by row, which the build checks
    real = constructions.r_vector

    def negated(theta, backend):
        return vec_neg(real(theta, backend))

    with mock.patch.object(constructions, "r_vector", negated):
        _, ctx = reference.build_semi_euclidean(theta)
        assert ctx.r == vec_neg(real(theta, ctx.backend))
        with pytest.raises(ConstructionError):
            build_semi_euclidean(theta)
