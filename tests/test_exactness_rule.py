"""One rule sends every exact check to the kernel or to its dense loop.

The integer-pair kernel takes exact scalars only.  So a check on an exact
backend runs on it only when no scalar the algebra stores (a pair value, the
twist, the zero vector) and none of the check's own scalars (arguments, a
morphism matrix, rho, phi, a cochain) is a float; otherwise it runs the
dense loop it runs with ``algebra._sparse`` off.  Each case below holds a
float on an exact backend and must give exactly the dense path's result.
"""

from fractions import Fraction as F

import pytest

from skewhom.algebra import (
    HomAlgebra,
    bracket_eval,
    check_hom_jacobi,
    check_power_sign_law,
    check_twist_sign,
    classify,
)
from skewhom.cohomology import check_d_squared, cochain, coboundary, d_squared_failures
from skewhom.constructions import build_semi_euclidean
from skewhom.linalg import identity, zero_mat
from skewhom.representation import Representation, check_representation, zero_representation
from skewhom.scalars import rational_backend


def float_stored():
    """A rational-backend algebra with one float in a stored pair."""
    return HomAlgebra.from_pairs(3, {(0, 1): (0.5, F(0), F(0))}, identity(3), rational_backend())


def float_rep():
    """se4 at theta = 0 with phi = 1.0 id and one rho entry 0.5."""
    g, _ = build_semi_euclidean(F(0))
    rho = [[list(row) for row in zero_mat(4, 4)] for _ in range(4)]
    rho[0][0][1] = 0.5
    phi = tuple(tuple(1.0 if r == c else 0.0 for c in range(4)) for r in range(4))
    return Representation(g, 4, tuple(tuple(map(tuple, r)) for r in rho), phi)


def failures(g, rep, k, s):
    return list(d_squared_failures(g, rep, k, s))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_float_rep_on_an_exact_algebra_takes_the_dense_d_squared_scan(both_paths, k):
    rep = float_rep()
    fast, dense = both_paths(check_d_squared, rep.g, rep, k, 0)
    assert fast == dense
    fast, dense = both_paths(failures, rep.g, rep, k, 1)
    assert fast == dense
    fast, dense = both_paths(check_representation, rep)
    assert fast == dense


CHECKS = {
    "jacobi": check_hom_jacobi,
    "twist sign": check_twist_sign,
    "classify": classify,
    "power sign m=2": lambda g: check_power_sign_law(g, 2),
    "bracket_eval": lambda g: bracket_eval(g, (F(1), F(2), F(0)), (F(0), F(1), F(3))),
    "representation": lambda g: check_representation(zero_representation(g, 2)),
    "coboundary": lambda g: coboundary(
        cochain(1, 3, 3, {(0,): (F(1), F(0), F(2)), (1,): (F(0), F(1), F(0))}),
        zero_representation(g, 3),
        0,
    ),
    "d squared": lambda g: check_d_squared(g, zero_representation(g, 3), 1, 0),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_float_stored_by_an_exact_algebra_takes_the_dense_loop(both_paths, name):
    g = float_stored()
    fast, dense = both_paths(CHECKS[name], g)
    assert fast == dense


def test_stored_floats_are_found_in_pairs_twist_and_zero():
    g = float_stored()
    assert g.stores_float
    half = identity(3)[:2] + ((F(0), F(0), 0.5),)
    assert HomAlgebra.from_pairs(3, {}, half, rational_backend()).stores_float
    zero = HomAlgebra.from_pairs(3, {(0, 1): (F(1), F(0), F(0))}, identity(3), rational_backend(),
                                 (F(0), 0.0, F(0)))
    assert zero.stores_float
    assert not build_semi_euclidean(F(1, 2))[0].stores_float
