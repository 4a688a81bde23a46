"""Every public check refuses a float with ``TypeError``.

All checks run on the integer-pair kernel, which takes exact scalars only.
So a float stored in an algebra (a pair value or the twist), passed as a
check's own scalar (an argument, a morphism matrix, rho, a cochain value) or
given as theta raises ``TypeError``; nothing is computed in floating point.
A float zero is refused too, and so is a float phi beside a zero rho.
"""

from fractions import Fraction as F

import pytest

from skewhom.algebra import (
    HomAlgebra,
    bracket_eval,
    check_hom_jacobi,
    check_morphism,
    check_power_sign_law,
    check_twist_sign,
    classify,
)
from skewhom.cohomology import check_d_squared, cochain, coboundary, d_squared_failures
from skewhom.constructions import build_semi_euclidean, check_pseudo_adjoint_identity
from skewhom.linalg import basis_vec, identity, zero_mat
from skewhom.representation import Representation, check_representation, zero_representation
from skewhom.scalars import rational_backend
from skewhom.se4geometry import check_vstar_closure


def float_stored():
    """A rational-backend algebra with one float in a stored pair."""
    return HomAlgebra(3, {(0, 1): (0.5, F(0), F(0))}, identity(3), rational_backend())


def float_twist():
    """A rational-backend algebra with one float in its twist."""
    twist = identity(3)[:2] + ((F(0), F(0), 0.5),)
    return HomAlgebra(3, {(0, 1): (F(0), F(0), F(1))}, twist, rational_backend())


def se4():
    return build_semi_euclidean(F(0))[0]


def float_rep():
    """se4 at theta = 0 with one rho entry 0.5."""
    rho = [[list(row) for row in zero_mat(4, 4)] for _ in range(4)]
    rho[0][0][1] = 0.5
    return Representation(se4(), 4, tuple(tuple(map(tuple, r)) for r in rho), identity(4))


def on_float_stored(check):
    """``check`` of the float-stored algebra and its zero representation on ``dim`` 3."""
    g = float_stored()
    return check(g, zero_representation(g, 3))


def on_float_rep(check):
    """``check`` of se4 and the float rho."""
    rep = float_rep()
    return check(rep.g, rep)


FLOAT_IDENTITY = tuple(tuple(float(r == c) for c in range(4)) for r in range(4))
FLOAT_TWICE = tuple(tuple(2.0 * (r == c) for c in range(4)) for r in range(4))

CHECKS = {
    "jacobi": lambda: check_hom_jacobi(float_stored()),
    "jacobi, float twist": lambda: check_hom_jacobi(float_twist()),
    "twist sign": lambda: check_twist_sign(float_stored()),
    "classify": lambda: classify(float_twist()),
    "power sign m=2": lambda: check_power_sign_law(float_stored(), 2),
    "bracket_eval": lambda: bracket_eval(float_stored(), (F(1), F(2), F(0)), (F(0), F(1), F(3))),
    "bracket_eval, float argument": lambda: bracket_eval(se4(), (0.5, F(0), F(0), F(0)), basis_vec(4, 1)),
    "bracket_eval, float zero": lambda: bracket_eval(se4(), (0.0, F(0), F(0), F(0)), basis_vec(4, 1)),
    "bracket_eval, float -0.0": lambda: bracket_eval(se4(), basis_vec(4, 1), (F(0), -0.0, F(0), F(0))),
    "morphism into itself": lambda: (lambda g: check_morphism(FLOAT_IDENTITY, g, g, 1))(se4()),
    "morphism into a second algebra": lambda: check_morphism(FLOAT_IDENTITY, se4(), se4(), 1),
    "pseudo-adjoint identity": lambda: check_pseudo_adjoint_identity(float_stored()),
    "representation": lambda: on_float_stored(lambda g, rep: check_representation(rep)),
    "float rho": lambda: check_representation(float_rep()),
    "coboundary": lambda: coboundary(
        cochain(1, 4, 4, {(0,): (0.5, F(0), F(0), F(0))}), zero_representation(se4(), 4), 0
    ),
    "d squared": lambda: on_float_stored(lambda g, rep: check_d_squared(g, rep, 1, 0)),
    "d squared k=0": lambda: on_float_rep(lambda g, rep: check_d_squared(g, rep, 0, 0)),
    "d squared k=1": lambda: on_float_rep(lambda g, rep: check_d_squared(g, rep, 1, 0)),
    "d squared k=2": lambda: on_float_rep(lambda g, rep: check_d_squared(g, rep, 2, 0)),
    "d squared failures s=1": lambda: on_float_rep(lambda g, rep: list(d_squared_failures(g, rep, 1, 1))),
    "d squared, zero rho, float phi": lambda: (
        lambda g: check_d_squared(g, zero_representation(g, 4, FLOAT_TWICE), 1, 0)
    )(se4()),
    "semi-Euclidean theta": lambda: build_semi_euclidean(0.5),
    "V* closure theta": lambda: check_vstar_closure(0.5),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_a_float_raises_type_error(name):
    with pytest.raises(TypeError):
        CHECKS[name]()
