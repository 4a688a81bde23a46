from fractions import Fraction as F

import pytest
from hypothesis import given

from skewhom.errors import BackendMismatchError, ZeroDivisorError
from skewhom.scalars import (
    QuadExt,
    ScalarBackend,
    as_rational,
    format_scalar,
    parse_scalar,
    quadratic_backend,
    rational_backend,
    rational_is_square,
)

from strategies import nonzero_rationals, quad_elements, rationals


def test_s_squared_is_discriminant():
    d = 1 + F(1) ** 2
    s = QuadExt(0, 1, d)
    assert s * s == 2


def test_one_is_multiplicative_identity():
    d = F(5, 4)
    one = QuadExt(1, 0, d)
    x = QuadExt(F(3, 7), F(-2, 5), d)
    assert one * x == x


def test_conjugate_pair_product():
    # (theta + s)(theta - s) = theta^2 - d = -1 for d = 1 + theta^2
    theta = F(1, 2)
    d = 1 + theta * theta
    assert QuadExt(theta, 1, d) * QuadExt(theta, -1, d) == -1


def test_quad_inv_identity():
    one = QuadExt(1, 0, F(7))
    assert one.inverse() == one


def test_quad_inv_root():
    s = QuadExt(0, 1, F(2))
    assert s.inverse() == QuadExt(0, F(1, 2), F(2))
    assert s * s.inverse() == 1


def test_quad_inv_zero_divisor():
    with pytest.raises(ZeroDivisorError):
        QuadExt(1, 1, F(1)).inverse()


def test_mismatched_discriminants_raise():
    with pytest.raises(BackendMismatchError):
        QuadExt(1, 1, F(2)) * QuadExt(1, 1, F(3))


def test_rational_is_square():
    assert rational_is_square(F(25, 16)) == F(5, 4)
    assert rational_is_square(F(2)) is None
    assert rational_is_square(F(0)) == 0
    with pytest.raises(ValueError):
        rational_is_square(F(-4))


def test_degenerate_backend_collapses_to_rationals():
    be = quadratic_backend(F(3, 4))
    assert be.degenerate
    assert be.sqrt_d == F(5, 4)
    assert isinstance(be.coerce(QuadExt(1, 2, be.d)), F)
    assert be.coerce(QuadExt(1, 2, be.d)) == 1 + 2 * F(5, 4)


def test_nondegenerate_backend_root():
    be = quadratic_backend(1)
    assert not be.degenerate
    s = be.sqrt_d
    assert s * s == 2


def test_floats_are_refused():
    with pytest.raises(ValueError, match="unknown backend kind 'float'"):
        ScalarBackend("float")
    with pytest.raises(ValueError, match="unknown backend kind 'float'"):
        ScalarBackend.from_json({"kind": "float", "tol": 1e-9})
    for be in (rational_backend(), quadratic_backend(F(1, 2))):
        with pytest.raises(TypeError):
            be.coerce(0.5)
        for value in (1.5, float("nan"), float("inf"), True, None):
            with pytest.raises(TypeError, match="not a scalar"):
                parse_scalar(value, be)
    with pytest.raises(TypeError):
        quadratic_backend(0.5)


def test_a_zero_denominator_is_a_value_error():
    for text in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            as_rational(text)
    with pytest.raises(ValueError, match="zero denominator"):
        quadratic_backend("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar({"a": "1", "b": "1/0"}, quadratic_backend(F(1, 2)))


def test_only_the_quadratic_backend_takes_theta():
    with pytest.raises(ValueError, match="takes no theta"):
        ScalarBackend("rational", F(1, 2))
    with pytest.raises(ValueError, match="designated root"):
        rational_backend().sqrt_d


def test_backend_json_round_trip():
    for be in (rational_backend(), quadratic_backend(F(1, 2))):
        assert ScalarBackend.from_json(be.to_json()) == be


def test_scalar_text_forms():
    be = quadratic_backend(1)
    s = QuadExt(F(1, 3), F(-2), be.d)
    assert format_scalar(s) == {"a": "1/3", "b": "-2"}
    assert parse_scalar(format_scalar(s), be) == s
    assert parse_scalar("5/7", be) == F(5, 7)
    assert parse_scalar("3", rational_backend()) == 3
    assert format_scalar(F(5, 7)) == "5/7"


def test_quad_pow_and_division():
    be = quadratic_backend(1)
    x = QuadExt(F(2), F(3), be.d)
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()
    assert (x / x) == 1
    assert (1 / x) == x.inverse()


@given(rationals(), rationals(), rationals())
def test_rational_multiplication_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(nonzero_rationals())
def test_rational_inverse(x):
    assert x * (1 / x) == 1


@given(quad_elements(F(2)), quad_elements(F(2)))
def test_conjugation_is_ring_homomorphism(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@given(quad_elements(F(5, 4)), quad_elements(F(5, 4)))
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(rationals())
def test_discriminant_is_positive(theta):
    assert 1 + theta * theta > 0


@given(quad_elements(F(2)))
def test_sign_matches_real_embedding(x):
    import math

    approx = float(x.a) + float(x.b) * math.sqrt(2.0)
    if abs(approx) > 1e-9:
        assert x.sign() == (1 if approx > 0 else -1)


def test_quad_hash_consistent_with_rational_equality():
    assert hash(QuadExt(F(3, 2), 0, F(2))) == hash(F(3, 2))
    assert QuadExt(F(3, 2), 0, F(2)) == F(3, 2)
