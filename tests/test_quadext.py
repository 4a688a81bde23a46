"""The integer-form ``QuadExt`` against the frozen-dataclass one it replaced.

``DataclassQuadExt`` (in ``reference.py``) stores two ``Fraction`` fields,
normalises every result and lifts every rational operand; ``QuadExt`` stores
``(p + q*s) / r`` as integers and does neither.  For each operation, over
mixed ``int``/``Fraction``/``QuadExt`` operands, both must give the same
outcome: the same value of the same type, or the same exception.  Every
result, after any chain of operations, must be in canonical form.
"""

import copy
import math
import operator
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewhom import scalars
from skewhom.errors import BackendMismatchError, ZeroDivisorError
from skewhom.linalg import det
from skewhom.scalars import QuadExt, as_rational, quadratic_backend

from reference import DataclassQuadExt
from strategies import rationals

# non-square discriminants, one given as an int, and a perfect square one
# (whose ring has zero divisors)
DISCRIMINANTS = (F(2), 2, F(5, 4), F(25, 16))

# zero often, since a zero field takes a fast path of the product
fields = st.one_of(st.sampled_from((0, F(0))), st.integers(-6, 6), rationals(9, 5))


@st.composite
def operands(draw):
    """``(new, reference)``: a rational twice, or one element in both classes."""
    if draw(st.booleans()):
        x = draw(fields)
        return x, x
    a, b, d = draw(fields), draw(fields), draw(st.sampled_from(DISCRIMINANTS))
    return QuadExt(a, b, d), DataclassQuadExt(a, b, d)


def outcome(op, *args):
    """The result of ``op(*args)`` in a comparable form, or the exception's type.

    An element of either class reads as ``("quad", a, b, d)``, after checking
    that its fields are ``Fraction``s; anything else keeps its own type.
    """
    try:
        result = op(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    if isinstance(result, (QuadExt, DataclassQuadExt)):
        assert {type(result.a), type(result.b), type(result.d)} == {F}
        return "quad", result.a, result.b, result.d
    return type(result), result


def result_or_none(op, *args):
    try:
        return op(*args)
    except BackendMismatchError:
        return None


def is_quad(x):
    return isinstance(x, (QuadExt, DataclassQuadExt))


BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "==": operator.eq,
}

UNARY = {
    "neg": operator.neg,
    "hash": hash,
    "bool": bool,
    "sign": lambda x: x.sign() if is_quad(x) else scalars.sign(x),
}


@pytest.mark.parametrize("name", sorted(BINARY))
@given(operands(), operands())
def test_binary_operations_match_the_reference(name, x, y):
    (nx, rx), (ny, ry) = x, y
    op = BINARY[name]
    got, want = outcome(op, nx, ny), outcome(op, rx, ry)
    assert got == want
    if is_quad(nx) and is_quad(ny) and nx.d != ny.d:
        assert got is BackendMismatchError
    if isinstance(want, tuple) and want[0] == "quad":
        assert type(op(nx, ny)) is QuadExt


@pytest.mark.parametrize("name", sorted(UNARY))
@given(operands())
def test_unary_operations_match_the_reference(name, x):
    nx, rx = x
    op = UNARY[name]
    assert outcome(op, nx) == outcome(op, rx)


@given(operands(), st.integers(-3, 4))
def test_integer_powers_match_the_reference(x, n):
    nx, rx = x
    assert outcome(operator.pow, nx, n) == outcome(operator.pow, rx, n)


@given(operands(), operands())
def test_results_are_immutable(x, y):
    (nx, _), (ny, _) = x, y
    for value in (nx, ny, result_or_none(operator.mul, nx, ny), result_or_none(operator.add, nx, ny)):
        if not isinstance(value, QuadExt):
            continue
        for name in ("a", "b", "d"):
            with pytest.raises(AttributeError):
                setattr(value, name, F(1))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        # an element is built in __new__, so __init__ has nothing to rewrite
        fields = (value.p, value.q, value.r, value.disc, hash(value))
        value.__init__(7, 0, 3)
        assert (value.p, value.q, value.r, value.disc, hash(value)) == fields


def test_the_public_constructor_normalises_its_fields():
    x = QuadExt(2, "1/3", 5)
    assert (x.a, x.b, x.d) == (F(2), F(1, 3), F(5))
    assert {type(x.a), type(x.b), type(x.d)} == {F}
    with pytest.raises(TypeError):
        QuadExt(0.5, 0, 2)


def test_copies_and_pickles_are_equal_elements():
    x = QuadExt(F(1, 2), F(-3), F(5, 4))
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is QuadExt and y == x and y.d == x.d


def test_calling_init_again_leaves_a_dict_key_in_place():
    x = QuadExt(1, 2, 5)
    table = {x: "kept"}
    x.__init__(7, 0, 3)
    assert repr(x) == "QuadExt(1, 2, d=5)" and table[x] == "kept"
    assert table[QuadExt(1, 2, 5)] == "kept"


def test_a_backend_shares_one_discriminant_and_decides_degeneracy_once(monkeypatch):
    be = quadratic_backend(1)
    s = be.sqrt_d
    assert s.d is be.d and (s * s).d is be.d and (s + 1).d is be.d
    degenerate = quadratic_backend(F(3, 4))

    def refuse(q):
        raise AssertionError("rational_is_square ran again")

    monkeypatch.setattr(scalars, "rational_is_square", refuse)
    assert be.coerce(QuadExt(1, 2, 2)) == QuadExt(1, 2, 2)
    assert degenerate.coerce(QuadExt(1, 2, degenerate.d)) == 1 + 2 * F(5, 4)
    assert not be.degenerate and degenerate.degenerate


class _ExpandingFraction(F):
    """Stands in for ``Fraction`` so that no string reaches the real constructor."""

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, str):
            raise AssertionError(f"{numerator!r} reached Fraction")
        return super().__new__(cls, numerator, denominator)


def test_a_decimal_exponent_past_the_bound_is_refused_before_expansion(monkeypatch):
    bound = scalars.MAX_DECIMAL_EXPONENT
    assert as_rational(f"1e{bound}") == 10**bound
    assert as_rational(f"-2.5E-{bound}") == F(-25, 10 ** (bound + 1))
    monkeypatch.setattr(scalars, "Fraction", _ExpandingFraction)
    for text in ("1e2000000000", "1E+2000000000", "-3.5e-2000000000", "1e2_000_000_000 ",
                 f"1e{bound + 1}", "1e99999999999999999999999999999999"):
        with pytest.raises(ValueError, match="decimal exponent"):
            as_rational(text)


# --- canonical form: (p + q*s) / r with r > 0 and gcd(p, q, r) == 1

STEPS = {
    "+": operator.add,
    "-": operator.sub,
    "r-": lambda x, y: y - x,
    "*": operator.mul,
    "/": operator.truediv,
    "r/": lambda x, y: y / x,
    "neg": lambda x, y: -x,
    "conjugate": lambda x, y: x.conjugate(),
    "inverse": lambda x, y: x.inverse(),
    "pow": lambda x, y: x ** 3,
}


def assert_canonical(x):
    """``x`` has integer fields in canonical form, equal to the constructor's for its value."""
    assert type(x) is QuadExt
    assert {type(x.p), type(x.q), type(x.r)} == {int}
    assert x.r > 0 and math.gcd(x.p, x.q, x.r) == 1
    assert (x.a, x.b) == (F(x.p, x.r), F(x.q, x.r))
    same = QuadExt(x.a, x.b, x.d)
    assert (same.p, same.q, same.r) == (x.p, x.q, x.r)
    assert same == x and hash(same) == hash(x)
    if not x.q:
        assert x == x.a and hash(x) == hash(x.a)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is QuadExt and (y.p, y.q, y.r, y.d) == (x.p, x.q, x.r, x.d)
        assert hash(y) == hash(x)


@st.composite
def chains(draw):
    """A start element and up to eight ``(step, operand)`` pairs over one discriminant."""
    d = draw(st.sampled_from(DISCRIMINANTS))
    elements = st.builds(lambda a, b: QuadExt(a, b, d), fields, fields)
    steps = st.tuples(st.sampled_from(sorted(STEPS)), st.one_of(fields, elements, elements))
    return draw(elements), draw(st.lists(steps, max_size=8))


@given(chains())
def test_every_result_of_a_chain_is_canonical(chain):
    x, steps = chain
    assert_canonical(x)
    ref = DataclassQuadExt(x.a, x.b, x.d)
    for name, y in steps:
        ry = DataclassQuadExt(y.a, y.b, y.d) if isinstance(y, QuadExt) else y
        try:
            z = STEPS[name](x, y)
        except ZeroDivisorError:
            continue
        ref = STEPS[name](ref, ry) if name != "conjugate" else DataclassQuadExt(ref.a, -ref.b, ref.d)
        assert_canonical(z)
        assert (z.a, z.b) == (ref.a, ref.b)
        x = z


@given(chains())
def test_equal_values_computed_two_ways_have_equal_fields(chain):
    x, steps = chain
    for _, y in steps:
        pairs = [(x * y, y * x), (x + y - y, x), (x - y + y, x), (-(-x), x)]
        # a nonzero element of the perfect-square ring can have norm 0
        if y.norm() if isinstance(y, QuadExt) else y:
            pairs.append((x * y / y, x))
        if x.norm():
            pairs.append((x.inverse().inverse(), x))
        for u, v in pairs:
            assert (u.p, u.q, u.r) == (v.p, v.q, v.r) and hash(u) == hash(v)


def test_an_inverse_with_a_negative_norm_keeps_a_positive_denominator():
    be = quadratic_backend(1)
    s = be.sqrt_d
    assert s.norm() == -2
    inv = s.inverse()
    assert (inv.p, inv.q, inv.r) == (0, 1, 2)
    assert det(((s, 1), (1, s))) == 1
    x = QuadExt(1, 3, 2)  # norm 1 - 18 < 0
    assert_canonical(x.inverse())
    assert x * x.inverse() == 1
