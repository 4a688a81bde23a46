"""Scalars into and out of the integer-pair kernel, and the zeros on the way.

``Kernel.pairs`` converts scalars to integer pairs over one scale with
integer arithmetic, reading a ``QuadExt``'s ``p``, ``q`` and ``r``;
``tests/reference.py`` keeps the ``Fraction``-based conversion it replaced,
and the two must give the same pairs, the same scale and the same
exceptions, on constructed elements and on arithmetic results alike.
``Kernel.scalar`` must bring each pair back to the element it came from.  The dense ``HomAlgebra`` table check adds
only the entries where a side is nonzero; ``reference.antisymmetry_failure``
adds every entry.  Zeros coming out of the kernel and out of ``vec_neg``
keep their type, so reports print them as before.
"""

import fractions
import operator
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import DataclassQuadExt

from skewhom._kernel import Kernel
from skewhom.algebra import HomAlgebra, bracket_eval
from skewhom.cohomology import cochain, coboundary
from skewhom.constructions import build_semi_euclidean
from skewhom.errors import BackendMismatchError, ZeroDivisorError
from skewhom.linalg import identity, vec_neg
from skewhom.representation import Representation
from skewhom.scalars import QuadExt, quadratic_backend

# 5/4 and 13/9 have dd > 1; 25/16 is a perfect square with dd > 1
DISCRIMINANTS = [None, F(2), F(5, 4), F(13, 9), F(25, 16)]
OTHER = F(7, 3)  # a discriminant no kernel below has


def kernel(d):
    """A one-dimensional kernel whose discriminant is ``d``."""
    return Kernel(1, {}, ((F(1),),)).over(d)


def rationals():
    small = st.fractions(min_value=-50, max_value=50, max_denominator=60)
    large = st.builds(
        F, st.integers(min_value=-(10**40), max_value=10**40), st.integers(1, 10**40)
    )
    return st.one_of(small, large)


def results(d):
    """Arithmetic results over ``d``: their ``r`` has been reduced, not built from two fields."""

    def apply(op, x, y):
        try:
            return op(x, y)
        except ZeroDivisorError:
            return x

    small = st.fractions(min_value=-50, max_value=50, max_denominator=60)
    quads = st.builds(lambda a, b: QuadExt(a, b, d), small, small)
    ops = st.sampled_from(
        [operator.add, operator.sub, operator.mul, operator.truediv, lambda x, y: x.inverse()]
    )
    return st.builds(apply, ops, quads, st.one_of(quads, small, st.integers(-9, 9)))


def values(d):
    """Exact scalars a kernel with discriminant ``d`` converts, zeros of every type included."""
    zeros = [0, False, F(0), QuadExt(0, 0, OTHER)] + ([] if d is None else [QuadExt(0, 0, d)])
    zeros = st.sampled_from(zeros)
    parts = [zeros, st.integers(min_value=-(10**30), max_value=10**30), st.booleans(), rationals()]
    if d is not None:
        parts.append(st.builds(lambda a, b: QuadExt(a, b, d), rationals(), rationals()))
        parts.append(results(d))
    return st.one_of(*parts)


@pytest.mark.parametrize("d", DISCRIMINANTS, ids=str)
def test_pairs_match_the_fraction_conversion(d):
    k = kernel(d)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(values(d), max_size=12))
    def check(xs):
        assert k.pairs(iter(xs)) == reference.kernel_pairs(k, xs)

    check()


@pytest.mark.parametrize("d", [F(2), F(5, 4), F(13, 9), F(25, 16)], ids=str)
def test_pairs_and_scalar_round_trip_arithmetic_results(d):
    k = kernel(d)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(results(d), min_size=1, max_size=6))
    def check(xs):
        pairs, scale = k.pairs(iter(xs))
        assert (pairs, scale) == reference.kernel_pairs(k, xs)
        for x, pair in zip(xs, pairs):
            a, b = pair or (0, 0)
            back = k.scalar((a, b), scale)
            want = DataclassQuadExt(F(a, scale), F(b * k.dd, scale), d)
            assert type(back) is QuadExt and (back.a, back.b) == (want.a, want.b)
            assert back == x and (back.p, back.q, back.r) == (x.p, x.q, x.r)

    check()


@pytest.mark.parametrize(
    "d, xs",
    [
        (None, [F(1), 1.5]),
        (None, [0.0]),
        (F(5, 4), [QuadExt(1, 1, F(5, 4)), -0.0, F(1, 3)]),
        (F(5, 4), [F(1, 2), QuadExt(1, 1, F(13, 9))]),
        (F(13, 9), [QuadExt(0, 1, F(5, 4))]),
        (None, [F(1), QuadExt(0, 1, F(2))]),
        (F(2), [QuadExt(0, 0, F(5, 4)), "1"]),
    ],
)
def test_pairs_raise_like_the_fraction_conversion(d, xs):
    k = kernel(d)
    with pytest.raises((TypeError, BackendMismatchError)) as ours:
        k.pairs(xs)
    with pytest.raises((TypeError, BackendMismatchError)) as ref:
        reference.kernel_pairs(k, xs)
    assert (type(ours.value), str(ours.value)) == (type(ref.value), str(ref.value))


def fractions_calls(fn):
    """The ``fractions`` functions that ``fn()`` calls, other than the read-only ones."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            seen.add(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return seen - {"numerator", "denominator", "__bool__", "__eq__"}


def test_pairs_build_no_fraction():
    d = F(13, 9)
    k = kernel(d)
    xs = [F(3, 7), F(0), 5, QuadExt(F(1, 2), F(4, 5), d), QuadExt(0, 0, d), QuadExt(0, F(26, 3), d)]
    assert fractions_calls(lambda: k.pairs(xs)) == set()
    # the hook sees what the reference conversion builds
    assert fractions_calls(lambda: reference.kernel_pairs(k, xs))


# --- the dense table's antisymmetry check

HALF = quadratic_backend(F(1, 2))
HALF_D = HALF.d


def dense_entry():
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    zero = st.sampled_from([F(0), QuadExt(0, 0, HALF_D)])
    return st.one_of(zero, zero, small, st.builds(lambda a, b: QuadExt(a, b, HALF_D), small, small))


@st.composite
def dense_tables(draw):
    """An n x n table that is antisymmetric except where a draw breaks it, n = 1..4."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = dense_entry()
    zero = st.sampled_from([F(0), QuadExt(0, 0, HALF_D)])
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = tuple(draw(zero) for _ in range(n))
        for j in range(i + 1, n):
            value = tuple(draw(entry) for _ in range(n))
            table[i][j] = value
            # a zero's mirror is a zero of either type
            table[j][i] = tuple(draw(zero) if not a else -a for a in value)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i, j, c = (draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(3))
        row = list(table[i][j])
        row[c] = draw(entry)
        table[i][j] = tuple(row)
    return n, tuple(map(tuple, table))


@settings(max_examples=200, deadline=None)
@given(dense_tables())
def test_dense_check_fails_where_the_full_sum_does(t):
    n, table = t
    at = reference.antisymmetry_failure(table)
    if at is None:
        g = HomAlgebra(n, table, identity(n), HALF)
        assert all(g.bracket_at(i, j) == table[i][j] for i in range(n) for j in range(n))
    else:
        with pytest.raises(ValueError) as info:
            HomAlgebra(n, table, identity(n), HALF)
        assert str(info.value) == f"bracket is not antisymmetric at {at}"


def test_dense_check_reports_a_one_sided_violation():
    zero = (F(0), F(0))
    table = ((zero, (F(1), F(0))), (zero, zero))
    with pytest.raises(ValueError, match=r"^bracket is not antisymmetric at \(0, 1\)$"):
        HomAlgebra(2, table, identity(2), HALF)
    # a QuadExt zero on one side and a nonzero on the other
    q0 = QuadExt(0, 0, HALF_D)
    table = (((q0, q0), (q0, q0)), ((QuadExt(0, 1, HALF_D), q0), zero))
    with pytest.raises(ValueError, match=r"^bracket is not antisymmetric at \(0, 1\)$"):
        HomAlgebra(2, table, identity(2), HALF)
    # a diagonal entry counts twice
    table = ((zero, zero), (zero, (F(0), QuadExt(1, 0, HALF_D))))
    with pytest.raises(ValueError, match=r"^bracket is not antisymmetric at \(1, 1\)$"):
        HomAlgebra(2, table, identity(2), HALF)


def test_dense_check_accepts_zeros_of_two_types_across_the_diagonal():
    q0 = QuadExt(0, 0, HALF_D)
    one = QuadExt(1, 0, HALF_D)
    table = (
        ((F(0), q0), (one, F(0))),
        ((-one, q0), (q0, F(0))),
    )
    g = HomAlgebra(2, table, identity(2), HALF)
    assert g.pairs == {(0, 1): (one, F(0))}


# --- zeros keep their type on the way out


SE4_RATIONAL = build_semi_euclidean(0)[0]
SE4_HALF = build_semi_euclidean(F(1, 2))[0]


@pytest.mark.parametrize(
    "g, printed",
    [(SE4_RATIONAL, "Fraction(0, 1)"), (SE4_HALF, "QuadExt(0, 0, d=5/4)")],
    ids=["rational", "quadratic"],
)
def test_bracket_eval_and_coboundary_zeros_print_by_the_kernel_type(g, printed):
    # the se4 bracket is (a, 0, 0, a): components 1 and 2 are zero
    value = bracket_eval(g, (1, 2, 0, 1), (0, 1, 3, -1))
    assert [repr(value[1]), repr(value[2])] == [printed] * 2
    assert value[0] and value[3]
    # the adjoint representation, with rho(e_i) column c = [e_i, e_c]
    rho = tuple(
        tuple(tuple(g.bracket_at(i, c)[r] for c in range(4)) for r in range(4)) for i in range(4)
    )
    rep = Representation(g, 4, rho, g.twist)
    eta = cochain(1, 4, 4, {(0,): (F(1), F(0), F(2), F(0)), (2,): (F(0), F(1), F(0), F(0))})
    image = coboundary(eta, rep, 1)
    entries = [x for v in image.table.values() for x in v]
    assert any(entries) and not all(entries)
    assert {repr(x) for x in entries if not x} == {printed}


def test_kernel_scalar_zeros_print_as_before():
    assert repr(kernel(None).scalar((0, 0), 6)) == "Fraction(0, 1)"
    k = kernel(F(13, 9))
    assert repr(k.scalar((0, 0), 6)) == "QuadExt(0, 0, d=13/9)"
    assert repr(k.scalar((4, 0), 6)) == "QuadExt(2/3, 0, d=13/9)"
    assert repr(k.scalar((0, 2), 6)) == "QuadExt(0, 3, d=13/9)"


def test_vec_neg_returns_zero_entries_as_they_are():
    # exact zeros have no sign, so negating one keeps its value, type and text
    u = (F(0), QuadExt(0, 0, HALF_D), 0, F(2), QuadExt(1, -1, HALF_D))
    out = vec_neg(u)
    assert [repr(x) for x in out[:3]] == [repr(x) for x in u[:3]]
    assert out[3:] == (F(-2), QuadExt(-1, 1, HALF_D))
