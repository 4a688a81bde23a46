"""Shared hypothesis strategies for exact scalars and small vectors."""

from fractions import Fraction

from hypothesis import strategies as st

from skewhom.scalars import QuadExt


def rationals(max_num: int = 20, max_den: int = 20):
    return st.fractions(
        min_value=Fraction(-max_num), max_value=Fraction(max_num), max_denominator=max_den
    )


def nonzero_rationals(max_num: int = 20, max_den: int = 20):
    return rationals(max_num, max_den).filter(lambda q: q != 0)


def quad_elements(d: Fraction, max_num: int = 9, max_den: int = 5):
    return st.builds(
        lambda a, b: QuadExt(a, b, d),
        rationals(max_num, max_den),
        rationals(max_num, max_den),
    )


def int_vectors(n: int, bound: int = 9):
    entry = st.integers(min_value=-bound, max_value=bound).map(Fraction)
    return st.tuples(*([entry] * n))


def exact_scalars(d: Fraction):
    """An ``int``, a ``Fraction`` or a ``QuadExt`` over ``d``: typed zeros and rational-valued ``QuadExt`` included."""
    return st.one_of(
        st.sampled_from([0, Fraction(0), QuadExt(0, 0, d)]),
        st.integers(-4, 4),
        rationals(5, 4),
        rationals(5, 4).map(lambda a: QuadExt(a, 0, d)),
        quad_elements(d, 5, 4),
    )
