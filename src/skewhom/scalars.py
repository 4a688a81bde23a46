"""Exact scalar arithmetic over pluggable backends.

Two element kinds share one calling convention: exact rationals
(``fractions.Fraction``) and elements of the quadratic extension generated by
a square root of a positive rational.  All scalars of one computation live in
a single backend; the backend object owns coercion and the text forms used by
the file formats.  Floats are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BackendMismatchError, ZeroDivisorError

Rational = Fraction


def as_rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce ints, ``"p/q"`` strings, and Fractions to an exact rational.

    A zero denominator raises ``ValueError``, like any other malformed string.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_is_square(q: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root of ``q``, or ``None`` if ``q`` has none.

    Present exactly when numerator and denominator are both perfect integer
    squares.  Negative input raises ``ValueError``.
    """
    q = as_rational(q)
    if q < 0:
        raise ValueError("square test is undefined for negative rationals")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _fraction_sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


@dataclass(frozen=True, eq=False)
class QuadExt:
    """Element ``a + b*s`` of the ring Q[s]/(s**2 - d).

    Every operand of one expression must carry the same discriminant ``d``.
    When ``d`` is not a perfect rational square the ring is a field and each
    nonzero element is invertible; otherwise :meth:`inverse` can hit a zero
    divisor and raises.
    """

    a: Fraction
    b: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        object.__setattr__(self, "d", as_rational(self.d))

    def _lift(self, other: object) -> Optional["QuadExt"]:
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise BackendMismatchError(
                    f"mixed discriminants {self.d} and {other.d}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(as_rational(other), Fraction(0), self.d)
        return None

    def __add__(self, other: object) -> "QuadExt":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadExt":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other: object) -> "QuadExt":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b, self.d)

    def __mul__(self, other: object) -> "QuadExt":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadExt":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "QuadExt":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.d)

    def __pow__(self, exponent: int) -> "QuadExt":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = QuadExt(Fraction(1), Fraction(0), self.d)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise BackendMismatchError(
                    f"mixed discriminants {self.d} and {other.d}"
                )
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        # b == 0 elements must hash like the rationals they equal
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Conjugate norm ``a**2 - b**2 * d`` (a plain rational)."""
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisorError(f"{self} has conjugate norm 0")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def sign(self) -> int:
        """Sign under the real embedding with ``s`` the positive root of ``d``."""
        if self.d <= 0:
            raise ValueError("sign is defined only for positive discriminants")
        if self.b == 0:
            return _fraction_sign(self.a)
        if self.a == 0:
            return _fraction_sign(self.b)
        sa, sb = _fraction_sign(self.a), _fraction_sign(self.b)
        if sa == sb:
            return sa
        t = self.norm()
        if t > 0:
            return sa
        if t < 0:
            return sb
        return 0

    def __repr__(self) -> str:
        return f"QuadExt({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*s"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*s"


@dataclass(frozen=True)
class ScalarBackend:
    """Selects the element kind all scalars of one computation share.

    ``kind`` is ``"rational"`` or ``"quadratic"`` (the extension by
    ``sqrt(1 + theta**2)``, the only kind that takes a ``theta``).  A
    quadratic backend whose discriminant is a perfect rational square
    degenerates: its designated root is a plain rational and all arithmetic
    collapses to ``Fraction``, which avoids zero divisors in the pair
    representation.
    """

    kind: str
    theta: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.kind not in ("rational", "quadratic"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "quadratic":
            if self.theta is None:
                raise ValueError("quadratic backend requires a rational theta")
            object.__setattr__(self, "theta", as_rational(self.theta))
        elif self.theta is not None:
            raise ValueError(f"a {self.kind} backend takes no theta")

    @property
    def d(self) -> Fraction:
        """Extension discriminant ``1 + theta**2`` (quadratic backends only)."""
        if self.kind != "quadratic":
            raise ValueError("discriminant exists only for quadratic backends")
        return 1 + self.theta * self.theta

    @property
    def degenerate(self) -> bool:
        """True when the designated root is itself rational."""
        return self.kind == "quadratic" and rational_is_square(self.d) is not None

    @property
    def sqrt_d(self) -> Union[Fraction, QuadExt]:
        """The designated square root of ``1 + theta**2`` as a backend scalar."""
        if self.kind != "quadratic":
            raise ValueError("only a quadratic backend carries a designated root")
        root = rational_is_square(self.d)
        if root is not None:
            return root
        return QuadExt(Fraction(0), Fraction(1), self.d)

    def coerce(self, value: object):
        """Normalize ``value`` into this backend's scalar type; a float raises ``TypeError``."""
        if isinstance(value, QuadExt):
            if self.kind != "quadratic" or value.d != self.d:
                raise BackendMismatchError(f"{value!r} does not belong to this backend")
            if self.degenerate:
                return value.a + value.b * self.sqrt_d
            return value
        return as_rational(value)

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "quadratic", "theta": str(self.theta)}

    @staticmethod
    def from_json(obj: dict) -> "ScalarBackend":
        if not isinstance(obj, dict):
            raise TypeError(f"backend must be an object, got {obj!r}")
        kind = obj.get("kind")
        if kind == "rational":
            return rational_backend()
        if kind == "quadratic":
            return quadratic_backend(as_rational(_not_bool(obj["theta"])))
        raise ValueError(f"unknown backend kind {kind!r}")


def sign(x: object) -> int:
    """Sign of an exact scalar; a ``QuadExt`` takes its real embedding (:meth:`QuadExt.sign`)."""
    if isinstance(x, QuadExt):
        return x.sign()
    return _fraction_sign(as_rational(x))


def _not_bool(obj: object) -> object:
    """A number field of a data file as is; JSON ``true``/``false`` are refused."""
    if isinstance(obj, bool):
        raise TypeError(f"not a number: {obj!r}")
    return obj


def rational_backend() -> ScalarBackend:
    return ScalarBackend("rational")


def quadratic_backend(theta: Union[int, str, Fraction]) -> ScalarBackend:
    """Backend for the extension by ``sqrt(1 + theta**2)``, ``theta`` rational."""
    return ScalarBackend("quadratic", as_rational(theta))


def format_scalar(x: object):
    """Text form used by the file formats: ``"p/q"`` or ``{"a":..,"b":..}``."""
    if isinstance(x, QuadExt):
        return {"a": str(x.a), "b": str(x.b)}
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    raise TypeError(f"not a scalar: {x!r}")


# What parse_scalar, parse_int and ScalarBackend.from_json raise on a
# malformed or foreign field; the file loaders turn each into a located
# FileFormatError.
PARSE_ERRORS = (KeyError, TypeError, ValueError, BackendMismatchError)


def parse_int(obj: object) -> int:
    """An integer field of a data file: a JSON integer, or a string holding one."""
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise TypeError(f"not an integer: {obj!r}")
    return int(obj)


def parse_scalar(obj: object, backend: ScalarBackend):
    """Inverse of :func:`format_scalar` relative to ``backend``; a JSON float is refused."""
    if isinstance(obj, dict):
        if backend.kind != "quadratic":
            raise BackendMismatchError("quadratic scalar in a non-quadratic file")
        a, b = as_rational(obj["a"]), as_rational(obj["b"])
        return backend.coerce(QuadExt(a, b, backend.d))
    if isinstance(obj, (str, int)) and not isinstance(obj, bool):
        return backend.coerce(obj)
    raise TypeError(f"not a scalar: {obj!r}")
