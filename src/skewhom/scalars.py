"""Exact scalar arithmetic over pluggable backends.

Two element kinds share one calling convention: exact rationals
(``fractions.Fraction``) and elements of the quadratic extension generated by
a square root of a positive rational.  All scalars of one computation live in
a single backend; the backend object owns coercion and the text forms used by
the file formats.  Floats are refused.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BackendMismatchError, ZeroDivisorError

Rational = Fraction

# The largest decimal exponent ("1e4300") a scalar string may carry, the digit
# count CPython's int() accepts from a string by default.  Fraction expands an
# exponent into a power of ten, so "1e2000000000" alone would ask for ~830 MB.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def as_rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce ints, ``"p/q"`` strings, and Fractions to an exact rational.

    A zero denominator raises ``ValueError``, like any other malformed string,
    and so does a decimal exponent past ``MAX_DECIMAL_EXPONENT`` in absolute
    value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        _check_exponent(value)
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _check_exponent(text: str) -> None:
    match = _EXPONENT.search(text)
    if match is None:
        return
    digits = match.group(1).replace("_", "").lstrip("0")
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"decimal exponent in {text[:40]!r} exceeds {MAX_DECIMAL_EXPONENT} in absolute value"
        )


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


class QuadExt:
    """Element ``a + b*s`` of the ring Q[s]/(s**2 - d).

    Every operand of one expression must carry the same discriminant ``d``.
    When ``d`` is not a perfect rational square the ring is a field and each
    nonzero element is invertible; otherwise :meth:`inverse` can hit a zero
    divisor and raises.

    Elements are immutable: assigning a field raises ``AttributeError``.
    ``QuadExt(a, b, d)`` normalises each field with :func:`as_rational`;
    arithmetic results are built by :func:`_quad` from fields that are
    already ``Fraction``s.  An ``int`` or ``Fraction`` operand is used as is,
    not lifted to a ``QuadExt``.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d) -> None:
        _set_a(self, as_rational(a))
        _set_b(self, as_rational(b))
        _set_d(self, as_rational(d))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"QuadExt is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"QuadExt is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return QuadExt, (self.a, self.b, self.d)

    def _same_d(self, other: "QuadExt") -> Fraction:
        d = self.d
        if other.d is not d and other.d != d:
            raise BackendMismatchError(f"mixed discriminants {d} and {other.d}")
        return d

    def _lift(self, other: object) -> Optional["QuadExt"]:
        if isinstance(other, QuadExt):
            self._same_d(other)
            return other
        if isinstance(other, (int, Fraction)):
            return _quad(as_rational(other), _ZERO, self.d)
        return None

    def __add__(self, other: object) -> "QuadExt":
        if isinstance(other, QuadExt):
            return _quad(self.a + other.a, self.b + other.b, self._same_d(other))
        if isinstance(other, (int, Fraction)):
            return _quad(self.a + other, self.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadExt":
        if isinstance(other, QuadExt):
            return _quad(self.a - other.a, self.b - other.b, self._same_d(other))
        if isinstance(other, (int, Fraction)):
            return _quad(self.a - other, self.b, self.d)
        return NotImplemented

    def __rsub__(self, other: object) -> "QuadExt":
        if isinstance(other, (int, Fraction)):
            return _quad(other - self.a, -self.b, self.d)
        return NotImplemented

    def __mul__(self, other: object) -> "QuadExt":
        if isinstance(other, QuadExt):
            d = self._same_d(other)
            a, b, c, e = self.a, self.b, other.a, other.b
            if not b:
                return _quad(a * c, a * e, d)
            if not e:
                return _quad(a * c, b * c, d)
            return _quad(a * c + b * e * d, a * e + b * c, d)
        if isinstance(other, (int, Fraction)):
            return _quad(self.a * other, self.b * other, self.d)
        return NotImplemented

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
        return _quad(-self.a, -self.b, self.d)

    def __pow__(self, exponent: int) -> "QuadExt":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = _quad(_ONE, _ZERO, self.d)
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
            self._same_d(other)
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        # b == 0 elements must hash like the rationals they equal
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def conjugate(self) -> "QuadExt":
        return _quad(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Conjugate norm ``a**2 - b**2 * d`` (a plain rational)."""
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisorError(f"{self} has conjugate norm 0")
        return _quad(self.a / n, -self.b / n, self.d)

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


_set_a, _set_b, _set_d = QuadExt.a.__set__, QuadExt.b.__set__, QuadExt.d.__set__
_new = object.__new__
_ZERO, _ONE = Fraction(0), Fraction(1)


def _quad(a: Fraction, b: Fraction, d: Fraction) -> QuadExt:
    """``QuadExt(a, b, d)`` for fields that are already ``Fraction``s, unnormalised."""
    q = _new(QuadExt)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


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
            # one discriminant object, shared by every element of this backend
            d = 1 + self.theta * self.theta
            root = rational_is_square(d)
            object.__setattr__(self, "_d", d)
            object.__setattr__(self, "_root", root if root is not None else _quad(_ZERO, _ONE, d))
            object.__setattr__(self, "_degenerate", root is not None)
        elif self.theta is not None:
            raise ValueError(f"a {self.kind} backend takes no theta")
        else:
            object.__setattr__(self, "_degenerate", False)

    @property
    def d(self) -> Fraction:
        """Extension discriminant ``1 + theta**2`` (quadratic backends only)."""
        if self.kind != "quadratic":
            raise ValueError("discriminant exists only for quadratic backends")
        return self._d

    @property
    def degenerate(self) -> bool:
        """True when the designated root is itself rational."""
        return self._degenerate

    @property
    def sqrt_d(self) -> Union[Fraction, QuadExt]:
        """The designated square root of ``1 + theta**2`` as a backend scalar."""
        if self.kind != "quadratic":
            raise ValueError("only a quadratic backend carries a designated root")
        return self._root

    def coerce(self, value: object):
        """Normalize ``value`` into this backend's scalar type; a float raises ``TypeError``."""
        if isinstance(value, QuadExt):
            if self.kind != "quadratic" or (value.d is not self._d and value.d != self._d):
                raise BackendMismatchError(f"{value!r} does not belong to this backend")
            if self._degenerate:
                return value.a + value.b * self._root
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
