"""Exact scalar arithmetic over pluggable backends.

Two element kinds share one calling convention: exact rationals
(``fractions.Fraction``) and elements of the quadratic extension generated by
a square root of a positive rational.  All scalars of one computation live in
a single backend; the backend object owns coercion and the text forms used by
the file formats.  Floats are refused.

A :class:`QuadExt` is held as the integers ``(p + q*s) / r`` in canonical
form (``r > 0``, ``gcd(p, q, r) == 1``), so its arithmetic needs no
``Fraction``; its ``Fraction`` fields ``a`` and ``b`` are computed on read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BackendMismatchError, ZeroDivisorError

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


def _fraction_sign(q: Union[int, Fraction]) -> int:
    return (q > 0) - (q < 0)


class QuadExt:
    """Element ``a + b*s`` of the ring Q[s]/(s**2 - d).

    An element is stored as three integers, ``(p + q*s) / r`` with
    ``r > 0`` and ``gcd(p, q, r) == 1``.  The form is canonical, so equal
    elements have equal ``p``, ``q`` and ``r``.  The discriminant is carried
    as the triple ``disc = (d, dn, dd)``, with ``d = dn/dd`` in lowest terms,
    and each result takes its triple from its operands.  ``a = p/r``,
    ``b = q/r`` and ``d`` are read-only ``Fraction`` properties.

    Every operand of one expression must carry the same discriminant ``d``.
    When ``d`` is not a perfect rational square the ring is a field and each
    nonzero element is invertible; otherwise :meth:`inverse` can hit a zero
    divisor and raises.

    Elements are immutable: assigning a field raises ``AttributeError``,
    and an element is built in ``__new__``, so calling ``__init__`` again
    changes nothing.  ``QuadExt(a, b, d)`` normalises ``a``, ``b`` and ``d``
    with :func:`as_rational`.  Arithmetic runs on the integers, with one
    three-way ``gcd`` per result, and an ``int`` or ``Fraction`` operand is
    used as is, not lifted to a ``QuadExt``.
    """

    __slots__ = ("p", "q", "r", "disc")

    def __new__(cls, a, b, d) -> "QuadExt":
        a, b, d = as_rational(a), as_rational(b), as_rational(d)
        r = math.lcm(a.denominator, b.denominator)
        p, q = a.numerator * (r // a.denominator), b.numerator * (r // b.denominator)
        return _reduced(p, q, r, (d, d.numerator, d.denominator))

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.r)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.r)

    @property
    def d(self) -> Fraction:
        return self.disc[0]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"QuadExt is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"QuadExt is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return QuadExt, (self.a, self.b, self.d)

    def _same_d(self, other: "QuadExt") -> tuple:
        disc = self.disc
        if other.disc is not disc and other.disc != disc:
            raise BackendMismatchError(f"mixed discriminants {disc[0]} and {other.disc[0]}")
        return disc

    def _lift(self, other: object) -> Optional["QuadExt"]:
        if isinstance(other, QuadExt):
            self._same_d(other)
            return other
        if isinstance(other, (int, Fraction)):
            return _reduced(other.numerator, 0, other.denominator, self.disc)
        return None

    def __add__(self, other: object) -> "QuadExt":
        p, q, r = self.p, self.q, self.r
        if isinstance(other, QuadExt):
            disc = self._same_d(other)
            w = other.r
            if r == w:
                return _reduced(p + other.p, q + other.q, r, disc)
            return _reduced(p * w + other.p * r, q * w + other.q * r, r * w, disc)
        if isinstance(other, (int, Fraction)):
            m = other.denominator
            return _reduced(p * m + other.numerator * r, q * m, r * m, self.disc)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadExt":
        p, q, r = self.p, self.q, self.r
        if isinstance(other, QuadExt):
            disc = self._same_d(other)
            w = other.r
            if r == w:
                return _reduced(p - other.p, q - other.q, r, disc)
            return _reduced(p * w - other.p * r, q * w - other.q * r, r * w, disc)
        if isinstance(other, (int, Fraction)):
            m = other.denominator
            return _reduced(p * m - other.numerator * r, q * m, r * m, self.disc)
        return NotImplemented

    def __rsub__(self, other: object) -> "QuadExt":
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other: object) -> "QuadExt":
        p, q, r = self.p, self.q, self.r
        if isinstance(other, QuadExt):
            disc = self._same_d(other)
            u, v, w = other.p, other.q, other.r
            if not q:
                return _reduced(p * u, p * v, r * w, disc)
            if not v:
                return _reduced(p * u, q * u, r * w, disc)
            _, dn, dd = disc
            return _reduced(p * u * dd + q * v * dn, (p * v + q * u) * dd, r * w * dd, disc)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _reduced(p * n, q * n, r * other.denominator, self.disc)
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
        return _reduced(-self.p, -self.q, self.r, self.disc)

    def __pow__(self, exponent: int) -> "QuadExt":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = _reduced(1, 0, 1, self.disc)
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
            return self.p == other.p and self.q == other.q and self.r == other.r
        if isinstance(other, (int, Fraction)):
            return not self.q and self.p == other.numerator and self.r == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # q == 0 elements must hash like the rationals they equal
        if not self.q:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    def conjugate(self) -> "QuadExt":
        return _reduced(self.p, -self.q, self.r, self.disc)

    def _norm_numerator(self) -> int:
        """``norm() * r**2 * dd``, an integer with the sign of the norm."""
        _, dn, dd = self.disc
        return self.p * self.p * dd - self.q * self.q * dn

    def norm(self) -> Fraction:
        """Conjugate norm ``a**2 - b**2 * d`` (a plain rational)."""
        return Fraction(self._norm_numerator(), self.r * self.r * self.disc[2])

    def inverse(self) -> "QuadExt":
        n = self._norm_numerator()
        if not n:
            raise ZeroDivisorError(f"{self} has conjugate norm 0")
        # 1/x = r*dd*(p - q*s) / n, and the denominator must stay positive
        f = self.r * self.disc[2] if n > 0 else -self.r * self.disc[2]
        return _reduced(f * self.p, -f * self.q, abs(n), self.disc)

    def sign(self) -> int:
        """Sign under the real embedding with ``s`` the positive root of ``d``."""
        if self.disc[1] <= 0:
            raise ValueError("sign is defined only for positive discriminants")
        # r > 0, so p + q*s has the sign of the element
        p, q = self.p, self.q
        sa, sb = _fraction_sign(p), _fraction_sign(q)
        if not q or sa == sb:
            return sa
        if not p:
            return sb
        t = self._norm_numerator()
        if t > 0:
            return sa
        if t < 0:
            return sb
        return 0

    def __repr__(self) -> str:
        return f"QuadExt({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*s"
        op = "+" if b > 0 else "-"
        return f"{a} {op} {abs(b)}*s"


_set_p, _set_q, _set_r, _set_disc = (
    QuadExt.p.__set__, QuadExt.q.__set__, QuadExt.r.__set__, QuadExt.disc.__set__
)
_new = object.__new__


def _reduced(p: int, q: int, r: int, disc: tuple) -> QuadExt:
    """The element ``(p + q*s) / r`` for ``r > 0``, divided by ``gcd(p, q, r)``."""
    g = math.gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    x = _new(QuadExt)
    _set_p(x, p)
    _set_q(x, q)
    _set_r(x, r)
    _set_disc(x, disc)
    return x


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
            object.__setattr__(self, "_root", root if root is not None else QuadExt(0, 1, d))
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


def scalar_reader(backend: ScalarBackend):
    """:func:`parse_scalar` for one document, each distinct field parsed once and shared.

    Kept are fields of exact type ``str`` or ``int`` and objects of only ``a`` and ``b``
    with such values, so ``true`` and ``1.0`` never meet ``1``'s entry; others, and
    fields that raise, are parsed each time.
    """
    parsed: dict = {}

    def read(obj: object):
        key = (obj["a"], obj["b"]) if type(obj) is dict and obj.keys() == {"a", "b"} else (obj,)
        if any(type(x) not in (str, int) for x in key):
            return parse_scalar(obj, backend)
        value = parsed.get(key)
        if value is None:
            value = parsed[key] = parse_scalar(obj, backend)
        return value

    return read
