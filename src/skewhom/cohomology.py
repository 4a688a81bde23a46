"""Alternating cochains and the degree-raising coboundary operators d^s.

A degree-k cochain eta stores one value vector per strictly increasing
k-tuple of basis indices; evaluation extends it as a k-linear alternating
map.  For each integer s >= 0 the coboundary of eta at (x_1, ..., x_{k+1})
is the two-sum expression

    sum_i (-1)^(i+1) phi^(k+1+s) rho(x_i) phi^(-k-2-s)
                       eta(beta(x_1), ..., ^x_i, ..., beta(x_{k+1}))
  + sum_{i<j} (-1)^(i+j) eta([x_i, x_j], beta(x_1), ..., ^x_{i,j}, ...,
                             beta(x_{k+1}))

with 1-based positions, hats marking removed arguments, and the bracket
argument placed first.  Whenever rho satisfies the representation equations
and the algebra is skew-Hom-Lie, d^s . d^s = 0; ``check_d_squared`` verifies
this exactly on a spanning set of basis cochains.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from .algebra import CheckReport, HomAlgebra, Witness, bracket_eval
from .errors import DimensionError, FileFormatError
from .linalg import (
    Vec,
    basis_vec,
    mat_pow,
    mat_vec,
    vec,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)
from .representation import Representation, rho_eval
from .scalars import format_scalar, parse_scalar


@dataclass(frozen=True)
class Cochain:
    """Degree, carrier dimension n, value dimension m, and the value table.

    The table maps every strictly increasing k-tuple of indices below n to a
    value vector of length m; degree 0 is a single vector keyed by ().
    """

    k: int
    n: int
    m: int
    table: Dict[Tuple[int, ...], Vec]

    def __post_init__(self) -> None:
        expected = set(itertools.combinations(range(self.n), self.k))
        keys = set(self.table)
        if keys != expected:
            raise DimensionError(
                f"degree-{self.k} cochain on {self.n} generators needs "
                f"{len(expected)} entries, got {len(keys)}"
            )
        for key, value in self.table.items():
            if len(value) != self.m:
                raise DimensionError(f"value at {key} must have length {self.m}")


def cochain(k: int, n: int, m: int, entries: Optional[dict] = None) -> Cochain:
    """Build a cochain; index tuples absent from ``entries`` get zero."""
    table = {key: zero_vec(m) for key in itertools.combinations(range(n), k)}
    for key, value in (entries or {}).items():
        key = tuple(int(i) for i in key)
        if key not in table:
            raise DimensionError(f"{key} is not a strictly increasing {k}-tuple below {n}")
        table[key] = vec(value)
    return Cochain(k, n, m, table)


def zero_cochain(k: int, n: int, m: int) -> Cochain:
    return cochain(k, n, m)


def basis_cochains(n: int, m: int, k: int):
    """Yield (key, axis, cochain) with a single basis-vector entry set."""
    for key in itertools.combinations(range(n), k):
        for axis in range(m):
            yield key, axis, cochain(k, n, m, {key: basis_vec(m, axis)})


def cochain_add(x: Cochain, y: Cochain) -> Cochain:
    if (x.k, x.n, x.m) != (y.k, y.n, y.m):
        raise DimensionError("cochain shapes differ")
    return Cochain(x.k, x.n, x.m, {key: vec_add(v, y.table[key]) for key, v in x.table.items()})


def cochain_scale(c, x: Cochain) -> Cochain:
    return Cochain(x.k, x.n, x.m, {key: vec_scale(c, v) for key, v in x.table.items()})


def _sort_with_parity(idx: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    order = list(idx)
    sign = 1
    for i in range(1, len(order)):
        j = i
        while j > 0 and order[j - 1] > order[j]:
            order[j - 1], order[j] = order[j], order[j - 1]
            sign = -sign
            j -= 1
    return tuple(order), sign


def cochain_eval(eta: Cochain, args: Sequence[Vec]) -> Vec:
    """Multilinear alternating extension of the table to arbitrary vectors."""
    if len(args) != eta.k:
        raise DimensionError(f"degree-{eta.k} cochain takes {eta.k} arguments")
    for a in args:
        if len(a) != eta.n:
            raise DimensionError(f"arguments must have length {eta.n}")
    if eta.k == 0:
        return eta.table[()]
    supports = [[j for j, c in enumerate(a) if c != 0] for a in args]
    acc = zero_vec(eta.m)
    for idx in itertools.product(*supports):
        if len(set(idx)) < eta.k:
            continue
        coeff = args[0][idx[0]]
        for t in range(1, eta.k):
            coeff = coeff * args[t][idx[t]]
        key, sign = _sort_with_parity(idx)
        acc = vec_add(acc, vec_scale(sign * coeff, eta.table[key]))
    return acc


def coboundary_at(eta: Cochain, rep: Representation, s: int, args: Sequence[Vec]) -> Vec:
    """The coboundary formula evaluated at k+1 arbitrary argument vectors."""
    if s < 0:
        raise ValueError("the operator family is indexed by s >= 0")
    g = rep.g
    k = eta.k
    if len(args) != k + 1:
        raise DimensionError(f"coboundary of a degree-{k} cochain takes {k + 1} arguments")
    backend = g.backend
    beta_args = [mat_vec(g.twist, x) for x in args]

    total = zero_vec(eta.m)
    action_is_zero = all(
        all(x == 0 for row in r for x in row) for r in rep.rho
    )
    if not action_is_zero:
        pre = mat_pow(rep.phi, k + 1 + s, backend)
        post = mat_pow(rep.phi, -(k + 2 + s), backend)
        for i in range(k + 1):
            rest = beta_args[:i] + beta_args[i + 1 :]
            w = cochain_eval(eta, rest)
            if vec_is_zero(w, backend):
                continue
            w = mat_vec(pre, mat_vec(rho_eval(rep, args[i]), mat_vec(post, w)))
            # 1-based sign (-1)^(i+1): positive at even 0-based i
            total = vec_add(total, w) if i % 2 == 0 else vec_sub(total, w)
    for i, j in itertools.combinations(range(k + 1), 2):
        head = bracket_eval(g, args[i], args[j])
        rest = [beta_args[t] for t in range(k + 1) if t not in (i, j)]
        w = cochain_eval(eta, [head] + rest)
        # 1-based sign (-1)^(i+j) equals the 0-based one
        total = vec_add(total, w) if (i + j) % 2 == 0 else vec_sub(total, w)
    return total


def coboundary(eta: Cochain, rep: Representation, s: int) -> Cochain:
    """The degree-(k+1) cochain d^s eta; above top degree it is empty."""
    n, k = eta.n, eta.k
    if k + 1 > n:
        return Cochain(k + 1, n, eta.m, {})
    basis = [basis_vec(n, i) for i in range(n)]
    table = {
        key: coboundary_at(eta, rep, s, [basis[t] for t in key])
        for key in itertools.combinations(range(n), k + 1)
    }
    return Cochain(k + 1, n, eta.m, table)


def check_d_squared(
    g: HomAlgebra,
    rep: Representation,
    k: int,
    s: int,
    residuals: Optional[list] = None,
) -> CheckReport:
    """Verify d^s(d^s(eta)) = 0 exactly on every degree-k basis cochain.

    Linearity of the operator extends the verdict to all degree-k cochains.
    The witness names the basis cochain (key, axis), the output tuple, and
    the residual vector.  Given a list as ``residuals``, the scan goes on
    past the first failure and appends ``(key, axis, nonzero)`` for every
    basis cochain, ``nonzero`` mapping each output tuple whose residual is
    not zero to that residual, in sorted order; the report is the same.
    """
    if rep.g != g:
        rep = replace(rep, g=g)
    witness = None
    for key, axis, eta in basis_cochains(g.dim, rep.m, k):
        twice = coboundary(coboundary(eta, rep, s), rep, s)
        nonzero = {}
        for out_key in sorted(twice.table):
            value = twice.table[out_key]
            if not vec_is_zero(value, g.backend):
                if witness is None:
                    witness = Witness((key, axis, out_key), value, note=f"k={k} s={s}")
                if residuals is None:
                    return CheckReport(False, witness)
                nonzero[out_key] = value
        if residuals is not None:
            residuals.append((key, axis, nonzero))
    return CheckReport(witness is None, witness)


# ---------------------------------------------------------------------------
# Cochain file format: {"k": int, "entries": [{"indices": [...], "value": [...]}]}


def cochain_to_dict(eta: Cochain) -> dict:
    entries = []
    for key in sorted(eta.table):
        value = eta.table[key]
        if vec_is_zero(value):
            continue
        entries.append(
            {"indices": list(key), "value": [format_scalar(x) for x in value]}
        )
    return {"k": eta.k, "entries": entries}


def cochain_from_dict(obj: dict, n: int, m: int, backend) -> Cochain:
    if not isinstance(obj, dict) or "k" not in obj:
        raise FileFormatError("cochain document must be an object with a degree")
    try:
        k = int(obj["k"])
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"bad degree: {exc}", location="k") from exc
    if not 0 <= k <= n:
        raise FileFormatError(f"degree {k} is outside 0..{n}", location="k")
    entries = {}
    for idx, entry in enumerate(obj.get("entries", [])):
        where = f"entries[{idx}]"
        try:
            key = tuple(int(i) for i in entry["indices"])
            value = vec(parse_scalar(x, backend) for x in entry["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"bad entry: {exc}", location=where) from exc
        if key in entries:
            raise FileFormatError(f"duplicate indices {key}", location=where)
        entries[key] = value
    try:
        return cochain(k, n, m, entries)
    except DimensionError as exc:
        raise FileFormatError(str(exc), location="entries") from exc


def save_cochain(eta: Cochain, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(cochain_to_dict(eta), indent=2) + "\n", encoding="utf-8")


def load_cochain(path: Union[str, Path], n: int, m: int, backend) -> Cochain:
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"not valid JSON: {exc.msg}", location=f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    return cochain_from_dict(obj, n, m, backend)
