"""Representations of skew-Hom-Lie algebras and the morphism equivalence.

A representation of ``(g, [.,.], beta)`` on V with respect to an invertible
companion map phi is a linear map rho into matrices on V satisfying

    rho(beta(x)) . phi = -phi . rho(x)                             (compat)
    rho([x, y]) . phi  = rho(beta(x)) . rho(y) - rho(beta(y)) . rho(x)

When phi**2 = -id, rho satisfies both equations exactly when it is a skew
morphism into the gl(V) algebra built from phi; ``theorem_equivalence`` runs
both verdicts side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from random import Random
from typing import Optional, Tuple, Union

from ._kernel import Rep
from .algebra import (
    MAX_DIM,
    CheckReport,
    HomAlgebra,
    Witness,
    check_morphism,
    read_json,
    write_json,
)
from .constructions import GlContext, alpha_block, build_gl_alpha, resolve_algebra
from .errors import DimensionError, FileFormatError, PreconditionError, SkewhomError
from .linalg import (
    Mat,
    det,
    flatten,
    identity,
    mat,
    mat_eq,
    mat_mul,
    mat_neg,
    transpose,
    zero_mat,
)
from .scalars import PARSE_ERRORS, format_scalar, parse_int, parse_scalar


@dataclass(frozen=True)
class Representation:
    """Per-basis matrices rho(e_i) on an m-dimensional space, plus phi."""

    g: HomAlgebra
    m: int
    rho: Tuple[Mat, ...]
    phi: Mat

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", tuple(mat(r) for r in self.rho))
        object.__setattr__(self, "phi", mat(self.phi))
        if len(self.rho) != self.g.dim:
            raise DimensionError(
                f"need one matrix per basis element, got {len(self.rho)}"
            )
        for idx, r in enumerate(self.rho):
            if len(r) != self.m or any(len(row) != self.m for row in r):
                raise DimensionError(f"rho[{idx}] must be {self.m}x{self.m}")
        if len(self.phi) != self.m or any(len(row) != self.m for row in self.phi):
            raise DimensionError(f"phi must be {self.m}x{self.m}")
        if not det(self.phi):
            raise PreconditionError("companion map phi must be invertible")

    @cached_property
    def entries(self) -> tuple:
        """Every entry of the rho(e_i) and of phi."""
        return tuple(x for r in self.rho + (self.phi,) for row in r for x in row)

    @cached_property
    def kernel(self) -> Rep:
        """rho, rho(beta e_i) and phi as sparse integer pairs.

        The algebra's kernel takes part, or one with the discriminant of
        rho and phi if the algebra's scalars are rational; mixed
        discriminants raise :class:`BackendMismatchError`.
        """
        return Rep(self.g.kernel_with(self.entries), self.rho, self.phi)


def zero_representation(g: HomAlgebra, m: int, phi: Optional[Mat] = None) -> Representation:
    """All rho(e_i) = 0; passes both representation equations for any phi."""
    return Representation(g, m, (zero_mat(m, m),) * g.dim, phi if phi is not None else identity(m))


def check_representation(rep: Representation) -> CheckReport:
    """Verify both defining equations on all basis vectors and pairs.

    The witness is the first failing basis vector of the compatibility
    equation, else the first failing ordered pair of the bracket equation,
    with the m x m residual that the scan summed there.  The bracket residual
    ``rho([e_i,e_j]) phi - rho(beta e_i) rho(e_j) + rho(beta e_j) rho(e_i)``
    changes sign when i and j are swapped, because the bracket is
    antisymmetric and the other two terms trade places, and it vanishes for
    i = j.  So a failing ordered pair has i != j, its swap fails too, and
    ``(j, i)`` comes after ``(i, j)`` in lexicographic order for i < j: the
    first failing ordered pair is the first failing i < j pair.

    Both equations are decided on :attr:`Representation.kernel`, over i < j
    pairs.  It holds the bracket over a positive scale ``L_C``, the twist
    over ``L_t``, every rho(e_i) over ``L_rho`` and phi over ``L_phi``, so
    each term is its true value times a product of scales; the terms of one
    equation are brought to a common scale by positive integer factors,
    which keep a zero residual zero and a nonzero one nonzero:

    * compat, ``rho(beta e_i) phi + phi rho(e_i)``: the first term is over
      ``L_t * L_rho * L_phi`` and the second over ``L_rho * L_phi``, which
      is multiplied by ``L_t``;
    * bracket: ``rho([e_i,e_j]) phi`` is over ``L_C * L_rho * L_phi`` and
      the two products over ``L_t * L_rho**2``; the first is multiplied by
      ``L_t * L_rho`` and the products by ``L_C * L_phi``.

    Each residual entry is a ``QuadExt`` exactly when the kernel has a
    discriminant.  A float in rho or phi raises ``TypeError``.
    """
    failure = rep.kernel.first_failure()
    return CheckReport(True) if failure is None else CheckReport(False, Witness(*failure))


def representation_as_morphism_matrix(rep: Representation) -> Mat:
    """rho as an (m**2 x n) matrix into the row-major matrix-unit basis."""
    return transpose(mat(flatten(r) for r in rep.rho))


def theorem_equivalence(rep: Representation) -> Tuple[CheckReport, CheckReport]:
    """Run the representation check and the morphism check side by side.

    Requires phi**2 = -id; the target is the gl(V) algebra built from phi
    with its conjugation twist, and the morphism is checked with sign -1.
    The two verdicts agree for every input.
    """
    backend = rep.g.backend
    if not mat_eq(mat_mul(rep.phi, rep.phi), mat_neg(identity(rep.m))):
        raise PreconditionError("phi**2 = -id is required for the equivalence")
    rep_verdict = check_representation(rep)
    target = build_gl_alpha(GlContext(rep.m, rep.phi, backend))
    f = representation_as_morphism_matrix(rep)
    morphism_verdict = check_morphism(f, rep.g, target, sign=-1)
    return rep_verdict, morphism_verdict


def search_representation(
    g: HomAlgebra,
    m: int,
    budget: int,
    seed: int = 0,
) -> Optional[Representation]:
    """Seeded random search for a representation on an m-dimensional space.

    Candidates are sparse integer matrices with entries in {-1, 0, 1}; the
    companion map cycles through block-diagonal alpha_theta matrices (even m)
    or the identity (odd m).  Returns the first candidate passing
    :func:`check_representation`, or ``None`` once the budget is exhausted.
    The all-zero candidate is skipped; :func:`zero_representation` gives it.
    """
    if m < 1:
        raise ValueError("representation space dimension must be positive")
    backend = g.backend
    phis = []
    if m % 2 == 0:
        thetas = [0]
        if backend.kind == "quadratic" and backend.theta != 0:
            thetas.append(backend.theta)
        for theta in thetas:
            phis.append(alpha_block(m, theta, backend)[0])
    else:
        phis.append(identity(m))

    rng = Random(seed)
    entries = (-1, 0, 0, 0, 1)
    zero = backend.coerce(0)
    for attempt in range(budget):
        rho = tuple(
            tuple(
                tuple(backend.coerce(rng.choice(entries)) for _ in range(m))
                for _ in range(m)
            )
            for _ in range(g.dim)
        )
        if all(all(x == zero for x in flatten(r)) for r in rho):
            continue
        candidate = Representation(g, m, rho, phis[attempt % len(phis)])
        if check_representation(candidate).passed:
            return candidate
    return None


# ---------------------------------------------------------------------------
# Representation file format: {"algebra", "m", "rho", "phi"}; "algebra" is a
# path to an algebra file or a builtin family name, read by resolve_algebra,
# that must be == g when g is given; an error in it is located at "algebra".


def representation_to_dict(rep: Representation, algebra_ref: str) -> dict:
    return {
        "algebra": algebra_ref,
        "m": rep.m,
        "rho": [[[format_scalar(x) for x in row] for row in r] for r in rep.rho],
        "phi": [[format_scalar(x) for x in row] for row in rep.phi],
    }


def representation_from_dict(obj: dict, g: Optional[HomAlgebra] = None) -> Representation:
    if not isinstance(obj, dict):
        raise FileFormatError("representation document must be a JSON object")
    ref = obj.get("algebra")
    if not isinstance(ref, str):
        raise FileFormatError("missing algebra reference", location="algebra")
    try:
        named = resolve_algebra(ref)
    except (OSError, SkewhomError, ValueError) as exc:
        raise FileFormatError(str(exc), location="algebra") from exc
    if g is not None and named != g:
        raise FileFormatError(f"{ref!r} is not the algebra given", location="algebra")
    g = named
    backend = g.backend
    try:
        m = parse_int(obj["m"])
        rho = tuple(
            mat(tuple(parse_scalar(x, backend) for x in row) for row in r)
            for r in obj["rho"]
        )
        phi = mat(tuple(parse_scalar(x, backend) for x in row) for row in obj["phi"])
    except PARSE_ERRORS as exc:
        raise FileFormatError(f"bad representation: {exc}", location="rho/phi") from exc
    if m > MAX_DIM:
        raise FileFormatError(f"dimension {m} exceeds the limit of {MAX_DIM}", location="m")
    try:
        return Representation(g, m, rho, phi)
    except (DimensionError, PreconditionError) as exc:
        raise FileFormatError(str(exc), location="document") from exc


def save_representation(rep: Representation, algebra_ref: str, path: Union[str, Path]) -> None:
    write_json(representation_to_dict(rep, algebra_ref), path)


def load_representation(path: Union[str, Path], g: Optional[HomAlgebra] = None) -> Representation:
    return representation_from_dict(read_json(path), g)
