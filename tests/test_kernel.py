"""The sparse integer-pair kernel against the dense reference scans.

Exact backends decide where an identity first fails with the kernel; with
``algebra._sparse`` turned off the same public checkers run their dense
loops over all ordered positions, which is the reference here.  Verdicts,
witness positions and ``repr`` of the residuals must agree.
"""

import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skewhom import algebra
from skewhom.algebra import (
    HomAlgebra,
    TwistSign,
    Witness,
    algebra_to_dict,
    bracket_eval,
    check_hom_jacobi,
    check_morphism,
    check_power_sign_law,
    check_twist_sign,
    classify,
)
from skewhom.constructions import (
    GlContext,
    ad_alpha_squared_counterexample,
    alpha_block,
    build_gl_alpha,
    build_semi_euclidean,
)
from skewhom.errors import BackendMismatchError, CounterexampleNotFoundError, SkewhomError
from skewhom.linalg import (
    identity,
    mat_col,
    mat_pow,
    mat_vec,
    vec_add,
    vec_is_zero,
    vec_neg,
    vec_sub,
    zero_vec,
)
from skewhom.scalars import QuadExt, float_backend, quadratic_backend, rational_backend

# theta = 1/2 gives Q(sqrt 5) as d = 5/4; theta = 3/4 gives d = 25/16, a
# perfect square, whose backend collapses to rationals (the raw QuadExt
# entries below keep the formal ring Q[s]/(s**2 - 25/16) instead).
RATIONAL = rational_backend()
HALF = quadratic_backend(F(1, 2))
DEGENERATE = quadratic_backend(F(3, 4))
FLOAT = float_backend()


def outcomes(g, powers=(1, 2), residual=repr):
    """Everything the rerouted checkers report on ``g``, in comparable form.

    Each witness residual is passed through ``residual``.
    """

    def witness(w):
        return None if w is None else (w.at, residual(w.residual), w.note)

    def run(fn):
        # a zero divisor in det (formal perfect-square ring) must surface alike
        try:
            return fn()
        except SkewhomError as exc:
            return type(exc).__name__

    jacobi = check_hom_jacobi(g)
    sign = check_twist_sign(g)
    verdict = run(lambda: classify(g))
    out = [
        (jacobi.passed, witness(jacobi.witness)),
        (sign.sign, sign.abelian, sign.both, witness(sign.witness)),
        verdict if isinstance(verdict, str) else
        (verdict.verdict, verdict.regular, witness(verdict.witness)),
    ]
    for m in powers:
        report = run(lambda: check_power_sign_law(g, m))
        out.append(report if isinstance(report, str) else (report.passed, witness(report.witness)))
    return out


def dense_outcomes(g, powers=(1, 2), residual=repr):
    with mock.patch.object(algebra, "_sparse", lambda g: False):
        return outcomes(g, powers, residual)


def typed_by_the_kernel(g):
    """A ``residual`` for :func:`outcomes` that asserts the exact type rule and keeps the values.

    Every entry is a ``QuadExt`` when ``g``'s kernel has a discriminant and
    a ``Fraction`` otherwise, as exact ``bracket_eval`` types its entries.
    """
    kind = QuadExt if g.kernel.d is not None else F

    def check(residual):
        assert all(type(x) is kind for x in residual), residual
        return residual

    return check


def scalars(kind):
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if kind == "rational":
        return small
    if kind == "float":
        return small.map(float)
    d = F(5, 4) if kind == "half" else F(25, 16)
    return st.one_of(small, st.builds(lambda a, b: QuadExt(a, b, d), small, small))


@st.composite
def tables(draw, kind):
    """``(n, pairs, twist, backend)``: random sparse i<j pairs and a twist, n = 2..5."""
    n = draw(st.integers(min_value=2, max_value=5))
    entry = st.one_of(st.just(F(0)), st.just(F(0)), scalars(kind))
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs[(i, j)] = tuple(draw(entry) for _ in range(n))
    shape = draw(st.sampled_from(("random", "identity", "minus", "signs")))
    if shape == "random":
        twist = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    else:
        diag = [draw(st.sampled_from((F(1), F(-1)))) if shape == "signs" else
                F(1 if shape == "identity" else -1) for _ in range(n)]
        twist = tuple(tuple(diag[r] if r == c else F(0) for c in range(n)) for r in range(n))
    backend = {"rational": RATIONAL, "half": HALF, "degenerate": DEGENERATE, "float": FLOAT}[kind]
    return n, pairs, twist, backend


def algebras(kind):
    return tables(kind).map(lambda t: HomAlgebra.from_pairs(*t))


@pytest.mark.parametrize("kind", ["rational", "half", "degenerate"])
def test_kernel_matches_dense_scans_on_random_tables(kind):
    # the witness residuals are equal entry by entry; on tables that mix
    # Fraction and QuadExt scalars the dense ones keep Fraction components
    @settings(max_examples=60, deadline=None)
    @given(algebras(kind))
    def check(g):
        assert outcomes(g, residual=typed_by_the_kernel(g)) == dense_outcomes(g, residual=tuple)

    check()


@pytest.mark.parametrize("kind", ["rational", "half", "degenerate"])
def test_pair_and_dense_constructors_agree_on_random_tables(kind):
    # the dense table is the one the pairs stood for: rational zeros, each
    # pair and its negation
    @settings(max_examples=40, deadline=None)
    @given(tables(kind))
    def check(t):
        n, pairs, twist, backend = t
        table = [[zero_vec(n)] * n for _ in range(n)]
        for (i, j), value in pairs.items():
            table[i][j], table[j][i] = value, vec_neg(value)
        sparse = HomAlgebra.from_pairs(n, pairs, twist, backend)
        dense = HomAlgebra(n, tuple(map(tuple, table)), twist, backend)
        assert outcomes(sparse) == outcomes(dense)
        assert algebra_to_dict(sparse) == algebra_to_dict(dense)

    check()


def mutated(g, i, j, k, delta, twist_factor=1):
    table = [list(row) for row in g.bracket]
    value = list(table[i][j])
    value[k] = value[k] + delta
    table[i][j] = tuple(value)
    table[j][i] = tuple(-x for x in value)
    twist = tuple(tuple(twist_factor * x for x in row) for row in g.twist)
    return HomAlgebra(g.dim, tuple(map(tuple, table)), twist, g.backend)


def gl2(theta):
    alpha, backend = alpha_block(2, theta)
    return build_gl_alpha(GlContext(2, alpha, backend))


FAMILIES = {
    (name, theta): build(theta)
    for theta in (F(0), F(1), F(1, 2), F(3, 4))
    for name, build in (("se4", lambda t: build_semi_euclidean(t)[0]), ("gl2", gl2))
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES, key=str)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] != p[1]),
    st.integers(0, 3),
    st.sampled_from((-2, -1, 1, 2, F(1, 3))),
    st.sampled_from((1, 1, -1, 2)),
)
def test_kernel_matches_dense_scans_on_mutated_families(family, pair, k, delta, factor):
    g = mutated(FAMILIES[family], *pair, k, delta, factor)
    assert outcomes(g, powers=(1, 2, 3)) == dense_outcomes(g, powers=(1, 2, 3))


# float backends keep the dense scans
FLOAT_FAMILIES = {
    (name, theta): build(theta)
    for theta in (0.5, 0.3)
    for name, build in (("se4", lambda t: build_semi_euclidean(t)[0]), ("gl2", gl2))
}


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.sampled_from(sorted({**FAMILIES, **FLOAT_FAMILIES}, key=str)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] != p[1]),
    st.integers(0, 3),
    st.sampled_from((0, -1, 1, 2, F(1, 3))),
    st.sampled_from((1, 1, -1, 2)),
    st.integers(1, 3),
)
def test_power_sign_law_is_the_bracket_law_of_check_morphism(
    both_paths, family, pair, k, delta, factor, m
):
    g = mutated({**FAMILIES, **FLOAT_FAMILIES}[family], *pair, k, delta, factor)

    def laws(g):
        power = check_power_sign_law(g, m).witness
        if power is not None:
            assert power.note == f"m={m}"
            power = (power.at, repr(power.residual))
        w = check_morphism(mat_pow(g.twist, m, g.backend), g, g, (-1) ** m).witness
        # beta^m commutes with beta, so the morphism can fail only in its bracket law
        assert w is None or w.at[0] == "bracket"
        return power, None if w is None else (w.at[1:], repr(w.residual))

    for power, morphism in both_paths(laws, g):
        assert power == morphism


def test_kernel_matches_dense_on_the_paper_families():
    for g in FAMILIES.values():
        assert outcomes(g, powers=(1, 2, 3)) == dense_outcomes(g, powers=(1, 2, 3))


def reference_twist_sign(g):
    """The dense candidate scan ``check_twist_sign`` ran before it became the
    bracket law with both signs admissible: every ordered pair, skipping
    pairs whose two sides vanish.  ``abelian`` marks the zero bracket only."""
    beta = [mat_col(g.twist, i) for i in range(g.dim)]
    candidates, at = {1, -1}, None
    for i, j in itertools.product(range(g.dim), repeat=2):
        lhs, rhs = mat_vec(g.twist, g.bracket[i][j]), bracket_eval(g, beta[i], beta[j])
        if vec_is_zero(lhs, g.backend) and vec_is_zero(rhs, g.backend):
            continue
        if not vec_is_zero(vec_sub(lhs, rhs), g.backend):
            candidates.discard(1)
        if not vec_is_zero(vec_add(lhs, rhs), g.backend):
            candidates.discard(-1)
        if not candidates:
            at = (i, j)
            break
    abelian = all(vec_is_zero(v, g.backend) for v in g.pairs.values())
    if at is not None:
        i, j = at
        lhs, rhs = mat_vec(g.twist, g.bracket[i][j]), bracket_eval(g, beta[i], beta[j])
        plus = vec_sub(lhs, rhs)
        residual = plus if not vec_is_zero(plus, g.backend) else vec_add(lhs, rhs)
        return TwistSign(None, Witness(at, residual), abelian)
    if abelian or candidates == {1, -1}:
        return TwistSign(1, None, abelian, both=True)
    return TwistSign(candidates.pop())


def twist_sign_outcome(ts):
    w = ts.witness
    return ts.sign, ts.abelian, ts.both, None if w is None else (w.at, repr(w.residual))


@pytest.mark.parametrize("kind", ["rational", "half", "float"])
def test_twist_sign_matches_the_reference_candidate_scan(kind, both_paths):
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(algebras(kind))
    def check(g):
        want = twist_sign_outcome(reference_twist_sign(g))
        for got in both_paths(check_twist_sign, g):
            assert twist_sign_outcome(got) == want

    check()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.sampled_from(sorted({**FAMILIES, **FLOAT_FAMILIES}, key=str)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] != p[1]),
    st.integers(0, 3),
    st.sampled_from((0, -1, 1, 2, F(1, 3))),
    st.sampled_from((1, 1, -1, 2, 0)),
)
def test_twist_sign_matches_the_reference_on_mutated_families(
    both_paths, family, pair, k, delta, factor
):
    g = mutated({**FAMILIES, **FLOAT_FAMILIES}[family], *pair, k, delta, factor)
    want = twist_sign_outcome(reference_twist_sign(g))
    for got in both_paths(check_twist_sign, g):
        assert twist_sign_outcome(got) == want


@pytest.mark.parametrize("backend", [RATIONAL, HALF, FLOAT], ids=lambda b: b.kind)
def test_zero_twist_on_a_nonzero_bracket_keeps_both_signs(backend, both_paths):
    # beta = 0 makes both sides of every pair vanish: no sign is ruled out,
    # and +1 is reported as both signs holding, not as an abelian bracket
    one = backend.coerce(1)
    zero = backend.coerce(0)
    g = HomAlgebra.from_pairs(
        3, {(0, 1): (zero, zero, one)}, ((zero,) * 3,) * 3, backend, (zero,) * 3
    )
    assert g.pairs
    for got in both_paths(check_twist_sign, g):
        assert twist_sign_outcome(got) == twist_sign_outcome(reference_twist_sign(g))
        assert (got.sign, got.abelian, got.both, got.witness) == (1, False, True, None)


@pytest.mark.parametrize("m, theta", [(2, F(0)), (2, F(1, 2)), (4, F(0))])
def test_squared_twist_scan_matches_dense_scan(m, theta):
    ctx = GlContext(m, *alpha_block(m, theta))

    def scan():
        try:
            at, residual = ad_alpha_squared_counterexample(ctx)
        except CounterexampleNotFoundError:
            return None
        return at, repr(residual)

    sparse = scan()
    with mock.patch.object(algebra, "_sparse", lambda g: False):
        assert sparse == scan()


def test_rational_entries_on_a_quadratic_backend_take_the_kernel():
    # a cached power of an equal QuadExt twist must not leak its scalar
    # types into the power of this rational twist, and a quadratic morphism
    # gives a rational algebra's kernel its discriminant
    d = HALF.d
    mat_pow(((QuadExt(0, 0, d), F(0)), (F(0), QuadExt(3, 0, d))), 2, HALF)
    g = HomAlgebra.from_pairs(2, {}, ((F(0), F(0)), (F(0), F(3))), HALF)
    assert outcomes(g) == dense_outcomes(g)
    h = HomAlgebra.from_pairs(3, {(0, 1): (F(0), F(0), F(1))}, identity(3), HALF)
    f = ((QuadExt(0, 1, d), 0, 0), (0, QuadExt(0, 1, d), 0), (0, 0, F(5, 4)))
    sparse = check_morphism(f, h, h, 1)
    with mock.patch.object(algebra, "_sparse", lambda g: False):
        dense = check_morphism(f, h, h, 1)
    assert sparse.passed and dense.passed


def test_a_float_morphism_of_an_exact_algebra_scans_densely():
    for g in (FAMILIES[("se4", F(0))], mutated(FAMILIES[("gl2", F(0))], 0, 1, 2, 1)):
        f = tuple(tuple(float(r == c) for c in range(g.dim)) for r in range(g.dim))
        for sign in (1, -1):
            sparse = check_morphism(f, g, g, sign)
            with mock.patch.object(algebra, "_sparse", lambda g: False):
                dense = check_morphism(f, g, g, sign)
            assert (sparse.passed, repr(sparse.witness)) == (dense.passed, repr(dense.witness))


def test_float_sign_laws_skip_a_pair_whose_two_sides_are_within_tolerance():
    # both sides of pair (0, 1) are below the tolerance, their sum is not: the
    # pair carries no information, for the morphism and power laws as for the
    # twist sign
    twist = ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0))
    g = HomAlgebra.from_pairs(3, {(0, 1): (0.0, 0.0, 8e-10)}, twist, FLOAT)
    assert check_power_sign_law(g, 1).passed
    assert check_morphism(g.twist, g, g, -1).passed
    assert twist_sign_outcome(check_twist_sign(g)) == (1, True, True, None)


def test_mixed_discriminants_raise():
    bracket = {(0, 1): (F(0), F(0), QuadExt(1, 1, F(5, 4)))}
    twist = ((QuadExt(0, 1, F(2)), 0, 0), (0, 1, 0), (0, 0, 1))
    g = HomAlgebra.from_pairs(3, bracket, twist, HALF)
    for check in (check_hom_jacobi, check_twist_sign, lambda g: check_power_sign_law(g, 1)):
        with pytest.raises(BackendMismatchError, match="mixed discriminants"):
            check(g)
