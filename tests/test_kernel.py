"""The sparse integer-pair kernel against the dense reference scans.

The public checkers decide where an identity first fails with the kernel;
``tests/reference.py`` keeps their dense loops over all ordered positions,
which are the reference here.  Verdicts, witness positions and ``repr`` of
the residuals must agree, except on tables that mix ``Fraction`` and
``QuadExt`` scalars, where residuals agree in value and the kernel's follow
its type rule.
"""

import itertools
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference
from reference import mat_col

from skewhom import algebra
from skewhom.algebra import (
    HomAlgebra,
    TwistSign,
    Witness,
    algebra_to_dict,
    check_hom_jacobi,
    check_morphism,
    check_power_sign_law,
    check_twist_sign,
)
from skewhom.constructions import (
    GlContext,
    ad_alpha_squared_counterexample,
    ad_alpha_squared_matrix,
    alpha_block,
    build_gl_alpha,
    build_semi_euclidean,
)
from skewhom.errors import BackendMismatchError, CounterexampleNotFoundError, SkewhomError
from skewhom.linalg import (
    flatten,
    identity,
    mat,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_vec,
    transpose,
    vec_add,
    vec_is_zero,
    vec_neg,
    vec_sub,
    zero_vec,
)
from skewhom.scalars import QuadExt, quadratic_backend, rational_backend

# theta = 1/2 gives Q(sqrt 5) as d = 5/4; theta = 3/4 gives d = 25/16, a
# perfect square, whose backend collapses to rationals (the raw QuadExt
# entries below keep the formal ring Q[s]/(s**2 - 25/16) instead).
RATIONAL = rational_backend()
HALF = quadratic_backend(F(1, 2))
DEGENERATE = quadratic_backend(F(3, 4))


def outcomes(g, powers=(1, 2), residual=repr, checks=algebra):
    """Everything the kernel-backed checkers report on ``g``, in comparable form.

    ``checks`` is the module whose checkers run; each witness residual is
    passed through ``residual``.
    """

    def witness(w):
        return None if w is None else (w.at, residual(w.residual), w.note)

    def run(fn):
        # a zero divisor in det (formal perfect-square ring) must surface alike
        try:
            return fn()
        except SkewhomError as exc:
            return type(exc).__name__

    jacobi = checks.check_hom_jacobi(g)
    sign = checks.check_twist_sign(g)
    verdict = run(lambda: checks.classify(g))
    out = [
        (jacobi.passed, witness(jacobi.witness)),
        (sign.sign, sign.abelian, sign.both, witness(sign.witness)),
        verdict if isinstance(verdict, str) else
        (verdict.verdict, verdict.regular, witness(verdict.witness)),
    ]
    for m in powers:
        report = run(lambda: checks.check_power_sign_law(g, m))
        out.append(report if isinstance(report, str) else (report.passed, witness(report.witness)))
    return out


def dense_outcomes(g, powers=(1, 2), residual=repr):
    return outcomes(g, powers, residual, checks=reference)


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
    backend = {"rational": RATIONAL, "half": HALF, "degenerate": DEGENERATE}[kind]
    return n, pairs, twist, backend


def algebras(kind):
    return tables(kind).map(lambda t: HomAlgebra(*t))


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
        sparse = HomAlgebra(n, pairs, twist, backend)
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


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES, key=str)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] != p[1]),
    st.integers(0, 3),
    st.sampled_from((0, -1, 1, 2, F(1, 3))),
    st.sampled_from((1, 1, -1, 2)),
    st.integers(1, 3),
)
def test_power_sign_law_is_the_bracket_law_of_check_morphism(family, pair, k, delta, factor, m):
    g = mutated(FAMILIES[family], *pair, k, delta, factor)

    def laws(checks):
        power = checks.check_power_sign_law(g, m).witness
        if power is not None:
            assert power.note == f"m={m}"
            power = (power.at, repr(power.residual))
        w = checks.check_morphism(mat_pow(g.twist, m), g, g, (-1) ** m).witness
        # beta^m commutes with beta, so the morphism can fail only in its bracket law
        assert w is None or w.at[0] == "bracket"
        return power, None if w is None else (w.at[1:], repr(w.residual))

    for checks in (algebra, reference):
        power, morphism = laws(checks)
        assert power == morphism


def kernel_bracket_failure(f, g, h, signs):
    """The bracket law of ``f`` from ``g`` into ``h`` as the checkers run it."""
    source, target, t = algebra._compiled(f, g, h)
    return target.first_sign_failure(source, t, signs)


def bracket_laws(f, g, h):
    """The kernel's bracket-law scan into the second algebra ``h`` and its
    ordered-pair reference, for each set of signs.

    Residuals are compared by value: the reference's dense ``bracket_eval``
    types a component by its own terms, the kernel's by its discriminant.
    """

    def run(scan, signs):
        left, failure = scan(f, g, h, set(signs))
        return left, None if failure is None else (failure[0], tuple(failure[1]))

    assert h is not g
    sign_sets = ({1}, {-1}, {1, -1})
    return [run(kernel_bracket_failure, s) for s in sign_sets], [
        run(reference.bracket_failure, s) for s in sign_sets
    ]


@pytest.mark.parametrize("kind", ["rational", "half", "degenerate"])
def test_bracket_law_into_a_second_algebra_matches_the_ordered_scan_on_random_maps(kind):
    @settings(max_examples=40, deadline=None)
    @given(algebras(kind), algebras(kind), st.data())
    def check(g, h, data):
        entry = st.one_of(st.just(F(0)), scalars(kind))
        f = tuple(tuple(data.draw(entry) for _ in range(g.dim)) for _ in range(h.dim))
        got, want = bracket_laws(f, g, h)
        assert got == want

    check()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES, key=str)),
    st.sampled_from(("twist", "identity")),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.sampled_from((0, -1, 1, 2, F(1, 3))),
)
def test_bracket_law_into_a_second_algebra_matches_the_ordered_scan_on_mutated_maps(
    family, base, at, delta
):
    # h is a second copy of g, so f = beta keeps -1 and f = id keeps +1 until mutated
    g = FAMILIES[family]
    h = HomAlgebra(g.dim, g.pairs, g.twist, g.backend)
    f = [list(row) for row in (g.twist if base == "twist" else identity(g.dim))]
    f[at[0]][at[1]] += delta
    got, want = bracket_laws(tuple(map(tuple, f)), g, h)
    assert got == want
    if not delta:
        assert got[0 if base == "identity" else 1] == ({1} if base == "identity" else {-1}, None)


def morphism_outcome(report):
    """Verdict, witness position and residual values of a ``check_morphism`` report.

    Residuals are compared by value, as in :func:`bracket_laws`.
    """
    w = report.witness
    if w is None:
        return report.passed, None
    return report.passed, w.at, w.residual if w.at[0] == "twist" else tuple(w.residual)


def assert_morphism_matches_the_reference(f, g, h, sign):
    assert h is not g
    got = morphism_outcome(check_morphism(f, g, h, sign))
    assert got == morphism_outcome(reference.check_morphism(f, g, h, sign))
    return got


def ad_g(m, theta, backend):
    """``Ad_G`` on gl(R^m)'s matrix units, from the theta = 0 member onto the theta member.

    ``G`` has one block ``[[1, theta], [0, s]]`` per block of ``alpha_block``,
    so ``G alpha(0) G^-1 = alpha(theta)``, and ``Ad_G`` is an isomorphism.
    """
    zero, one, th = backend.coerce(0), backend.coerce(1), backend.coerce(theta)
    G = [[zero] * m for _ in range(m)]
    for b in range(0, m, 2):
        G[b][b], G[b][b + 1], G[b + 1][b + 1] = one, th, backend.sqrt_d
    G = mat(G)
    G_inv = mat_inv(G)
    units = reference.matrix_units(m)
    return transpose(mat(flatten(mat_mul(mat_mul(G, e), G_inv)) for e in units))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((F(1, 2), F(1), F(3, 4), F(-7, 3))),
    st.sampled_from((1, -1)),
    st.booleans(),
    st.one_of(
        st.none(),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from((1, -1, F(1, 3), "s"))),
    ),
)
def test_check_morphism_matches_the_reference_on_the_isomorphism_onto_a_theta_member(
    theta, sign, backwards, mutation
):
    # X(0) on theta's backend is rational-valued and X(theta) is quadratic
    # (rational at theta = 3/4), so the scan runs on a view of X(0)'s kernel
    backend = quadratic_backend(theta)
    source, target = build_gl_alpha(GlContext(2, *alpha_block(2, 0, backend))), gl2(theta)
    f = [list(row) for row in ad_g(2, theta, backend)]
    if mutation is not None:
        r, c, delta = mutation
        f[r][c] += backend.sqrt_d if delta == "s" else delta
    f = mat(f)
    if backwards:
        source, target = target, source
    got = assert_morphism_matches_the_reference(f, source, target, sign)
    assert got[0] == (mutation is None and sign == 1 and not backwards)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((F(1, 2), F(1), F(3, 4), F(-7, 3))),
    st.sampled_from(("source", "target")),
    st.one_of(
        st.none(),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from((1, -1, F(1, 3), "s"))),
    ),
)
def test_intertwining_law_matches_the_reference_on_mutated_twists(theta, side, mutation):
    # the bracket law of Ad_G holds whatever the twists are, so a mutated
    # twist fails the intertwining law, at a witness the kernels locate
    backend = quadratic_backend(theta)
    g, h = build_gl_alpha(GlContext(2, *alpha_block(2, 0, backend))), gl2(theta)
    if mutation is not None:
        r, c, delta = mutation
        x = g if side == "source" else h
        twist = [list(row) for row in x.twist]
        twist[r][c] += backend.sqrt_d if delta == "s" else delta
        x = HomAlgebra(x.dim, x.pairs, mat(twist), x.backend)
        g, h = (x, h) if side == "source" else (g, x)
    f = ad_g(2, theta, backend)
    got = check_morphism(f, g, h, 1)
    assert repr(got) == repr(reference.check_morphism(f, g, h, 1))
    assert got.passed == (mutation is None)
    assert got.passed or got.witness.at[0] == "twist"


@pytest.mark.parametrize("theta", [F(1, 2), F(-7, 3)])
def test_check_morphism_passes_the_isomorphism_onto_a_gl4_theta_member(theta):
    backend = quadratic_backend(theta)
    source = build_gl_alpha(GlContext(4, *alpha_block(4, 0, backend)))
    target = build_gl_alpha(GlContext(4, *alpha_block(4, theta)))
    assert assert_morphism_matches_the_reference(ad_g(4, theta, backend), source, target, 1) == (
        True,
        None,
    )


@pytest.mark.parametrize("kind", ["rational", "half", "degenerate"])
def test_check_morphism_into_gl_v_matches_the_reference_on_non_square_maps(kind):
    # f = rho as an m**2 x n matrix into gl(R^m), as theorem_equivalence builds it
    theta = {"rational": F(0), "half": F(1, 2), "degenerate": F(3, 4)}[kind]

    @settings(max_examples=30, deadline=None)
    @given(algebras(kind), st.data())
    def check(g, data):
        m = 2
        backend = g.backend if g.backend.kind == "quadratic" else None
        h = build_gl_alpha(GlContext(m, *alpha_block(m, theta, backend)))
        h = HomAlgebra(h.dim, h.pairs, h.twist, g.backend)
        entry = st.one_of(st.just(F(0)), st.just(F(0)), scalars(kind))
        zero = data.draw(st.booleans())
        f = tuple(
            tuple(F(0) if zero else data.draw(entry) for _ in range(g.dim)) for _ in range(m * m)
        )
        got = assert_morphism_matches_the_reference(f, g, h, data.draw(st.sampled_from((1, -1))))
        assert got[0] or not zero

    check()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted({t for _, t in FAMILIES})),
    st.sampled_from((("se4", "gl2"), ("gl2", "se4"), ("se4", "se4"), ("gl2", "gl2"))),
    st.sampled_from(("twist", "identity")),
    st.sampled_from((1, -1)),
    st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from((1, -1, 2)))),
)
def test_check_morphism_matches_the_reference_between_family_members(
    theta, names, base, sign, mutation
):
    # a member into a copy of itself keeps its own identity and twist as
    # passing maps, until they are mutated
    g = FAMILIES[(names[0], theta)]
    h = FAMILIES[(names[1], theta)]
    h = HomAlgebra(h.dim, h.pairs, h.twist, h.backend)
    f = [list(row) for row in (g.twist if base == "twist" else identity(g.dim))]
    if mutation is not None:
        r, c, delta = mutation
        f[r][c] += delta
    got = assert_morphism_matches_the_reference(mat(f), g, h, sign)
    if names[0] == names[1] and mutation is None and base == "identity":
        assert got[0] == (sign == 1)


def test_kernel_matches_dense_on_the_paper_families():
    for g in FAMILIES.values():
        assert outcomes(g, powers=(1, 2, 3)) == dense_outcomes(g, powers=(1, 2, 3))


def reference_twist_sign(g):
    """The dense candidate scan ``check_twist_sign`` ran before it became the
    bracket law with both signs admissible: every ordered pair, skipping
    pairs whose two sides vanish, with the reference's dense bracket.
    ``abelian`` marks the zero bracket only."""
    bracket_eval = reference.bracket_eval
    beta = [mat_col(g.twist, i) for i in range(g.dim)]
    candidates, at = {1, -1}, None
    for i, j in itertools.product(range(g.dim), repeat=2):
        lhs, rhs = mat_vec(g.twist, g.bracket[i][j]), bracket_eval(g, beta[i], beta[j])
        if vec_is_zero(lhs) and vec_is_zero(rhs):
            continue
        if not vec_is_zero(vec_sub(lhs, rhs)):
            candidates.discard(1)
        if not vec_is_zero(vec_add(lhs, rhs)):
            candidates.discard(-1)
        if not candidates:
            at = (i, j)
            break
    abelian = all(vec_is_zero(v) for v in g.pairs.values())
    if at is not None:
        i, j = at
        lhs, rhs = mat_vec(g.twist, g.bracket[i][j]), bracket_eval(g, beta[i], beta[j])
        plus = vec_sub(lhs, rhs)
        residual = plus if not vec_is_zero(plus) else vec_add(lhs, rhs)
        return TwistSign(None, Witness(at, residual), abelian)
    if abelian or candidates == {1, -1}:
        return TwistSign(1, None, abelian, both=True)
    return TwistSign(candidates.pop())


def twist_sign_outcome(ts, residual=tuple):
    """The reported sign and witness; the residual passes through ``residual``.

    The default compares residuals by value: on tables that mix ``Fraction``
    and ``QuadExt`` scalars a zero component is a ``Fraction`` in a dense sum
    and a ``QuadExt`` on the kernel.
    """
    w = ts.witness
    return ts.sign, ts.abelian, ts.both, None if w is None else (w.at, residual(w.residual))


def assert_twist_sign_matches_the_reference(g, both_paths):
    want = twist_sign_outcome(reference_twist_sign(g))
    fast, dense = both_paths(check_twist_sign, g)
    assert twist_sign_outcome(fast, typed_by_the_kernel(g)) == want
    assert twist_sign_outcome(dense) == want


@pytest.mark.parametrize("kind", ["rational", "half"])
def test_twist_sign_matches_the_reference_candidate_scan(kind, both_paths):
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(algebras(kind))
    def check(g):
        assert_twist_sign_matches_the_reference(g, both_paths)

    check()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.sampled_from(sorted(FAMILIES, key=str)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] != p[1]),
    st.integers(0, 3),
    st.sampled_from((0, -1, 1, 2, F(1, 3))),
    st.sampled_from((1, 1, -1, 2, 0)),
)
def test_twist_sign_matches_the_reference_on_mutated_families(
    both_paths, family, pair, k, delta, factor
):
    g = mutated(FAMILIES[family], *pair, k, delta, factor)
    assert_twist_sign_matches_the_reference(g, both_paths)


@pytest.mark.parametrize("backend", [RATIONAL, HALF], ids=lambda b: b.kind)
def test_zero_twist_on_a_nonzero_bracket_keeps_both_signs(backend, both_paths):
    # beta = 0 makes both sides of every pair vanish: no sign is ruled out,
    # and +1 is reported as both signs holding, not as an abelian bracket
    one = backend.coerce(1)
    zero = backend.coerce(0)
    g = HomAlgebra(3, {(0, 1): (zero, zero, one)}, ((zero,) * 3,) * 3, backend)
    assert g.pairs
    assert_twist_sign_matches_the_reference(g, both_paths)
    for got in both_paths(check_twist_sign, g):
        assert (got.sign, got.abelian, got.both, got.witness) == (1, False, True, None)


@pytest.mark.parametrize("m, theta", [(2, F(0)), (2, F(1, 2)), (4, F(0))])
def test_squared_twist_scan_matches_dense_scan(m, theta):
    ctx = GlContext(m, *alpha_block(m, theta))
    try:
        at, residual = ad_alpha_squared_counterexample(ctx)
        sparse = (at, repr(residual))
    except CounterexampleNotFoundError:
        sparse = None
    squared = replace(build_gl_alpha(ctx), twist=ad_alpha_squared_matrix(ctx))
    dense = reference.check_hom_jacobi(squared).witness
    assert sparse == (None if dense is None else (dense.at, repr(dense.residual)))


def test_rational_entries_on_a_quadratic_backend_take_the_kernel():
    # a cached power of an equal QuadExt twist must not leak its scalar
    # types into the power of this rational twist, and a quadratic morphism
    # gives a rational algebra's kernel its discriminant
    d = HALF.d
    mat_pow(((QuadExt(0, 0, d), F(0)), (F(0), QuadExt(3, 0, d))), 2)
    g = HomAlgebra(2, {}, ((F(0), F(0)), (F(0), F(3))), HALF)
    assert outcomes(g) == dense_outcomes(g)
    h = HomAlgebra(3, {(0, 1): (F(0), F(0), F(1))}, identity(3), HALF)
    f = ((QuadExt(0, 1, d), 0, 0), (0, QuadExt(0, 1, d), 0), (0, 0, F(5, 4)))
    assert check_morphism(f, h, h, 1).passed
    assert reference.check_morphism(f, h, h, 1).passed


def test_mixed_discriminants_raise():
    bracket = {(0, 1): (F(0), F(0), QuadExt(1, 1, F(5, 4)))}
    twist = ((QuadExt(0, 1, F(2)), 0, 0), (0, 1, 0), (0, 0, 1))
    g = HomAlgebra(3, bracket, twist, HALF)
    for check in (check_hom_jacobi, check_twist_sign, lambda g: check_power_sign_law(g, 1)):
        with pytest.raises(BackendMismatchError, match="mixed discriminants"):
            check(g)


def test_a_zero_never_picks_the_ring():
    # the two tables differ only in how the zero twist entry at (0, 1) is
    # typed, so they compare equal and must give the same witness, typed alike
    pairs = {(0, 1): (F(1), F(0), F(1)), (0, 2): (F(0), F(-1), F(0)), (1, 2): (F(1), F(0), F(0))}
    reflection = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(-1)]]
    quad_zero = [row[:] for row in reflection]
    quad_zero[0][1] = QuadExt(0, 0, F(5, 4))
    g = HomAlgebra(3, pairs, mat(quad_zero), rational_backend())
    g2 = HomAlgebra(3, pairs, mat(reflection), rational_backend())
    assert g == g2 and g.kernel.d is None
    got, want = algebra.classify(g), algebra.classify(g2)
    assert got.verdict == want.verdict and got.witness is not None
    assert repr(got.witness) == repr(want.witness)
    assert all(type(x) is F for x in got.witness.residual)
