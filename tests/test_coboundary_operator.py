"""The matrices of the coboundary operator against the dense reference.

``check_d_squared`` builds the matrices of d^s on degrees k and k+1 once
each and decides nilpotency from their product, and ``coboundary`` applies
the degree-k matrix to a cochain; their references in ``tests/reference.py``
evaluate the dense formula.  Every column of an operator must be the dense
image of its basis cochain, every image must equal the dense one entry by
entry, and both must give the same verdict, witness and stream of failing
basis cochains with their residuals.
"""

import itertools
import math
from dataclasses import replace
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import reference
from skewhom import algebra, cohomology
from skewhom.algebra import HomAlgebra
from skewhom.cohomology import (
    _operator,
    basis_cochains,
    check_d_squared,
    cochain,
    coboundary,
    d_squared_failures,
)
from skewhom._kernel import Coboundary, Kernel
from skewhom.constructions import GlContext, alpha_block, build_gl_alpha, build_semi_euclidean
from skewhom.errors import BackendMismatchError, DimensionError
from skewhom.linalg import identity, mat, mat_mul, mat_pow, zero_mat
from skewhom.representation import Representation, check_representation, zero_representation
from skewhom.scalars import QuadExt, rational_backend

from test_kernel import FAMILIES as KERNEL_FAMILIES, HALF, mutated

# theta = 0 computes over Q, theta = 1/2 over Q(sqrt 5), and at theta = 3/4
# s = 5/4 is rational, so that backend computes in rationals too.
FAMILIES = {key: g for key, g in KERNEL_FAMILIES.items() if key[1] in (F(0), F(1, 2), F(3, 4))}


def adjoint(g):
    """rho(x) = [x, .] with phi = beta; column c of rho(e_i) is [e_i, e_c]."""
    n = g.dim
    rho = tuple(
        tuple(tuple(g.bracket[i][c][r] for c in range(n)) for r in range(n)) for i in range(n)
    )
    return Representation(g, n, rho, g.twist)


def corrupt(rep):
    """The same representation with one entry of rho(e_last) raised by 1."""
    rho = [list(map(list, r)) for r in rep.rho]
    rho[-1][0][-1] = rho[-1][0][-1] + 1
    return Representation(rep.g, rep.m, tuple(mat(r) for r in rho), rep.phi)


def representation(g, kind, theta):
    if kind == "zero":
        return zero_representation(g, 4, alpha_block(4, theta, g.backend)[0])
    rep = adjoint(g)
    return corrupt(rep) if kind == "corrupt" else rep


def as_pair(x, scale, dd):
    """The integer pair the operator stores for the scalar ``x`` at ``scale``."""
    if isinstance(x, QuadExt):
        return x.a * scale, x.b * scale / dd
    return F(x) * scale, F(0)


def axis_cols(op, m):
    """The operator's columns on m value axes.

    The m = 1 matrix that ``_operator`` returns for a zero rho stands for
    itself on each axis alone: column ``(K, b)`` has its rows at ``(u, b)``.
    """
    if op.m == m:
        return op.cols
    return [{u * m + b: x for u, x in col.items()} for col in op.cols for b in range(m)]


def assert_columns_match(g, rep, k, s):
    op = _operator(g, rep, k, s)
    m = rep.m
    cols = axis_cols(op, m)
    assert len(cols) == len(op.sources) * m
    for c, (key, axis, eta) in enumerate(basis_cochains(g.dim, m, k)):
        assert (op.sources[c // m], c % m) == (key, axis)
        image = reference.coboundary(eta, rep, s)
        assert sorted(image.table) == op.targets
        want = {}
        for uu, u in enumerate(op.targets):
            for a, x in enumerate(image.table[u]):
                if x != 0:
                    want[uu * m + a] = as_pair(x, op.scale, op.kernel.dd)
        assert cols[c] == want


def assert_blocks_match(rep, k, s):
    """Each pair block ``M_t`` over its scale against the dense ``pre rho(e_t) post``."""
    pre, post = mat_pow(rep.phi, k + 1 + s), mat_pow(rep.phi, -(k + 2 + s))
    blocks, scale = rep.kernel.conjugated(pre, post)
    dd = rep.kernel.kernel.dd
    assert len(blocks) == rep.g.dim
    for block, r in zip(blocks, rep.rho):
        dense = mat_mul(mat_mul(pre, r), post)
        for a in range(rep.m):
            assert set(block[a]) <= set(range(rep.m))
            for b in range(rep.m):
                assert block[a].get(b, (0, 0)) == as_pair(dense[a][b], scale, dd)


def outcome(g, rep, k, s, checks=cohomology, residual=tuple):
    """Verdict and witness of ``check_d_squared`` and the whole failure stream, comparably.

    ``checks`` is the module whose two functions run; every residual is
    passed through ``residual``, so by default they compare by value.
    """
    report = checks.check_d_squared(g, rep, k, s)
    stream = list(checks.d_squared_failures(g, rep, k, s))
    w = report.witness
    # the report is the stream's first item
    assert report.passed == (not stream)
    if stream:
        key, axis, nonzero = stream[0]
        assert w.at == (key, axis, next(iter(nonzero)))
    verdict = (report.passed, None if w is None else (w.at, residual(w.residual), w.note))
    return verdict, [(key, axis, {u: residual(v) for u, v in nonzero.items()})
                     for key, axis, nonzero in stream]


def both_outcomes(g, rep, k, s):
    """Sparse, then dense: each report with its failure stream.

    Residuals compare by value.  A dense sum leaves ``Fraction`` components
    where it summed no ``QuadExt`` term, so on tables that mix the two the
    types can differ; the sparse residuals must follow the operator's rule,
    a ``QuadExt`` in every entry exactly when its kernel has a discriminant.
    """
    kind = QuadExt if _operator(g, rep, k, s).kernel.d is not None else F

    def typed(value):
        assert all(type(x) is kind for x in value), value
        return tuple(value)

    return outcome(g, rep, k, s, residual=typed), outcome(g, rep, k, s, checks=reference)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES, key=str)),
    st.sampled_from(("zero", "adjoint", "corrupt")),
    st.one_of(
        st.none(),
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] < p[1]),
            st.integers(0, 3),
            st.sampled_from((-1, 1, F(1, 2))),
        ),
    ),
    st.integers(0, 3),
    st.integers(0, 2),
)
def test_operator_matches_dense_coboundary(family, kind, mutation, k, s):
    g = FAMILIES[family]
    rep = representation(g, kind, family[1])
    if mutation is not None:
        (i, j), axis, delta = mutation
        g = mutated(g, i, j, axis, delta)
        rep = replace(rep, g=g)
    assert_columns_match(g, rep, k, s)
    assert_columns_match(g, rep, k + 1, s)
    assert_blocks_match(rep, k, s)
    sparse, dense = both_outcomes(g, rep, k, s)
    assert sparse == dense


@st.composite
def random_cases(draw):
    """A random small table, twist and representation over Q or Q(sqrt 5)."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    backend = draw(st.sampled_from((rational_backend(), HALF)))
    small = (F(0), F(0), F(0), F(1), F(-1), F(2), F(1, 2))
    if backend is HALF:
        small += (QuadExt(0, 1, HALF.d), QuadExt(1, F(-1, 2), HALF.d))
    entry = st.sampled_from(small)
    pairs = {
        (i, j): tuple(draw(entry) for _ in range(n))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    }
    twist = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    g = HomAlgebra(n, pairs, twist, backend)
    rho = tuple(tuple(tuple(draw(entry) for _ in range(m)) for _ in range(m)) for _ in range(n))
    scale = draw(st.sampled_from((F(1), F(2), F(-1, 3))))
    phi = tuple(
        tuple(scale if r == c else (F(1) if c == r + 1 and r % 2 == 0 else F(0)) for c in range(m))
        for r in range(m)
    )
    return Representation(g, m, rho, phi), draw(st.integers(0, n)), draw(st.integers(0, 2))


@settings(max_examples=50, deadline=None)
@given(random_cases())
def test_operator_matches_dense_on_random_tables(case):
    rep, k, s = case
    assert_columns_match(rep.g, rep, k, s)
    assert_blocks_match(rep, k, s)
    sparse, dense = both_outcomes(rep.g, rep, k, s)
    assert sparse == dense


def test_mixed_discriminants_raise():
    g = FAMILIES[("se4", F(1, 2))]
    rep = adjoint(g)
    other = QuadExt(0, 1, F(2))
    rho = tuple(mat(r) for r in rep.rho[:-1]) + (
        tuple(tuple(other if (r, c) == (0, 3) else x for c, x in enumerate(row))
              for r, row in enumerate(rep.rho[-1])),
    )
    broken = Representation(g, 4, rho, rep.phi)
    for k in (0, 1):
        for check in (check_d_squared, reference.check_d_squared):
            with pytest.raises(BackendMismatchError, match="mixed discriminants"):
                check(g, broken, k, 0)


def test_rational_algebra_takes_a_quadratic_representation():
    g = FAMILIES[("se4", F(0))]
    phi = alpha_block(4, F(1, 2))[0]
    x = QuadExt(1, 1, F(5, 4))
    rho = (mat([[x, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]),) + (zero_mat(4, 4),) * 3
    rep = Representation(g, 4, rho, phi)
    for k in (0, 1):
        sparse, dense = both_outcomes(g, rep, k, 1)
        assert sparse == dense
    assert_columns_match(g, rep, 1, 1)
    assert_blocks_match(rep, 1, 1)


def test_vacuous_degree_passes_for_any_rho():
    # on 4 generators d^s d^s from degree 3 lands in degree 5, which is empty
    g = FAMILIES[("gl2", F(0))]
    rep = corrupt(adjoint(g))
    assert not check_d_squared(g, rep, 1, 0).passed
    assert check_d_squared(g, rep, 3, 0).passed
    assert _operator(g, rep, 4, 0).cols == [{} for _ in range(4)]


def test_identity_phi_and_zero_rho_give_the_bracket_part_only():
    g = FAMILIES[("se4", F(1, 2))]
    rep = zero_representation(g, 4, identity(4))
    op = _operator(g, rep, 1, 0)
    # one m = 1 matrix stands for every axis: column (e_0, axis b) has rows (u, b) only
    assert op.m == 1
    for c, column in enumerate(axis_cols(op, 4)):
        assert all(r % 4 == c % 4 for r in column)
    assert_columns_match(g, rep, 1, 0)


# -- the build from nonzeros against the all-pairs build ---------------------

# Q, Q(sqrt 2), Q(sqrt 5/4), and Q[s]/(s**2 - 25/16), where
# (5/4 + s)(5/4 - s) = 0 makes zero divisors
RINGS = (None, F(2), F(5, 4), F(25, 16))


@st.composite
def kernel_cases(draw):
    """A random exact table, twist and blocks ``M_t`` on one kernel, with a degree.

    The twist may have a zero row or column, and rho may be zero, as
    ``_operator`` passes it at m = 1, or have zero blocks among nonzero ones.
    """
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 2))
    d = draw(st.sampled_from(RINGS))
    pool = [F(1), F(0), F(-1), F(0), F(2), F(0), F(1, 3)]
    if d is not None:
        pool += [QuadExt(0, 1, d), QuadExt(F(5, 4), 1, d), QuadExt(F(5, 4), -1, d)]
    entry = st.sampled_from(pool)
    pairs = {
        (i, j): tuple(draw(entry) for _ in range(n))
        for i, j in itertools.combinations(range(n), 2)
        if draw(st.booleans())
    }
    twist = [[draw(entry) for _ in range(n)] for _ in range(n)]
    zeroed, at = draw(st.sampled_from(("row", "column", None))), draw(st.integers(0, n - 1))
    for r, c in itertools.product(range(n), repeat=2):
        if (zeroed, at) in (("row", r), ("column", c)):
            twist[r][c] = F(0)
    kernel = Kernel(n, pairs, tuple(map(tuple, twist))).over(d)
    if draw(st.booleans()):
        conj, scale = [[{}] * m] * n, 1
    else:
        blocks = [[[draw(entry) for _ in range(m)] for _ in range(m)] for _ in range(n)]
        conj, scale = kernel.matrices(blocks, m)
    return kernel, m, conj, scale, draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_build_from_nonzeros_matches_the_all_pairs_build(case):
    kernel, m, conj, scale, k = case
    # degrees k and k+1, so every degree up to n, share one minors table,
    # as in d_squared_failures
    minors = {}
    for degree in (k, k + 1):
        op = Coboundary(kernel, degree, m, conj, scale, minors)
        sources, targets, cols, want_scale = reference.coboundary_cols(
            kernel, degree, m, conj, scale
        )
        assert (op.sources, op.targets, op.scale) == (sources, targets, want_scale)
        assert op.cols == cols


@pytest.mark.parametrize("theta, nonzeros", [(F(0), (708, 3968)), (F(1), (10040, 92128))])
def test_gl4_operators_with_the_zero_representation(theta, nonzeros):
    g = build_gl_alpha(GlContext(4, *alpha_block(4, theta)))
    rep = zero_representation(g, 1)
    assert tuple(sum(map(len, _operator(g, rep, k, 0).cols)) for k in (2, 3)) == nonzeros
    assert check_d_squared(g, rep, 1, 0).passed
    assert check_d_squared(g, rep, 2, 0).passed


# -- d^s is d^0 conjugated by phi^s -----------------------------------------


def dense(op, m):
    """The operator's matrix on m value axes as exact scalars, by rows."""
    return tuple(
        tuple(op.kernel.scalar(column.get(r, (0, 0)), op.scale) for column in axis_cols(op, m))
        for r in range(len(op.targets) * m)
    )


def phi_power(phi, power, count):
    """``id (x) phi**power`` on ``count`` value vectors, block diagonal."""
    p, m = mat_pow(phi, power), len(phi)
    return tuple(
        tuple(p[r % m][c % m] if r // m == c // m else F(0) for c in range(count * m))
        for r in range(count * m)
    )


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.sampled_from(sorted(FAMILIES, key=str)).map(lambda key: adjoint(FAMILIES[key])),
        random_cases().map(lambda case: case[0]),
    ),
    st.sampled_from((1, 2)),
    st.data(),
)
def test_d_s_is_d_0_conjugated_by_phi_to_the_s(rep, s, data):
    n = rep.g.dim
    k = data.draw(st.integers(0, n - 1))
    d0 = dense(_operator(rep.g, rep, k, 0), rep.m)
    conjugated = mat_mul(
        mat_mul(phi_power(rep.phi, s, math.comb(n, k + 1)), d0),
        phi_power(rep.phi, -s, math.comb(n, k)),
    )
    assert dense(_operator(rep.g, rep, k, s), rep.m) == conjugated


# -- coboundary as the product D_k eta --------------------------------------


def quadratic(g, rep, eta):
    """Whether exact ``coboundary`` types its entries ``QuadExt``.

    That is when the operator's kernel has a discriminant, or when it is
    rational and one of eta's values is a nonzero ``QuadExt``.
    """
    if g.dim < eta.k + 1:
        return None
    values = (x for v in eta.table.values() for x in v)
    return _operator(g, rep, eta.k, 0).kernel.d is not None or any(
        isinstance(x, QuadExt) and x for x in values
    )


def assert_image_matches_dense(rep, eta, s, uniform):
    """Exact ``coboundary`` against the dense formula, with types by the stated rule.

    With ``uniform`` inputs (the algebra, rho, phi and eta's nonzero values
    each of one type) the two paths type an entry alike unless it is zero:
    the dense loop leaves ``Fraction(0)`` where no ``QuadExt`` term was summed.
    """
    image = coboundary(eta, rep, s)
    dense = reference.coboundary(eta, rep, s)
    assert (image.k, image.n, image.m) == (dense.k, dense.n, dense.m)
    assert list(image.table) == list(dense.table)
    quad = quadratic(rep.g, rep, eta)
    for key, value in image.table.items():
        for x, y in zip(value, dense.table[key]):
            assert x == y
            assert type(x) is (QuadExt if quad else F)
            if uniform and type(x) is not type(y):
                assert x == 0 and type(y) is F


@st.composite
def cochains(draw, n, m, k, pool):
    """A full, sparse or zero degree-k cochain with values from ``pool`` and zeros."""
    keys = list(itertools.combinations(range(n), k))
    kind = draw(st.sampled_from(("full", "sparse", "zero")))
    if kind == "zero":
        keys = []
    elif kind == "sparse":
        keys = [key for key in keys if draw(st.booleans())]
    value = st.tuples(*[st.sampled_from(pool + [F(0)]) for _ in range(m)])
    return cochain(k, n, m, {key: draw(value) for key in keys})


RATIONALS = [F(1), F(-1), F(2), F(-1, 3)]
SURDS = [QuadExt(0, 1, HALF.d), QuadExt(F(1, 2), -1, HALF.d), QuadExt(3, 0, HALF.d)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES, key=str)),
    st.sampled_from(("zero", "adjoint", "corrupt")),
    st.integers(0, 4),
    st.integers(0, 2),
    st.booleans(),
    st.data(),
)
def test_coboundary_matches_dense_on_families(family, kind, k, s, surds, data):
    g = FAMILIES[family]
    rep = representation(g, kind, family[1])
    # a rational family may take a quadratic cochain
    pool = SURDS if surds and family[1] == 0 else [g.backend.coerce(x) for x in RATIONALS]
    eta = data.draw(cochains(4, 4, k, pool))
    assert_image_matches_dense(rep, eta, s, uniform=True)


@settings(max_examples=60, deadline=None)
@given(random_cases(), st.integers(0, 2), st.booleans(), st.data())
def test_coboundary_matches_dense_on_random_tables(case, s, surds, data):
    rep, k, _ = case
    eta = data.draw(cochains(rep.g.dim, rep.m, k, RATIONALS + SURDS if surds else RATIONALS))
    assert_image_matches_dense(rep, eta, s, uniform=False)


def test_quadratic_cochain_on_a_rational_algebra():
    g = FAMILIES[("gl2", F(0))]
    x = QuadExt(1, 1, F(5, 4))
    eta = cochain(1, 4, 4, {(0,): (x, 0, 0, 1), (2,): (0, F(1, 2), 0, 0)})
    for rep in (adjoint(g), zero_representation(g, 4, identity(4))):
        assert _operator(g, rep, 1, 0).kernel.d is None
        assert_image_matches_dense(rep, eta, 0, uniform=False)
        assert all(isinstance(x, QuadExt) for v in coboundary(eta, rep, 0).table.values() for x in v)


def raised(call, *args):
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001 - the test compares what each path raises
        return type(exc), str(exc)
    return None


def test_mixed_discriminants_raise_in_coboundary():
    other = QuadExt(0, 1, F(2))
    quad = FAMILIES[("se4", F(1, 2))]
    eta = cochain(1, 4, 4, {(0,): (other, 1, 0, 0)})
    rational = FAMILIES[("se4", F(0))]
    mixed = cochain(0, 4, 4, {(): (QuadExt(1, 1, F(5, 4)), other, 0, 0)})
    for rep, cochain_ in ((adjoint(quad), eta), (adjoint(rational), mixed)):
        fast = raised(coboundary, cochain_, rep, 0)
        dense = raised(reference.coboundary, cochain_, rep, 0)
        assert fast[0] is BackendMismatchError and dense[0] is BackendMismatchError
        assert "mixed discriminants" in fast[1] and "mixed discriminants" in dense[1]


def test_coboundary_refuses_a_cochain_of_another_shape():
    g = FAMILIES[("se4", F(1, 2))]
    zero = zero_representation(g, 4, identity(4))
    cases = [
        (cochain(1, 4, 3, {(0,): (1, 2, 3)}), zero, "values in dimension 3"),
        (cochain(1, 4, 4, {(1,): (1, 0, 0, 1)}), zero_representation(g, 2, identity(2)),
         "on dimension 2"),
        (cochain(1, 3, 4, {(0,): (1, 0, 0, 0)}), adjoint(g), "on 3 generators"),
    ]
    for eta, rep, phrase in cases:
        fast, dense = raised(coboundary, eta, rep, 0), raised(reference.coboundary, eta, rep, 0)
        assert fast == dense
        assert fast[0] is DimensionError and phrase in fast[1]


def test_negative_s_raises_in_every_degree():
    g = FAMILIES[("gl2", F(1, 2))]
    rep = adjoint(g)
    for k in range(6):
        eta = cochain(k, 4, 4)
        fast = raised(coboundary, eta, rep, -1)
        dense = raised(reference.coboundary, eta, rep, -1)
        assert fast == dense == (ValueError, "the operator family is indexed by s >= 0")
        assert len(coboundary(eta, rep, 0).table) == len(list(
            itertools.combinations(range(4), k + 1)))


def test_exact_paths_never_evaluate_the_dense_formula(monkeypatch):
    """The perfbench-style coboundary requests and a failing d^2 check with its residuals."""
    rng = Random(7)
    requests = [
        (("se4", F(1, 2)), "adjoint", 1, 1),
        (("gl2", F(1, 2)), "adjoint", 2, 0),
        (("se4", F(0)), "adjoint", 2, 2),
        (("gl2", F(1, 2)), "zero", 1, 2),
    ]
    images, want = [], []
    for family, kind, k, s in requests:
        g = FAMILIES[family]
        rep = representation(g, kind, family[1])
        values = {
            key: tuple(g.backend.coerce(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(4))
            for key in itertools.combinations(range(4), k)
        }
        images.append((cochain(k, 4, 4, values), rep, s))
        want.append(reference.coboundary(*images[-1]).table)
    g = mutated(FAMILIES[("se4", F(1, 2))], 0, 1, 1, 1)
    rep = zero_representation(g, 4, identity(4))
    dense_stream = repr(list(reference.d_squared_failures(g, rep, 2, 0)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the dense formula ran")

    for name in ("coboundary_at", "cochain_eval", "bracket_eval"):
        monkeypatch.setattr(reference, name, forbidden)
    monkeypatch.setattr(algebra, "bracket_eval", forbidden)
    for (eta, rep_, s), table in zip(images, want):
        assert coboundary(eta, rep_, s).table == table
    assert not check_d_squared(g, rep, 2, 0).passed
    stream = list(d_squared_failures(g, rep, 2, 0))
    assert len(stream) == 24
    assert repr(stream) == dense_stream


@pytest.mark.parametrize("family", ["se4", "gl2"])
def test_an_adjoint_d_squared_check_leaves_the_twist_and_rho_beta_tables_unbuilt(family):
    # d^s reads the twist's columns and rho alone; ad and rho(beta e_i) serve
    # the identity scans and the representation equations
    half = F(1, 2)
    g = build_semi_euclidean(half)[0] if family == "se4" else build_gl_alpha(GlContext(2, *alpha_block(2, half)))
    rep = adjoint(g)
    assert check_d_squared(g, rep, 1, 1).passed
    assert rep.kernel.kernel is g.kernel
    assert g.kernel.twist.ad is None and "rho_beta" not in vars(rep.kernel)
    assert check_representation(rep).passed and "rho_beta" in vars(rep.kernel)
    assert algebra.check_hom_jacobi(g).passed and g.kernel.twist.ad is not None
