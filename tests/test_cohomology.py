from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from skewhom.algebra import HomAlgebra
from skewhom.cohomology import (
    Cochain,
    check_d_squared,
    coboundary,
    cochain,
    cochain_from_dict,
    load_cochain,
    save_cochain,
)
from skewhom.constructions import (
    GlContext,
    alpha_block,
    alpha_theta,
    build_gl_alpha,
    build_semi_euclidean,
)
from skewhom.errors import DimensionError, FileFormatError
from skewhom.linalg import (
    basis_vec,
    identity,
    mat,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_vec,
    vec_neg,
    vec_sub,
    zero_vec,
)
from skewhom.representation import Representation, zero_representation

from reference import coboundary_at, cochain_add, cochain_eval, cochain_scale
from strategies import int_vectors


SE4_ZERO, _ = build_semi_euclidean(0)
SE4_ONE, _ = build_semi_euclidean(1)
GL2 = build_gl_alpha(GlContext(2, *alpha_theta(0)))

IDENTITY_ONE_COCHAIN = cochain(1, 4, 4, {(i,): basis_vec(4, i) for i in range(4)})
ZERO_REP_4 = zero_representation(SE4_ZERO, 4, identity(4))


def test_cochain_eval_repeated_vector_vanishes():
    x = (F(1), F(2), F(0), F(-1))
    eta = cochain(2, 4, 3, {(0, 1): (F(1), F(0), F(2))})
    assert cochain_eval(eta, [x, x]) == (0, 0, 0)


def test_cochain_eval_on_increasing_basis_args():
    eta = cochain(2, 4, 2, {(1, 3): (F(5), F(-1))})
    assert cochain_eval(eta, [basis_vec(4, 1), basis_vec(4, 3)]) == (F(5), F(-1))


def test_cochain_eval_swap_negates():
    eta = cochain(2, 4, 2, {(1, 3): (F(5), F(-1))})
    assert cochain_eval(eta, [basis_vec(4, 3), basis_vec(4, 1)]) == (F(-5), F(1))


def test_cochain_table_must_be_complete():
    with pytest.raises(DimensionError):
        Cochain(1, 4, 2, {(0,): zero_vec(2)})


def test_degree_zero_coboundary_with_zero_action():
    eta = cochain(0, 4, 4, {(): (F(1), F(2), F(3), F(4))})
    image = coboundary(eta, ZERO_REP_4, 0)
    assert image.k == 1
    assert all(v == (0, 0, 0, 0) for v in image.table.values())


def test_degree_one_coboundary_table_entry():
    # with zero action, (d eta)(x1, x2) = -eta([x1, x2]); the identity
    # 1-cochain on the theta=0 family sends (e1, e2) to (1, 0, 0, 1)
    image = coboundary(IDENTITY_ONE_COCHAIN, ZERO_REP_4, 0)
    assert image.table[(0, 1)] == (F(1), F(0), F(0), F(1))


def test_phi_power_bookkeeping():
    # on an abelian algebra the bracket sum drops out; for k=1, s=0 the
    # conjugated action must be phi^2 rho(x_i) phi^-3 exactly
    be = SE4_ZERO.backend
    zero_table = tuple(tuple(zero_vec(2) for _ in range(2)) for _ in range(2))
    g = HomAlgebra(2, zero_table, identity(2), be)
    phi = mat([[2, 0], [0, 1]])
    rho = (mat([[1, 2], [3, 4]]), mat([[0, 1], [1, 0]]))
    rep = Representation(g, 2, rho, phi)
    eta = cochain(1, 2, 2, {(0,): (F(1), F(2)), (1,): (F(3), F(5))})

    got = coboundary(eta, rep, 0).table[(0, 1)]

    phi2 = mat_mul(phi, phi)
    phi_m3 = mat_inv(mat_mul(phi2, phi))
    conj = lambda r: mat_mul(mat_mul(phi2, r), phi_m3)
    expected = vec_sub(
        mat_vec(conj(rho[0]), eta.table[(1,)]),
        mat_vec(conj(rho[1]), eta.table[(0,)]),
    )
    assert got == expected


def test_second_sum_signs_at_degree_two():
    # zero action, degree-2 cochain: d eta(x1,x2,x3) =
    #   -eta([x1,x2], beta x3) + eta([x1,x3], beta x2) - eta([x2,x3], beta x1)
    eta = cochain(2, 4, 4, {(0, 1): basis_vec(4, 0), (2, 3): basis_vec(4, 1)})
    from skewhom.algebra import bracket_eval

    g = SE4_ONE
    rep = zero_representation(g, 4, identity(4))
    args = [basis_vec(4, 0), basis_vec(4, 1), basis_vec(4, 2)]
    beta = [mat_vec(g.twist, a) for a in args]
    expected = vec_sub(
        cochain_eval(eta, [bracket_eval(g, args[0], args[2]), beta[1]]),
        cochain_eval(eta, [bracket_eval(g, args[0], args[1]), beta[2]]),
    )
    expected = vec_sub(
        expected, cochain_eval(eta, [bracket_eval(g, args[1], args[2]), beta[0]])
    )
    assert coboundary_at(eta, rep, 0, args) == expected


def test_degree_overflow_returns_empty_cochain():
    eta = cochain(4, 4, 4, {(0, 1, 2, 3): basis_vec(4, 2)})
    image = coboundary(eta, ZERO_REP_4, 1)
    assert image.k == 5 and image.table == {}
    assert check_d_squared(SE4_ZERO, ZERO_REP_4, 4, 0).passed


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_d_squared_vanishes_zero_action(k, s, both_paths):
    for g, phi in (
        (SE4_ONE, alpha_block(4, 1, SE4_ONE.backend)[0]),
        (SE4_ONE, identity(4)),
        (GL2, identity(4)),
        (GL2, alpha_block(4, 0, GL2.backend)[0]),
    ):
        rep = zero_representation(g, 4, phi)
        assert all(r.passed for r in both_paths(check_d_squared, g, rep, k, s))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_d_squared_vanishes_nonzero_action(k, s, both_paths):
    x = mat([[1, 0], [0, -1]])
    phi = mat([[0, 1], [-1, 0]])
    rep = Representation(SE4_ZERO, 2, (x, x, x, mat_neg(x)), phi)
    assert all(r.passed for r in both_paths(check_d_squared, SE4_ZERO, rep, k, s))


def test_d_squared_detects_broken_bracket(both_paths):
    table = [list(row) for row in SE4_ONE.bracket]
    value = list(table[0][1])
    value[1] = value[1] + 1
    table[0][1] = tuple(value)
    table[1][0] = vec_neg(tuple(value))
    broken = HomAlgebra(4, tuple(tuple(r) for r in table), SE4_ONE.twist, SE4_ONE.backend)
    rep = zero_representation(broken, 4, identity(4))
    sparse, dense = both_paths(check_d_squared, broken, rep, 1, 0)
    assert not sparse.passed
    assert sparse.witness is not None
    assert (sparse.witness.at, repr(sparse.witness.residual)) == (
        dense.witness.at,
        repr(dense.witness.residual),
    )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(-5, 5).map(F),
    st.integers(-5, 5).map(F),
    st.tuples(*[st.integers(-3, 3).map(F) for _ in range(4)]),
    st.tuples(*[st.integers(-3, 3).map(F) for _ in range(4)]),
)
def test_coboundary_is_linear(a, b, v, w):
    eta = cochain(1, 4, 4, {(0,): v, (2,): w})
    zeta = cochain(1, 4, 4, {(1,): w, (3,): v})
    combo = cochain_add(cochain_scale(a, eta), cochain_scale(b, zeta))
    lhs = coboundary(combo, ZERO_REP_4, 1)
    rhs = cochain_add(
        cochain_scale(a, coboundary(eta, ZERO_REP_4, 1)),
        cochain_scale(b, coboundary(zeta, ZERO_REP_4, 1)),
    )
    assert lhs.table == rhs.table


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(3)))
def test_coboundary_output_is_alternating(perm):
    eta = cochain(
        2, 4, 4, {(0, 1): basis_vec(4, 0), (1, 2): basis_vec(4, 3), (0, 3): basis_vec(4, 1)}
    )
    image = coboundary(eta, ZERO_REP_4, 0)
    base = [basis_vec(4, i) for i in (0, 1, 2)]
    permuted = [base[i] for i in perm]
    sign = 1
    seen = list(perm)
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            if seen[i] > seen[j]:
                sign = -sign
    direct = coboundary_at(eta, ZERO_REP_4, 0, permuted)
    stored = image.table[(0, 1, 2)]
    expected = stored if sign == 1 else vec_neg(stored)
    assert direct == expected


@settings(max_examples=20, deadline=None)
@given(int_vectors(4), int_vectors(4))
def test_coboundary_at_agrees_with_multilinear_extension(x, y):
    image = coboundary(IDENTITY_ONE_COCHAIN, ZERO_REP_4, 1)
    assert coboundary_at(IDENTITY_ONE_COCHAIN, ZERO_REP_4, 1, [x, y]) == cochain_eval(
        image, [x, y]
    )


def test_cochain_file_round_trip(tmp_path):
    eta = cochain(2, 4, 4, {(0, 2): (F(1), F(0), F(-3), F(2))})
    path = tmp_path / "eta.json"
    save_cochain(eta, path)
    loaded = load_cochain(path, 4, 4, SE4_ZERO.backend)
    assert loaded == eta


def test_cochain_loader_rejects_bad_indices():
    doc = {"k": 2, "entries": [{"indices": [2, 0], "value": ["1", "0", "0", "0"]}]}
    with pytest.raises(FileFormatError):
        cochain_from_dict(doc, 4, 4, SE4_ZERO.backend)


def test_cochain_loader_rejects_duplicates():
    doc = {
        "k": 1,
        "entries": [
            {"indices": [0], "value": ["1", "0", "0", "0"]},
            {"indices": [0], "value": ["0", "1", "0", "0"]},
        ],
    }
    with pytest.raises(FileFormatError, match="duplicate"):
        cochain_from_dict(doc, 4, 4, SE4_ZERO.backend)


@pytest.mark.parametrize("k", [-1, 5])
def test_cochain_loader_rejects_degree_out_of_range(k):
    doc = {"k": k, "entries": []}
    with pytest.raises(FileFormatError, match="degree") as info:
        cochain_from_dict(doc, 4, 4, SE4_ZERO.backend)
    assert info.value.location == "k"


def test_cochain_loader_accepts_top_and_bottom_degree():
    assert cochain_from_dict({"k": 0, "entries": []}, 4, 4, SE4_ZERO.backend).k == 0
    assert cochain_from_dict({"k": 4, "entries": []}, 4, 4, SE4_ZERO.backend).k == 4


def _large_algebra(n):
    from skewhom.scalars import rational_backend

    return HomAlgebra(n, {(0, 1): basis_vec(n, 2)}, identity(n), rational_backend())


def test_cochain_size_is_refused_before_allocating():
    import tracemalloc

    from skewhom.cohomology import MAX_COCHAIN_ENTRIES

    # C(20, 10) * 20 = 3,695,120 entries
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limit of {MAX_COCHAIN_ENTRIES}"):
            cochain(10, 20, 20)
        with pytest.raises(FileFormatError, match="3695120 entries") as info:
            cochain_from_dict({"k": 10, "entries": []}, 20, 20, SE4_ZERO.backend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.location == "k"
    assert peak < 1 << 20
    # at the limit itself a cochain is built
    assert len(cochain(1, 1 << 10, 1 << 6).table) == 1 << 10


def test_d_squared_refuses_an_oversized_degree_before_building():
    from skewhom.cohomology import _operator

    g = _large_algebra(20)
    rep = zero_representation(g, 20, identity(20))
    # C(20, 3) * 20 = 22,800 entries are allowed, C(20, 4) * 20 = 96,900 are not
    with pytest.raises(ValueError, match="degree-4 cochains"):
        _operator(g, rep, 3, 0)
    with pytest.raises(ValueError, match="degree-4 cochains"):
        check_d_squared(g, rep, 2, 0)
    assert check_d_squared(g, rep, 0, 0).passed


def _r3_line_representation(phi):
    """rho(e_2) = 1 on a line, on the r3 table with the reflection twist."""
    from skewhom.constructions import build_r3_cross

    g = build_r3_cross(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    return Representation(g, 1, (mat([[0]]), mat([[0]]), mat([[1]])), mat([[phi]]))


def test_a_vacuous_degree_forms_no_power_of_phi(monkeypatch):
    # k + 2 > n leaves nothing to fail, so no operator is built: its first
    # step, phi^(k+1+s), would exhaust memory at k = 3,000,000,000 and phi = 2
    from skewhom import cohomology

    calls = []

    def record(a, exponent):
        calls.append(exponent)
        raise AssertionError(f"phi^{exponent} was formed")

    monkeypatch.setattr(cohomology, "mat_pow", record)
    rep = _r3_line_representation(2)
    for k in (2, 3_000_000_000):
        assert list(cohomology.d_squared_failures(rep.g, rep, k, 0)) == []
        assert check_d_squared(rep.g, rep, k, 0).passed
    assert calls == []


def test_an_operator_index_over_the_limit_is_refused():
    # phi = -1 is an involution, so each power is cheap and only the limit refuses it
    from skewhom.cohomology import MAX_OPERATOR_INDEX, _operator, d_squared_failures

    rep = _r3_line_representation(-1)
    g = rep.g
    eta = cochain(1, 3, 1, {(0,): (F(1),)})
    for s in (MAX_OPERATOR_INDEX + 1, 3_000_000_000):
        message = f"operator index {s} is over the limit of {MAX_OPERATOR_INDEX}"
        for call in (
            lambda: _operator(g, rep, 1, s),
            lambda: d_squared_failures(g, rep, 1, s),
            lambda: d_squared_failures(g, rep, 2, s),
            lambda: check_d_squared(g, rep, 1, s),
            lambda: coboundary(eta, rep, s),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    # the limit itself is built, with the verdict of s = 0 (the module's lemma)
    assert check_d_squared(g, rep, 1, MAX_OPERATOR_INDEX).passed == check_d_squared(g, rep, 1, 0).passed
