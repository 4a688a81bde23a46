from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from skewhom import cohomology, representation
from skewhom.algebra import MAX_DIM
from skewhom.constructions import (
    GlContext,
    alpha_block,
    build_gl_alpha,
    build_r3_cross,
    build_semi_euclidean,
)
from skewhom.errors import BackendMismatchError, FileFormatError, PreconditionError
from skewhom.linalg import (
    basis_vec,
    identity,
    mat,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_vec,
    zero_mat,
)
from skewhom.representation import (
    Representation,
    check_representation,
    load_representation,
    representation_from_dict,
    representation_to_dict,
    save_representation,
    search_representation,
    theorem_equivalence,
    zero_representation,
)
from skewhom.algebra import HomAlgebra
from skewhom.linalg import zero_vec
from skewhom.scalars import QuadExt, quadratic_backend, rational_backend

from reference import rho_eval, twist_col
from strategies import rationals
from test_coboundary_operator import adjoint


SE4_ZERO, SE4_ZERO_CTX = build_semi_euclidean(0)
PHI = mat([[0, 1], [-1, 0]])


def anticommuting(p, q):
    """Solutions X of X phi = -phi X for the quarter-turn phi."""
    return mat([[p, q], [q, -p]])


def spin_representation(p, q):
    """rho = (X, X, X, -X) with X anticommuting with phi; passes both laws."""
    x = anticommuting(p, q)
    return Representation(SE4_ZERO, 2, (x, x, x, mat_neg(x)), PHI)


def test_rho_eval_linearity():
    rep = spin_representation(F(1), F(2))
    assert rho_eval(rep, basis_vec(4, 0)) == rep.rho[0]
    assert rho_eval(rep, (0, 0, 0, 0)) == zero_mat(2, 2)
    e12 = (F(1), F(1), F(0), F(0))
    expected = mat_mul(identity(2), rep.rho[0])
    assert rho_eval(rep, e12) == tuple(
        tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(rep.rho[0], rep.rho[1])
    )


def test_zero_representation_passes():
    rep = zero_representation(SE4_ZERO, 3)
    assert check_representation(rep).passed


def test_spin_representation_passes():
    rep = spin_representation(F(1), F(0))
    assert check_representation(rep).passed


def test_perturbed_representation_fails_with_witness():
    rep = spin_representation(F(1), F(0))
    bad_rho = (mat([[1, 1], [0, -1]]),) + rep.rho[1:]
    bad = Representation(SE4_ZERO, 2, bad_rho, PHI)
    report = check_representation(bad)
    assert not report.passed
    assert report.witness.at[0] in ("compat", "bracket")


def test_rep_requires_invertible_phi():
    with pytest.raises(PreconditionError):
        Representation(SE4_ZERO, 2, (zero_mat(2, 2),) * 4, zero_mat(2, 2))


def test_a_float_phi_is_refused_when_the_representation_is_built():
    # phi is read into integer pairs for its rank, and a float is no exact scalar
    for phi in (((1.0, 0), (0, 1)), ((0, F(1)), (-0.5, 0))):
        with pytest.raises(TypeError, match="not an exact scalar"):
            Representation(SE4_ZERO, 2, (zero_mat(2, 2),) * 4, phi)


def test_the_phi_check_leaves_the_algebra_kernel_unbuilt():
    g = build_semi_euclidean(F(1, 2))[0]
    rep = Representation(g, 2, (zero_mat(2, 2),) * 4, PHI)
    assert "kernel" not in vars(g)
    with pytest.raises(PreconditionError):
        Representation(g, 2, (zero_mat(2, 2),) * 4, ((1, 2), (2, 4)))
    assert "kernel" not in vars(g)
    rep.kernel  # the check reads the algebra's kernel
    assert "kernel" in vars(g)


def test_theorem_equivalence_zero_rep():
    rep = zero_representation(SE4_ZERO, 2, PHI)
    rep_verdict, morphism_verdict = theorem_equivalence(rep)
    assert rep_verdict.passed and morphism_verdict.passed


def test_theorem_equivalence_mutation_breaks_both_sides():
    rep = spin_representation(F(2), F(-1))
    bad_rho = rep.rho[:3] + (mat([[0, 0], [1, 0]]),)
    bad = Representation(SE4_ZERO, 2, bad_rho, PHI)
    rep_verdict, morphism_verdict = theorem_equivalence(bad)
    assert not rep_verdict.passed and not morphism_verdict.passed


def test_theorem_equivalence_requires_phi_squared_minus_id():
    rep = zero_representation(SE4_ZERO, 2, identity(2))
    with pytest.raises(PreconditionError):
        theorem_equivalence(rep)


@settings(max_examples=30, deadline=None)
@given(rationals(5, 5), rationals(5, 5))
def test_spin_family_always_passes_both_sides(p, q):
    assume(p != 0 or q != 0)
    rep = spin_representation(p, q)
    rep_verdict, morphism_verdict = theorem_equivalence(rep)
    assert rep_verdict.passed and morphism_verdict.passed


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 1), st.integers(0, 1), st.integers(-2, 2))
def test_verdicts_always_agree(idx, row, col, delta):
    # arbitrary local perturbations: the two verdicts move together
    rep = spin_representation(F(1), F(1))
    rows = [list(map(list, m)) for m in rep.rho]
    rows[idx][row][col] += delta
    candidate = Representation(SE4_ZERO, 2, tuple(mat(m) for m in rows), PHI)
    rep_verdict, morphism_verdict = theorem_equivalence(candidate)
    assert rep_verdict.passed == morphism_verdict.passed


def test_iterated_compat_law():
    # rho(beta^2 x) phi^2 = phi^2 rho(x) on basis vectors
    rep = spin_representation(F(3), F(2))
    g = rep.g
    phi2 = mat_mul(PHI, PHI)
    for i in range(4):
        beta2 = mat_vec(g.twist, twist_col(g, i))
        lhs = mat_mul(rho_eval(rep, beta2), phi2)
        rhs = mat_mul(phi2, rep.rho[i])
        assert lhs == rhs


def test_rho_intertwines_with_conjugation():
    # rho(beta x) = phi rho(x) phi for the involution phi^-1 = -phi
    rep = spin_representation(F(1), F(4))
    g = rep.g
    for i in range(4):
        lhs = rho_eval(rep, twist_col(g, i))
        rhs = mat_mul(mat_mul(PHI, rep.rho[i]), PHI)
        assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.integers(-3, 3).map(F) for _ in range(4)]))
def test_verdict_invariant_under_simultaneous_conjugation(entries):
    s = mat([[entries[0], entries[1]], [entries[2], entries[3]]])
    assume(reference.det(s) != 0)
    rep = spin_representation(F(1), F(2))
    s_inv = mat_inv(s)
    conj_rho = tuple(mat_mul(mat_mul(s, r), s_inv) for r in rep.rho)
    conj_phi = mat_mul(mat_mul(s, PHI), s_inv)
    conj = Representation(SE4_ZERO, 2, conj_rho, conj_phi)
    assert check_representation(conj).passed == check_representation(rep).passed


# --- search


def test_search_abelian_with_rotation_twist_finds_nothing():
    # beta^2 = -id and phi^2 = -id force rho = 0; the nonzero search must miss
    be = SE4_ZERO.backend
    zero_table = tuple(tuple(zero_vec(2) for _ in range(2)) for _ in range(2))
    g = HomAlgebra(2, zero_table, mat([[0, 1], [-1, 0]]), be)
    assert search_representation(g, 2, budget=250, seed=11) is None


def test_search_is_deterministic_and_outcome_recorded():
    first = search_representation(SE4_ZERO, 2, budget=120, seed=5)
    second = search_representation(SE4_ZERO, 2, budget=120, seed=5)
    assert (first is None) == (second is None)
    if first is not None:
        assert first.rho == second.rho
        assert check_representation(first).passed


SEARCH_FAMILIES = (
    SE4_ZERO,
    build_semi_euclidean(F(1, 2))[0],
    build_semi_euclidean(F(3, 4))[0],
    build_gl_alpha(GlContext(2, *alpha_block(2, 1))),
    build_r3_cross(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])),
    # abelian with twist -id: nonzero representations exist for every m
    HomAlgebra(2, {}, mat([[-1, 0], [0, -1]]), rational_backend()),
    HomAlgebra(2, {}, mat([[-1, 0], [0, -1]]), quadratic_backend(F(1, 2))),
    HomAlgebra(3, {}, mat([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]), quadratic_backend(1)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SEARCH_FAMILIES),
    st.sampled_from((1, 2, 3)),
    st.integers(0, 1000),
    st.integers(0, 40),
)
def test_search_matches_the_per_candidate_reference(g, m, seed, budget):
    found = search_representation(g, m, budget, seed)
    assert repr(found) == repr(reference.search_representation(g, m, budget, seed))
    assert found is None or check_representation(found).passed


@pytest.mark.parametrize("g", SEARCH_FAMILIES[5:7])
@pytest.mark.parametrize("m", (1, 2, 3))
def test_search_finds_what_the_reference_finds_on_abelian_twists(g, m):
    found = [search_representation(g, m, 60, seed) for seed in range(3)]
    assert any(rep is not None for rep in found)
    assert [repr(rep) for rep in found] == [
        repr(reference.search_representation(g, m, 60, seed)) for seed in range(3)
    ]


# --- file format


def test_representation_file_round_trip(tmp_path):
    rep = spin_representation(F(1), F(-2))
    path = tmp_path / "rep.json"
    save_representation(rep, "se4:theta=0", path)
    loaded = load_representation(path)
    assert loaded.m == rep.m and loaded.rho == rep.rho and loaded.phi == rep.phi
    assert check_representation(loaded).passed


def test_representation_dict_contains_reference():
    rep = zero_representation(SE4_ZERO, 2, PHI)
    doc = representation_to_dict(rep, "se4:theta=0")
    assert doc["algebra"] == "se4:theta=0"
    assert doc["m"] == 2



def _corrupted(rep, t, r, c, delta):
    """``rep`` with entry (r, c) of rho(e_t) raised by ``delta``."""
    rho = [list(map(list, x)) for x in rep.rho]
    rho[t][r][c] = rho[t][r][c] + delta
    return Representation(rep.g, rep.m, tuple(mat(x) for x in rho), rep.phi)


def _both_scans(rep):
    """``check_representation`` on the i<j scan and its reference's ordered scan, comparably.

    Residuals compare by value.  Every entry of the kernel's residual is a
    ``QuadExt`` exactly when the kernel has a discriminant, as ``Kernel.scalar``
    types it, while the reference's dense sums leave a ``Fraction`` wherever
    they summed no ``QuadExt``; this asserts the kernel's rule.
    """

    def outcome(check):
        report = check(rep)
        w = report.witness
        return report.passed, None if w is None else (w.at, w.residual)

    fast = outcome(check_representation)
    if fast[1] is not None:
        expected = F if rep.kernel.kernel.d is None else QuadExt
        assert all(type(x) is expected for row in fast[1][1] for x in row)
    return fast, outcome(reference.check_representation)


def test_witness_entries_take_the_kernel_type():
    # a rational algebra with no pairs and a rho holding sqrt(5)/2: compat
    # holds, and rho(e_0) and rho(e_1) do not commute; the residual sums no
    # QuadExt, and its entries are QuadExt because the kernel is over Q(sqrt 5/4)
    g = HomAlgebra(4, {}, identity(4), rational_backend())
    s = QuadExt(0, 1, F(5, 4))
    rho = (mat([[1, 0], [0, -1]]), mat([[0, 1], [1, 0]]), zero_mat(2, 2), mat([[0, s], [s, 0]]))
    report = check_representation(Representation(g, 2, rho, PHI))
    assert report.witness.at == ("bracket", 0, 1)
    d = F(5, 4)
    assert report.witness.residual == (
        (QuadExt(0, 0, d), QuadExt(-2, 0, d)), (QuadExt(2, 0, d), QuadExt(0, 0, d))
    )
    assert "QuadExt(-2, 0, d=5/4)" in repr(report.witness.residual)
    assert all(type(x) is QuadExt for row in report.witness.residual for x in row)


PAIR_SCAN_FAMILIES = [
    (theta, g)
    for theta in (F(0), F(1, 2), F(3, 4))
    for g in (build_semi_euclidean(theta)[0],
              build_gl_alpha(GlContext(2, *alpha_block(2, theta))))
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(range(len(PAIR_SCAN_FAMILIES))),
    st.sampled_from(("adjoint", "zero", "spin")),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                  st.sampled_from((1, -1, F(1, 2)))),
        max_size=2,
    ),
)
def test_bracket_equation_pair_scan_matches_ordered_scan(index, kind, corruptions):
    theta, g = PAIR_SCAN_FAMILIES[index]
    if kind == "adjoint":
        rep = adjoint(g)
    elif kind == "zero":
        rep = zero_representation(g, 4, alpha_block(4, theta, g.backend)[0])
    else:
        rep = Representation(g, 2, spin_representation(F(1), F(2)).rho, PHI)
    for t, r, c, delta in corruptions:
        rep = _corrupted(rep, t, r % rep.m, c % rep.m, delta)
    fast, ordered = _both_scans(rep)
    assert fast == ordered


@st.composite
def compatible_reps(draw):
    """A random table with a diagonal sign twist and a rho passing compat.

    With the quarter-turn phi, compat asks rho(e_i) to anticommute with phi
    where beta e_i = e_i and to commute with it where beta e_i = -e_i; the
    bracket equation is then left to fail anywhere.
    """
    backend = draw(st.sampled_from((rational_backend(), quadratic_backend(F(1, 2)))))
    small = [F(0), F(0), F(1), F(-1), F(2), F(1, 3)]
    if backend.kind == "quadratic":
        small += [QuadExt(0, 1, backend.d), QuadExt(1, -1, backend.d)]
    entry = st.sampled_from(small)
    n = draw(st.integers(2, 4))
    pairs = {
        (i, j): tuple(draw(entry) for _ in range(n))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    }
    signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
    twist = tuple(tuple(F(signs[r]) if r == c else F(0) for c in range(n)) for r in range(n))
    g = HomAlgebra(n, pairs, twist, backend)
    rho = []
    for sign in signs:
        p, q = draw(entry), draw(entry)
        rho.append(anticommuting(p, q) if sign == 1 else mat([[p, q], [-q, p]]))
    return Representation(g, 2, tuple(rho), PHI)


@settings(max_examples=80, deadline=None)
@given(compatible_reps())
def test_bracket_equation_pair_scan_matches_ordered_scan_past_compat(rep):
    fast, ordered = _both_scans(rep)
    assert fast[1] is None or fast[1][0][0] == "bracket"
    assert fast == ordered


def _pad(x, corner):
    """``x`` below and right of a new first row and column, zero but for ``corner``."""
    return mat([[corner, 0, 0]] + [[0, *row] for row in x])


def test_bracket_equation_witness_is_an_increasing_pair():
    # on the abelian algebra with beta = id and the quarter-turn phi, every
    # rho(e_i) anticommuting with phi passes compat, and the bracket equation
    # asks rho(e_0) and rho(e_1) to commute; these two do not.  Padded, the
    # residual is zero in its first row.
    g = HomAlgebra(2, {}, identity(2), SE4_ZERO.backend)
    rho = (anticommuting(F(1), F(0)), anticommuting(F(0), F(1)))
    padded = Representation(g, 3, tuple(_pad(x, 0) for x in rho), _pad(PHI, 1))
    for rep in (Representation(g, 2, rho, PHI), padded):
        report = check_representation(rep)
        assert not report.passed and report.witness.at == ("bracket", 0, 1)
        fast, ordered = _both_scans(rep)
        assert fast == ordered


def test_representation_loader_refuses_a_large_m_before_the_phi_check(monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("phi was read for its rank on an oversized representation")

    monkeypatch.setattr(representation, "reading", no_read)
    m = MAX_DIM + 1
    doc = {"algebra": "se4:theta=0", "m": m, "rho": [[["0"] * m] * m] * 4, "phi": [["0"] * m] * m}
    with pytest.raises(FileFormatError, match=f"limit of {MAX_DIM}") as info:
        representation_from_dict(doc)
    assert info.value.location == "m"


# --- the compiled representation against the dense scan

R3_FAMILIES = [
    (F(0), build_r3_cross(((0, -1, 0), (1, 0, 0), (0, 0, 1)))),
    (F(0), build_r3_cross(((1, 0, 0), (0, 1, 0), (0, 0, -1)))),
]
DIFFERENTIAL_FAMILIES = PAIR_SCAN_FAMILIES + R3_FAMILIES
ROOT5 = QuadExt(1, 1, F(5, 4))


def _scaled(rep, c):
    """``c * rho`` with the same phi: compat still holds, the bracket equation
    (quadratic in rho) fails wherever ``rho([e_i,e_j]) phi`` is not zero."""
    rho = tuple(tuple(tuple(c * x for x in row) for row in r) for r in rep.rho)
    return Representation(rep.g, rep.m, rho, rep.phi)


def _conjugated(rep, s):
    """``(s rho s^-1, s phi s^-1)``: a representation exactly when ``rep`` is."""
    s_inv = mat_inv(s)
    rho = tuple(mat_mul(mat_mul(s, r), s_inv) for r in rep.rho)
    return Representation(rep.g, rep.m, rho, mat_mul(mat_mul(s, rep.phi), s_inv))


def _invertible(draw, size, entries):
    m = mat([[draw(entries) for _ in range(size)] for _ in range(size)])
    assume(reference.det(m) != 0)
    return m


@st.composite
def differential_reps(draw):
    """Representations of se4, gl(R^2) (theta in {0, 1/2, 3/4}) and r3 that pass,
    fail compat, or pass compat and fail the bracket equation.

    ``s`` and the random phi may hold ``1 + sqrt(5)/2``, so a rational algebra
    (theta = 0, 3/4, r3) also meets a quadratic phi.
    """
    _, g = draw(st.sampled_from(DIFFERENTIAL_FAMILIES))
    n = g.dim
    small = st.sampled_from((F(0), F(0), F(1), F(-1), F(2), F(1, 2)))
    with_root = st.one_of(small, st.just(ROOT5))
    kind = draw(st.sampled_from(("adjoint", "conjugated", "random", "zero")))
    if kind == "adjoint":
        rep = adjoint(g)
    elif kind == "conjugated":
        rep = _conjugated(adjoint(g), _invertible(draw, n, with_root))
    else:
        m = draw(st.integers(1, 3))
        phi = _invertible(draw, m, with_root)
        entry = small if kind == "random" else st.just(F(0))
        rho = tuple(mat([[draw(entry) for _ in range(m)] for _ in range(m)]) for _ in range(n))
        rep = Representation(g, m, rho, phi)
    if draw(st.booleans()):
        rep = _scaled(rep, draw(st.sampled_from((2, -1, F(1, 3)))))
    for t, r, c, delta in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3), st.integers(0, 3),
                           st.sampled_from((1, -1, F(1, 2), ROOT5))), max_size=1)
    ):
        rep = _corrupted(rep, t, r % rep.m, c % rep.m, delta)
    return rep


@settings(max_examples=150, deadline=None)
@given(differential_reps())
def test_compiled_representation_matches_the_dense_scan(rep):
    fast, ordered = _both_scans(rep)
    assert fast == ordered


@pytest.mark.parametrize("index", range(len(DIFFERENTIAL_FAMILIES)))
def test_perfbench_corrupted_rho_is_caught_alike(index):
    # perfbench's corrupt_rho: entry (0, last) of rho(e_last) raised by 1
    g = DIFFERENTIAL_FAMILIES[index][1]
    rep = adjoint(g)
    fast, ordered = _both_scans(_corrupted(rep, g.dim - 1, 0, g.dim - 1, 1))
    assert fast == ordered and not fast[0]
    fast, ordered = _both_scans(rep)
    assert fast == ordered
    # the adjoint is a representation of every skew family: all but the rotated r3
    assert fast[0] == (g is not R3_FAMILIES[0][1])


def test_rational_algebra_with_a_quadratic_phi():
    g = build_semi_euclidean(0)[0]
    phi = alpha_block(4, F(1, 2))[0]
    rho = (mat([[ROOT5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]),) + (zero_mat(4, 4),) * 3
    for candidate in (Representation(g, 4, rho, phi), zero_representation(g, 4, phi)):
        assert candidate.kernel.kernel.d == F(5, 4)
        fast, ordered = _both_scans(candidate)
        assert fast == ordered


def test_mixed_discriminants_raise_on_both_paths():
    half = build_semi_euclidean(F(1, 2))[0]
    zero = build_semi_euclidean(0)[0]
    other = QuadExt(0, 1, F(2))
    rho = [list(map(list, r)) for r in adjoint(half).rho]
    rho[0][0][1] = other
    cases = [
        # a Q(sqrt 2) entry in rho(e_0) of a Q(sqrt 5) algebra
        Representation(half, 4, tuple(mat(r) for r in rho), half.twist),
        # a rational algebra whose rho and phi hold different roots
        Representation(zero, 4, (mat([[other, 0, 0, 0]] + [[0] * 4] * 3),) + (zero_mat(4, 4),) * 3,
                       alpha_block(4, F(1, 2))[0]),
    ]
    for rep in cases:
        for check in (check_representation, reference.check_representation):
            with pytest.raises(BackendMismatchError, match="mixed discriminants"):
                check(rep)


def test_exact_bracket_witness_reads_the_pairs_not_the_dense_view():
    built = build_gl_alpha(GlContext(2, *alpha_block(2, F(1, 2))))
    g = HomAlgebra(built.dim, dict(built.pairs), built.twist, built.backend)
    # twice the adjoint passes compat and fails the bracket equation at (0, 1)
    rep = _scaled(adjoint(built), 2)
    rep = Representation(g, rep.m, rep.rho, rep.phi)
    report = check_representation(rep)
    assert not report.passed and report.witness.at == ("bracket", 0, 1)
    assert "bracket" not in g.__dict__
    dense = reference.check_representation(rep)
    assert report.witness.at == dense.witness.at
    assert repr(report.witness.residual) == repr(dense.witness.residual)


def test_a_float_rho_raises_type_error():
    # the kernel takes exact scalars only; a float entry of rho is refused
    for p, q in ((1.0, 0.0), (1.0, 0.5), (F(1), 0.5)):
        rep = spin_representation(F(1), F(0))
        rho = (anticommuting(p, q),) + rep.rho[1:]
        with pytest.raises(TypeError):
            check_representation(Representation(SE4_ZERO, 2, rho, PHI))


@pytest.mark.parametrize("family", ["se4", "gl2"])
def test_exact_passing_checks_take_no_dense_product(monkeypatch, family):
    theta = F(1, 2)
    if family == "se4":
        g = build_semi_euclidean(theta)[0]
    else:
        g = build_gl_alpha(GlContext(2, *alpha_block(2, theta)))
    reps = [adjoint(g), zero_representation(g, 4, alpha_block(4, theta, g.backend)[0])]

    def dense(*args):
        raise AssertionError("a dense product ran on the exact path")

    # cohomology needs no dense product at all; patch it there too if it has one
    for module in (representation, cohomology):
        monkeypatch.setattr(module, "mat_mul", dense, raising=False)
    for rep in reps:
        assert check_representation(rep).passed
    if family == "se4":
        assert cohomology.check_d_squared(g, reps[0], 1, 0).passed
