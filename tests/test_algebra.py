import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from skewhom.algebra import (
    HomAlgebra,
    Verdict,
    algebra_from_dict,
    algebra_to_dict,
    bracket_eval,
    check_hom_jacobi,
    check_morphism,
    check_power_sign_law,
    check_twist_sign,
    classify,
    load_algebra,
    save_algebra,
)
from skewhom.constructions import (
    GlContext,
    ad_alpha_squared_matrix,
    alpha_block,
    alpha_theta,
    build_gl_alpha,
    build_r3_cross,
    build_semi_euclidean,
)
from skewhom.errors import DimensionError, FileFormatError
from skewhom.linalg import (
    basis_vec,
    identity,
    mat,
    mat_vec,
    vec_add,
    vec_neg,
    zero_vec,
)
from skewhom.scalars import QuadExt, quadratic_backend, rational_backend

from reference import mat_scale
from strategies import int_vectors


@pytest.fixture(scope="module")
def cross_id():
    return build_r3_cross(identity(3))


@pytest.fixture(scope="module")
def se4_algebras():
    return {theta: build_semi_euclidean(theta) for theta in (0, 1, F(1, 2))}


def test_bracket_of_vector_with_itself_vanishes(cross_id):
    x = (F(3), F(-2), F(5))
    assert bracket_eval(cross_id, x, x) == (0, 0, 0)


def test_cross_product_table(cross_id):
    assert bracket_eval(cross_id, basis_vec(3, 0), basis_vec(3, 1)) == basis_vec(3, 2)


def test_se4_basis_bracket(se4_algebras):
    g, _ = se4_algebras[0]
    assert bracket_eval(g, basis_vec(4, 0), basis_vec(4, 1)) == (F(-1), 0, 0, F(-1))


def test_hom_jacobi_for_cross_product(cross_id):
    assert check_hom_jacobi(cross_id).passed


def test_hom_jacobi_for_se4_family(se4_algebras):
    for theta, (g, _) in se4_algebras.items():
        assert check_hom_jacobi(g).passed, theta


def test_squared_twist_jacobi_vanishes_identically_in_dim_two():
    # With a 2x2 alpha squaring to -id, the twisted commutator satisfies the
    # plain Jacobi identity outright (a Cayley-Hamilton coincidence of 2x2
    # matrices), so the squared twist Ad_alpha**2 = id yields a passing check.
    alpha, be = alpha_theta(0)
    base = build_gl_alpha(GlContext(2, alpha, be))
    g = HomAlgebra(4, base.bracket, ad_alpha_squared_matrix(GlContext(2, alpha, be)), be)
    assert check_hom_jacobi(g).passed


def test_squared_twist_jacobi_fails_in_dim_four():
    alpha, be = alpha_block(4, 0)
    ctx = GlContext(4, alpha, be)
    base = build_gl_alpha(ctx)
    g = HomAlgebra(16, base.bracket, ad_alpha_squared_matrix(ctx), be)
    report = check_hom_jacobi(g)
    assert not report.passed
    assert report.witness is not None
    assert report.witness.at == (0, 1, 2)


def test_twist_sign_identity(cross_id):
    ts = check_twist_sign(cross_id)
    assert ts.sign == 1 and not ts.abelian and not ts.both


def test_twist_sign_se4(se4_algebras):
    for theta, (g, _) in se4_algebras.items():
        assert check_twist_sign(g).sign == -1, theta


def test_twist_sign_reflection():
    g = build_r3_cross(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    assert check_twist_sign(g).sign == -1


def test_twist_sign_abelian_convention():
    zero_table = tuple(tuple(zero_vec(2) for _ in range(2)) for _ in range(2))
    g = HomAlgebra(2, zero_table, mat([[0, 1], [-1, 0]]), build_r3_cross(identity(3)).backend)
    ts = check_twist_sign(g)
    assert ts.sign == 1 and ts.abelian and ts.both


def test_classify_lie(cross_id):
    c = classify(cross_id)
    assert c.verdict == Verdict.LIE and c.regular


def test_classify_se4_regular(se4_algebras):
    g, _ = se4_algebras[1]
    c = classify(g)
    assert c.verdict == Verdict.SKEW_HOM_LIE
    assert c.regular  # P is an involution, hence invertible


def test_classify_scaled_twist_is_neither(cross_id):
    g = HomAlgebra(3, cross_id.bracket, mat_scale(F(2), identity(3)), cross_id.backend)
    c = classify(g)
    assert c.verdict == Verdict.NEITHER
    assert c.witness is not None and c.witness.at == (0, 1)


def test_power_sign_law(se4_algebras):
    g_half, _ = se4_algebras[F(1, 2)]
    alpha, be = alpha_theta(0)
    gl = build_gl_alpha(GlContext(2, alpha, be))
    for m in (1, 2, 3):
        assert check_power_sign_law(g_half, m).passed
        assert check_power_sign_law(gl, m).passed


def test_power_sign_law_m1_equals_twist_sign(se4_algebras):
    g, _ = se4_algebras[0]
    assert check_power_sign_law(g, 1).passed
    assert check_twist_sign(g).sign == -1


def test_identity_morphism_signs(se4_algebras):
    g, _ = se4_algebras[1]
    assert check_morphism(identity(4), g, g, 1).passed
    report = check_morphism(identity(4), g, g, -1)
    assert not report.passed  # would force [x, y] = -[x, y]


def test_morphism_intertwine_leg_failure(cross_id):
    # abelian brackets make the bracket leg trivial; distinct twists then
    # fail only on the intertwining law
    zero_table = tuple(tuple(zero_vec(2) for _ in range(2)) for _ in range(2))
    g = HomAlgebra(2, zero_table, mat([[0, 1], [-1, 0]]), cross_id.backend)
    h = HomAlgebra(2, zero_table, identity(2), cross_id.backend)
    report = check_morphism(identity(2), g, h, 1)
    assert not report.passed
    assert report.witness.at[0] == "twist"


def test_morphism_scaled_map_breaks_bracket_leg(se4_algebras):
    g, _ = se4_algebras[0]
    f = mat_scale(F(2), identity(4))
    report = check_morphism(f, g, g, 1)
    assert not report.passed
    assert report.witness.at[0] == "bracket"


# --- file format


def test_file_round_trip(tmp_path, se4_algebras):
    g, _ = se4_algebras[1]
    path = tmp_path / "se4.json"
    save_algebra(g, path)
    loaded = load_algebra(path)
    assert loaded == g
    assert classify(loaded) == classify(g)


def test_loader_rejects_antisymmetry_violation(se4_algebras):
    g, _ = se4_algebras[0]
    doc = algebra_to_dict(g)
    first = doc["bracket"][0]
    doc["bracket"].append(
        {"i": first["j"], "j": first["i"], "value": first["value"]}
    )
    with pytest.raises(FileFormatError, match="antisymmetry"):
        algebra_from_dict(doc)


def test_loader_accepts_consistent_mirror(se4_algebras):
    g, _ = se4_algebras[0]
    doc = algebra_to_dict(g)
    first = doc["bracket"][0]
    mirrored = {
        "i": first["j"],
        "j": first["i"],
        "value": [str(-F(v)) for v in first["value"]],
    }
    doc["bracket"].append(mirrored)
    assert algebra_from_dict(doc) == g


def test_loader_rejects_nonzero_diagonal(se4_algebras):
    g, _ = se4_algebras[0]
    doc = algebra_to_dict(g)
    doc["bracket"].append({"i": 2, "j": 2, "value": ["1", "0", "0", "0"]})
    with pytest.raises(FileFormatError, match="diagonal"):
        algebra_from_dict(doc)


def test_loader_rejects_duplicates(se4_algebras):
    g, _ = se4_algebras[0]
    doc = algebra_to_dict(g)
    doc["bracket"].append(dict(doc["bracket"][0]))
    with pytest.raises(FileFormatError, match="duplicate"):
        algebra_from_dict(doc)


def test_loader_rejects_wrong_value_length(se4_algebras):
    g, _ = se4_algebras[0]
    doc = algebra_to_dict(g)
    doc["bracket"][0]["value"] = ["1", "0"]
    with pytest.raises(FileFormatError, match="length"):
        algebra_from_dict(doc)


def test_loader_anchors_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "dim": 4,\n  "backend": }\n', encoding="utf-8")
    with pytest.raises(FileFormatError, match="line 3"):
        load_algebra(path)


@pytest.mark.parametrize("kind", ["algebra", "representation", "cochain"])
def test_every_loader_anchors_json_errors(tmp_path, kind):
    from skewhom.cohomology import load_cochain
    from skewhom.representation import load_representation
    from skewhom.scalars import rational_backend

    load = {
        "algebra": load_algebra,
        "representation": load_representation,
        "cochain": lambda path: load_cochain(path, 4, 4, rational_backend()),
    }[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text('{\n  "k": 1,\n  "m": }\n', encoding="utf-8")
    with pytest.raises(FileFormatError) as info:
        load(path)
    assert str(info.value) == "not valid JSON: Expecting value (line 3, column 8)"
    assert info.value.location == "line 3, column 8"


def test_constructor_rejects_asymmetric_table(cross_id):
    table = [list(row) for row in cross_id.bracket]
    table[0][1] = (F(1), F(0), F(0))  # no matching negation at (1, 0)
    with pytest.raises(ValueError, match="antisymmetric"):
        HomAlgebra(3, tuple(tuple(r) for r in table), identity(3), cross_id.backend)


def test_constructor_rejects_pairs_keyed_j_i():
    # read unchecked, the reflection's table keyed (j, i) classified as HomLie
    g = build_r3_cross(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    assert classify(g).verdict == Verdict.SKEW_HOM_LIE
    mirrored = {(j, i): vec_neg(value) for (i, j), value in g.pairs.items()}
    with pytest.raises(ValueError, match=r"pair \(1, 0\) is not an i<j pair in range"):
        HomAlgebra(3, mirrored, g.twist, g.backend)


def test_constructor_rejects_a_pair_out_of_range():
    with pytest.raises(ValueError, match=r"pair \(0, 5\) is not an i<j pair in range"):
        HomAlgebra(3, {(0, 5): basis_vec(3, 1)}, identity(3), rational_backend())


def test_constructor_rejects_a_short_value():
    with pytest.raises(DimensionError, match=r"bracket\[0\]\[1\] must have length 3"):
        HomAlgebra(3, {(0, 1): (F(1), F(0))}, identity(3), rational_backend())


def test_constructor_drops_all_zero_values_and_sorts_the_pairs():
    backend = quadratic_backend(F(1, 2))
    zero = (0, F(0), QuadExt(0, 0, F(5, 4)))
    g = HomAlgebra(3, {(1, 2): zero, (0, 2): basis_vec(3, 1), (0, 1): zero}, identity(3), backend)
    assert list(g.pairs) == [(0, 2)]
    assert HomAlgebra(3, {(0, 1): zero_vec(3)}, identity(3), backend) == HomAlgebra(
        3, {}, identity(3), backend
    )


def test_saved_gl4_writes_rational_entries_as_fraction_strings(tmp_path):
    g = build_gl_alpha(GlContext(4, *alpha_block(4, F(1, 2))))
    path = tmp_path / "gl4.json"
    save_algebra(g, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    stored = [*(x for value in g.pairs.values() for x in value), *(x for row in g.twist for x in row)]
    written = [*(x for e in doc["bracket"] for x in e["value"]), *(x for row in doc["twist"] for x in row)]
    assert len(written) == len(stored)
    for x, text in zip(stored, written):
        assert isinstance(text, str) == isinstance(x, F)
    assert written.count("0") > len(written) // 2
    assert load_algebra(path) == g


# --- property tests

SE4_ONE = build_semi_euclidean(1)[0]
SE4_HALF = build_semi_euclidean(F(1, 2))[0]


@given(int_vectors(4), int_vectors(4))
def test_twist_anticommutes_on_random_vectors(x, y):
    g = SE4_ONE
    lhs = mat_vec(g.twist, bracket_eval(g, x, y))
    rhs = bracket_eval(g, mat_vec(g.twist, x), mat_vec(g.twist, y))
    assert lhs == vec_neg(rhs)


def hom_jacobi_residual(g, x, y, z):
    """The cyclic sum [[y,z],beta(x)] + [[z,x],beta(y)] + [[x,y],beta(z)]."""
    terms = ((y, z, x), (z, x, y), (x, y, z))
    out = zero_vec(g.dim)
    for u, v, w in terms:
        out = vec_add(out, bracket_eval(g, bracket_eval(g, u, v), mat_vec(g.twist, w)))
    return out


@settings(max_examples=25, deadline=None)
@given(int_vectors(4), int_vectors(4), int_vectors(4))
def test_hom_jacobi_residual_vanishes_on_random_triples(x, y, z):
    assert hom_jacobi_residual(SE4_HALF, x, y, z) == (0, 0, 0, 0)


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(4)))
def test_classify_invariant_under_basis_permutation(perm):
    g = SE4_ONE
    n = g.dim
    inv = [perm.index(i) for i in range(n)]
    # relabel basis e_i -> e_{perm[i]}
    bracket = tuple(
        tuple(
            tuple(g.bracket[inv[i]][inv[j]][inv[k]] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    twist = tuple(
        tuple(g.twist[inv[i]][inv[j]] for j in range(n)) for i in range(n)
    )
    permuted = HomAlgebra(n, bracket, twist, g.backend)
    assert classify(permuted).verdict == classify(g).verdict


def test_classify_skips_the_jacobi_scan_without_a_twist_sign(monkeypatch):
    from skewhom import algebra

    alpha, be = alpha_block(4, 0)
    gl4 = build_gl_alpha(GlContext(4, alpha, be))
    g = HomAlgebra(16, gl4.bracket, mat_scale(F(2), gl4.twist), be)
    sign = check_twist_sign(g)
    assert sign.sign is None

    def no_scan(g):
        raise AssertionError("the Jacobi scan ran")

    monkeypatch.setattr(algebra, "check_hom_jacobi", no_scan)
    c = classify(g)
    assert c.verdict == Verdict.NEITHER and c.witness == sign.witness


def test_loader_refuses_a_dimension_over_the_limit(se4_algebras):
    from skewhom.algebra import MAX_DIM

    doc = algebra_to_dict(se4_algebras[0][0])
    doc["dim"] = MAX_DIM + 1
    with pytest.raises(FileFormatError, match=f"limit of {MAX_DIM}") as info:
        algebra_from_dict(doc)
    assert info.value.location == "dim"


def test_loader_reads_an_empty_bracket_at_the_dimension_limit_cheaply(tmp_path):
    import json
    import time
    import tracemalloc

    from skewhom.algebra import MAX_DIM

    n = MAX_DIM
    doc = {
        "dim": n,
        "backend": {"kind": "rational"},
        "bracket": [],
        "twist": [["1" if r == c else "0" for c in range(n)] for r in range(n)],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    g = load_algebra(path)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        load_algebra(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.dim == n and g.pairs == {} and "bracket" not in vars(g)
    # measured 0.08 s and a 1.15 MB peak; a dense n x n x n table with an
    # n**2 antisymmetry check took 5-6 s and 19 MB
    assert seconds < 1.0
    assert peak < 3_000_000
