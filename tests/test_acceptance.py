"""Acceptance suite: one check per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Two
criteria check the exact form of a statement whose classical wording is
false:

* criterion 2 checks the semi-Euclidean bracket against the closed form
  (a', 0, 0, a') with a' = -s[(x1-x4)(y2+y3) - (x2+x3)(y1-y4)]
  + 2*theta*(x3*y2 - x2*y3), and that the pure-root form without the
  theta-term is exact only at theta = 0: the wedge's theta-terms are
  antisymmetric in (x, y), so they double instead of cancelling;
* criterion 5 checks that no basis triple of gl(R^2) violates the
  Jacobi identity twisted by Ad_alpha**2, while gl(R^4) has one at
  (e11, e12, e13): Ad_alpha**2 = id, and on 2x2 matrices the residual
  vanishes identically.
"""

from fractions import Fraction as F
from random import Random

from skewhom.algebra import (
    HomAlgebra,
    Verdict,
    check_hom_jacobi,
    check_power_sign_law,
    check_twist_sign,
    classify,
    load_algebra,
    save_algebra,
)
from skewhom.cohomology import check_d_squared
from skewhom.constructions import (
    GlContext,
    ad_alpha_squared_counterexample,
    alpha_block,
    alpha_theta,
    build_gl_alpha,
    build_r3_cross,
    build_semi_euclidean,
)
from skewhom.errors import CounterexampleNotFoundError
from skewhom.linalg import (
    identity,
    mat,
    mat_eq,
    mat_mul,
    mat_neg,
    mat_vec,
    vec_eq,
    vec_is_zero,
    vec_neg,
    vec_sub,
)
from skewhom.algebra import bracket_eval
from skewhom.representation import (
    Representation,
    theorem_equivalence,
    zero_representation,
)
from skewhom.se4geometry import in_v_star, vstar_certificate, vstar_draws

from reference import wedge3


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} -- {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_involution_and_null_vector():
    rng = Random(20260811)
    ok = True
    for _ in range(20):
        theta = F(rng.randint(-20, 20), rng.randint(1, 20))
        g, ctx = build_semi_euclidean(theta)
        if not mat_eq(mat_mul(ctx.P, ctx.P), identity(4)):
            ok = False
        if not vec_eq(mat_vec(ctx.P, ctx.r), vec_neg(ctx.r)):
            ok = False
    _criterion(1, "P(theta)**2 = id and P r = -r for 20 random rational theta", ok)


def test_criterion_02_bracket_oracle_agreement():
    rng = Random(2)
    outcomes = []
    for theta in (0, 1, F(1, 2)):
        g, ctx = build_semi_euclidean(theta)
        zero = ctx.backend.coerce(0)
        agree = defect_ok = True
        defects = 0
        for _ in range(200):
            x = tuple(F(rng.randint(-9, 9)) for _ in range(4))
            y = tuple(F(rng.randint(-9, 9)) for _ in range(4))
            px = mat_vec(ctx.P, x)
            py = mat_vec(ctx.P, y)
            determinant_path = vec_sub(wedge3(px, ctx.r, y), wedge3(py, ctx.r, x))
            pure_root = -ctx.s * (
                (x[0] - x[3]) * (y[1] + y[2]) - (x[1] + x[2]) * (y[0] - y[3])
            )
            theta_term = 2 * ctx.theta * (x[2] * y[1] - x[1] * y[2])
            a = pure_root + theta_term
            if not (
                determinant_path == (a, zero, zero, a)
                and bracket_eval(g, x, y) == determinant_path
            ):
                agree = False
            defect = vec_sub(determinant_path, (pure_root, zero, zero, pure_root))
            if defect != (theta_term, zero, zero, theta_term):
                defect_ok = False
            if defect != (zero,) * 4:
                defects += 1
        # the pure-root form is exact at theta = 0 and visibly wrong otherwise
        defect_ok = defect_ok and (defects > 0) == (theta != 0)
        outcomes.append((theta, agree, defect_ok, defects))
    ok = all(agree and defect_ok for _, agree, defect_ok, _ in outcomes)
    detail = "per-theta: " + ", ".join(
        f"{theta}: {'ok' if agree else 'MISMATCH'}, pure-root form off on "
        f"{defects}/200{'' if defect_ok else ' (UNEXPECTED DEFECT)'}"
        for theta, agree, defect_ok, defects in outcomes
    )
    _criterion(
        2,
        "determinant path and structure constants equal (a', 0, 0, a') with "
        "a' = pure-root a + 2*theta*(x3*y2 - x2*y3) at theta in {0, 1, 1/2}",
        ok,
        detail,
    )


def test_criterion_03_se4_classification():
    ok = True
    details = []
    for theta in (0, 1, F(1, 2)):
        g, _ = build_semi_euclidean(theta)
        sign = check_twist_sign(g).sign
        jacobi = check_hom_jacobi(g).passed
        verdict = classify(g).verdict
        good = sign == -1 and jacobi and verdict == Verdict.SKEW_HOM_LIE
        ok = ok and good
        details.append(f"{theta}: sign {sign}, jacobi {jacobi}, {verdict.value}")
    _criterion(3, "se4(theta) classifies as SkewHomLie for theta in {0, 1, 1/2}", ok,
               "; ".join(details))


def test_criterion_04_null_subset_closure():
    rng = Random(4)
    ok = True
    for theta in (0, 1, F(1, 2)):
        g, ctx = build_semi_euclidean(theta)
        # the four-plane proof for every vector, then a sampled second check
        if not vstar_certificate(g, ctx).passed:
            ok = False
        for _ in range(500):
            x = tuple(F(rng.randint(-9, 9)) for _ in range(4))
            y = tuple(F(rng.randint(-9, 9)) for _ in range(4))
            if not in_v_star(bracket_eval(g, x, y)).member:
                ok = False
        for z in vstar_draws(ctx, 200, seed=41):
            if not in_v_star(mat_vec(ctx.P, z)).member:
                ok = False
    _criterion(
        4,
        "bracket values and twist images stay in the null subset: proved for "
        "every vector, and on 500 random pairs and 200 generated members",
        ok,
    )


def test_criterion_05_gl2_family():
    classify_ok = True
    for theta in (0, 1):
        alpha, backend = alpha_theta(theta)
        verdict = classify(build_gl_alpha(GlContext(2, alpha, backend))).verdict
        classify_ok = classify_ok and verdict == Verdict.SKEW_HOM_LIE
    alpha0, backend0 = alpha_theta(0)
    g = build_gl_alpha(GlContext(2, alpha0, backend0))
    involution_ok = mat_eq(mat_mul(g.twist, g.twist), identity(4))

    def scan(ctx):
        try:
            return ad_alpha_squared_counterexample(ctx)
        except CounterexampleNotFoundError:
            return None, None

    # Ad_alpha**2 = id, and the 2x2 residual vanishes identically
    gl2_triples = {}
    for theta in (0, 1):
        alpha, backend = alpha_theta(theta)
        gl2_triples[theta], _ = scan(GlContext(2, alpha, backend))
    gl2_ok = all(triple is None for triple in gl2_triples.values())
    alpha4, backend4 = alpha_block(4, 0)
    gl4_triple, gl4_residual = scan(GlContext(4, alpha4, backend4))
    gl4_ok = gl4_triple == (0, 1, 2) and not vec_is_zero(gl4_residual)
    ok = classify_ok and involution_ok and gl2_ok and gl4_ok
    _criterion(
        5,
        "gl(R^2): SkewHomLie for theta in {0, 1}, involutive conjugation twist, "
        "no squared-twist Jacobi counterexample; gl(R^4) has one at (e11, e12, e13)",
        ok,
        f"classify {classify_ok}, involution {involution_ok}; gl(R^2) triples "
        f"{gl2_triples}; gl(R^4) triple {gl4_triple}",
    )


def test_criterion_06_r3_family():
    reflection = classify(
        build_r3_cross(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    ).verdict
    ident = classify(build_r3_cross(identity(3))).verdict
    rotation = classify(
        build_r3_cross(mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]]))
    ).verdict
    ok = (
        reflection == Verdict.SKEW_HOM_LIE
        and ident in (Verdict.LIE, Verdict.HOM_LIE)
        and rotation == Verdict.HOM_LIE
    )
    _criterion(
        6,
        "r3 family: reflection twist SkewHomLie, identity and rotation twists HomLie",
        ok,
        f"id {ident.value}, reflection {reflection.value}, rotation {rotation.value}",
    )


def test_criterion_07_coboundary_nilpotency(both_paths):
    se4_one, _ = build_semi_euclidean(1)
    alpha0, backend0 = alpha_theta(0)
    gl2 = build_gl_alpha(GlContext(2, alpha0, backend0))
    ok = True
    for g, blk_theta in ((se4_one, 1), (gl2, 0)):
        for phi in (identity(4), alpha_block(4, blk_theta, g.backend)[0]):
            rep = zero_representation(g, 4, phi)
            for k in (1, 2):
                for s in (0, 1, 2):
                    if not all(r.passed for r in both_paths(check_d_squared, g, rep, k, s)):
                        ok = False

    table = [list(row) for row in se4_one.bracket]
    value = list(table[0][1])
    value[1] = value[1] + 1
    table[0][1] = tuple(value)
    table[1][0] = vec_neg(tuple(value))
    broken = HomAlgebra(
        4, tuple(tuple(r) for r in table), se4_one.twist, se4_one.backend
    )
    mutation_detected = not any(
        r.passed
        for r in both_paths(check_d_squared, broken, zero_representation(broken, 4, identity(4)), 1, 0)
    )
    _criterion(
        7,
        "d^s . d^s = 0 on all basis cochains for both families, zero action, "
        "k in {1, 2}, s in {0, 1, 2}; an altered structure constant breaks it",
        ok and mutation_detected,
        f"sweeps {ok}, mutation detected {mutation_detected}",
    )


def test_criterion_08_representation_morphism_equivalence():
    g, _ = build_semi_euclidean(0)
    phi = mat([[0, 1], [-1, 0]])
    rng = Random(8)
    agreements = 0
    passing_seen = failing_seen = 0
    for trial in range(50):
        kind = trial % 3
        if kind == 0:
            p, q = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
            x = mat([[p, q], [q, -p]])
            rho = (x, x, x, mat_neg(x))
        elif kind == 1:
            p, q = F(rng.randint(1, 5)), F(rng.randint(-5, 5))
            x = mat([[p, q], [q, -p]])
            rows = [list(map(list, m)) for m in (x, x, x, mat_neg(x))]
            rows[rng.randrange(4)][rng.randrange(2)][rng.randrange(2)] += rng.choice(
                (-1, 1)
            )
            rho = tuple(mat(m) for m in rows)
        else:
            rho = tuple(
                mat([[F(rng.randint(-1, 1)) for _ in range(2)] for _ in range(2)])
                for _ in range(4)
            )
        rep = Representation(g, 2, rho, phi)
        rep_verdict, morphism_verdict = theorem_equivalence(rep)
        if rep_verdict.passed == morphism_verdict.passed:
            agreements += 1
        if rep_verdict.passed:
            passing_seen += 1
        else:
            failing_seen += 1
    ok = agreements == 50 and passing_seen > 0 and failing_seen > 0
    _criterion(
        8,
        "representation and morphism verdicts agree on 50 candidates "
        "(passing and failing cases both exercised)",
        ok,
        f"agreements {agreements}/50, passing {passing_seen}, failing {failing_seen}",
    )


def test_criterion_09_power_sign_law():
    se4_half, _ = build_semi_euclidean(F(1, 2))
    alpha0, backend0 = alpha_theta(0)
    gl2 = build_gl_alpha(GlContext(2, alpha0, backend0))
    ok = all(
        check_power_sign_law(g, m).passed
        for g in (se4_half, gl2)
        for m in (1, 2, 3)
    )
    _criterion(
        9,
        "twist powers m in {1, 2, 3} carry bracket sign (-1)**m on se4(1/2) and gl2(0)",
        ok,
    )


def test_criterion_10_pseudo_adjoint_identity():
    from skewhom.constructions import check_pseudo_adjoint_identity

    se4_zero, _ = build_semi_euclidean(0)
    alpha0, backend0 = alpha_theta(0)
    gl2 = build_gl_alpha(GlContext(2, alpha0, backend0))
    ok = (
        check_pseudo_adjoint_identity(se4_zero).passed
        and check_pseudo_adjoint_identity(gl2).passed
    )
    _criterion(
        10, "pseudo-adjoint composition identity holds on se4(0) and gl2(0)", ok
    )


def test_criterion_11_file_round_trip(tmp_path):
    g, _ = build_semi_euclidean(1)
    path = tmp_path / "se4_theta_1.json"
    save_algebra(g, path)
    loaded = load_algebra(path)
    ok = (
        loaded == g
        and classify(loaded) == classify(g)
        and check_hom_jacobi(loaded) == check_hom_jacobi(g)
        and check_twist_sign(loaded) == check_twist_sign(g)
    )
    _criterion(11, "serialize/reload of se4(1) preserves every verdict bit-exactly", ok)
