"""Exact construction, classification, and verification of finite-dimensional
algebras whose Jacobi identity is twisted by a linear map, together with
their representations, coboundary operators, and the semi-Euclidean family
on R^4 with signature (-, -, +, +)."""

from .algebra import (
    CheckReport,
    Classification,
    HomAlgebra,
    TwistSign,
    Verdict,
    Witness,
    bracket_eval,
    check_hom_jacobi,
    check_morphism,
    check_power_sign_law,
    check_twist_sign,
    classify,
    load_algebra,
    save_algebra,
)
from .cohomology import (
    Cochain,
    basis_cochains,
    check_d_squared,
    coboundary,
    cochain,
    load_cochain,
    save_cochain,
)
from .constructions import (
    GlContext,
    SemiEuclideanContext,
    ad_alpha_squared_counterexample,
    alpha_block,
    alpha_theta,
    build_gl_alpha,
    build_r3_cross,
    build_semi_euclidean,
    check_pseudo_adjoint_identity,
    check_pseudo_adjoint_morphism,
    closed_form_bracket,
    pseudo_adjoint,
    resolve_algebra,
)
from .errors import (
    BackendMismatchError,
    ConstructionError,
    CounterexampleNotFoundError,
    DimensionError,
    FileFormatError,
    PreconditionError,
    SingularMatrixError,
    SkewhomError,
    ZeroDivisorError,
)
from .linalg import (
    Mat,
    Vec,
    cross3,
    det,
    mat_inv,
    mat_mul,
    mat_pow,
)
from .representation import (
    Representation,
    check_representation,
    load_representation,
    rho_eval,
    save_representation,
    search_representation,
    theorem_equivalence,
    zero_representation,
)
from .scalars import (
    QuadExt,
    ScalarBackend,
    quadratic_backend,
    rational_backend,
    rational_is_square,
)
from .se4geometry import (
    CausalType,
    VStarMembership,
    causal_type,
    check_vstar_closure,
    in_v_star,
    pseudo_inner,
    vstar_certificate,
)

__version__ = "0.1.0"
