"""gH interval calculus, subgradient sets of convex interval-valued
functions, and weak-sharp-minima verifiers."""

from .intervals import (
    MINUS_INF,
    PLUS_INF,
    Dominance,
    ExtInterval,
    Interval,
    add,
    dominance,
    ext_leq,
    gh_difference,
    inf_family,
    interval_norm,
    leq,
    scalar_mul,
    sup_family,
)
from .ivectors import IVector, special_product, vnorm, vstar
from .expr import EvalError, ExprAst, ParseError, evaluate, parse, to_source
from .geometry import (
    BoxSet,
    OrthantCone,
    Tag,
    cone_ball_support,
    cone_ball_support_sampled,
    dist,
    dist_to_cone,
    normal_cone,
    project,
    tangent_cone,
)
from .ivf import (
    Ivf,
    RestrictedIvf,
    convexity_check,
    dir_derivative,
    dir_derivatives,
    eval_ivf,
    gh_gradient,
    lipschitz_estimate,
    restricted,
)
from .support import (
    FiniteIVecSet,
    IntervalBoxSet,
    OracleIVecSet,
    augment_with_polar_cone,
    boundedness_check,
    default_directions,
    inclusion_test,
    support_dominates,
    support_value,
)
from .subdiff import (
    ExplicitBoxSubdiff,
    SingletonSubdiff,
    SupportOracleSubdiff,
    is_subgradient,
    is_subgradient_directional,
    subdiff_1d,
    subdiff_singleton,
    subdiff_support,
)
from .wsm import (
    CHECKER_NAMES,
    GuardError,
    WsmProblem,
    WsmReport,
    check_all,
    check_definition,
    check_dual_e,
    check_dual_f,
    check_dual_normal_cone,
    check_primal,
    concordant,
    estimate_modulus,
)
from .problems import ProblemFileError, ProblemSpec, build_problem, load_problem_file
