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
from .expr import EvalError, ExprAst, ParseError, evaluate, parse
from .geometry import (
    BoxSet,
    OrthantCone,
    Tag,
    cone_ball_support,
    dist_to_cone,
)
from .ivf import (
    Ivf,
    RestrictedIvf,
    convexity_check,
    dir_derivatives,
    lipschitz_estimate,
)
from .support import (
    FiniteIVecSet,
    IntervalBoxSet,
    OracleIVecSet,
    boundedness_check,
    default_directions,
)
from .subdiff import (
    is_subgradient,
    is_subgradient_directional,
    subdiff_1d,
    subdiff_support,
)
from .wsm import (
    CHECKERS,
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
