"""qzeta: exact motivic and topological zeta functions of monomial pairs
on abelian quotient singularities, with resolution-based cross-checks."""

from .groups import (
    GroupAction,
    NotSmall,
    SizeLimit,
    group_literal,
    is_small,
    parse_group_literal,
    small_reduce,
)
from .monodromy import (
    CyclotomicProduct,
    yomdin_charpoly,
)
from .resolution import (
    Chain2D,
    NotCoprime,
    YomdinParams,
    hj_resolve,
    hj_stratification,
    tetra_stratification,
    tetra_top_closed,
    tetra_zeta_closed,
    yomdin_stratification,
    yomdin_top_closed,
    yomdin_zeta_closed,
)
from .strata import ParseError, StrataFile, UndeclaredSymbol, parse_strata, render_strata
from .symring import (
    FractionalPowerUnevaluable,
    MissingChi,
    MotPoly,
    RatFunc,
    StdFactor,
    TopZeta,
    ZetaExpr,
    candidate_poles,
    euler_specialize,
    fac,
    render_poly,
    render_poly_factored,
    render_zeta,
    series_expand,
    ze_equal,
    ze_to_ratfunc,
)
from .tetra import (
    BadParams,
    TetraGroup,
    TetraParams,
    build_tetra,
    conjugacy_count,
    is_small_tetra,
    stringy_euler_tetra,
)
from .zetacore import (
    BudgetExceeded,
    DimensionMismatch,
    Stratification,
    Stratum,
    TInCoefficient,
    affine_monomial_zeta,
    gor_measure_origin,
    infer_gindex,
    jet_count_oracle,
    local_monomial_zeta,
    orb_measure_origin,
    s_g_sum,
    stratified_zeta,
    veys_det_713,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # symring
    "MotPoly", "StdFactor", "fac", "ZetaExpr", "RatFunc", "TopZeta",
    "MissingChi", "FractionalPowerUnevaluable",
    "ze_to_ratfunc", "ze_equal", "candidate_poles", "series_expand",
    "euler_specialize",
    "render_poly", "render_poly_factored", "render_zeta",
    # groups
    "GroupAction", "NotSmall", "SizeLimit",
    "is_small", "small_reduce",
    "parse_group_literal", "group_literal",
    # tetra
    "TetraParams", "TetraGroup", "BadParams", "build_tetra",
    "is_small_tetra", "conjugacy_count", "stringy_euler_tetra",
    # zetacore
    "TInCoefficient", "DimensionMismatch", "BudgetExceeded",
    "s_g_sum", "local_monomial_zeta", "affine_monomial_zeta",
    "Stratum", "Stratification", "infer_gindex", "stratified_zeta",
    "gor_measure_origin", "orb_measure_origin",
    "veys_det_713", "jet_count_oracle",
    # resolution
    "Chain2D", "NotCoprime", "hj_resolve", "hj_stratification",
    "YomdinParams", "yomdin_stratification", "yomdin_zeta_closed", "yomdin_top_closed",
    "tetra_stratification", "tetra_zeta_closed", "tetra_top_closed",
    # monodromy
    "CyclotomicProduct", "yomdin_charpoly",
    # strata files
    "ParseError", "UndeclaredSymbol", "StrataFile", "parse_strata", "render_strata",
]
