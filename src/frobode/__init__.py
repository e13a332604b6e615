"""Series solutions of second- and third-order linear ODEs at regular
singular points: Frobenius fundamental systems, singularity classification,
Riccati holonomy, and non-homogeneous machinery."""

from .classify import (
    SingularityClass,
    classify_infinity,
    classify_point,
    euler_characterize,
)
from .frobenius import (
    FormalProbe,
    FundamentalSystem,
    WronskianResult,
    formal_probe,
    frobenius_solve,
    residual,
    residual_valuation,
    solve,
    wronskian,
    wronskian_of_system,
    wronskian_ode_solution,
)
from .indicial import (
    CaseTag,
    IndicialData,
    analyze,
    classify_case,
    congruence_classes,
    indicial_polynomial,
    integer_difference,
    solve_roots,
)
from .nonhom import (
    ParticularSolution,
    reduce_order,
    third_from_two,
    variation_of_parameters,
)
from .ode import (
    FrobeniusForm,
    IrregularPointError,
    Ode,
    moebius_pullback,
    shift_to_origin,
    to_frobenius_form,
    transform_to_infinity,
)
from .riccati import (
    Circle,
    MoebiusMap,
    Polyline,
    ProjectivePoint,
    RiccatiModel,
    continue_along_path,
    global_holonomy,
    holonomy_of_loop,
    liouvillian_solution,
    riccati_model,
)
from .scalars import GaussianRational, as_exact, to_complex
from .series import (
    GeneralizedSeries,
    GSTerm,
    JetValuationError,
    Series,
    gs_differentiate,
    gs_evaluate,
    gs_from_series,
    gs_integrate,
    series_div,
    series_inverse,
)

__version__ = "0.1.0"
