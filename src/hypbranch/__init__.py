"""Branching verdicts for discrete series on real hyperboloids.

Numerically evaluates the period integrals pairing discrete-series
generating functions over codimension-one orbits of X(p, q), checks the
convergence and non-vanishing criteria against their closed-form predicates
and interlacing patterns, and enumerates the two-element packet
combinatorics (double cosets, pure inner forms, relevant pairs).
"""

from .errors import AssumptionError, DivergenceError, InvalidParameterError, ToleranceError
from .fjrep import FJParam, SpaceTag, fj_eval, inf_char, is_self_dual, l2_norm_sq, make_fj_param
from .geometry import (
    ChartPoint,
    HyperboloidChart,
    measure_weight,
    phi,
    radial_integral_closed,
    radial_integral_numeric,
)
from .harmonics import (
    gegenbauer,
    ktype_pairing_nonzero,
    pairing_subsphere,
    sphere_area,
)
from .numerics import gauss_legendre_rule
from .packets import (
    InterlaceClass,
    RealForm,
    admissibility_table,
    arthur_packet,
    conjecture_explore,
    interlace_classify,
    pure_inner_forms,
    relevant_pairs,
)
from .periods import (
    BranchingVerdict,
    PeriodVerdict,
    branching_verdict,
    converges_G1,
    converges_G2,
    nonvanishing_G1,
    nonvanishing_G2,
    period_integral_G1,
    period_integral_G2,
)

__version__ = "0.1.0"
