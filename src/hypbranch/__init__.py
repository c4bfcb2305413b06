"""Branching verdicts for discrete series on real hyperboloids.

Numerically evaluates the period integrals pairing discrete-series
generating functions over codimension-one orbits of X(p, q), checks the
convergence and non-vanishing criteria against their closed-form predicates
and interlacing patterns, and enumerates the two-element packet
combinatorics (double cosets, pure inner forms, relevant pairs).

The names in ``__all__`` are exported lazily (PEP 562): each imports its home
module on first use, so ``import hypbranch.cli`` loads no numpy.
"""

import importlib

# home module -> the names exported from it
_EXPORTS = {
    "errors": "AssumptionError DivergenceError InvalidParameterError ToleranceError",
    "fjrep": "FJParam SpaceTag inf_char is_self_dual l2_norm_sq make_fj_param",
    "geometry": "ChartPoint HyperboloidChart measure_weight phi radial_integral_closed radial_integral_numeric",
    "harmonics": "fj_eval gegenbauer ktype_pairing_nonzero pairing_subsphere sphere_area",
    "numerics": "gauss_legendre_rule",
    "packets": "InterlaceClass RealForm admissibility_table arthur_packet conjecture_explore interlace_classify"
    " pure_inner_forms relevant_pairs",
    "periods": "BranchingVerdict PeriodVerdict branching_verdict converges_G1 converges_G2 nonvanishing_G1"
    " nonvanishing_G2 period_integral_G1 period_integral_G2",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
