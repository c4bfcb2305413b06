"""Branching verdicts for discrete series on real hyperboloids.

Numerically evaluates the period integrals pairing discrete-series
generating functions over codimension-one orbits of X(p, q), checks the
convergence and non-vanishing criteria against their closed-form predicates
and interlacing patterns, and enumerates the two-element packet
combinatorics (double cosets, pure inner forms, relevant pairs).

The names in ``__all__`` are exported lazily (PEP 562): each imports its home
module on first use, so ``import hypbranch.cli`` loads no numpy.  Half-integers
are doubled ints from argv to text, so that import loads neither ``fractions``
(with ``decimal``) nor ``json``: ``fj`` runs on the standard library alone,
``packet`` adds ``json``, ``branch``, ``period`` and ``check`` add numpy, and
only help and usage errors load ``argparse``.  A public reader that returns a
Fraction (``FJParam.lam``, ``inf_char``, ``valid_lambdas``, ...) imports
``fractions`` when it is called.  Of the package's own modules, that import
loads neither ``packets`` nor ``interlace``: ``branch`` and ``period`` add
``interlace``, whose classes label their rows, and only ``packet`` and
``check`` load ``packets``.
"""

import importlib

# home module -> the names exported from it
_EXPORTS = {
    "errors": "AssumptionError DivergenceError InvalidParameterError ToleranceError",
    "fjrep": "FJParam SpaceTag inf_char is_self_dual l2_norm_sq make_fj_param",
    "harmonics": "fj_eval gegenbauer ktype_pairing_nonzero",
    "interlace": "InterlaceClass interlace_classify",
    "numerics": "gauss_legendre_rule",
    "packets": "RealForm admissibility_table arthur_packet conjecture_explore pure_inner_forms relevant_pairs",
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
