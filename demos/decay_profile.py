"""Profile the radial decay of a generating function.

The function behaves like cosh(t)^{-rate} along the radial direction, so
log |F| against t is a straight line of slope -(lambda - 1 + (p+q)/2) once
t is moderately large; the fitted slope lands within a fraction of a percent.
"""

import numpy as np

from hypbranch import fj_eval, l2_norm_sq, make_fj_param

for p, q, lam in ((4, 4, 2), (4, 6, 3), (5, 5, 1)):
    param = make_fj_param(p, q, lam)
    rate = -float(param.decay_exponent)
    pole = np.zeros(q)
    pole[-1] = 1.0
    ts = np.linspace(2.0, 10.0, 100)
    slope = np.polyfit(ts, np.log(np.abs(fj_eval(param, pole, ts))), 1)[0]
    print(f"(p, q, lambda) = ({p}, {q}, {lam})")
    print(f"  degree a          : {param.degree}")
    print(f"  expected decay    : {rate}")
    print(f"  fitted log-slope  : {-slope:.6f}   (rel gap {abs(slope + rate) / rate:.2e})")
    print(f"  squared L2 norm   : {l2_norm_sq(param):.10f}")
    print()
