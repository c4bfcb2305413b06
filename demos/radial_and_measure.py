"""Walk through the chart, the invariant measure, and the radial integrals.

Every integral over X(p, q) in this library separates into sphere factors
and a single radial cosh/sinh-power integral; this script shows the radial
piece: its closed form, which is exact for integer exponents, next to the
Gauss quadrature that cross-checks it.
"""

import numpy as np

from hypbranch import (
    ChartPoint,
    HyperboloidChart,
    measure_weight,
    phi,
    radial_integral_closed,
    radial_integral_numeric,
)
from hypbranch.errors import DivergenceError
from hypbranch.geometry import q_form, radial_integral_truncated

chart = HyperboloidChart(4, 4)
rng = np.random.default_rng(0)

print("== the chart lands on Q = -1 ==")
for t in (0.0, 0.5, 2.0):
    y = rng.normal(size=4)
    y /= np.linalg.norm(y)
    yp = rng.normal(size=4)
    yp /= np.linalg.norm(yp)
    point = phi(chart, ChartPoint(y, yp, t))
    print(f"  t = {t:4.1f}:  Q(Phi, Phi) = {q_form(point, point, 4, 4):+.12f}")

print()
print("== invariant measure density sinh^3 cosh^3 on X(4,4) ==")
for t in (0.5, 1.0, 2.0):
    print(f"  t = {t:4.1f}:  weight = {measure_weight(chart, t):12.6f}")

print()
print("== radial integrals R(a, c) = int sinh^a cosh^c dt: exact closed form, Gauss cross-check ==")
for a_exp, c_exp in ((1, -3), (3, -7), (0, -2), (5, -9)):
    closed = radial_integral_closed(a_exp, c_exp)
    numeric, err = radial_integral_numeric(a_exp, c_exp)
    print(f"  R({a_exp}, {c_exp:3d}):  closed = {closed:.15f}   numeric = {numeric:.15f}   est err = {err:.1e}")

print()
print("== divergence is detected at the exact threshold a + c = 0 ==")
try:
    radial_integral_closed(3, -3)
except DivergenceError as exc:
    print(f"  R(3, -3) raises: {exc}")
print("  truncations of the divergent R(2, -1):")
for t_max in (5, 10, 20):
    print(f"    T = {t_max:2d}:  {radial_integral_truncated(2, -1, t_max):12.4f}")
