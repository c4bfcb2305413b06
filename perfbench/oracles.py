"""Output oracles for every benchmark request, independent of hypbranch.

The closed forms are re-derived here with ``math`` only, so a change to the
library's own closed-form helpers cannot make its outputs agree with itself.

``check(request, exit_code, stdout)`` returns ``(fault, rows, why)``.  A row
is one branch row, one fj/period/packet report, or one check property line.
``fault`` is None when the request passes, DEFECT when it shows only a
symptom of the known defects above DEFECT_DEGREE, and WRONG otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-9

# The fixed 128-node sphere rule stops being exact above this ambient degree:
# ROADMAP defects (a), loss of accuracy, and (b), wrong verdicts.  Their
# symptoms are a wrong l2_norm_sq or period value and nonzero != predicate.
# Above DEFECT_DEGREE those symptoms are DEFECT faults, counted in pass_ratio
# only; every other failure, at any degree, is WRONG and makes the run
# incorrect.
DEFECT_DEGREE = 64
DEFECT = "defect"
WRONG = "wrong"


def sphere_area(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def zonal_norm_sq(a: int, n: int) -> float:
    """|C_a^nu|^2 over S^{n-1}, nu = (n-2)/2, from Gegenbauer orthogonality."""
    nu = (n - 2) / 2.0
    line = math.pi * 2.0 ** (1.0 - 2.0 * nu) * math.exp(
        math.lgamma(a + 2.0 * nu) - math.lgamma(a + 1.0) - 2.0 * math.lgamma(nu)
    ) / (a + nu)
    return sphere_area(n - 1) * line


def radial(a_exp: float, c_exp: float) -> float:
    """int_0^inf sinh^a cosh^c dt = B((a+1)/2, -(a+c)/2) / 2."""
    x, y = (a_exp + 1.0) / 2.0, -(a_exp + c_exp) / 2.0
    return 0.5 * math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _close(value, expected, scale) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= REL_TOL * abs(scale)


def ambient_degree(p, q, lam_x2):
    return (lam_x2 - 2 + p - q) // 2


def decay_x2(p, q, lam_x2):
    """Twice the decay exponent -lambda + 1 - (p+q)/2 on a space of signature (p, q)."""
    return -lam_x2 + 2 - (p + q)


def g1_degree(p, q, t_x2):
    twice = t_x2 - 2 + (p - 1) - q
    return twice // 2 if twice % 2 == 0 and twice >= 0 else None


def g2_degree(p, q, t_x2):
    twice = t_x2 - 2 + p - (q - 1)
    return twice // 2 if twice % 2 == 0 and twice >= 0 else None


def _check_fj(prm, out):
    p, q, lam_x2 = prm["p"], prm["q"], prm["lam_x2"]
    rep = json.loads(out)
    a, e_x2 = ambient_degree(p, q, lam_x2), decay_x2(p, q, lam_x2)
    if rep["a"] != a or rep["exponent_x2"] != e_x2:
        return WRONG, 1, f"degree/exponent {rep['a']}/{rep['exponent_x2']} != {a}/{e_x2}"
    expected = sphere_area(p) * zonal_norm_sq(a, q) * radial(p - 1, q - 1 + e_x2)
    if not _close(rep["l2_norm_sq"], expected, expected):
        return DEFECT, 1, f"l2_norm_sq {rep['l2_norm_sq']!r} != closed form {expected!r}"
    return None, 1, ""


def _check_period(prm, out):
    p, q, lam_x2, t_x2 = prm["p"], prm["q"], prm["lam_x2"], prm["target_x2"]
    rep = json.loads(out)
    a = ambient_degree(p, q, lam_x2)
    sp, sq = (p - 1, q) if prm["subgroup"] == "g1" else (p, q - 1)
    e_sum = (decay_x2(p, q, lam_x2) + decay_x2(sp, sq, t_x2)) / 2.0
    mismatch = f"nonzero={rep['nonzero']} but predicate={rep['predicate_nonzero']}"
    if prm["subgroup"] == "g1":
        c = g1_degree(p, q, t_x2)
        if rep["predicate_nonzero"] != (c == a) or (rep["degree_a"], rep["degree_target"]) != (a, c):
            return WRONG, 1, "g1 predicate or degrees differ from nu = lambda + 1/2"
        if rep["nonzero"] != rep["predicate_nonzero"]:
            return DEFECT, 1, mismatch
        r = radial(p - 2, q - 1 + e_sum)
        scale = sphere_area(p - 1) * math.sqrt(zonal_norm_sq(a, q) * zonal_norm_sq(c, q)) * r
        expected = scale if c == a else 0.0
        if not _close(rep["value"], expected, scale):
            return DEFECT, 1, f"value {rep['value']!r} != delta_(a,c) closed form {expected!r}"
        return None, 1, ""
    b = g2_degree(p, q, t_x2)
    if rep["predicate_nonzero"] != (0 <= b <= a) or (rep["degree_a"], rep["degree_target"]) != (a, b):
        return WRONG, 1, "g2 predicate or degrees differ from 0 <= b <= a"
    if rep["witness_used"] != prm["witness"]:
        return WRONG, 1, "witness_used does not echo --witness"
    r = radial(p - 1, q - 2 + e_sum)
    if not (_close(rep["radial_factor"], r, r) and _close(rep["sphere_factor"], sphere_area(p), sphere_area(p))):
        return WRONG, 1, "radial or sphere factor differs from its closed form"
    if rep["nonzero"] != rep["predicate_nonzero"]:
        return DEFECT, 1, mismatch
    return None, 1, ""


def _parse_rows(fmt, out):
    if fmt == "json":
        return json.loads(out)
    rows = list(csv.DictReader(io.StringIO(out)))
    flags = ("converges", "nonzero", "predicate")
    return [{**r, **{k: r[k] == "true" for k in flags}, "target_x2": int(r["target_x2"])} for r in rows]


def _check_branch(prm, out):
    p, q, lam_x2, sub = prm["p"], prm["q"], prm["lam_x2"], prm["subgroup"]
    rows = _parse_rows(prm["format"], out)
    a = ambient_degree(p, q, lam_x2)
    degree = g1_degree if sub == "g1" else g2_degree
    expected = [t for t in range(1, prm["max_target_x2"] + 1) if degree(p, q, t) is not None]
    if [r["target_x2"] for r in rows] != expected:
        return WRONG, len(rows), f"targets {[r['target_x2'] for r in rows]} != {expected}"
    faults = {}  # the first failing row of each fault
    for r in rows:
        d = degree(p, q, r["target_x2"])
        closed = d == a if sub == "g1" else d <= a
        if not r["converges"] or r["predicate"] != closed:
            fault = WRONG
        elif r["nonzero"] != r["predicate"]:
            fault = DEFECT
        else:
            continue
        faults.setdefault(fault, f"target_x2={r['target_x2']}: converges={r['converges']} "
                                 f"nonzero={r['nonzero']} predicate={r['predicate']} closed form={closed}")
    for fault in (WRONG, DEFECT):
        if fault in faults:
            return fault, len(rows), faults[fault]
    return None, len(rows), ""


def _check_packet(prm, out):
    rep = json.loads(out)
    if rep["size"] != 2 or rep["coset_space_size"] != prm["p"] + prm["q"] or len(rep["members"]) != 2:
        return WRONG, 1, f"size={rep['size']} coset_space_size={rep['coset_space_size']}"
    return None, 1, ""


def _check_check(prm, out):
    lines = out.strip().splitlines()
    props = [ln for ln in lines if ln.startswith("[")]
    if not props or any(not ln.startswith("[PASS]") for ln in props):
        return WRONG, len(props), "; ".join(ln for ln in props if not ln.startswith("[PASS]"))
    if lines[-1] != f"{len(props)}/{len(props)} properties passed":
        return WRONG, len(props), f"summary line {lines[-1]!r}"
    return None, len(props), ""


CHECKERS = {
    "fj": _check_fj,
    "period": _check_period,
    "branch": _check_branch,
    "packet": _check_packet,
    "check": _check_check,
}


def check(request: dict, exit_code: int, stdout: str) -> tuple[str | None, int, str]:
    if exit_code != request["expect"]:
        return WRONG, 0, f"exit code {exit_code}, expected {request['expect']}"
    if request["expect"] != 0:
        return None, 0, ""
    try:
        fault, rows, why = CHECKERS[request["kind"]](request["params"], stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return WRONG, 0, f"unreadable output: {exc!r}"
    if fault == DEFECT and not (request["a"] is not None and request["a"] > DEFECT_DEGREE):
        fault = WRONG
    return fault, rows, why
