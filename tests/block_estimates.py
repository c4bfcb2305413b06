"""Block estimates on SO0(p, q): the paper's side estimates, kept as test oracles.

The block decomposition of a group element, the gap between the two image
ellipsoids behind the convergence estimate, the Schwartz-algebra scale, and
the descriptors of the two codimension-one suborbits.  No CLI verb, check
suite or demo runs them; the geometry and acceptance tests do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hypbranch.errors import AssumptionError, InvalidParameterError
from geometry_oracle import HyperboloidChart


class NotInGroupError(ValueError):
    """A matrix fails the pseudo-orthogonality / identity-component checks."""


def minkowski_form(p: int, q: int) -> np.ndarray:
    """The matrix diag(I_p, -I_q) of the defining quadratic form."""
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)]))


@dataclass(frozen=True)
class SuborbitChart:
    """Chart data for a codimension-one subgroup orbit inside X(p, q)."""

    p: int
    q: int
    sphere_dims: tuple[int, int]
    label: str


def suborbit(chart: HyperboloidChart, which: str) -> SuborbitChart:
    """Descriptor of the codimension-one orbit X(p-1, q) ("g1") or X(p, q-1) ("g2").

    The suborbit must itself satisfy the standing assumption, hence p >= 5
    for g1 and q >= 5 for g2.
    """
    tag = which.lower()
    if tag == "g1":
        if chart.p < 5:
            raise AssumptionError("suborbit X(p-1, q) requires p >= 5")
        return SuborbitChart(chart.p - 1, chart.q, (chart.p - 2, chart.q - 1), "g1")
    if tag == "g2":
        if chart.q < 5:
            raise AssumptionError("suborbit X(p, q-1) requires q >= 5")
        return SuborbitChart(chart.p, chart.q - 1, (chart.p - 1, chart.q - 2), "g2")
    raise InvalidParameterError(f"unknown suborbit label {which!r}")


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks A1 (p x p), A2 (p x q), A3 (q x p), A4 (q x q) of g in SO0(p, q).

    Pseudo-orthogonality forces A4 A4^T - A3 A3^T = I.
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray

    def __post_init__(self):
        gap = self.a4 @ self.a4.T - self.a3 @ self.a3.T - np.eye(self.a4.shape[0])
        if np.max(np.abs(gap)) > 1e-8:
            raise NotInGroupError("block identity A4 A4^T - A3 A3^T = I fails (1e-8)")


def block_decompose(g: np.ndarray, p: int, q: int) -> BlockDecomposition:
    """Split g into its (p, q) blocks after verifying group membership.

    Membership: g^T J g = J to 1e-8 with J = diag(I_p, -I_q); the identity
    component is certified by det(A1) > 0 and det(A4) > 0.
    """
    g = np.asarray(g, dtype=float)
    n = p + q
    if g.shape != (n, n):
        raise NotInGroupError(f"expected a {n} x {n} matrix")
    j = minkowski_form(p, q)
    if np.max(np.abs(g.T @ j @ g - j)) > 1e-8:
        raise NotInGroupError("matrix does not preserve the quadratic form (1e-8)")
    a1, a2 = g[:p, :p], g[:p, p:]
    a3, a4 = g[p:, :p], g[p:, p:]
    if np.linalg.det(a1) <= 0 or np.linalg.det(a4) <= 0:
        raise NotInGroupError("matrix is not in the identity component (det A1, det A4 > 0)")
    return BlockDecomposition(a1, a2, a3, a4)


def ellipsoid_gap(blocks: BlockDecomposition) -> tuple[float, float]:
    """Lower bound for |A3 y' + A4 y''| over unit vectors, with the trace bound.

    The two image ellipsoids have parallel axes with semi-axes sqrt(lam_i)
    and sqrt(lam_i - 1) over the eigenvalues of A4^T A4, so the minimum gap
    is min_i (sqrt(lam_i) - sqrt(lam_i - 1)); this always dominates
    (1/4) (tr A4^T A4)^{-1}.
    """
    lam = np.linalg.eigvalsh(blocks.a4.T @ blocks.a4)
    lam = np.clip(lam, 1.0, None)
    q_min = float(np.min(np.sqrt(lam) - np.sqrt(lam - 1.0)))
    bound = 0.25 / float(np.trace(blocks.a4.T @ blocks.a4))
    return q_min, bound


def scale(g: np.ndarray, p: int, q: int) -> float:
    """Schwartz-algebra scale s(g) = tr(g g^T) + tr(g^{-1} g^{-T}).

    Satisfies s(g) = s(g^{-1}) and s(g1 g2) <= s(g1) s(g2).
    """
    g = np.asarray(g, dtype=float)
    j = minkowski_form(p, q)
    g_inv = j @ g.T @ j
    return float(np.sum(g * g) + np.sum(g_inv * g_inv))
