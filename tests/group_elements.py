"""Random elements of SO0(p, q) for property tests."""

import numpy as np
from scipy.linalg import expm


def random_group_element(p: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """exp(Z) for a Q-antisymmetric Z with entries uniform in [-1, 1].

    Z = [[S1, B], [B^T, S2]] with S1, S2 antisymmetric; the exponential lands
    in the identity component SO0(p, q).
    """
    s1 = np.zeros((p, p))
    iu = np.triu_indices(p, 1)
    s1[iu] = rng.uniform(-1.0, 1.0, size=len(iu[0]))
    s1 -= s1.T
    s2 = np.zeros((q, q))
    iu = np.triu_indices(q, 1)
    s2[iu] = rng.uniform(-1.0, 1.0, size=len(iu[0]))
    s2 -= s2.T
    b = rng.uniform(-1.0, 1.0, size=(p, q))
    z = np.block([[s1, b], [b.T, s2]])
    return expm(z)
