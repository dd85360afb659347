"""Independent oracles that the tests check the library against."""
import itertools

import numpy as np

from chaincert.errors import InvalidInputError, SizeCapError
from chaincert.transport import EmpiricalMeasure, _cost_matrix


def w1_bruteforce(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    """Permutation-enumeration oracle for equal-size uniform measures (n <= 8)."""
    n = len(mu1)
    if len(mu2) != n:
        raise InvalidInputError("brute force needs equal atom counts")
    if n > 8:
        raise SizeCapError("brute force enumerates n! matchings; n must be at most 8")
    if not (mu1.is_uniform() and mu2.is_uniform()):
        raise InvalidInputError("brute force needs uniform weights on both sides")
    cost = _cost_matrix(mu1, mu2)
    perms = np.array(list(itertools.permutations(range(n))))
    totals = cost[np.arange(n)[None, :], perms].sum(axis=1)
    return float(totals.min()) / n
