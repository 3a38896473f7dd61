"""Reference oracle for the sampled H2 check: one sample, one norm at a time.

This is the per-sample loop `validate_h2_derivative` ran before it stacked
its Jacobians, with the single-matrix `operator_norm` of that time. The
tests compare the library against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from coincide.linalg import NormTag, as_matrix, random_direction
from coincide.majorant import smallest_crossing
from coincide.solver import H2_REL_SLACK, H2Report


def reference_operator_norm(M, from_tag: NormTag, to_tag: NormTag) -> float:
    M = as_matrix(M)
    if from_tag == NormTag.L2 and to_tag == NormTag.L2:
        return float(np.linalg.svd(M, compute_uv=False)[0])
    if from_tag == NormTag.LINF and to_tag == NormTag.LINF:
        return float(np.max(np.sum(np.abs(M), axis=1)))
    if from_tag == NormTag.L2 and to_tag == NormTag.LINF:
        return float(np.max(np.linalg.norm(M, axis=1)))
    n = M.shape[1]
    k = np.arange(2 ** max(n - 1, 0))
    signs = ((k[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    signs[:, -1] = 1.0
    return float(np.max(np.linalg.norm(signs @ M.T, axis=1)))


def reference_validate_h2(inst, samples: int, tau_hi: float | None = None,
                          seed: int = 1234) -> H2Report:
    pair = inst.majorants
    if tau_hi is None:
        tau_hi = smallest_crossing(pair)
    rng = np.random.default_rng(seed)
    violations = 0
    max_excess = 0.0
    for _ in range(samples):
        tau = rng.uniform(pair.tau0, tau_hi)
        rho = rng.uniform(0.0, tau - pair.tau0) if tau > pair.tau0 else 0.0
        x = inst.x0 + rho * random_direction(rng, inst.x0.size, inst.cover.norm_x)
        J = np.atleast_2d(inst.phi.jacobian(x))
        op = reference_operator_norm(J, inst.cover.norm_x, inst.cover.norm_y)
        bound = pair.phi.derivative(tau) * (1.0 + H2_REL_SLACK)
        if op > bound:
            violations += 1
            max_excess = max(max_excess, op - bound)
    return H2Report(samples=samples, violations=violations, max_excess=max_excess)
