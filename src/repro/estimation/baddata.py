"""Bad data detection and identification.

Two classical procedures (Abur & Exposito, ch. 5) on top of the WLS
residual:

* the **chi-square test** on the weighted residual sum of squares —
  this is the detector UFDI attacks are designed to evade (paper
  Section II-B): the objective follows a chi-square distribution with
  ``m - n`` degrees of freedom under Gaussian errors, and the alarm
  fires when it exceeds the ``1 - alpha`` quantile;
* **largest normalized residual (LNR)** identification, which locates
  which measurement is bad using the residual covariance
  ``Omega = R - H G^{-1} H^T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.estimation.wls import StateEstimate, gain_matrix, wls_estimate


@dataclass(frozen=True)
class BadDataResult:
    """Outcome of a chi-square bad-data test."""

    objective: float
    threshold: float
    dof: int
    alpha: float

    @property
    def bad_data_detected(self) -> bool:
        return self.objective > self.threshold


def chi_square_threshold(dof: int, alpha: float = 0.01) -> float:
    """The detection threshold tau at significance level ``alpha``."""
    if dof <= 0:
        raise ValueError("chi-square test needs positive degrees of freedom")
    from scipy import stats

    return float(stats.chi2.ppf(1.0 - alpha, dof))


def chi_square_test(estimate: StateEstimate, alpha: float = 0.01) -> BadDataResult:
    """Run the chi-square bad-data test on a WLS estimate."""
    threshold = chi_square_threshold(estimate.dof, alpha)
    return BadDataResult(
        objective=estimate.objective,
        threshold=threshold,
        dof=estimate.dof,
        alpha=alpha,
    )


def residual_covariance(
    h: np.ndarray, weights: Optional[Sequence[float]] = None
) -> np.ndarray:
    """``Omega = R - H G^{-1} H^T`` where ``R = W^{-1}``."""
    h = np.asarray(h, dtype=float)
    m = h.shape[0]
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    g = gain_matrix(h, w)
    return np.diag(1.0 / w) - h @ np.linalg.solve(g, h.T)


def largest_normalized_residuals(
    h: np.ndarray,
    z: np.ndarray,
    weights: Optional[Sequence[float]] = None,
    top: int = 5,
) -> List[Tuple[int, float]]:
    """Rank measurements by normalized residual (largest first).

    Returns up to ``top`` pairs ``(row_index, r_N)``; the first entry is
    the LNR suspect.  Rows whose residual variance is (numerically) zero
    are *critical measurements* — their residual is structurally zero
    and they are skipped.
    """
    estimate = wls_estimate(h, z, weights)
    omega = residual_covariance(h, weights)
    diag = np.clip(np.diag(omega), 0.0, None)
    scores: List[Tuple[int, float]] = []
    for i, (r_i, var_i) in enumerate(zip(estimate.residual, diag)):
        if var_i < 1e-10:
            continue  # critical measurement: residual always ~0
        scores.append((i, abs(r_i) / np.sqrt(var_i)))
    scores.sort(key=lambda pair: -pair[1])
    return scores[:top]


def identify_bad_data(
    h: np.ndarray,
    z: np.ndarray,
    weights: Optional[Sequence[float]] = None,
    rn_threshold: float = 3.0,
    max_removals: int = 10,
) -> Tuple[List[int], StateEstimate]:
    """Iteratively remove LNR-suspect measurements until the test passes.

    Returns the removed row indices (into the original H/z) and the
    final estimate.  This is the classical identify-and-purge loop a
    *naive* (non-stealthy) injection triggers; UFDI attacks leave it
    inert, which the integration tests demonstrate.
    """
    h = np.asarray(h, dtype=float)
    z = np.asarray(z, dtype=float)
    m = h.shape[0]
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    active = list(range(m))
    removed: List[int] = []
    while len(removed) < max_removals:
        sub_h, sub_z, sub_w = h[active], z[active], w[active]
        estimate = wls_estimate(sub_h, sub_z, sub_w)
        ranked = largest_normalized_residuals(sub_h, sub_z, sub_w, top=1)
        if not ranked or ranked[0][1] <= rn_threshold:
            return removed, estimate
        removed.append(active.pop(ranked[0][0]))
    return removed, wls_estimate(h[active], z[active], w[active])
