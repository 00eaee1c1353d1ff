"""State-estimation substrate: measurement model, WLS, bad-data detection.

Implements the estimation pipeline the paper attacks: the measurement
model built from the (possibly poisoned) topology (paper Eq. 2), the
weighted-least-squares estimator (Eq. 1), the chi-square bad-data test
and largest-normalized-residual identification, numerical observability
analysis, and residual-based topology-error detection.

Only the measurement model is re-exported: every verification imports
it, and it needs no numerical library until it builds an array.  Import
the numerical estimator from its module, e.g.
``from repro.estimation.wls import wls_estimate``.
"""

from repro.estimation.measurement import MeasurementPlan, build_h, build_measurements

__all__ = ["MeasurementPlan", "build_h", "build_measurements"]
