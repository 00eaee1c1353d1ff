"""Weighted least squares state estimation (paper Eq. 1).

``x_hat = (H^T W H)^{-1} H^T W z`` with W the inverse meter-error
covariance.  The residual ``z - H x_hat`` feeds the bad-data detector.

:func:`wls_estimate` is the one-shot entry point.  Streaming workloads
(the continuous-monitoring emulator estimates every tick) use
:class:`WlsEstimator`, which caches the factorized gain matrix per
(topology, measurement set) key so re-estimation on an unchanged grid
is two triangular solves instead of a fresh factorization.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np


class UnobservableSystemError(ValueError):
    """H is rank-deficient: the state is not estimable from z."""


@dataclass(frozen=True)
class StateEstimate:
    """Result of a WLS estimation.

    ``x_hat``        — estimated states (bus angles, reference removed)
    ``residual``     — ``z - H x_hat``
    ``objective``    — weighted residual sum of squares ``r^T W r``
    ``residual_norm``— the l2 norm ``||z - H x_hat||`` the paper uses
    ``dof``          — degrees of freedom ``m - n`` of the chi-square test
    """

    x_hat: np.ndarray
    residual: np.ndarray
    objective: float
    residual_norm: float
    dof: int


def wls_estimate(
    h: np.ndarray,
    z: np.ndarray,
    weights: Optional[Sequence[float]] = None,
    rank_tol: float = 1e-8,
) -> StateEstimate:
    """Solve the WLS estimation problem.

    ``weights`` are the diagonal of W (reciprocal meter variances); all
    ones by default.  Raises :class:`UnobservableSystemError` when H is
    rank-deficient (unobservable system).
    """
    h = np.asarray(h, dtype=float)
    z = np.asarray(z, dtype=float)
    m, n = h.shape
    if z.shape != (m,):
        raise ValueError(f"z must have length {m}, got {z.shape}")
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"weights must have length {m}, got {w.shape}")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    sqrt_w = np.sqrt(w)
    hw = h * sqrt_w[:, None]
    rank = np.linalg.matrix_rank(hw, tol=rank_tol)
    if rank < n:
        raise UnobservableSystemError(
            f"H has rank {rank} < {n}: system unobservable with this plan"
        )
    x_hat, *_ = np.linalg.lstsq(hw, z * sqrt_w, rcond=None)
    residual = z - h @ x_hat
    objective = float(residual @ (w * residual))
    return StateEstimate(
        x_hat=x_hat,
        residual=residual,
        objective=objective,
        residual_norm=float(np.linalg.norm(residual)),
        dof=m - n,
    )


@dataclass
class _GainFactorization:
    """Cached Cholesky factor of the WLS gain matrix for one plan key."""

    h: np.ndarray
    w: np.ndarray
    hw: np.ndarray  # H^T W, precomputed for the per-tick right-hand side
    cho: Tuple[np.ndarray, bool]  # scipy cho_factor of G = H^T W H
    dof: int


class WlsEstimator:
    """Encode-once/estimate-many WLS for streaming re-estimation.

    The expensive part of a WLS solve is factorizing the gain matrix
    ``G = H^T W H``; for a fixed topology and measurement set G never
    changes, only ``z`` does.  This estimator keeps a small LRU of
    Cholesky factorizations keyed by ``(topology, measurement set)``
    (any hashable key the caller derives from those; content-derived by
    default) and answers each tick with two triangular solves.

    Estimates from the warm path are **identical** to the first (cold)
    call for that key — both run the exact same factorization and solve
    — and agree with :func:`wls_estimate` to solver tolerance (lstsq
    orthogonalizes, the gain path normal-equates; on observable systems
    both solve the same full-rank least-squares problem).
    """

    def __init__(self, max_entries: int = 16, rank_tol: float = 1e-8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.rank_tol = rank_tol
        self._cache: "OrderedDict[Hashable, _GainFactorization]" = OrderedDict()
        self.stats: Dict[str, int] = {
            "estimates": 0,
            "factorizations": 0,
            "cache_hits": 0,
            "evictions": 0,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _content_key(h: np.ndarray, w: np.ndarray) -> str:
        digest = hashlib.sha256()
        digest.update(repr(h.shape).encode())
        digest.update(np.ascontiguousarray(h).tobytes())
        digest.update(np.ascontiguousarray(w).tobytes())
        return digest.hexdigest()

    def _factorize(self, h: np.ndarray, w: np.ndarray) -> _GainFactorization:
        from scipy import linalg as scipy_linalg

        m, n = h.shape
        sqrt_w = np.sqrt(w)
        rank = np.linalg.matrix_rank(h * sqrt_w[:, None], tol=self.rank_tol)
        if rank < n:
            raise UnobservableSystemError(
                f"H has rank {rank} < {n}: system unobservable with this plan"
            )
        hw = h.T * w[None, :]
        gain = hw @ h
        try:
            cho = scipy_linalg.cho_factor(gain)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rank guard above
            raise UnobservableSystemError(f"gain matrix not positive definite: {exc}")
        return _GainFactorization(h=h, w=w, hw=hw, cho=cho, dof=m - n)

    def factorization(
        self,
        h: np.ndarray,
        weights: Optional[Sequence[float]] = None,
        key: Optional[Hashable] = None,
    ) -> _GainFactorization:
        """The (cached) factorization for this H/weights pair."""
        h = np.asarray(h, dtype=float)
        m = h.shape[0]
        w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (m,):
            raise ValueError(f"weights must have length {m}, got {w.shape}")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if key is None:
            key = self._content_key(h, w)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats["cache_hits"] += 1
            return cached
        factorization = self._factorize(h, w)
        self._cache[key] = factorization
        self.stats["factorizations"] += 1
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self.stats["evictions"] += 1
        return factorization

    def estimate(
        self,
        h: np.ndarray,
        z: np.ndarray,
        weights: Optional[Sequence[float]] = None,
        key: Optional[Hashable] = None,
    ) -> StateEstimate:
        """Solve the WLS problem on the cached gain factorization.

        ``key`` identifies the (topology, measurement set) family; pass
        something cheap and stable (e.g. ``(frozenset(mapped_lines),
        tuple(taken))``).  Without it a content hash of H/weights is
        used, which is still far cheaper than refactorizing.
        """
        from scipy import linalg as scipy_linalg

        factorization = self.factorization(h, weights, key=key)
        z = np.asarray(z, dtype=float)
        m = factorization.h.shape[0]
        if z.shape != (m,):
            raise ValueError(f"z must have length {m}, got {z.shape}")
        self.stats["estimates"] += 1
        x_hat = scipy_linalg.cho_solve(factorization.cho, factorization.hw @ z)
        residual = z - factorization.h @ x_hat
        objective = float(residual @ (factorization.w * residual))
        return StateEstimate(
            x_hat=x_hat,
            residual=residual,
            objective=objective,
            residual_norm=float(np.linalg.norm(residual)),
            dof=factorization.dof,
        )

    def snapshot(self) -> Dict[str, Any]:
        """Counters + occupancy (monitor reports, tests)."""
        return {**self.stats, "entries": len(self._cache), "limit": self.max_entries}


def gain_matrix(h: np.ndarray, weights: Optional[Sequence[float]] = None) -> np.ndarray:
    """The WLS gain matrix ``G = H^T W H`` (used by residual analysis)."""
    h = np.asarray(h, dtype=float)
    m = h.shape[0]
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    return h.T @ (h * w[:, None])


def hat_matrix(h: np.ndarray, weights: Optional[Sequence[float]] = None) -> np.ndarray:
    """The projection ``K = H G^{-1} H^T W`` mapping z to estimated z."""
    h = np.asarray(h, dtype=float)
    m = h.shape[0]
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    g = gain_matrix(h, w)
    return h @ np.linalg.solve(g, h.T * w[None, :])
