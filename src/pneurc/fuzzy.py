"""Takagi-Sugeno fuzzy readout: fuzzy c-means clustering, per-rule weighted
ridge consequents, and Gaussian-membership inference.

Training memberships come from FCM; inference memberships are Gaussian
bells around the same centers. The two are deliberately different stages
of the same identification recipe.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateClusteringError, DimensionError,
                     InvalidDataError, InvalidSpecError)
from .training import ridge_solve

_CENTER_COLLAPSE_TOL = 1e-12


def _sq_distances(centers: np.ndarray, X: np.ndarray,
                  xx: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances, cluster-major: shape (n_c, N), clipped at zero.

    Built as ||x_k||^2 + ||c_i||^2 - 2 c_i . x_k from one ``centers @ X.T``
    GEMM, so every later reduction over clusters or points runs along the
    long contiguous axis. ``xx`` is ||x_k||^2, passed by callers that reuse
    the same rows. The expansion cancels to about eps * ||x||^2 near a
    center; use direct differences where that matters.
    """
    if xx is None:
        xx = np.sum(X * X, axis=1)
    d2 = (-2.0 * centers) @ X.T  # exact: scaling by a power of two
    # (||x||^2 + ||c||^2) is summed first, as in the textbook expansion, and
    # one row at a time so that no second (n_c, N) temporary is allocated
    for row, cc in zip(d2, np.sum(centers * centers, axis=1)):
        row += xx + cc
    return np.maximum(d2, 0.0, out=d2)


def _memberships_from_distances(d2: np.ndarray, m: float) -> np.ndarray:
    """FCM membership update u_ik = 1 / sum_j (d_ik / d_jk)^(2/(m-1)), shape (n_c, N).

    Points that coincide with a center (an infinite inverse distance, hence
    a non-finite column sum) get a one-hot column on that center.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.reciprocal(d2) if m == 2.0 else np.power(d2, -1.0 / (m - 1.0))
        total = np.sum(inv, axis=0)
        u = np.divide(inv, total, out=inv)
    hits = np.flatnonzero(~np.isfinite(total))
    if hits.size:
        u[:, hits] = 0.0
        u[np.argmin(d2[:, hits], axis=0), hits] = 1.0
    return u


def fcm_objective(X: np.ndarray, centers: np.ndarray, u: np.ndarray, m: float) -> float:
    """J = sum_ik u_ik^m ||x_k - c_i||^2, with u shaped (N, n_c)."""
    return float(np.sum((u.T ** m) * _sq_distances(centers, X)))


def _check_center_separation(centers: np.ndarray) -> None:
    """Raise when two centers lie within _CENTER_COLLAPSE_TOL, naming the lowest pair.

    Uses direct differences: the norm expansion's cancellation error at
    |c| ~ 100 (about 1e-9) would swamp the tolerance.
    """
    i, j = np.triu_indices(centers.shape[0], k=1)
    gaps = np.sqrt(np.sum((centers[i] - centers[j]) ** 2, axis=1))
    close = np.flatnonzero(gaps < _CENTER_COLLAPSE_TOL)
    if close.size:
        k = close[0]
        raise DegenerateClusteringError(
            f"cluster centers {i[k]} and {j[k]} collapsed within {_CENTER_COLLAPSE_TOL}")


def fcm_cluster(data, n_c: int, m: float = 2.0, tol: float = 1e-4,
                max_iter: int = 300, seed: int = 0, return_history: bool = False):
    """Fuzzy c-means clustering.

    Centers are initialized from ``n_c`` distinct data rows drawn with the
    seeded generator, then memberships and centers alternate until the
    largest center shift falls below ``tol`` or ``max_iter`` is reached.

    Returns (centers, memberships); with ``return_history`` the per
    iteration objective values are appended as a third element.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise InvalidDataError("data must be a non-empty 2-D array")
    if not np.all(np.isfinite(X)):
        raise InvalidDataError("data must be finite")
    if n_c < 1:
        raise InvalidSpecError(f"n_c must be >= 1, got {n_c}")
    if X.shape[0] < n_c:
        raise InvalidDataError(f"need at least n_c={n_c} samples, got {X.shape[0]}")
    if m <= 1.0:
        raise InvalidSpecError(f"fuzziness m must exceed 1, got {m}")
    if max_iter < 1 or tol <= 0.0:
        raise InvalidSpecError("max_iter must be >= 1 and tol positive")

    rng = np.random.default_rng(seed)
    centers = None
    for _ in range(100):
        idx = rng.choice(X.shape[0], size=n_c, replace=False)
        cand = X[idx].copy()
        if n_c == 1:
            centers = cand
            break
        dists = _sq_distances(cand, cand)
        np.fill_diagonal(dists, np.inf)
        if np.min(dists) > _CENTER_COLLAPSE_TOL ** 2:
            centers = cand
            break
    if centers is None:
        raise DegenerateClusteringError(
            f"could not draw {n_c} distinct initial centers from the data")

    # cluster-major throughout: d2, u and u^m are (n_c, N)
    xx = np.sum(X * X, axis=1)
    d2 = _sq_distances(centers, X, xx)
    history = []
    for _ in range(max_iter):
        u = _memberships_from_distances(d2, m)
        um = u * u if m == 2.0 else np.power(u, m)
        mass = np.sum(um, axis=1)
        if np.any(mass == 0.0):
            raise DegenerateClusteringError("a cluster lost all membership mass")
        new_centers = (um @ X) / mass[:, None]
        _check_center_separation(new_centers)
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        d2 = _sq_distances(centers, X, xx)
        if return_history:
            history.append(fcm_objective(X, centers, u.T, m))
        if shift < tol:
            break
    # memberships for the final centers, returned point-major (N, n_c)
    u = _memberships_from_distances(d2, m).T
    if return_history:
        return centers, u, history
    return centers, u


def train_fuzzy_readout(X, y, u, alpha: float) -> np.ndarray:
    """Fit one affine consequent per rule by membership-weighted ridge.

    Rule i minimizes sum_k u_ik^2 (y_k - w_i . [1, x_k])^2 + alpha||w_i||^2.
    Returns W_out with shape (n_c, d + 1), bias column first.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if X.ndim != 2 or u.ndim != 2 or X.shape[0] != u.shape[0]:
        raise DimensionError("X and u must be 2-D with matching row counts")
    if y.shape != (X.shape[0],):
        raise DimensionError("y must be 1-D matching X rows")
    phi = np.hstack([np.ones((X.shape[0], 1)), X])
    n_c = u.shape[1]
    W = np.empty((n_c, phi.shape[1]))
    for i in range(n_c):
        W[i] = ridge_solve(phi, y, alpha, sample_weights=u[:, i] ** 2)
    return W


@dataclass
class FuzzyRuleSet:
    """Trained Takagi-Sugeno model: centers plus per-rule affine weights."""

    centers: np.ndarray
    w_out: np.ndarray
    sigma: float
    fuzziness: float = 2.0

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.w_out = np.atleast_2d(np.asarray(self.w_out, dtype=float))
        if self.sigma <= 0.0:
            raise InvalidSpecError("sigma must be positive")
        if self.fuzziness <= 1.0:
            raise InvalidSpecError("fuzziness must exceed 1")
        if self.w_out.shape != (self.centers.shape[0], self.centers.shape[1] + 1):
            raise DimensionError(
                f"w_out shape {self.w_out.shape} does not match centers "
                f"{self.centers.shape} plus bias")
        _check_center_separation(self.centers)

    @property
    def n_rules(self) -> int:
        return self.centers.shape[0]

    @property
    def state_dim(self) -> int:
        return self.centers.shape[1]


def _normalized_memberships_batch(ruleset: FuzzyRuleSet, X: np.ndarray) -> np.ndarray:
    """Normalized Gaussian memberships for a batch of states, shape (n_c, N).

    Shifting the squared distances by each state's minimum before the
    exponential leaves the normalized result identical in exact arithmetic
    while keeping the largest membership at one, so the all-underflow case
    cannot occur and far-away states degrade smoothly toward the nearest
    center.
    """
    d2 = _sq_distances(ruleset.centers, X)
    d2 -= np.min(d2, axis=0)
    b = np.exp(d2 / (-2.0 * ruleset.sigma ** 2), out=d2)
    return b / np.sum(b, axis=0)


def fuzzy_infer_batch(ruleset: FuzzyRuleSet, X) -> np.ndarray:
    """Blend per-rule affine outputs with normalized Gaussian memberships."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != ruleset.state_dim:
        raise DimensionError(f"X must be (N, {ruleset.state_dim}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidDataError("states must be finite")
    beta = _normalized_memberships_batch(ruleset, X)
    rule_outputs = ruleset.w_out[:, 1:] @ X.T
    rule_outputs += ruleset.w_out[:, :1]
    return np.sum(beta * rule_outputs, axis=0)


def rule_outputs(ruleset: FuzzyRuleSet, x) -> np.ndarray:
    """The per-rule affine outputs w_i . [1, x], before blending."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ruleset.state_dim,):
        raise DimensionError(f"state must have dim {ruleset.state_dim}")
    return ruleset.w_out @ np.concatenate(([1.0], x))
