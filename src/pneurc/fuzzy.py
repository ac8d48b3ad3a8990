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


def _pairwise_sq_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (N, n_c). Clipped at zero."""
    d2 = (np.sum(X * X, axis=1)[:, None] + np.sum(centers * centers, axis=1)[None, :]
          - 2.0 * (X @ centers.T))
    return np.maximum(d2, 0.0)


def _memberships_from_distances(d2: np.ndarray, m: float) -> np.ndarray:
    """FCM membership update u_ik = 1 / sum_j (d_ik / d_jk)^(2/(m-1)).

    Points that coincide with a center get a one-hot row on that center.
    """
    expo = 1.0 / (m - 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.power(d2, -expo)
        u = inv / np.sum(inv, axis=1, keepdims=True)
    hits = ~np.all(np.isfinite(inv), axis=1)
    if np.any(hits):
        u[hits] = 0.0
        u[hits, np.argmin(d2[hits], axis=1)] = 1.0
    return u


def fcm_objective(X: np.ndarray, centers: np.ndarray, u: np.ndarray, m: float) -> float:
    """J = sum_ik u_ik^m ||x_k - c_i||^2."""
    d2 = _pairwise_sq_distances(X, centers)
    return float(np.sum((u ** m) * d2))


def _check_center_separation(centers: np.ndarray) -> None:
    n_c = centers.shape[0]
    for i in range(n_c):
        for j in range(i + 1, n_c):
            if np.linalg.norm(centers[i] - centers[j]) < _CENTER_COLLAPSE_TOL:
                raise DegenerateClusteringError(
                    f"cluster centers {i} and {j} collapsed within {_CENTER_COLLAPSE_TOL}")


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
        dists = _pairwise_sq_distances(cand, cand)
        np.fill_diagonal(dists, np.inf)
        if np.min(dists) > _CENTER_COLLAPSE_TOL ** 2:
            centers = cand
            break
    if centers is None:
        raise DegenerateClusteringError(
            f"could not draw {n_c} distinct initial centers from the data")

    history = []
    u = None
    for _ in range(max_iter):
        d2 = _pairwise_sq_distances(X, centers)
        u = _memberships_from_distances(d2, m)
        um = u ** m
        mass = np.sum(um, axis=0)
        if np.any(mass == 0.0):
            raise DegenerateClusteringError("a cluster lost all membership mass")
        new_centers = (um.T @ X) / mass[:, None]
        if n_c > 1:
            _check_center_separation(new_centers)
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if return_history:
            history.append(fcm_objective(X, centers, u, m))
        if shift < tol:
            break
    # memberships for the final centers
    u = _memberships_from_distances(_pairwise_sq_distances(X, centers), m)
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
        if self.centers.shape[0] > 1:
            _check_center_separation(self.centers)

    @property
    def n_rules(self) -> int:
        return self.centers.shape[0]

    @property
    def state_dim(self) -> int:
        return self.centers.shape[1]


def _normalized_memberships_batch(ruleset: FuzzyRuleSet, X: np.ndarray) -> np.ndarray:
    """Normalized Gaussian memberships for a batch of states.

    Shifting the squared distances by their row minimum before the
    exponential leaves the normalized result identical in exact arithmetic
    while keeping the largest membership at one, so the all-underflow case
    cannot occur and far-away states degrade smoothly toward the nearest
    center.
    """
    d2 = _pairwise_sq_distances(X, ruleset.centers)
    shifted = d2 - np.min(d2, axis=1, keepdims=True)
    b = np.exp(-shifted / (2.0 * ruleset.sigma ** 2))
    return b / np.sum(b, axis=1, keepdims=True)


def fuzzy_infer_batch(ruleset: FuzzyRuleSet, X) -> np.ndarray:
    """Blend per-rule affine outputs with normalized Gaussian memberships."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != ruleset.state_dim:
        raise DimensionError(f"X must be (N, {ruleset.state_dim}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidDataError("states must be finite")
    beta = _normalized_memberships_batch(ruleset, X)
    phi = np.hstack([np.ones((X.shape[0], 1)), X])
    rule_outputs = phi @ ruleset.w_out.T
    return np.sum(beta * rule_outputs, axis=1)


def rule_outputs(ruleset: FuzzyRuleSet, x) -> np.ndarray:
    """The per-rule affine outputs w_i . [1, x], before blending."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ruleset.state_dim,):
        raise DimensionError(f"state must have dim {ruleset.state_dim}")
    return ruleset.w_out @ np.concatenate(([1.0], x))
