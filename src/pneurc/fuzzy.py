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
                     InvalidDataError, InvalidSpecError, check_size)
from .training import ridge_solve

_CENTER_COLLAPSE_TOL = 1e-12


def _sq_distances(centers: np.ndarray, X: np.ndarray, xx: np.ndarray | None = None,
                  out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances, cluster-major: shape (n_c, N), clipped at zero.

    Built as ||x_k||^2 + ||c_i||^2 - 2 c_i . x_k from one ``centers @ X.T``
    GEMM, so every later reduction over clusters or points runs along the
    long contiguous axis. ``xx`` is ||x_k||^2, passed by callers that reuse
    the same rows. The expansion cancels to about eps * ||x||^2 near a
    center; use direct differences where that matters. ``out`` (n_c, N)
    receives the distances and ``scratch`` (N,) one row's norm sum, so a
    caller that recomputes distances into the same pair allocates no array
    of N elements or more.
    """
    if xx is None:
        xx = np.sum(X * X, axis=1)
    d2 = np.matmul(-2.0 * centers, X.T, out=out)  # exact: scaling by a power of two
    # (||x||^2 + ||c||^2) is summed first, as in the textbook expansion, and
    # one row at a time: an (N,) sum stays in cache, an (n_c, N) one ran slower
    for row, cc in zip(d2, np.sum(centers * centers, axis=1)):
        row += np.add(xx, cc, out=scratch)
    return np.maximum(d2, 0.0, out=d2)


def _memberships_from_distances(d2: np.ndarray, m: float, out: np.ndarray | None = None,
                                total: np.ndarray | None = None) -> np.ndarray:
    """FCM membership update u_ik = 1 / sum_j (d_ik / d_jk)^(2/(m-1)), shape (n_c, N).

    Points that coincide with a center (an infinite inverse distance, hence
    a non-finite column sum) get a one-hot column on that center. ``out``
    (n_c, N) receives the memberships and ``total`` (N,) the column sums.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = (np.reciprocal(d2, out=out) if m == 2.0
               else np.power(d2, -1.0 / (m - 1.0), out=out))
        total = np.sum(inv, axis=0, out=total)
        u = np.divide(inv, total, out=inv)
        # the column sums are non-negative: if their sum is finite, so is each
        hit_any = not np.isfinite(np.sum(total))
    if hit_any:
        hits = np.flatnonzero(~np.isfinite(total))
        u[:, hits] = 0.0
        u[np.argmin(d2[:, hits], axis=0), hits] = 1.0
    return u


def _objective(um: np.ndarray, d2: np.ndarray) -> float:
    """J = sum_ik u_ik^m d2_ik from u^m and the distances, both (n_c, N)."""
    return float(np.sum(um * d2))


def fcm_objective(X: np.ndarray, centers: np.ndarray, u: np.ndarray, m: float) -> float:
    """J = sum_ik u_ik^m ||x_k - c_i||^2, with u shaped (N, n_c)."""
    return _objective(u.T ** m, _sq_distances(centers, X))


def _collapsed_pair(centers: np.ndarray, pairs=None):
    """The lowest pair (i, j) of centers within _CENTER_COLLAPSE_TOL, or None.

    Uses direct differences: the norm expansion's cancellation error at
    |c| ~ 100 (about 1e-9) would swamp the tolerance, and its distance
    between two equal rows often rounds to a small positive value.
    ``pairs`` is ``np.triu_indices(n_c, k=1)``, passed by callers that check
    the same number of centers repeatedly; a call without it first checks
    the pairs' size against the memory budget.
    """
    if pairs is None:
        n_c, d = centers.shape
        # the pairs' two indices and four (pairs, d) arrays are held at once
        check_size(n_c * (n_c - 1) // 2 * (2 + 4 * d),
                   f"the collapse check of {n_c} centers of dimension {d} needs more than %s")
        pairs = np.triu_indices(n_c, k=1)
    i, j = pairs
    gaps = np.sqrt(np.sum((centers[i] - centers[j]) ** 2, axis=1))
    close = np.flatnonzero(gaps < _CENTER_COLLAPSE_TOL)
    return (int(i[close[0]]), int(j[close[0]])) if close.size else None


def _check_center_separation(centers: np.ndarray, pairs=None) -> None:
    """Raise when two centers lie within _CENTER_COLLAPSE_TOL, naming the lowest pair."""
    pair = _collapsed_pair(centers, pairs)
    if pair is not None:
        raise DegenerateClusteringError(
            f"cluster centers {pair[0]} and {pair[1]} collapsed within {_CENTER_COLLAPSE_TOL}")


def _draw_initial_centers(X: np.ndarray, n_c: int, seed) -> np.ndarray:
    """Indices of ``n_c`` pairwise distinct rows of X, drawn with the seeded
    generator; a draw holding two equal rows is drawn again, up to 100 times."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        idx = rng.choice(X.shape[0], size=n_c, replace=False)
        if _collapsed_pair(X[idx]) is None:
            return idx
    raise DegenerateClusteringError(
        f"could not draw {n_c} distinct initial centers from the data")


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
    if max_iter < 1 or not 0.0 < tol < np.inf:  # also refuses a NaN tol
        raise InvalidSpecError(f"max_iter must be >= 1 and tol finite and positive, "
                               f"got max_iter={max_iter}, tol={tol}")
    check_size(2 * n_c * X.shape[0],
               f"fuzzy c-means of {X.shape[0]} rows in {n_c} clusters needs more than %s")

    centers = X[_draw_initial_centers(X, n_c, seed)]  # checks the pairs' size first

    # cluster-major throughout, in buffers allocated once per fit: d2 holds
    # the distances and u the memberships, then u^m in place; total and
    # scratch are (N,) work rows
    d2, u = np.empty((n_c, X.shape[0])), np.empty((n_c, X.shape[0]))
    total, scratch = np.empty(X.shape[0]), np.empty(X.shape[0])
    pairs = np.triu_indices(n_c, k=1)
    xx = np.sum(X * X, axis=1)
    _sq_distances(centers, X, xx, out=d2, scratch=scratch)
    history = []
    for _ in range(max_iter):
        _memberships_from_distances(d2, m, out=u, total=total)
        um = np.multiply(u, u, out=u) if m == 2.0 else np.power(u, m, out=u)
        mass = np.sum(um, axis=1)
        if np.any(mass == 0.0):
            raise DegenerateClusteringError("a cluster lost all membership mass")
        new_centers = (um @ X) / mass[:, None]
        _check_center_separation(new_centers, pairs)
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        _sq_distances(centers, X, xx, out=d2, scratch=scratch)
        if return_history:
            history.append(_objective(um, d2))
        if shift < tol:
            break
    # memberships for the final centers, returned point-major (N, n_c)
    u = _memberships_from_distances(d2, m, out=u, total=total).T
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


def check_sigma(sigma: float) -> None:
    """Refuse a Gaussian width unless its divisor 2 sigma^2 is a positive finite float."""
    try:
        divisor = 2.0 * sigma ** 2  # as _normalized_memberships_batch computes it
    except OverflowError:
        divisor = np.inf
    if not (sigma > 0.0 and 0.0 < divisor < np.inf):
        raise InvalidSpecError(f"sigma must be positive with 2 sigma^2 finite, got {sigma!r}")


@dataclass
class FuzzyRuleSet:
    """Trained Takagi-Sugeno model: centers plus per-rule affine weights."""

    centers: np.ndarray
    w_out: np.ndarray
    sigma: float

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.w_out = np.atleast_2d(np.asarray(self.w_out, dtype=float))
        check_sigma(self.sigma)
        if self.w_out.shape != (self.centers.shape[0], self.centers.shape[1] + 1):
            raise DimensionError(
                f"w_out shape {self.w_out.shape} does not match centers "
                f"{self.centers.shape} plus bias")
        _check_center_separation(self.centers)

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
    with np.errstate(over="ignore"):  # a tiny sigma sends far states to -inf, weight 0
        b = np.exp(d2 / (-2.0 * ruleset.sigma ** 2), out=d2)
    return b / np.sum(b, axis=0)


def fuzzy_infer_batch(ruleset: FuzzyRuleSet, X) -> np.ndarray:
    """Blend per-rule affine outputs with normalized Gaussian memberships."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != ruleset.state_dim:
        raise DimensionError(f"X must be (N, {ruleset.state_dim}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidDataError("states must be finite")
    n_c, n = ruleset.centers.shape[0], X.shape[0]  # memberships, rule outputs, their product
    check_size(3 * n_c * n, f"the readout of {n} rows by {n_c} rules needs more than %s")
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
