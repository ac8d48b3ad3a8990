"""Cluster-major fuzzy c-means against the point-major algorithm it replaced.

``fcm_cluster`` keeps distances, memberships and u^m as (n_c, N) arrays.
The reference below is the same Bezdek update written point-major: (N, n_c)
arrays, reductions across each row of n_c values, ``np.power`` for every m,
a recomputed ||x||^2 and a pairwise loop for the collapse check. Both draw
the initial centers the same way from the seeded generator, so they must
agree to rounding.
"""
import numpy as np
import pytest

from pneurc.fuzzy import _sq_distances, fcm_cluster

COLLAPSE_TOL = 1e-12
REL = 1e-12


def ref_sq_distances(X, centers):
    d2 = (np.sum(X * X, axis=1)[:, None] + np.sum(centers * centers, axis=1)[None, :]
          - 2.0 * (X @ centers.T))
    return np.maximum(d2, 0.0)


def ref_memberships(d2, m):
    expo = 1.0 / (m - 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.power(d2, -expo)
        u = inv / np.sum(inv, axis=1, keepdims=True)
    hits = ~np.all(np.isfinite(inv), axis=1)
    if np.any(hits):
        u[hits] = 0.0
        u[hits, np.argmin(d2[hits], axis=1)] = 1.0
    return u


def ref_initial_centers(X, n_c, seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        cand = X[rng.choice(X.shape[0], size=n_c, replace=False)].copy()
        if n_c == 1:
            return cand
        dists = ref_sq_distances(cand, cand)
        np.fill_diagonal(dists, np.inf)
        if np.min(dists) > COLLAPSE_TOL ** 2:
            return cand
    raise AssertionError("no distinct initial centers")


def ref_fcm(X, n_c, m, tol, max_iter, seed):
    """Point-major FCM: (centers, u of shape (N, n_c), objective history)."""
    centers = ref_initial_centers(X, n_c, seed)
    history = []
    for _ in range(max_iter):
        u = ref_memberships(ref_sq_distances(X, centers), m)
        um = u ** m
        mass = np.sum(um, axis=0)
        assert np.all(mass > 0.0)
        new_centers = (um.T @ X) / mass[:, None]
        for i in range(n_c):
            for j in range(i + 1, n_c):
                assert np.linalg.norm(new_centers[i] - new_centers[j]) >= COLLAPSE_TOL
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        history.append(float(np.sum(um * ref_sq_distances(X, centers))))
        if shift < tol:
            break
    return centers, ref_memberships(ref_sq_distances(X, centers), m), history


def assert_rel(got, want, rel=REL):
    scale = max(float(np.max(np.abs(want))), 1.0)
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    assert err <= rel * scale, f"max error {err:.3e} against scale {scale:.3e}"


def blobs(n_c, n=600, d=5, seed=0):
    """Overlapping Gaussian blobs, so that FCM needs many iterations."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 300.0, size=(n_c, d))
    return means[rng.integers(0, n_c, size=n)] + rng.normal(scale=80.0, size=(n, d))


def integer_grid(n=400, d=3, seed=0):
    """Integer-valued rows: the distance expansion is exact, so a row equal to a
    center has a distance of exactly zero."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 12, size=(n, d)).astype(float)


@pytest.mark.parametrize("m", [2.0, 1.5, 2.5])
@pytest.mark.parametrize("n_c", [1, 8])
@pytest.mark.parametrize("tol, max_iter", [(1e-4, 300), (1e-12, 40)],
                         ids=["default-tol", "pinned"])
def test_matches_point_major_reference(m, n_c, tol, max_iter):
    X = blobs(max(n_c, 3), seed=n_c)
    seed = [7, n_c]
    centers, u, history = fcm_cluster(X, n_c, m=m, tol=tol, max_iter=max_iter, seed=seed,
                                      return_history=True)
    ref_centers, ref_u, ref_history = ref_fcm(X, n_c, m, tol, max_iter, seed)
    assert u.shape == (X.shape[0], n_c)
    assert len(history) == len(ref_history)
    if tol < 1e-10 and n_c > 1:
        assert len(history) == max_iter
    assert_rel(centers, ref_centers)
    assert_rel(u, ref_u)
    assert_rel(history, ref_history)


@pytest.mark.parametrize("m", [2.0, 1.5])
def test_row_equal_to_a_center_takes_the_one_hot_path(m):
    X = integer_grid()
    n_c, seed = 6, [3, 0]
    # the initial centers are data rows; on this grid their distances to
    # themselves (and to duplicate rows) come out exactly zero
    start = ref_initial_centers(X, n_c, seed)
    assert np.sum(ref_sq_distances(X, start) == 0.0) >= n_c
    centers, u, history = fcm_cluster(X, n_c, m=m, tol=1e-12, max_iter=1, seed=seed,
                                      return_history=True)
    ref_centers, ref_u, ref_history = ref_fcm(X, n_c, m, 1e-12, 1, seed)
    assert_rel(centers, ref_centers)
    assert_rel(u, ref_u)
    assert_rel(history, ref_history)
    # and through to convergence
    centers, u = fcm_cluster(X, n_c, m=m, seed=seed)
    ref_centers, ref_u, _ = ref_fcm(X, n_c, m, 1e-4, 300, seed)
    assert_rel(centers, ref_centers)
    assert_rel(u, ref_u)


def test_distances_are_clipped_where_the_expansion_cancels():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 8)) * 300.0 + 100.0
    centers = X[:50]
    raw = (np.sum(X * X, axis=1)[:, None] + np.sum(centers * centers, axis=1)[None, :]
           - 2.0 * (X @ centers.T))
    assert np.any(raw < 0.0)  # a row's distance to itself rounds below zero
    d2 = _sq_distances(centers, X)
    assert d2.shape == (50, 200)
    assert np.all(d2 >= 0.0)
    assert_rel(d2, ref_sq_distances(X, centers).T, rel=1e-15)


# --- Bit identity against the allocating loop --------------------------------
#
# ``fcm_cluster`` reuses (n_c, N) buffers across iterations. The oracle below
# is the loop as it stood before that change, with its own distance and
# membership routines, allocating fresh arrays on every step. Buffer reuse
# changes no arithmetic, so the two must agree bit for bit.

def alloc_sq_distances(centers, X, xx=None):
    if xx is None:
        xx = np.sum(X * X, axis=1)
    d2 = (-2.0 * centers) @ X.T
    for row, cc in zip(d2, np.sum(centers * centers, axis=1)):
        row += xx + cc
    return np.maximum(d2, 0.0, out=d2)


def alloc_memberships(d2, m):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.reciprocal(d2) if m == 2.0 else np.power(d2, -1.0 / (m - 1.0))
        total = np.sum(inv, axis=0)
        u = np.divide(inv, total, out=inv)
    hits = np.flatnonzero(~np.isfinite(total))
    if hits.size:
        u[:, hits] = 0.0
        u[np.argmin(d2[:, hits], axis=0), hits] = 1.0
    return u


def alloc_objective(X, centers, u, m):
    return float(np.sum((u.T ** m) * alloc_sq_distances(centers, X)))


def alloc_collapsed_pair(centers):
    i, j = np.triu_indices(centers.shape[0], k=1)
    gaps = np.sqrt(np.sum((centers[i] - centers[j]) ** 2, axis=1))
    close = np.flatnonzero(gaps < COLLAPSE_TOL)
    return (int(i[close[0]]), int(j[close[0]])) if close.size else None


def alloc_draw(X, n_c, seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        idx = rng.choice(X.shape[0], size=n_c, replace=False)
        if alloc_collapsed_pair(X[idx]) is None:
            return idx
    raise AssertionError("no distinct initial centers")


def alloc_fcm(X, n_c, m, tol, max_iter, seed):
    """The allocating loop: (centers, u of shape (N, n_c), objective history)."""
    centers = X[alloc_draw(X, n_c, seed)]
    xx = np.sum(X * X, axis=1)
    d2 = alloc_sq_distances(centers, X, xx)
    history = []
    for _ in range(max_iter):
        u = alloc_memberships(d2, m)
        um = u * u if m == 2.0 else np.power(u, m)
        mass = np.sum(um, axis=1)
        assert not np.any(mass == 0.0)
        new_centers = (um @ X) / mass[:, None]
        assert alloc_collapsed_pair(new_centers) is None
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        d2 = alloc_sq_distances(centers, X, xx)
        history.append(alloc_objective(X, centers, u.T, m))
        if shift < tol:
            break
    u = alloc_memberships(d2, m).T
    return centers, u, history


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [2.0, 1.5])
@pytest.mark.parametrize("n_c", [1, 8])
@pytest.mark.parametrize("tol, max_iter", [(1e-4, 300), (1e-12, 40)],
                         ids=["default-tol", "pinned"])
def test_bit_identical_to_allocating_loop(m, n_c, tol, max_iter):
    X = blobs(max(n_c, 3), n=900, d=8, seed=n_c + 11)
    seed = [5, n_c]
    got = fcm_cluster(X, n_c, m=m, tol=tol, max_iter=max_iter, seed=seed,
                      return_history=True)
    want = alloc_fcm(X, n_c, m, tol, max_iter, seed)
    for g, w in zip(got, want):
        assert_same_bytes(g, w)
    # without the history the fit is the same
    for g, w in zip(fcm_cluster(X, n_c, m=m, tol=tol, max_iter=max_iter, seed=seed), want):
        assert_same_bytes(g, w)


@pytest.mark.parametrize("m", [2.0, 1.5])
@pytest.mark.parametrize("max_iter", [1, 300])
def test_one_hot_path_bit_identical_to_allocating_loop(m, max_iter):
    X = integer_grid()
    n_c, seed = 6, [3, 0]
    start = X[alloc_draw(X, n_c, seed)]
    assert np.sum(alloc_sq_distances(start, X) == 0.0) >= n_c
    got = fcm_cluster(X, n_c, m=m, tol=1e-4, max_iter=max_iter, seed=seed,
                      return_history=True)
    want = alloc_fcm(X, n_c, m, 1e-4, max_iter, seed)
    for g, w in zip(got, want):
        assert_same_bytes(g, w)
