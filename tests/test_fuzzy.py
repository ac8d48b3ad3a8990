"""Fuzzy c-means clustering and the Takagi-Sugeno readout."""
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pneurc import fuzzy
from pneurc.errors import (DegenerateClusteringError, DimensionError,
                           InvalidDataError, InvalidSpecError, ResourceError)
from pneurc.fprc import FprcParams, fprc_collect_training
from pneurc.fuzzy import (FuzzyRuleSet, _draw_initial_centers, _sq_distances, fcm_cluster,
                          fcm_objective, fuzzy_infer_batch, rule_outputs,
                          train_fuzzy_readout)
from pneurc.training import ridge_solve


def naive_memberships(X, centers, m):
    """Textbook FCM membership update, scalar loops only."""
    n, n_c = X.shape[0], centers.shape[0]
    u = np.zeros((n, n_c))
    for k in range(n):
        d = np.array([np.linalg.norm(X[k] - centers[i]) for i in range(n_c)])
        if np.any(d == 0.0):
            u[k, np.argmin(d)] = 1.0
            continue
        for i in range(n_c):
            u[k, i] = 1.0 / np.sum((d[i] / d) ** (2.0 / (m - 1.0)))
    return u


def two_blobs(rng, n=200, sep=10.0):
    a = rng.normal(size=(n, 2)) + np.array([0.0, 0.0])
    b = rng.normal(size=(n, 2)) + np.array([sep, sep])
    labels = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return np.vstack([a, b]), labels


# ---------------------------------------------------------------------------
# clustering


def test_fcm_rows_sum_to_one(rng):
    X = rng.normal(size=(300, 4))
    for n_c in (1, 2, 5):
        _, u = fcm_cluster(X, n_c, seed=3)
        np.testing.assert_allclose(np.sum(u, axis=1), 1.0, atol=1e-9)
        assert np.all(u >= 0.0)


def test_fcm_objective_non_increasing(rng):
    X = rng.normal(size=(250, 3))
    _, _, history = fcm_cluster(X, 4, seed=1, return_history=True)
    assert len(history) >= 2
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-10)


def test_fcm_recovers_separated_blobs(rng):
    X, labels = two_blobs(rng)
    centers, u = fcm_cluster(X, 2, seed=0)
    hard = np.argmax(u, axis=1)
    agreement = np.mean(hard == labels)
    agreement = max(agreement, 1.0 - agreement)  # cluster ids are arbitrary
    assert agreement >= 0.99
    # each recovered center sits on one blob
    blob_means = np.array([[0.0, 0.0], [10.0, 10.0]])
    for c in centers:
        assert min(np.linalg.norm(c - bm) for bm in blob_means) < 1.0


def test_fcm_final_memberships_match_textbook_formula(rng):
    X = rng.normal(size=(120, 2))
    centers, u = fcm_cluster(X, 3, seed=5)
    np.testing.assert_allclose(u, naive_memberships(X, centers, 2.0), atol=1e-12)


def test_fcm_memberships_minimize_objective_given_centers(rng):
    # for fixed centers the FCM update is the unique row-stochastic minimizer
    X = rng.normal(size=(100, 2))
    centers, u = fcm_cluster(X, 3, seed=2)
    j_opt = fcm_objective(X, centers, u, 2.0)
    for _ in range(20):
        raw = rng.uniform(size=u.shape)
        alt = raw / np.sum(raw, axis=1, keepdims=True)
        assert fcm_objective(X, centers, alt, 2.0) >= j_opt - 1e-9


def test_fcm_single_cluster_center_is_mean(rng):
    X = rng.normal(size=(80, 3)) + 5.0
    centers, u = fcm_cluster(X, 1, seed=0)
    np.testing.assert_allclose(centers[0], np.mean(X, axis=0), atol=1e-9)
    np.testing.assert_allclose(u, 1.0)


def test_fcm_is_deterministic(rng):
    X = rng.normal(size=(150, 3))
    c1, u1 = fcm_cluster(X, 4, seed=9)
    c2, u2 = fcm_cluster(X, 4, seed=9)
    np.testing.assert_array_equal(c1, c2)
    np.testing.assert_array_equal(u1, u2)


def test_fcm_degenerate_data_raises():
    X = np.ones((10, 2))
    with pytest.raises(DegenerateClusteringError):
        fcm_cluster(X, 2, seed=0)


def test_fcm_validation(rng):
    X = rng.normal(size=(10, 2))
    with pytest.raises(InvalidSpecError):
        fcm_cluster(X, 0)
    with pytest.raises(InvalidSpecError):
        fcm_cluster(X, 2, m=1.0)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidSpecError):
            fcm_cluster(X, 2, tol=tol)
    with pytest.raises(InvalidDataError):
        fcm_cluster(X, 11)
    with pytest.raises(InvalidDataError):
        fcm_cluster(X * np.nan, 2)
    with pytest.raises(InvalidDataError):
        fcm_cluster(np.empty((0, 2)), 1)


@settings(max_examples=30)
@given(X=arrays(np.float64, st.tuples(st.integers(8, 40), st.integers(1, 4)),
                elements=st.floats(-1e3, 1e3), unique=True),
       n_c=st.integers(1, 5), m=st.sampled_from([1.5, 2.0, 2.5]))
def test_fcm_memberships_are_row_stochastic(X, n_c, m):
    try:
        _, u = fcm_cluster(X, n_c, m=m, seed=0)
    except DegenerateClusteringError:
        reject()
    assert u.shape == (X.shape[0], n_c)
    assert np.all(u >= 0.0)
    np.testing.assert_allclose(np.sum(u, axis=1), 1.0, rtol=0.0, atol=1e-12)


# one ULP apart at magnitude 1e3: 2.3e-13 apart, far below the rounding of
# the norm expansion ||a||^2 + ||b||^2 - 2 a.b (its distance from NEAR to
# itself can read 3.1e-5), so only direct differences resolve the gap
NEAR = np.array([1254.41251858, 531.19775076, 1205.84148447])
NEAR_ULP = np.array([NEAR[0], NEAR[1], np.nextafter(NEAR[2], np.inf)])


def _rules(centers):
    centers = np.asarray(centers)
    return FuzzyRuleSet(centers=centers, w_out=np.zeros((len(centers), centers.shape[1] + 1)),
                        sigma=1.0)


def test_centers_one_ulp_apart_collapse():
    assert 0.0 < np.linalg.norm(NEAR - NEAR_ULP) < 1e-12
    with pytest.raises(DegenerateClusteringError, match="centers 0 and 1 collapsed"):
        _rules([NEAR, NEAR_ULP])


def test_centers_1e9_apart_stay_separate():
    _rules([NEAR, NEAR + np.array([0.0, 0.0, 1e-9])])


def test_collapse_names_the_lowest_pair():
    far = NEAR + 50.0
    with pytest.raises(DegenerateClusteringError, match="centers 0 and 3 collapsed"):
        _rules([NEAR, far, far + [0.0, 0.0, 1e-13], NEAR_ULP])


def expansion_draw(X, n_c, seed):
    """The initial-centre draw that judged distinctness by the norm expansion:
    the drawn indices, or None when 100 tries found no distinct set."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        idx = rng.choice(X.shape[0], size=n_c, replace=False)
        if n_c == 1:
            return idx
        dists = _sq_distances(X[idx], X[idx])
        np.fill_diagonal(dists, np.inf)
        if np.min(dists) > 1e-24:
            return idx
    return None


def test_fcm_draw_skips_repeated_rows():
    # three distinct points, each repeated 40 times; the norm expansion of a
    # row against itself can round to a small positive value, which let the
    # expansion-based draw take two copies of one point as distinct centres
    points = np.random.default_rng(0).normal(size=(3, 8)) * 300.0
    X = np.repeat(points, 40, axis=0)
    for seed in range(200):
        idx = _draw_initial_centers(X, 3, seed)
        assert sorted(i // 40 for i in idx) == [0, 1, 2]
        centers, _ = fcm_cluster(X, 3, seed=seed)
        np.testing.assert_allclose(np.sort(centers, axis=0), np.sort(points, axis=0),
                                   rtol=1e-9)


def test_fcm_draw_matches_expansion_draw_on_training_states(default_config, train_dataset):
    params = default_config.fprc_params()
    X, _ = fprc_collect_training(train_dataset.theta, train_dataset.p_exp,
                                 p_o=train_dataset.p_o, params=params)
    compared = 0
    for seed in range(200):
        old = expansion_draw(X, params.n_c, seed)
        if old is not None:
            np.testing.assert_array_equal(_draw_initial_centers(X, params.n_c, seed), old)
            compared += 1
    assert compared == 200


def test_fcm_objective_hand_value():
    X = np.array([[0.0], [2.0]])
    centers = np.array([[0.0], [2.0]])
    u = np.full((2, 2), 0.5)
    assert fcm_objective(X, centers, u, 2.0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# consequent training


def test_single_rule_readout_equals_plain_ridge(rng):
    X = rng.normal(size=(200, 4))
    y = rng.normal(size=200)
    W = train_fuzzy_readout(X, y, np.ones((200, 1)), alpha=1e-3)
    phi = np.hstack([np.ones((200, 1)), X])
    np.testing.assert_allclose(W[0], ridge_solve(phi, y, 1e-3), rtol=1e-12)


def test_readout_weights_follow_memberships(rng):
    # two disjoint regimes with different affine laws; crisp memberships
    # must recover each law in its own rule
    x1 = rng.uniform(0.0, 1.0, size=(150, 1))
    x2 = rng.uniform(0.0, 1.0, size=(150, 1))
    X = np.vstack([x1, x2])
    y = np.concatenate([2.0 * x1[:, 0] + 1.0, -3.0 * x2[:, 0] + 5.0])
    u = np.zeros((300, 2))
    u[:150, 0] = 1.0
    u[150:, 1] = 1.0
    W = train_fuzzy_readout(X, y, u, alpha=1e-9)
    np.testing.assert_allclose(W[0], [1.0, 2.0], atol=1e-5)
    np.testing.assert_allclose(W[1], [5.0, -3.0], atol=1e-5)


def test_readout_validation(rng):
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    with pytest.raises(DimensionError):
        train_fuzzy_readout(X, y, np.ones((5, 2)), alpha=0.1)
    with pytest.raises(DimensionError):
        train_fuzzy_readout(X, y[:5], np.ones((10, 2)), alpha=0.1)


# ---------------------------------------------------------------------------
# inference


def random_ruleset(rng, n_rules=4, dim=3, sigma=1.5):
    centers = rng.normal(size=(n_rules, dim)) * 3.0
    w_out = rng.normal(size=(n_rules, dim + 1))
    return FuzzyRuleSet(centers=centers, w_out=w_out, sigma=sigma)


def test_infer_gaussian_hand_values():
    # rule outputs 0 and 1 make the inference the normalized membership of
    # the second rule: beta_i = exp(-||x - c_i||^2 / (2 sigma^2))
    rs = FuzzyRuleSet(centers=np.array([[0.0], [3.0]]),
                      w_out=np.array([[0.0, 0.0], [1.0, 0.0]]), sigma=2.0)
    beta = np.array([np.exp(-1.0 / 8.0), np.exp(-0.5)])
    y = fuzzy_infer_batch(rs, np.array([[1.0], [3.0]]))
    assert y[0] == pytest.approx(beta[1] / beta.sum())
    # at a center its own membership is one
    assert y[1] == pytest.approx(1.0 / (1.0 + np.exp(-9.0 / 8.0)))


def test_inference_is_convex_blend(rng):
    rs = random_ruleset(rng)
    X = rng.normal(size=(200, 3)) * 5.0
    y = fuzzy_infer_batch(rs, X)
    for x, y_k in zip(X, y):
        outs = rule_outputs(rs, x)
        assert outs.min() - 1e-10 <= y_k <= outs.max() + 1e-10


def test_single_rule_inference_is_affine(rng):
    rs = FuzzyRuleSet(centers=np.zeros((1, 2)), w_out=np.array([[1.0, 2.0, -0.5]]),
                      sigma=1.0)
    X = rng.normal(size=(50, 2))
    expected = 1.0 + X @ np.array([2.0, -0.5])
    np.testing.assert_allclose(fuzzy_infer_batch(rs, X), expected, atol=1e-12)


def test_far_state_degrades_to_nearest_rule(rng):
    rs = random_ruleset(rng)
    x = np.full(3, 1e6)
    y = fuzzy_infer_batch(rs, x[None, :])[0]
    assert np.isfinite(y)
    nearest = int(np.argmin(np.sum((rs.centers - x) ** 2, axis=1)))
    assert y == pytest.approx(rule_outputs(rs, x)[nearest])


def test_rule_outputs_hand_value():
    rs = FuzzyRuleSet(centers=np.array([[0.0], [1.0]]),
                      w_out=np.array([[1.0, 2.0], [0.0, -1.0]]), sigma=1.0)
    np.testing.assert_allclose(rule_outputs(rs, np.array([3.0])), [7.0, -3.0])


def test_ruleset_validation():
    with pytest.raises(DimensionError):
        FuzzyRuleSet(centers=np.zeros((2, 3)), w_out=np.zeros((2, 3)), sigma=1.0)
    with pytest.raises(InvalidSpecError):
        FuzzyRuleSet(centers=np.zeros((1, 2)), w_out=np.zeros((1, 3)), sigma=0.0)
    with pytest.raises(DegenerateClusteringError):
        FuzzyRuleSet(centers=np.zeros((2, 2)), w_out=np.zeros((2, 3)), sigma=1.0)


@pytest.mark.parametrize("sigma", [1e308, 1.35e154, 1.5e-162, 5e-324, -1.0, np.nan])
def test_sigma_is_refused_unless_two_sigma_squared_is_positive_and_finite(sigma):
    with pytest.raises(InvalidSpecError, match="sigma"):
        FuzzyRuleSet(centers=np.zeros((1, 2)), w_out=np.zeros((1, 3)), sigma=sigma)
    with pytest.raises(InvalidSpecError, match="sigma"):
        FprcParams(sigma=sigma)


@pytest.mark.parametrize("sigma", [9e153, 1e-161])
def test_extreme_accepted_sigma_reads_out_finite(sigma):
    rs = FuzzyRuleSet(centers=np.array([[0.0], [3.0]]),
                      w_out=np.array([[1.0, 2.0], [0.0, -1.0]]), sigma=sigma)
    assert FprcParams(sigma=sigma).sigma == sigma
    # a tiny width overflows d2 / (2 sigma^2) to inf: those memberships are 0
    with np.errstate(over="ignore"):
        y = fuzzy_infer_batch(rs, np.array([[0.5], [1.5], [4.0]]))
    assert np.all(np.isfinite(y))


def test_infer_rejects_bad_states(rng):
    rs = random_ruleset(rng)
    with pytest.raises(DimensionError):
        fuzzy_infer_batch(rs, np.zeros((5, 2)))
    with pytest.raises(InvalidDataError):
        fuzzy_infer_batch(rs, np.full((5, 3), np.nan))
    with pytest.raises(DimensionError):
        rule_outputs(rs, np.zeros(2))


# memory budget: each case is refused from its sizes, before the arrays
# it names are allocated, so none of them may run without the check


def test_fcm_of_clusters_over_the_memory_budget_is_refused_before_the_draw(monkeypatch):
    # 40,000 clusters of 40,000 rows: two (n_c, N) buffers of 12.8 GB each
    drawn = []
    monkeypatch.setattr(fuzzy, "_draw_initial_centers", lambda *args: drawn.append(args))
    with pytest.raises(ResourceError, match=r"^fuzzy c-means of 40000 rows in 40000 clusters "
                                            r"needs more than 4 GiB$"):
        fcm_cluster(np.arange(40_000.0)[:, None], 40_000)
    assert drawn == []


def test_collapse_check_over_the_memory_budget_is_refused(rng):
    # 6,000 centers of dimension 8: 17,997,000 pairs, each with two indices
    # and four rows of 8 values held at once, need 4.9 GB
    message = r"^the collapse check of 6000 centers of dimension 8 needs more than 4 GiB$"
    with pytest.raises(ResourceError, match=message):
        FuzzyRuleSet(centers=rng.normal(size=(6000, 8)), w_out=np.zeros((6000, 9)), sigma=2.0)
    with pytest.raises(ResourceError, match=message):  # at the first draw of centers
        fcm_cluster(rng.normal(size=(6000, 8)), 6000)


def test_readout_over_the_memory_budget_is_refused():
    # 1,000 rules over 200,000 rows: three (n_c, N) arrays of 1.6 GB each
    ruleset = FuzzyRuleSet(centers=np.arange(1000.0)[:, None], w_out=np.zeros((1000, 2)),
                           sigma=2.0)
    with pytest.raises(ResourceError, match=r"^the readout of 200000 rows by 1000 rules "
                                            r"needs more than 4 GiB$"):
        fuzzy_infer_batch(ruleset, np.zeros((200_000, 1)))
