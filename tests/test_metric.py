import math
import re

import numpy as np
import pytest
from scipy.spatial.distance import squareform

from linkrisk import evaluation, metric
from linkrisk.anonymity import DistanceMatrix
from conftest import LiveDistributions, random_distribution

# frozen from a 60-digit evaluation of the defining formulas (mpmath)
JS_POINT_VS_HALF = 0.31127812445913286
DIST_POINT_VS_HALF = 0.5579230452841439


def test_js_identical_is_zero():
    p = {"a": 0.3, "b": 0.7}
    assert metric.js(p, p) == 0.0


def test_js_disjoint_is_one():
    assert metric.js({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0, abs=1e-12)
    p = {"a": 0.4, "b": 0.6}
    q = {"c": 0.1, "d": 0.9}
    assert metric.js(p, q) == pytest.approx(1.0, abs=1e-12)


def test_js_worked_value():
    assert metric.js({"a": 1.0}, {"a": 0.5, "b": 0.5}) == pytest.approx(
        JS_POINT_VS_HALF, abs=1e-9
    )


def test_distance_worked_value():
    assert metric.distance({"a": 1.0}, {"a": 0.5, "b": 0.5}) == pytest.approx(
        DIST_POINT_VS_HALF, abs=1e-9
    )
    assert metric.distance({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0, abs=1e-12)


def test_js_symmetry_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = random_distribution(rng)
        q = random_distribution(rng)
        assert metric.js(p, q) == metric.js(q, p)


def test_js_bounds_on_random_inputs():
    rng = np.random.default_rng(8)
    for _ in range(500):
        p = random_distribution(rng)
        q = random_distribution(rng)
        v = metric.js(p, q)
        assert 0.0 <= v <= 1.0


def test_triangle_inequality_sample():
    rng = np.random.default_rng(9)
    for _ in range(500):
        p, q, r = (random_distribution(rng) for _ in range(3))
        assert metric.distance(p, r) <= metric.distance(p, q) + metric.distance(q, r) + 1e-9


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = random_distribution(rng)
        assert metric.distance(p, dict(p)) == 0.0
        q = dict(p)
        first = next(iter(q))
        q[first] *= 0.5
        q["extra_token"] = q.get("extra_token", 0.0) + p[first] * 0.5
        assert metric.distance(p, q) > 0.0


def test_sparse_path_matches_scalar_path():
    rng = np.random.default_rng(11)
    dists = [random_distribution(rng) for _ in range(12)]
    matrix = squareform(metric.pairwise_distances(dists))
    for i in range(len(dists)):
        for j in range(len(dists)):
            assert matrix[i, j] == pytest.approx(
                metric.distance(dists[i], dists[j]), abs=1e-12
            )


def test_pairwise_matrix_shape_and_symmetry():
    rng = np.random.default_rng(12)
    dists = [random_distribution(rng) for _ in range(9)]
    matrix = squareform(metric.pairwise_distances(dists))
    assert matrix.shape == (9, 9)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)
    assert np.all((matrix >= 0.0) & (matrix <= 1.0))


def test_pairwise_matrix_worker_count_does_not_change_bits():
    rng = np.random.default_rng(13)
    dists = [random_distribution(rng) for _ in range(15)]
    assert np.array_equal(
        metric.pairwise_distances(dists, workers=1),
        metric.pairwise_distances(dists, workers=3),
    )


def test_cross_distances_match_scalar():
    rng = np.random.default_rng(14)
    left = [random_distribution(rng) for _ in range(5)]
    right = [random_distribution(rng) for _ in range(7)]
    grid = metric.cross_distances(left, right)
    assert grid.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            assert grid[i, j] == pytest.approx(metric.distance(left[i], right[j]), abs=1e-12)


def test_js_point_masses_at_same_token():
    assert metric.js({"a": 1.0}, {"a": 1.0}) == 0.0
    assert math.isclose(metric.distance({"a": 1.0}, {"a": 1.0}), 0.0)


# --- matrix kernel ---------------------------------------------------------------


def test_matrices_match_50_digit_oracle():
    from test_acceptance import _js_oracle_50_digits

    rng = np.random.default_rng(15)
    # short supports over a small pool, then long ones: a sum over hundreds
    # of shared tokens must not lose digits either
    for pool_size, max_support, n_left, n_right in ((30, 20, 8, 6), (1000, 600, 4, 3)):
        pool = [f"tok{i}" for i in range(pool_size)]
        left = [random_distribution(rng, pool, max_support=max_support) for _ in range(n_left)]
        right = [random_distribution(rng, pool, max_support=max_support) for _ in range(n_right)]
        grid = metric.cross_distances(left, right)
        within = squareform(metric.pairwise_distances(left))
        for i, p in enumerate(left):
            for j, q in enumerate(right):
                assert grid[i, j] == pytest.approx(math.sqrt(_js_oracle_50_digits(p, q)), abs=1e-13)
            for j, q in enumerate(left):
                assert within[i, j] == pytest.approx(math.sqrt(_js_oracle_50_digits(p, q)), abs=1e-13)


def test_matrices_disjoint_supports_are_exactly_one():
    # dyadic masses sum to exactly 1, so nothing is left for rounding; a
    # zero entry is no support
    left = [{"a": 1.0, "x": 0.0}, {"a": 0.5, "b": 0.25, "c": 0.25}]
    right = [{"x": 0.125, "y": 0.875}, {"z": 1.0}]
    assert np.all(metric.cross_distances(left, right) == 1.0)
    within = squareform(metric.pairwise_distances(left + right))
    assert np.all(within[:2, 2:] == 1.0)
    assert within[2, 3] == 1.0


def test_matrices_disjoint_supports_of_non_dyadic_masses_are_one_up_to_rounding():
    # masses 4/6, 1/6, 1/6 do not sum to exactly 1 in the kernel's order
    p = {"a": 4 / 6, "b": 1 / 6, "c": 1 / 6}
    q = {"x": 4 / 6, "y": 1 / 6, "z": 1 / 6}
    for d in (metric.cross_distances([p], [q])[0, 0], metric.pairwise_distances([p, q])[0]):
        assert 1 - 2**-52 <= d <= 1.0
    assert metric.distance(p, q) == 1.0


def test_matrices_identical_profiles_are_exactly_zero():
    rng = np.random.default_rng(16)
    pool = [f"tok{i}" for i in range(200)]
    for _ in range(20):
        p = random_distribution(rng, pool, max_support=150)
        q = random_distribution(rng, pool, max_support=150)
        within = squareform(metric.pairwise_distances([p, q, dict(reversed(list(p.items())))]))
        assert within[0, 2] == 0.0 and within[2, 0] == 0.0
        assert np.all(np.diag(within) == 0.0)
        assert metric.cross_distances([p], [dict(p), q])[0, 0] == 0.0


def test_matrix_shapes_for_single_and_empty_sides():
    rng = np.random.default_rng(17)
    p, q, r = (random_distribution(rng) for _ in range(3))
    assert np.array_equal(squareform(metric.pairwise_distances([p])), np.zeros((1, 1)))
    assert metric.pairwise_distances([]).shape == (0,)  # squareform would read it as 1 x 1
    assert metric.cross_distances([p], [q]).shape == (1, 1)
    assert metric.cross_distances([], [p, q, r]).shape == (0, 3)
    assert metric.cross_distances([p, q, r], []).shape == (3, 0)


def test_cross_rows_do_not_depend_on_the_split():
    rng = np.random.default_rng(18)
    pool = [f"tok{i}" for i in range(40)]
    left = [random_distribution(rng, pool, max_support=25) for _ in range(7)]
    right = [random_distribution(rng, pool, max_support=25) for _ in range(9)]
    grid = metric.cross_distances(left, right)
    assert np.array_equal(grid, metric.cross_distances(right, left).T)
    for i, p in enumerate(left):
        assert np.array_equal(metric.cross_distances([p], right)[0], grid[i])
    within = squareform(metric.pairwise_distances(left + right))
    assert np.array_equal(within[:7, 7:], grid)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 11])
def test_pairwise_is_the_packed_upper_triangle_of_the_cross_matrix(n):
    rng = np.random.default_rng(19)
    pool = [f"tok{i}" for i in range(30)]
    dists = [random_distribution(rng, pool, max_support=20) for _ in range(n)]
    packed = metric.pairwise_distances(dists)
    assert packed.dtype == np.float64 and packed.shape == (n * (n - 1) // 2,)
    assert np.array_equal(packed, metric.cross_distances(dists, dists)[np.triu_indices(n, 1)])


# a's tokens are every other one of b's, so b-only tokens sit between a's in the shared vocabulary
@pytest.mark.parametrize("na, nb", [(0, 4), (1, 4), (6, 0), (6, 1), (6, 9)])
def test_prepared_collections_give_the_bits_of_raw_ones(na, nb):
    rng = np.random.default_rng(20)
    pool = [f"tok{i}" for i in range(40)]
    dists_a = [random_distribution(rng, pool[::2], max_support=15) for _ in range(na)]
    dists_b = [random_distribution(rng, pool, max_support=25) for _ in range(nb)]
    a, b = metric._prepare(dists_a, dists_b)
    assert a.vocab is b.vocab and list(a) == dists_a and list(b) == dists_b
    assert all(x is y for x, y in zip(metric._prepare(a, b), (a, b)))
    assert np.array_equal(metric.pairwise_distances(a), metric.pairwise_distances(dists_a))
    assert np.array_equal(metric.pairwise_distances(b), metric.pairwise_distances(dists_b))
    assert np.array_equal(metric.cross_distances(a, b), metric.cross_distances(dists_a, dists_b))


def test_prepare_holds_one_distribution_of_a_generator_at_a_time():
    rng = np.random.default_rng(21)
    pool = [f"tok{i}" for i in range(40)]
    dists_a = [random_distribution(rng, pool, max_support=15) for _ in range(7)]
    dists_b = [random_distribution(rng, pool, max_support=25) for _ in range(5)]
    live = LiveDistributions()
    a, b = metric._prepare((live.track(d) for d in dists_a), (live.track(d) for d in dists_b))
    assert live.alive_at_handout == [0] * 12
    assert all(ref() is None for ref in live.refs)
    assert len(a) == 7 and len(b) == 5
    assert list(a) == dists_a and list(b) == dists_b
    assert np.array_equal(metric.cross_distances(a, b), metric.cross_distances(dists_a, dists_b))


def test_a_collection_prepared_over_another_vocabulary_is_prepared_again():
    p, q = {"x": 0.5, "y": 0.5}, {"y": 0.25, "z": 0.75}
    (alone,), (other,) = metric._prepare([p]), metric._prepare([q])  # y has id 1, then id 0
    a, b = metric._prepare(alone, other)
    assert a is not alone and b is not other and a.vocab is b.vocab
    assert a.vocab == {"x": 0, "y": 1, "z": 2}
    for left, right in [(alone, other), (alone, [q]), ([p], other)]:
        assert metric.cross_distances(left, right)[0, 0] == pytest.approx(metric.distance(p, q),
                                                                          abs=1e-12)


def test_explicit_zero_masses_give_the_bits_of_absent_tokens():
    # "a" holds 0.0 on both sides, the scalar's zero-mass branch; "c" holds 0.0 on one side
    p = {"a": 0.0, "b": 0.5, "c": 0.5}
    q = {"a": 0.0, "b": 0.25, "c": 0.0, "d": 0.75}
    d = metric.distance(p, q)
    assert d == metric.distance(q, p) == metric.distance({"b": 0.5, "c": 0.5}, {"b": 0.25, "d": 0.75})
    assert metric.pairwise_distances([p, q])[0] == d
    assert metric.cross_distances([p], [q])[0, 0] == metric.cross_distances([q], [p])[0, 0] == d
    assert DistanceMatrix.build({"p": p, "q": q}).tri[0] == d


@pytest.mark.parametrize("p, text", [
    ({"a": float("inf")}, "inf"),
    ({"a": float("nan"), "b": 1.0}, "nan"),
    ({"a": -0.5, "b": 1.5}, "-0.5"),
], ids=["inf", "nan", "negative"])
def test_a_mass_that_is_not_a_finite_number_at_least_zero_is_refused(p, text):
    """Every entry point refuses the mass, on either side, before it can reach a distance."""
    q = {"b": 1.0}
    calls = [
        lambda: metric.distance(p, q), lambda: metric.distance(q, p),
        lambda: metric.pairwise_distances([p, q]), lambda: metric.pairwise_distances([q, p]),
        lambda: metric.cross_distances([p], [q]), lambda: metric.cross_distances([q], [p]),
        lambda: DistanceMatrix.build({"n": p, "q": q}),
        lambda: evaluation.rank_candidates(p, {"n": q, "q": q}),
        lambda: evaluation.rank_candidates(q, {"n": p, "q": q}),
        lambda: evaluation.run_experiment({"n": p, "q": q}, {"n": q, "q": q}),
        lambda: evaluation.run_experiment({"n": q, "q": q}, {"n": p, "q": q}),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^mass {re.escape(text)} is not a finite number >= 0$"):
            call()
