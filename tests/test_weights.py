import numpy as np
import pytest

from anensolar import weights as weights_module
from anensolar.coredata import LocationSet
from anensolar.weights import (
    RegimeClustering,
    average_linkage_merges,
    enumerate_weights,
    hierarchical_cluster,
    nn_sample_grid,
    optimize_weights,
    rb_sample_points,
    read_weights_csv,
    write_weights_csv,
    zscore_features,
)

from conftest import make_locations
from oracles import naive_average_linkage


class TestEnumerateWeights:
    def test_three_predictors_half_step(self):
        grid = enumerate_weights(3, 0.5)
        expected = [
            (1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5),
            (0.0, 1.0, 0.0), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0),
        ]
        assert [tuple(v) for v in grid.vectors] == expected

    def test_seven_predictors_tenth_step_counts(self):
        grid = enumerate_weights(7, 0.1)
        assert len(grid) == 8008
        reduced = enumerate_weights(7, 0.1, exclude_unit_vectors=True)
        assert len(reduced) == 8001

    def test_stars_and_bars_count(self):
        from math import comb
        for n, step in [(2, 0.25), (4, 0.2), (5, 0.5), (3, 1.0)]:
            k = round(1 / step)
            grid = enumerate_weights(n, step)
            assert len(grid) == comb(n + k - 1, n - 1)

    def test_single_predictor(self):
        grid = enumerate_weights(1, 0.1)
        assert [tuple(v) for v in grid.vectors] == [(1.0,)]

    def test_non_integral_step_rejected(self):
        with pytest.raises(ValueError):
            enumerate_weights(3, 0.3)

    def test_every_vector_satisfies_invariants_exactly(self):
        grid = enumerate_weights(5, 0.2)
        sums = grid.vectors.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
        assert np.all(grid.vectors >= 0.0)
        seen = {tuple(v) for v in grid.vectors}
        assert len(seen) == len(grid)

    def test_descending_lexicographic_order(self):
        grid = enumerate_weights(4, 0.25)
        rows = [tuple(v) for v in grid.vectors]
        assert rows == sorted(rows, reverse=True)

    def test_excluded_unit_vectors_absent(self):
        grid = enumerate_weights(4, 0.25, exclude_unit_vectors=True)
        for i in range(4):
            assert tuple(np.eye(4)[i]) not in {tuple(v) for v in grid.vectors}


class TestHierarchicalCluster:
    def test_two_separated_groups_recovered(self, rng):
        a = rng.normal(0.0, 0.3, size=(6, 3))
        b = rng.normal(15.0, 0.3, size=(5, 3))
        feats = np.vstack([a, b])
        clustering = hierarchical_cluster(feats, 2)
        labels = clustering.labels
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    def test_k_equals_n_identity(self, rng):
        feats = rng.normal(0, 1, size=(7, 2))
        clustering = hierarchical_cluster(feats, 7)
        assert sorted(clustering.labels.tolist()) == list(range(1, 8))

    def test_merge_sequence_matches_naive_oracle(self, rng):
        for trial in range(30):
            n = int(rng.integers(3, 9))
            pts = rng.normal(0, 2, size=(n, int(rng.integers(1, 4))))
            merges, _ = average_linkage_merges(pts, stop_at=1)
            expected, _ = naive_average_linkage(pts, stop_at=1)
            assert len(merges) == len(expected)
            for (ai, aj, ad), (bi, bj, bd) in zip(merges, expected):
                assert set(ai) == set(bi) and set(aj) == set(bj)
                assert ad == pytest.approx(bd, rel=1e-9, abs=1e-12)

    @staticmethod
    def _assert_same_merges(points, exact):
        merges, _ = average_linkage_merges(points, stop_at=1)
        expected, _ = naive_average_linkage(points, stop_at=1)
        assert [m[:2] for m in merges] == [e[:2] for e in expected]
        for (_, _, ad), (_, _, bd) in zip(merges, expected):
            assert ad == bd if exact else ad == pytest.approx(bd, rel=1e-12, abs=1e-12)

    def test_exact_ties_on_a_lattice_line(self, rng):
        # 2^k lattice points 5 apart on a line, shuffled, some duplicated in
        # pairs: every cluster size is a power of two and every distance an
        # integer, so both routes compute each average exactly and the
        # many exact ties must all go to the smallest positional pair
        for k in range(1, 6):
            steps = np.arange(2 ** k)
            for copies in (1, 2):
                if copies * len(steps) > 40:
                    continue
                idx = rng.permutation(np.repeat(steps, copies))
                points = np.column_stack([3 * idx + 7, 4 * idx - 2]).astype(float)
                self._assert_same_merges(points, exact=True)

    def test_exact_ties_between_duplicated_points(self, rng):
        for trial in range(20):
            distinct = rng.normal(0, 2, size=(int(rng.integers(2, 11)), 3))
            points = distinct[rng.integers(0, len(distinct), int(rng.integers(3, 41)))]
            self._assert_same_merges(points, exact=False)

    def test_merge_heights_match_scipy(self, rng):
        from scipy.cluster.hierarchy import linkage

        points = rng.normal(0, 1, size=(200, 4))
        merges, _ = average_linkage_merges(points, stop_at=1)
        heights = np.sort([d for _, _, d in merges])
        reference = np.sort(linkage(points, method="average")[:, 2])
        assert heights.tolist() == pytest.approx(reference.tolist(), rel=1e-12)

    def test_permutation_invariance(self, rng):
        feats = rng.normal(0, 3, size=(12, 4))
        base = hierarchical_cluster(feats, 3)
        perm = rng.permutation(12)
        permuted = hierarchical_cluster(feats[perm], 3)
        partition_a = {frozenset(np.flatnonzero(base.labels == k)) for k in range(1, 4)}
        partition_b = {
            frozenset(perm[i] for i in np.flatnonzero(permuted.labels == k))
            for k in range(1, 4)
        }
        assert partition_a == partition_b

    def test_constant_columns_dropped(self, rng):
        feats = rng.normal(0, 1, size=(6, 3))
        feats[:, 1] = 42.0
        z, kept = zscore_features(feats)
        assert kept.tolist() == [0, 2]
        clustering = hierarchical_cluster(feats, 2)
        assert len(clustering.feature_names) == 2

    def test_k_larger_than_n_rejected(self, rng):
        with pytest.raises(ValueError):
            hierarchical_cluster(rng.normal(0, 1, size=(3, 2)), 4)

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_cluster(np.array([[1.0], [np.nan]]), 1)

    def test_labels_cover_every_location(self, rng):
        feats = rng.normal(0, 1, size=(15, 4))
        clustering = hierarchical_cluster(feats, 4)
        assert clustering.labels.shape == (15,)
        assert set(clustering.labels) == {1, 2, 3, 4}


class TestNnSampleGrid:
    def test_single_tile(self):
        locs = LocationSet.from_coords([40.0, 40.4, 40.9], [-78.0, -77.5, -77.9])
        assignment = nn_sample_grid(locs)
        assert assignment.n_samples == 1
        assert set(assignment.sample_of.tolist()) == {0}
        lat_c = locs.latitude.mean()
        lon_c = locs.longitude.mean()
        d = (locs.latitude - lat_c) ** 2 + (locs.longitude - lon_c) ** 2
        assert assignment.representatives[0] == int(np.argmin(d))

    def test_four_distant_singletons(self):
        locs = LocationSet.from_coords([10.0, 20.0, 30.0, 40.0], [-100.0, -90.0, -80.0, -70.0])
        assignment = nn_sample_grid(locs)
        assert assignment.n_samples == 4
        assert sorted(assignment.representatives.tolist()) == [0, 1, 2, 3]

    def test_matches_scalar_containment_oracle(self, rng):
        lat = rng.uniform(25, 49, 40)
        lon = rng.uniform(-124, -67, 40)
        locs = LocationSet.from_coords(lat, lon)
        assignment = nn_sample_grid(locs)
        # brute-force per-location tile lookup
        keys = {}
        for loc in range(40):
            key = (int(np.floor((lat[loc] - lat.min()) / 4.5)),
                   int(np.floor((lon[loc] - lon.min()) / 3.5)))
            keys.setdefault(key, []).append(loc)
        for key, members in keys.items():
            sids = {int(assignment.sample_of[m]) for m in members}
            assert len(sids) == 1
        assert assignment.n_samples == len(keys)

    def test_every_location_assigned_exactly_once(self, rng):
        locs = make_locations(25, seed=3)
        assignment = nn_sample_grid(locs)
        for sid in range(assignment.n_samples):
            for member in assignment.members[sid]:
                assert assignment.sample_of[member] == sid

    def test_empty_rejected(self):
        empty = LocationSet(np.arange(0), np.zeros(0), np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError):
            nn_sample_grid(empty)


def clustering_with_sizes(sizes):
    labels = np.concatenate([np.full(s, i + 1) for i, s in enumerate(sizes)])
    return RegimeClustering(labels, np.zeros((len(sizes), 1)), ("f0",))


class TestRbSamplePoints:
    def test_single_regime(self):
        clustering = clustering_with_sizes([8])
        picks = rb_sample_points(clustering, 3)
        assert len(picks) == 3
        assert len(set(picks)) == 3

    def test_proportional_rounding(self):
        clustering = clustering_with_sizes([90, 10])
        picks = rb_sample_points(clustering, 10)
        labels = clustering.labels[picks]
        assert (labels == 1).sum() == 9
        assert (labels == 2).sum() == 1

    def test_reported_regime_sizes_within_one(self):
        # regime sizes and sample counts as reported for the 15-regime clustering
        sizes = [4225, 3411, 2615, 7105, 208, 1045, 5188, 1477, 11221, 2160, 10884, 7134, 33, 68, 2]
        reported = [5, 4, 3, 8, 1, 2, 6, 2, 13, 3, 12, 8, 1, 1, 1]
        clustering = clustering_with_sizes(sizes)
        picks = rb_sample_points(clustering, 70)
        for regime, expected in zip(range(1, 16), reported):
            got = int((clustering.labels[picks] == regime).sum())
            assert abs(got - expected) <= 1

    def test_deterministic_given_seed(self):
        clustering = clustering_with_sizes([30, 20])
        assert rb_sample_points(clustering, 6, seed=5) == rb_sample_points(clustering, 6, seed=5)
        assert rb_sample_points(clustering, 6, seed=5) != rb_sample_points(clustering, 6, seed=6)

    def test_samples_belong_to_their_regime(self):
        clustering = clustering_with_sizes([12, 5, 9])
        picks = rb_sample_points(clustering, 8)
        assert len(picks) == len(set(picks))
        counts = {r: int((clustering.labels[picks] == r).sum()) for r in (1, 2, 3)}
        assert min(counts.values()) >= 1


def row_scores(score):
    """A ``scores(vectors, loc)`` objective from a per-vector ``score(w, loc)``."""
    return lambda vectors, loc: np.array([score(w, loc) for w in vectors])


class TestOptimizeWeights:
    def test_equal_weights_everywhere(self):
        grid = enumerate_weights(4, 0.25)
        out = optimize_weights(grid, None, "EW", n_locations=6)
        assert out.shape == (6, 4)
        np.testing.assert_allclose(out, 0.25)

    def test_planted_optimum_recovered(self):
        grid = enumerate_weights(3, 0.25)
        target = np.array([0.5, 0.25, 0.25])
        locs = LocationSet.from_coords([40.0], [-100.0])
        assignment = nn_sample_grid(locs)

        def score(w, loc):
            return float(np.abs(w - target).sum())

        out = optimize_weights(grid, row_scores(score), "NN", assignment=assignment)
        np.testing.assert_allclose(out[0], target)

    def test_two_samples_get_their_own_optima(self):
        grid = enumerate_weights(2, 0.5)
        locs = LocationSet.from_coords([10.0, 40.0], [-100.0, -70.0])
        assignment = nn_sample_grid(locs)
        assert assignment.n_samples == 2
        targets = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}

        def score(w, loc):
            return float(np.abs(w - targets[loc]).sum())

        out = optimize_weights(grid, row_scores(score), "NN", assignment=assignment)
        np.testing.assert_allclose(out[0], targets[0])
        np.testing.assert_allclose(out[1], targets[1])

    def test_rb_broadcasts_to_regime_members(self):
        grid = enumerate_weights(2, 0.5)
        clustering = clustering_with_sizes([3, 3])
        samples = rb_sample_points(clustering, 2)
        targets = {1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])}

        def score(w, loc):
            regime = int(clustering.labels[loc])
            return float(np.abs(w - targets[regime]).sum())

        out = optimize_weights(grid, row_scores(score), "RB", clustering=clustering,
                               regime_samples=samples)
        for loc in range(3):
            np.testing.assert_allclose(out[loc], targets[1])
        for loc in range(3, 6):
            np.testing.assert_allclose(out[loc], targets[2])

    def test_rb_regime_mean_equals_each_vectors_own_mean(self, monkeypatch):
        # each vector scores a permutation of the same nine values spread over
        # eight decades, so the means differ only in rounding: numpy sums a
        # row of 8 or more values pairwise, an in-order sum rounds otherwise
        grid = enumerate_weights(5, 0.2)
        clustering = clustering_with_sizes([9, 2])
        samples = [*range(9), 10]
        rng = np.random.default_rng(17)
        values = 10.0 ** rng.uniform(-4, 4, 9) * rng.uniform(1, 2, 9)
        table = np.array([np.append(rng.permutation(values), [0.0, 0.0]) for _ in grid.vectors])
        index = {tuple(w): k for k, w in enumerate(grid.vectors)}
        per_vector = np.array([np.mean(list(row[:9])) for row in table])
        in_order = np.ascontiguousarray(table[:, :9].T).mean(axis=0)
        picked = weights_module._best_vector(grid, per_vector)
        assert tuple(weights_module._best_vector(grid, in_order)) != tuple(picked)

        seen = []
        best = weights_module._best_vector
        monkeypatch.setattr(weights_module, "_best_vector",
                            lambda g, scores: seen.append(scores) or best(g, scores))
        out = optimize_weights(grid, row_scores(lambda w, loc: table[index[tuple(w)], loc]), "RB",
                               clustering=clustering, regime_samples=samples)
        np.testing.assert_array_equal(seen[0], per_vector)
        np.testing.assert_array_equal(out[:9], np.tile(picked, (9, 1)))

    def test_selected_vectors_always_on_grid(self, rng):
        grid = enumerate_weights(3, 0.25)
        locs = make_locations(10, seed=4)
        assignment = nn_sample_grid(locs)
        table = {tuple(v): float(rng.random()) for v in grid.vectors}

        def score(w, loc):
            return table[tuple(w)] * (loc + 1)

        out = optimize_weights(grid, row_scores(score), "NN", assignment=assignment)
        on_grid = {tuple(v) for v in grid.vectors}
        for row in out:
            assert tuple(row) in on_grid

    def test_argmin_invariant_under_positive_scaling(self, rng):
        grid = enumerate_weights(3, 0.25)
        locs = LocationSet.from_coords([40.0], [-100.0])
        assignment = nn_sample_grid(locs)
        table = {tuple(v): float(rng.random()) for v in grid.vectors}
        out1 = optimize_weights(grid, row_scores(lambda w, l: table[tuple(w)]), "NN",
                                assignment=assignment)
        out2 = optimize_weights(grid, row_scores(lambda w, l: 1000.0 * table[tuple(w)]), "NN",
                                assignment=assignment)
        np.testing.assert_array_equal(out1, out2)

    def test_ties_choose_lexicographically_first(self):
        grid = enumerate_weights(2, 0.5)
        locs = LocationSet.from_coords([40.0], [-100.0])
        assignment = nn_sample_grid(locs)
        out = optimize_weights(grid, row_scores(lambda w, l: 0.0), "NN", assignment=assignment)
        np.testing.assert_allclose(out[0], [0.0, 1.0])

    def test_empty_grid_rejected(self):
        grid = enumerate_weights(2, 0.5)
        empty = type(grid)(0.5, 2, False, grid.vectors[:0])
        with pytest.raises(ValueError):
            optimize_weights(empty, None, "EW", n_locations=1)

    def test_unknown_strategy_rejected(self):
        grid = enumerate_weights(2, 0.5)
        with pytest.raises(ValueError):
            optimize_weights(grid, None, "GRADIENT", n_locations=1)


def test_weights_csv_round_trip(tmp_path, rng):
    w = rng.dirichlet(np.ones(3), size=5)
    path = tmp_path / "w.csv"
    write_weights_csv(path, w, ("a", "b", "c"))
    back = read_weights_csv(path)
    np.testing.assert_array_equal(back, w)


def test_assignment_and_clustering_csv(tmp_path, rng):
    locs = make_locations(9, seed=8)
    assignment = nn_sample_grid(locs)
    a_path = tmp_path / "assignment.csv"
    assignment.write_csv(a_path)
    rows = a_path.read_text().strip().splitlines()
    assert rows[0] == "location,sample"
    assert len(rows) == 1 + 9
    clustering = hierarchical_cluster(rng.normal(0, 1, size=(9, 3)), 3)
    c_path = tmp_path / "clustering.csv"
    clustering.write_csv(c_path)
    rows = c_path.read_text().strip().splitlines()
    assert rows[0] == "location,label"
    assert sorted({int(r.split(",")[1]) for r in rows[1:]}) == [1, 2, 3]
