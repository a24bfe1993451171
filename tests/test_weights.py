import dataclasses

import numpy as np
import pytest

from anensolar import weights as weights_module
from anensolar.coredata import LocationSet, ObservationTensor, TimeAxis
from anensolar.weights import (
    RegimeClustering,
    average_linkage_merges,
    enumerate_weights,
    hierarchical_cluster,
    nn_sample_grid,
    optimize_weights,
    rb_sample_points,
    read_weights_csv,
    regime_feature_matrix,
    write_weights_csv,
    zscore_features,
)

from conftest import make_locations
from oracles import lance_williams_linkage, naive_average_linkage


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

    def test_merges_equal_the_lance_williams_matrix_scan_at_300(self, rng):
        points = rng.normal(0, 1, size=(300, 4))
        assert average_linkage_merges(points) == lance_williams_linkage(points)

    def test_first_matrix_needs_no_pairwise_difference_temporary(self, rng):
        import tracemalloc

        n = 1600
        points = rng.normal(0, 1, size=(n, 4))
        tracemalloc.start()
        try:
            average_linkage_merges(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (n, n, 4) difference alone would be 4 matrices
        assert peak <= 1.5 * n * n * 8

    # integer lattices on which a merge's Lance-Williams average rounds below
    # ("below") or onto ("onto", with the new cluster first) the stored
    # minimum of an earlier row whose neighbour was neither merged cluster:
    # that row must take the new cluster, or the merges part from the
    # matrix scan's
    ROUNDING_CASES = {
        "below": [[3, 2, 1, 3, 0, 0, 2, 2, 0, 3, 3, 2, 0, 1, 2, 1, 0, 1, 2,
                   1, 3, 3, 3, 2, 0, 3, 0, 1, 1, 1, 3, 1, 1, 0, 1, 2, 3, 1],
                  [2, 3, 1, 3, 2, 1, 3, 2, 0, 2, 3, 1, 0, 3, 3, 2, 2, 3, 3,
                   1, 3, 3, 1, 1, 1, 1, 2, 1, 2, 2, 0, 0, 0, 1, 0, 2, 3, 2]],
        "onto": [[1, 2, 1, 1, 0, 2, 1, 2, 0, 2, 2, 0, 1, 0],
                 [0, 0, 1, 0, 2, 2, 2, 0, 2, 1, 0, 1, 2, 0],
                 [1, 0, 1, 1, 2, 2, 2, 1, 1, 0, 1, 0, 2, 0],
                 [2, 1, 0, 1, 0, 0, 1, 1, 1, 2, 0, 1, 1, 1]],
    }

    @pytest.mark.parametrize("case", sorted(ROUNDING_CASES))
    def test_a_rounded_average_can_reach_a_stored_minimum(self, case):
        points = np.array(self.ROUNDING_CASES[case], dtype=float).T
        assert average_linkage_merges(points) == lance_williams_linkage(points)

    @staticmethod
    def _linkage_instances(rng, count):
        """Seeded point sets with n = 2..39: Gaussian points, integer lattices
        full of exact ties, duplicated points and featureless points."""
        for trial in range(count):
            n = int(rng.integers(2, 40))
            shape = trial % 4
            if shape == 0:
                yield rng.normal(0, 2, size=(n, int(rng.integers(1, 5))))
            elif shape == 1:
                yield rng.integers(0, 4, size=(n, int(rng.integers(1, 4)))).astype(float)
            elif shape == 2:
                distinct = rng.normal(0, 2, size=(int(rng.integers(1, 11)), 3))
                yield distinct[rng.integers(0, len(distinct), n)]
            else:
                yield np.zeros((n, 0)) if trial % 8 == 3 else rng.integers(0, 2, size=(n, 1)).astype(float)

    def test_merges_equal_the_lance_williams_matrix_scan_at_every_stop(self, rng):
        for points in self._linkage_instances(rng, 300):
            for stop_at in range(1, len(points) + 1):
                expected = lance_williams_linkage(points, stop_at)
                assert average_linkage_merges(points, stop_at) == expected, (points, stop_at)

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


def _regime_analysis(n_loc=90, n_days=10, seed=5):
    """An hourly analysis of the regime variables and one more, over
    ``n_loc`` locations and ``n_days`` days, starting at 06 UTC."""
    r = np.random.default_rng(seed)
    names = ("ghi", "temperature", "wind_speed", "albedo", "cloud_cover")
    times = TimeAxis(1_546_322_400 + 3600 * np.arange(24 * n_days))
    return ObservationTensor(names, make_locations(n_loc, seed), times,
                             r.uniform(0, 900, size=(len(names), n_loc, len(times))))


def _blocks(analysis, size):
    """The analysis's rows in file order, ``size`` locations per block."""
    n_loc = len(analysis.locations)
    return ((name, analysis.values[i, start:start + size]) for i, name in enumerate(analysis.variable_names)
            for start in range(0, n_loc, size))


def _looped_features(analysis):
    """The regime features by a loop over locations and days: each day's
    maximum over its finite values, and means over the finite values."""
    days = (analysis.valid_times.instants - analysis.valid_times.instants[0]) // 86400

    def finite_mean(values):
        values = np.asarray(values, dtype=float)
        values = values[np.isfinite(values)]
        return values.mean() if len(values) else np.nan

    def daily_max(row):
        return [np.max(v, initial=-np.inf, where=np.isfinite(v)) if np.isfinite(v).any() else np.nan
                for v in (row[days == d] for d in np.unique(days))]

    series = {name: analysis.values[analysis.variable_index(name)] for name in ("ghi", "temperature", "cloud_cover")}
    return np.array([[analysis.locations.elevation[loc], finite_mean(daily_max(series["ghi"][loc])),
                      finite_mean(daily_max(series["temperature"][loc])), finite_mean(series["cloud_cover"][loc])]
                     for loc in range(len(analysis.locations))])


class TestRegimeFeatures:
    def test_blocks_of_any_size_give_the_whole_rows_features_bit_for_bit(self):
        analysis = _regime_analysis()
        instants = analysis.valid_times.instants
        starts = np.flatnonzero(np.diff((instants - instants[0]) // 86400, prepend=-1))
        series = {name: analysis.values[analysis.variable_index(name)] for name in weights_module.REGIME_VARIABLES}
        # the reduction over every location at once that the features had
        # before they took blocks and skipped missing values
        whole = np.column_stack([
            analysis.locations.elevation,
            np.maximum.reduceat(series["ghi"], starts, axis=1).mean(axis=1),
            np.maximum.reduceat(series["temperature"], starts, axis=1).mean(axis=1),
            series["cloud_cover"].mean(axis=1),
        ])
        feats, names = regime_feature_matrix(analysis)
        assert names == ("orography", "daily_max_ghi", "daily_max_temperature", "mean_cloud_cover")
        np.testing.assert_array_equal(feats.view(np.uint64), whole.view(np.uint64))
        for size in (1, 7, 45, 400):
            blocked, _ = weights_module.regime_features(analysis.locations, analysis.valid_times,
                                                        _blocks(analysis, size))
            np.testing.assert_array_equal(blocked.view(np.uint64), whole.view(np.uint64), err_msg=str(size))
        np.testing.assert_allclose(feats, _looped_features(analysis), rtol=1e-12)

    def test_missing_values_are_skipped(self):
        analysis = _regime_analysis(n_loc=6)
        values = np.array(analysis.values)
        ghi, cloud = analysis.variable_index("ghi"), analysis.variable_index("cloud_cover")
        values[ghi, 1, 5] = np.nan
        values[ghi, 2, 24:48] = np.nan          # a whole day
        values[cloud, 3, ::2] = np.nan
        values[analysis.variable_index("albedo"), 4] = np.nan  # no feature reads it
        with_missing = dataclasses.replace(analysis, values=values)
        feats, _ = regime_feature_matrix(with_missing)
        assert np.isfinite(feats).all()
        np.testing.assert_allclose(feats, _looped_features(with_missing), rtol=1e-12)
        # the locations with no missing value keep their features bit for bit
        whole, _ = regime_feature_matrix(analysis)
        for loc in (0, 4, 5):
            np.testing.assert_array_equal(feats[loc].view(np.uint64), whole[loc].view(np.uint64))
        hierarchical_cluster(feats, 2)

    def test_a_location_with_no_finite_value_gets_nan_which_clustering_refuses(self):
        analysis = _regime_analysis(n_loc=6)
        values = np.array(analysis.values)
        values[analysis.variable_index("temperature"), 2] = np.nan
        values[analysis.variable_index("temperature"), 3, :24] = np.nan
        feats, _ = regime_feature_matrix(dataclasses.replace(analysis, values=values))
        assert np.argwhere(~np.isfinite(feats)).tolist() == [[2, 2]]
        with pytest.raises(ValueError, match="features must be finite"):
            hierarchical_cluster(feats, 2)

    def test_a_missing_variable_is_named(self):
        analysis = _regime_analysis(n_loc=3)
        blocks = [(name, rows) for name, rows in _blocks(analysis, 3) if name != "cloud_cover"]
        with pytest.raises(ValueError, match=r"lacks the variables \['cloud_cover'\]"):
            weights_module.regime_features(analysis.locations, analysis.valid_times, blocks)


class TestNnSampleGrid:
    def test_single_tile(self):
        locs = LocationSet.from_coords([40.0, 40.4, 40.9], [-78.0, -77.5, -77.9])
        assignment = nn_sample_grid(locs)
        assert len(assignment.representatives) == 1
        assert set(assignment.sample_of.tolist()) == {0}
        lat_c = locs.latitude.mean()
        lon_c = locs.longitude.mean()
        d = (locs.latitude - lat_c) ** 2 + (locs.longitude - lon_c) ** 2
        assert assignment.representatives[0] == int(np.argmin(d))

    def test_four_distant_singletons(self):
        locs = LocationSet.from_coords([10.0, 20.0, 30.0, 40.0], [-100.0, -90.0, -80.0, -70.0])
        assignment = nn_sample_grid(locs)
        assert len(assignment.representatives) == 4
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
        assert len(assignment.representatives) == len(keys)

    def test_every_location_assigned_exactly_once(self, rng):
        locs = make_locations(25, seed=3)
        assignment = nn_sample_grid(locs)
        n_samples = len(assignment.representatives)
        assert sorted(set(assignment.sample_of.tolist())) == list(range(n_samples))
        # each tile's sample location lies in that tile
        np.testing.assert_array_equal(assignment.sample_of[assignment.representatives], np.arange(n_samples))

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
        # one label over all six locations: its one sample's optimum everywhere
        grid = enumerate_weights(4, 0.25)
        out = optimize_weights(grid, row_scores(lambda w, loc: float(np.abs(w - 0.25).sum())),
                               np.zeros(6, dtype=np.int64), [2])
        assert out.shape == (6, 4)
        np.testing.assert_allclose(out, 0.25)

    def test_planted_optimum_recovered(self):
        grid = enumerate_weights(3, 0.25)
        target = np.array([0.5, 0.25, 0.25])
        locs = LocationSet.from_coords([40.0], [-100.0])
        assignment = nn_sample_grid(locs)

        def score(w, loc):
            return float(np.abs(w - target).sum())

        out = optimize_weights(grid, row_scores(score), assignment.sample_of, assignment.representatives)
        np.testing.assert_allclose(out[0], target)

    def test_two_samples_get_their_own_optima(self):
        grid = enumerate_weights(2, 0.5)
        locs = LocationSet.from_coords([10.0, 40.0], [-100.0, -70.0])
        assignment = nn_sample_grid(locs)
        assert len(assignment.representatives) == 2
        targets = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}

        def score(w, loc):
            return float(np.abs(w - targets[loc]).sum())

        out = optimize_weights(grid, row_scores(score), assignment.sample_of, assignment.representatives)
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

        out = optimize_weights(grid, row_scores(score), clustering.labels, samples)
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
        out = optimize_weights(grid, row_scores(lambda w, loc: table[index[tuple(w)], loc]),
                               clustering.labels, samples)
        np.testing.assert_array_equal(seen[0], per_vector)
        np.testing.assert_array_equal(out[:9], np.tile(picked, (9, 1)))

    def test_selected_vectors_always_on_grid(self, rng):
        grid = enumerate_weights(3, 0.25)
        locs = make_locations(10, seed=4)
        assignment = nn_sample_grid(locs)
        table = {tuple(v): float(rng.random()) for v in grid.vectors}

        def score(w, loc):
            return table[tuple(w)] * (loc + 1)

        out = optimize_weights(grid, row_scores(score), assignment.sample_of, assignment.representatives)
        on_grid = {tuple(v) for v in grid.vectors}
        for row in out:
            assert tuple(row) in on_grid

    def test_argmin_invariant_under_positive_scaling(self, rng):
        grid = enumerate_weights(3, 0.25)
        locs = LocationSet.from_coords([40.0], [-100.0])
        assignment = nn_sample_grid(locs)
        table = {tuple(v): float(rng.random()) for v in grid.vectors}
        out1 = optimize_weights(grid, row_scores(lambda w, l: table[tuple(w)]),
                                assignment.sample_of, assignment.representatives)
        out2 = optimize_weights(grid, row_scores(lambda w, l: 1000.0 * table[tuple(w)]),
                                assignment.sample_of, assignment.representatives)
        np.testing.assert_array_equal(out1, out2)

    def test_ties_choose_lexicographically_first(self):
        grid = enumerate_weights(2, 0.5)
        locs = LocationSet.from_coords([40.0], [-100.0])
        assignment = nn_sample_grid(locs)
        out = optimize_weights(grid, row_scores(lambda w, l: 0.0), assignment.sample_of,
                               assignment.representatives)
        np.testing.assert_allclose(out[0], [0.0, 1.0])

    def test_empty_grid_rejected(self):
        grid = enumerate_weights(2, 0.5)
        empty = type(grid)(0.5, 2, False, grid.vectors[:0])
        with pytest.raises(ValueError):
            optimize_weights(empty, row_scores(lambda w, l: 0.0), [0], [0])

    def test_label_without_a_sample_location_rejected(self):
        grid = enumerate_weights(2, 0.5)
        calls = []
        scores = row_scores(lambda w, loc: calls.append(loc) or 0.0)
        # label 3 holds locations 1 and 3, and no sample carries it
        with pytest.raises(ValueError, match="label 3 has no sample location"):
            optimize_weights(grid, scores, np.array([1, 3, 1, 3]), [0, 2])
        assert set(calls) == {0, 2}

    def test_samples_of_a_label_are_averaged_in_the_order_given(self):
        grid = enumerate_weights(2, 0.5)
        calls = []

        def score(w, loc):
            calls.append(loc)
            return float(np.abs(w - [1.0, 0.0]).sum()) * (loc + 1)

        out = optimize_weights(grid, row_scores(score), np.array([7, 7, 5, 7]), [3, 2, 0])
        # label 5 first (sorted labels), then label 7's samples 3, 0 in the given order
        assert calls[::len(grid)] == [2, 3, 0]
        np.testing.assert_allclose(out, np.tile([1.0, 0.0], (4, 1)))


def test_weights_csv_round_trip(tmp_path, rng):
    w = rng.dirichlet(np.ones(3), size=5)
    path = tmp_path / "w.csv"
    write_weights_csv(path, w, ("a", "b", "c"))
    back = read_weights_csv(path)
    np.testing.assert_array_equal(back, w)


def test_clustering_csv(tmp_path, rng):
    clustering = hierarchical_cluster(rng.normal(0, 1, size=(9, 3)), 3)
    c_path = tmp_path / "clustering.csv"
    clustering.write_csv(c_path)
    rows = c_path.read_text().strip().splitlines()
    assert rows[0] == "location,label"
    assert sorted({int(r.split(",")[1]) for r in rows[1:]}) == [1, 2, 3]
