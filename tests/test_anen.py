import dataclasses
import math

import numpy as np
import pytest

from anensolar import anen
from anensolar.anen import (
    AnalogIndexSet,
    AnEnConfig,
    SearchTables,
    SigmaTensor,
    build_multivariate_ensemble,
    compute_sigma,
    equal_weights,
    search_analogs,
    similarity,
    validate_weights,
)
from anensolar.coredata import (
    MISSING,
    EnsembleTensor,
    ForecastTensor,
    LeadTimeAxis,
    ObservationTensor,
    TimeAxis,
    align_observations,
)
from anensolar.errors import DimensionMismatchError, InsufficientCandidatesError
from anensolar.tensorio import read_tensor, write_tensor

from conftest import make_forecast, make_locations
from oracles import brute_force_search, gather_members, population_sigma


def unit_sigma(fc):
    shape = (len(fc.predictor_names), len(fc.locations), len(fc.lead_times))
    return SigmaTensor(fc.predictor_names, fc.locations, fc.lead_times, np.ones(shape))


def tiny_forecast(values):
    """ForecastTensor from a raw (P, L, I, J) array."""
    values = np.asarray(values, dtype=float)
    p, l, i, j = values.shape
    return ForecastTensor(
        tuple(f"p{k}" for k in range(p)),
        make_locations(l),
        TimeAxis(86400 * np.arange(i)),
        LeadTimeAxis(3600 * np.arange(j)),
        values,
    )


class TestWeightVector:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            validate_weights([0.5, 0.4])
        validate_weights([0.5, 0.5])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            validate_weights([1.5, -0.5])

    def test_equal_weights(self):
        w = equal_weights(4)
        np.testing.assert_allclose(w, [0.25] * 4)
        validate_weights(w)

    def test_one_row_per_location(self):
        rows = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(validate_weights(rows, 2, 3), rows)
        with pytest.raises(ValueError, match="expected 4 weight rows"):
            validate_weights(rows, 2, 4)
        with pytest.raises(ValueError, match="row 1"):
            validate_weights([[0.5, 0.5], [0.5, 0.4]])
        with pytest.raises(ValueError, match="row 0"):
            validate_weights([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            validate_weights(np.full((2, 2, 2), 0.5))

    def test_similarity_reads_the_location_row(self):
        fc = make_forecast(n_pred=3, n_loc=2, n_init=8, n_lead=4, seed=5)
        sigma = compute_sigma(fc, range(0, 8))
        rows = np.array([[0.2, 0.0, 0.8], [0.0, 1.0, 0.0]])
        per_location = AnEnConfig(weights=rows, half_window=1)
        for loc in range(2):
            own = AnEnConfig(weights=rows[loc], half_window=1)
            assert (similarity(fc, loc, 6, 2, 1, sigma, per_location)
                    == similarity(fc, loc, 6, 2, 1, sigma, own))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnEnConfig(weights=np.array([1.0]), members=0)
        with pytest.raises(ValueError):
            AnEnConfig(weights=np.array([1.0]), half_window=-1)
        with pytest.raises(ValueError):
            AnEnConfig(weights=np.array([1.0]), sigma_epsilon=0.0)


class TestComputeSigma:
    def test_constant_series_zero(self):
        fc = tiny_forecast(np.full((1, 1, 3, 1), 5.0))
        sigma = compute_sigma(fc, range(0, 3))
        assert sigma.values[0, 0, 0] == 0.0

    def test_two_point_population_value(self):
        fc = tiny_forecast(np.array([1.0, 3.0]).reshape(1, 1, 2, 1))
        sigma = compute_sigma(fc, range(0, 2))
        assert sigma.values[0, 0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_all_missing_sentinel(self):
        fc = tiny_forecast(np.full((1, 1, 4, 1), MISSING))
        sigma = compute_sigma(fc, range(0, 4))
        assert np.isnan(sigma.values[0, 0, 0])

    def test_single_finite_sample_sentinel(self):
        vals = np.full((1, 1, 4, 1), MISSING)
        vals[0, 0, 2, 0] = 7.0
        sigma = compute_sigma(tiny_forecast(vals), range(0, 4))
        assert np.isnan(sigma.values[0, 0, 0])

    def test_matches_scalar_oracle(self, rng):
        vals = rng.normal(0, 4, size=(3, 2, 12, 4))
        vals[rng.random(vals.shape) < 0.2] = MISSING
        fc = tiny_forecast(vals)
        sigma = compute_sigma(fc, range(2, 11))
        expected = population_sigma(fc.values, 2, 11)
        np.testing.assert_allclose(sigma.values, expected, rtol=1e-12, equal_nan=True)

    def test_empty_search_range_rejected(self):
        with pytest.raises(ValueError):
            compute_sigma(make_forecast(), range(3, 3))


class TestSimilarity:
    def test_self_distance_zero(self):
        fc = make_forecast(n_pred=3, n_init=4)
        cfg = AnEnConfig(weights=equal_weights(3), half_window=1)
        sigma = compute_sigma(fc, range(0, 4))
        d = similarity(fc, 0, 2, 2, 1, sigma, cfg)
        assert d == 0.0

    def test_single_predictor_point_metric(self):
        fc = tiny_forecast(np.array([5.0, 3.0]).reshape(1, 1, 2, 1))
        cfg = AnEnConfig(weights=np.array([1.0]), half_window=0)
        d = similarity(fc, 0, 0, 1, 0, unit_sigma(fc), cfg)
        assert d == pytest.approx(2.0, abs=1e-15)

    def test_windowed_metric(self):
        # diffs within the window are (1, 2, 2) -> sqrt(9) = 3
        vals = np.zeros((1, 1, 2, 3))
        vals[0, 0, 0] = [1.0, 2.0, 3.0]
        vals[0, 0, 1] = [0.0, 0.0, 1.0]
        fc = tiny_forecast(vals)
        cfg = AnEnConfig(weights=np.array([1.0]), half_window=1)
        d = similarity(fc, 0, 0, 1, 1, unit_sigma(fc), cfg)
        assert d == pytest.approx(3.0, abs=1e-15)

    def test_window_clipped_at_boundaries(self):
        vals = np.zeros((1, 1, 2, 2))
        vals[0, 0, 0] = [1.0, 5.0]
        vals[0, 0, 1] = [0.0, 1.0]
        fc = tiny_forecast(vals)
        cfg = AnEnConfig(weights=np.array([1.0]), half_window=2)
        # lead 0 window clips to leads {0, 1}: sqrt(1 + 16)
        d = similarity(fc, 0, 0, 1, 0, unit_sigma(fc), cfg)
        assert d == pytest.approx(math.sqrt(17.0), abs=1e-12)

    def test_missing_candidate_disqualifies(self):
        vals = np.zeros((1, 1, 2, 3))
        vals[0, 0, 0] = [1.0, 2.0, 3.0]
        vals[0, 0, 1] = [0.0, MISSING, 1.0]
        fc = tiny_forecast(vals)
        cfg = AnEnConfig(weights=np.array([1.0]), half_window=1)
        assert similarity(fc, 0, 0, 1, 1, unit_sigma(fc), cfg) == math.inf

    def test_missing_target_drops_term(self):
        vals = np.zeros((1, 1, 2, 3))
        vals[0, 0, 0] = [1.0, MISSING, 3.0]
        vals[0, 0, 1] = [0.0, 0.0, 1.0]
        fc = tiny_forecast(vals)
        cfg = AnEnConfig(weights=np.array([1.0]), half_window=1)
        d = similarity(fc, 0, 0, 1, 1, unit_sigma(fc), cfg)
        assert d == pytest.approx(math.sqrt(1.0 + 4.0), abs=1e-12)

    def test_low_sigma_predictor_skipped(self):
        vals = np.zeros((2, 1, 2, 1))
        vals[0, 0] = [[5.0], [1.0]]
        vals[1, 0] = [[9.0], [2.0]]
        fc = tiny_forecast(vals)
        sigma = SigmaTensor(fc.predictor_names, fc.locations, fc.lead_times,
                            np.array([[[1.0]], [[1e-12]]]))
        cfg = AnEnConfig(weights=equal_weights(2), half_window=0)
        d = similarity(fc, 0, 0, 1, 0, sigma, cfg)
        assert d == pytest.approx(0.5 * 4.0, abs=1e-12)

    def test_zero_weight_predictor_skipped(self):
        vals = np.zeros((2, 1, 2, 1))
        vals[0, 0] = [[5.0], [1.0]]
        vals[1, 0] = [[9.0], [2.0]]
        fc = tiny_forecast(vals)
        cfg = AnEnConfig(weights=np.array([1.0, 0.0]), half_window=0)
        d = similarity(fc, 0, 0, 1, 0, unit_sigma(fc), cfg)
        assert d == pytest.approx(4.0, abs=1e-12)

    def test_linearity_in_weights(self, rng):
        # the metric is sum_i w_i * term_i with every term non-negative,
        # which carries the weight-monotonicity property
        fc = make_forecast(n_pred=3, n_loc=2, n_init=8, n_lead=4, seed=33)
        sigma = compute_sigma(fc, range(0, 8))
        one_hot = [AnEnConfig(weights=np.eye(3)[i], half_window=1) for i in range(3)]
        terms = np.array([similarity(fc, 1, 2, 5, 2, sigma, c) for c in one_hot])
        assert np.all(terms >= 0.0)
        for _ in range(20):
            w = rng.dirichlet(np.ones(3))
            cfg = AnEnConfig(weights=w / w.sum(), half_window=1)
            d = similarity(fc, 1, 2, 5, 2, sigma, cfg)
            assert d == pytest.approx(float(np.dot(cfg.weights, terms)), rel=1e-9)

    def test_weight_increase_cannot_decrease_distance_when_other_term_zero(self):
        vals = np.zeros((2, 1, 2, 1))
        vals[0, 0] = [[5.0], [1.0]]   # positive term
        vals[1, 0] = [[2.0], [2.0]]   # zero term
        fc = tiny_forecast(vals)
        low = similarity(fc, 0, 0, 1, 0, unit_sigma(fc),
                         AnEnConfig(weights=np.array([0.3, 0.7]), half_window=0))
        high = similarity(fc, 0, 0, 1, 0, unit_sigma(fc),
                          AnEnConfig(weights=np.array([0.9, 0.1]), half_window=0))
        assert high > low


class TestSearchAnalogs:
    def test_three_candidates_ranked(self):
        # candidate distances (2, 0, 5) at the single lead -> members [#1, #0]
        vals = np.array([2.0, 0.0, 5.0, 0.0]).reshape(1, 1, 4, 1)
        fc = tiny_forecast(vals)
        cfg = AnEnConfig(weights=np.array([1.0]), members=2, half_window=0)
        out = search_analogs(fc, cfg, (3, 4), (0, 3), unit_sigma(fc))
        assert out.search_index[0, 0, 0].tolist() == [1.0, 0.0]
        assert out.distance[0, 0, 0].tolist() == [0.0, 2.0]

    def test_exact_copy_is_best_with_zero_distance(self):
        vals = np.array([7.0, 7.0]).reshape(1, 1, 2, 1)
        fc = tiny_forecast(vals)
        cfg = AnEnConfig(weights=np.array([1.0]), members=1, half_window=0)
        out = search_analogs(fc, cfg, (1, 2), (0, 1), unit_sigma(fc))
        assert out.search_index[0, 0, 0, 0] == 0.0
        assert out.distance[0, 0, 0, 0] == 0.0

    def test_ties_break_to_earlier_init(self):
        vals = np.array([3.0, 3.0, 3.0, 3.0]).reshape(1, 1, 4, 1)
        fc = tiny_forecast(vals)
        cfg = AnEnConfig(weights=np.array([1.0]), members=2, half_window=0)
        out = search_analogs(fc, cfg, (3, 4), (0, 3), unit_sigma(fc))
        assert out.search_index[0, 0, 0].tolist() == [0.0, 1.0]

    def test_matches_oracle_on_random_instance(self, rng):
        fc = make_forecast(n_pred=2, n_loc=1, n_init=20, n_lead=3, seed=77)
        cfg = AnEnConfig(weights=equal_weights(2), members=4, half_window=1)
        sigma = compute_sigma(fc, range(0, 14))
        out = search_analogs(fc, cfg, (14, 20), (0, 14), sigma)
        idx, dist = brute_force_search(
            fc.values, cfg.weights, 4, 1, cfg.sigma_epsilon,
            range(14, 20), range(0, 14), False, sigma.values,
        )
        np.testing.assert_array_equal(out.search_index, idx)
        np.testing.assert_array_equal(out.distance, dist)

    def test_operational_mode_matches_oracle(self, rng):
        fc = make_forecast(n_pred=3, n_loc=2, n_init=24, n_lead=4, seed=78)
        cfg = AnEnConfig(weights=equal_weights(3), members=3, half_window=1, operational=True)
        sigma = compute_sigma(fc, range(0, 12))
        out = search_analogs(fc, cfg, (12, 24), (0, 12), sigma)
        idx, dist = brute_force_search(
            fc.values, cfg.weights, 3, 1, cfg.sigma_epsilon,
            range(12, 24), range(0, 12), True, sigma.values,
        )
        np.testing.assert_array_equal(out.search_index, idx)
        np.testing.assert_array_equal(out.distance, dist)

    def test_operational_causality_invariant(self):
        fc = make_forecast(n_pred=2, n_loc=2, n_init=18, n_lead=3, seed=79)
        cfg = AnEnConfig(weights=equal_weights(2), members=3, half_window=1, operational=True)
        out = search_analogs(fc, cfg, (6, 18), (0, 6))
        test_inits = fc.init_times.instants[out.test_indices]
        src = out.search_index
        for row, t_time in enumerate(test_inits):
            member_inits = src[:, row][np.isfinite(src[:, row])].astype(int)
            assert np.all(fc.init_times.instants[member_inits] < t_time)

    def test_positive_scaling_invariance(self):
        fc = make_forecast(n_pred=3, n_loc=2, n_init=16, n_lead=4, seed=80)
        cfg = AnEnConfig(weights=equal_weights(3), members=4, half_window=1)
        base = search_analogs(fc, cfg, (12, 16), (0, 12))
        scaled_values = fc.values.copy()
        scaled_values[1] *= 37.5
        scaled = ForecastTensor(fc.predictor_names, fc.locations, fc.init_times,
                                fc.lead_times, scaled_values)
        out = search_analogs(scaled, cfg, (12, 16), (0, 12))
        np.testing.assert_array_equal(out.search_index, base.search_index)
        np.testing.assert_allclose(out.distance, base.distance, rtol=1e-9, atol=1e-12)

    def test_insufficient_candidates_error(self):
        fc = make_forecast(n_init=5)
        cfg = AnEnConfig(weights=equal_weights(2), members=4, half_window=0)
        with pytest.raises(InsufficientCandidatesError):
            search_analogs(fc, cfg, (3, 5), (0, 3))

    def test_allow_partial_stores_shorter_lists(self):
        fc = make_forecast(n_init=5)
        cfg = AnEnConfig(weights=equal_weights(2), members=4, half_window=0, allow_partial=True)
        out = search_analogs(fc, cfg, (3, 5), (0, 3))
        assert out.member_count().max() == 3
        assert np.all(np.isnan(out.search_index[..., 3]))

    def test_disqualified_candidates_never_selected(self):
        vals = np.zeros((1, 1, 4, 1))
        vals[0, 0, :, 0] = [1.0, MISSING, 3.0, 2.0]
        fc = tiny_forecast(vals)
        cfg = AnEnConfig(weights=np.array([1.0]), members=2, half_window=0)
        out = search_analogs(fc, cfg, (3, 4), (0, 3), unit_sigma(fc))
        assert set(out.search_index[0, 0, 0].tolist()) == {0.0, 2.0}

    def test_empty_search_range_rejected(self):
        fc = make_forecast()
        cfg = AnEnConfig(weights=equal_weights(2))
        with pytest.raises(ValueError):
            search_analogs(fc, cfg, (3, 5), (2, 2))

    def test_overlap_requires_operational(self):
        fc = make_forecast(n_init=6)
        cfg = AnEnConfig(weights=equal_weights(2), members=1)
        with pytest.raises(ValueError):
            search_analogs(fc, cfg, (2, 5), (0, 3))

    def test_distances_non_decreasing_within_lists(self):
        fc = make_forecast(n_pred=2, n_loc=3, n_init=30, n_lead=4, seed=81)
        cfg = AnEnConfig(weights=equal_weights(2), members=6, half_window=1)
        out = search_analogs(fc, cfg, (24, 30), (0, 24))
        diffs = np.diff(out.distance, axis=-1)
        assert np.all(diffs[np.isfinite(diffs)] >= 0)


def assert_matches_oracle(fc, cfg, test, search, sigma):
    out = search_analogs(fc, cfg, test, search, sigma)
    idx, dist = brute_force_search(
        fc.values, cfg.weights, cfg.members, cfg.half_window, cfg.sigma_epsilon,
        test, search, cfg.operational, sigma.values, allow_partial=cfg.allow_partial,
    )
    np.testing.assert_array_equal(out.search_index, idx)
    np.testing.assert_array_equal(out.distance, dist)
    return out


class TestSearchKernelEdges:
    """Cases where the blocked all-leads search could part from a scalar loop."""

    def test_ties_across_member_boundary_go_to_earlier_init(self):
        # distances to the last init: (2, 1, 3, 1, 1); the M-th value is tied
        vals = np.array([2.0, 1.0, 3.0, -1.0, 1.0, 0.0]).reshape(1, 1, 6, 1)
        fc = tiny_forecast(vals)
        for members, expected in [(2, [1.0, 3.0]), (3, [1.0, 3.0, 4.0]), (4, [1.0, 3.0, 4.0, 0.0])]:
            cfg = AnEnConfig(weights=np.array([1.0]), members=members, half_window=0)
            out = search_analogs(fc, cfg, (5, 6), (0, 5), unit_sigma(fc))
            assert out.search_index[0, 0, 0].tolist() == expected

    def test_operational_test_inits_before_the_pool_see_no_future(self):
        fc = make_forecast(n_pred=2, n_loc=2, n_init=12, n_lead=3, seed=103)
        cfg = AnEnConfig(weights=equal_weights(2), members=2, operational=True,
                         allow_partial=True)
        out = assert_matches_oracle(fc, cfg, range(0, 10), range(5, 12),
                                    compute_sigma(fc, range(5, 12)))
        # test inits 0-4 precede the pool; every stored init precedes its test init
        assert np.isnan(out.search_index[:, :5]).all()
        assert (np.nan_to_num(out.search_index, nan=-1) < np.arange(10)[None, :, None, None]).all()

    def test_many_ties_match_oracle(self):
        r = np.random.default_rng(101)
        fc = tiny_forecast(r.integers(0, 3, size=(2, 2, 30, 4)).astype(float))
        sigma = compute_sigma(fc, range(0, 24))
        for members in (1, 5, 12):
            for operational in (False, True):
                cfg = AnEnConfig(weights=equal_weights(2), members=members, half_window=1,
                                 operational=operational)
                assert_matches_oracle(fc, cfg, range(24, 30), range(0, 24), sigma)

    def test_predictor_skipped_at_some_leads_only(self):
        fc = make_forecast(n_pred=3, n_loc=2, n_init=20, n_lead=5, seed=102)
        values = fc.values.copy()
        values[1, 0, [3, 7], 2] = MISSING
        values[0, 1, 16, 1] = MISSING
        fc = tiny_forecast(values)
        base = compute_sigma(fc, range(0, 14)).values.copy()
        base[1, 0, 2] = 1e-9   # below sigma_epsilon at one lead
        base[2, 1, 0] = 0.0
        base[0, 1, 4] = MISSING
        sigma = SigmaTensor(fc.predictor_names, fc.locations, fc.lead_times, base)
        cfg = AnEnConfig(weights=np.array([0.5, 0.3, 0.2]), members=4, half_window=1,
                         allow_partial=True)
        assert_matches_oracle(fc, cfg, range(14, 20), range(0, 14), sigma)

    def test_half_window_beyond_lead_axis(self):
        fc = make_forecast(n_pred=2, n_loc=1, n_init=16, n_lead=3, seed=103)
        sigma = compute_sigma(fc, range(0, 12))
        for half_window in (3, 4, 7):
            cfg = AnEnConfig(weights=equal_weights(2), members=3, half_window=half_window)
            assert_matches_oracle(fc, cfg, range(12, 16), range(0, 12), sigma)

    def test_members_at_least_candidates_with_partial_lists(self):
        fc = make_forecast(n_pred=2, n_loc=2, n_init=9, n_lead=3, seed=104)
        values = fc.values.copy()
        values[0, 1, 2, 1] = MISSING
        fc = tiny_forecast(values)
        sigma = compute_sigma(fc, range(0, 5))
        for members in (5, 8):
            for operational in (False, True):
                cfg = AnEnConfig(weights=equal_weights(2), members=members, half_window=1,
                                 operational=operational, allow_partial=True)
                out = assert_matches_oracle(fc, cfg, range(5, 9), range(0, 5), sigma)
                pool = np.arange(5, 9) if operational else np.full(4, 5)
                assert np.all(out.member_count() <= pool[None, :, None])

    def test_row_blocks_match_one_search_per_test_row(self):
        r = np.random.default_rng(105)
        n_lead, n_search = 6, 2500
        n_cand = n_search + 40
        rows_per_block = max(1, anen.BLOCK_BYTES // (8 * n_lead * n_cand))
        n_test = 3 * rows_per_block + 1  # at least three blocks of test rows
        values = r.normal(0, 1, size=(2, 1, n_search + n_test, n_lead))
        values[r.random(values.shape) < 0.01] = MISSING
        fc = tiny_forecast(values)
        test = range(n_search, n_search + n_test)
        sigma = compute_sigma(fc, range(0, n_search))
        cfg = AnEnConfig(weights=np.array([0.7, 0.3]), members=5, half_window=2, operational=True)
        out = search_analogs(fc, cfg, test, (0, n_search), sigma)
        for row, t in enumerate(test):
            one = search_analogs(fc, cfg, (t, t + 1), (0, n_search), sigma)
            np.testing.assert_array_equal(out.search_index[:, row], one.search_index[:, 0])
            np.testing.assert_array_equal(out.distance[:, row], one.distance[:, 0])

    def test_operational_blocks_score_only_candidates_before_their_last_init(self, monkeypatch):
        fc = make_forecast(n_pred=2, n_loc=2, n_init=40, n_lead=4, seed=106)
        values = fc.values.copy()
        values[np.random.default_rng(106).random(values.shape) < 0.03] = MISSING
        fc = tiny_forecast(values)
        sigma = compute_sigma(fc, range(4, 20))
        widths = []
        roots = anen._window_roots
        monkeypatch.setattr(anen, "_window_roots",
                            lambda target, cand_t, *a: widths.append(cand_t.shape[1]) or
                            roots(target, cand_t, *a))
        # three test rows a block over a pool of search inits 4 .. 39; the first
        # block's rows precede the pool
        monkeypatch.setattr(anen, "BLOCK_BYTES", 8 * 4 * 36 * 3)
        cfg = AnEnConfig(weights=equal_weights(2), members=3, half_window=1, operational=True,
                         allow_partial=True)
        assert_matches_oracle(fc, cfg, range(2, 40), range(4, 20), sigma)
        last = [min(r + 3, 40) - 1 for r in range(2, 40, 3)]
        # per location, block and predictor
        assert widths == [max(0, t - 4) for _ in range(2) for t in last for _ in range(2)]

    @pytest.mark.parametrize("n_lead", [1, 2, 3, 6])
    def test_window_sums_add_each_window_left_to_right(self, n_lead):
        r = np.random.default_rng(n_lead)
        d2 = r.random((2, n_lead, 3)) * 10.0 ** r.integers(-8, 8, size=(2, n_lead, 3))
        for half_window in range(8):
            got = anen._window_sums(d2.copy(), np.empty_like(d2), half_window)
            for lead in range(n_lead):
                lo, hi = max(0, lead - half_window), min(n_lead - 1, lead + half_window)
                want = d2[:, lo]
                for j in range(lo + 1, hi + 1):
                    want = want + d2[:, j]
                assert got[:, lead].tobytes() == want.tobytes()

    def test_insufficient_candidates_names_first_cell_in_lead_order(self):
        # short lists at (row 0, lead 2) and (row 2, lead 0): the lead-major
        # order of a per-lead scan names lead 0 first, whatever the row blocks
        n_cand = anen.BLOCK_BYTES // 8  # at least a whole block per test row
        values = np.zeros((1, 1, n_cand + 3, 3))
        values[0, 0, 1:n_cand, 0] = MISSING
        values[0, 0, 1:n_cand, 2] = MISSING
        values[0, 0, n_cand:, 0] = MISSING
        values[0, 0, n_cand:, 2] = MISSING
        values[0, 0, n_cand + 2, 0] = 1.0
        values[0, 0, n_cand, 2] = 1.0
        fc = tiny_forecast(values)
        cfg = AnEnConfig(weights=np.array([1.0]), members=2, half_window=0)
        with pytest.raises(InsufficientCandidatesError) as err:
            search_analogs(fc, cfg, (n_cand, n_cand + 3), (0, n_cand), unit_sigma(fc))
        assert str(err.value) == (
            f"1 finite-distance candidates for location 0, test init {n_cand + 2}, lead 0; need 2"
        )


def integer_forecast(seed, n_init=60):
    """Three predictors at two locations, valued 0-2 so that many candidates
    tie at the M-th distance, with 8% NaN holes."""
    r = np.random.default_rng(seed)
    values = r.integers(0, 3, size=(3, 2, n_init, 5)).astype(float)
    values[r.random(values.shape) < 0.08] = MISSING
    return tiny_forecast(values)


SEARCH_TABLE_CASES = {
    "fixed": (dict(members=5, half_window=0), (45, 60), (0, 45)),
    "operational": (dict(members=5, half_window=1, operational=True), (30, 60), (0, 30)),
    "fixed_partial": (dict(members=12, half_window=2, allow_partial=True), (45, 60), (0, 16)),
    "operational_partial": (dict(members=6, half_window=1, operational=True, allow_partial=True),
                            (2, 30), (0, 2)),
}
TABLE_VECTORS = [np.full(3, 1 / 3), np.array([0.5, 0.0, 0.5]), np.array([0.0, 0.0, 1.0])]


class TestSearchTables:
    @pytest.mark.parametrize("case", sorted(SEARCH_TABLE_CASES))
    def test_members_are_the_search_members(self, case):
        kwargs, test, search = SEARCH_TABLE_CASES[case]
        fc = integer_forecast(seed=sorted(SEARCH_TABLE_CASES).index(case))
        config = AnEnConfig(weights=equal_weights(3), **kwargs)
        m, ties, short = config.members, False, False
        for loc in range(2):
            tables = SearchTables(fc.at_locations(loc, loc + 1), config, test, search)
            for w in TABLE_VECTORS:
                cfg = AnEnConfig(weights=w, **kwargs)
                found = search_analogs(fc, cfg, test, search).search_index[loc]
                chosen, ok = tables.members(w, loc)
                rows, cols = np.divmod(chosen.reshape(ok.shape), tables.shape[2])
                for r, (t, j) in enumerate(np.ndindex(*tables.shape[:2])):
                    assert (rows[r] == r).all()
                    want = found[t, j][np.isfinite(found[t, j])] - tables.cand.start
                    assert set(cols[r][ok[r]].tolist()) == set(want.tolist())
                short |= not ok.all()
                wide = search_analogs(fc, dataclasses.replace(cfg, members=m + 1, allow_partial=True),
                                      test, search).distance[loc]
                ties |= bool(np.any(wide[..., m] == wide[..., m - 1]))
        assert ties  # some cell breaks a tie at the M-th distance
        assert short == config.allow_partial

    @pytest.mark.parametrize("operational", [False, True])
    def test_short_pool_raises_the_search_error(self, operational):
        test, search = ((6, 60), (0, 6)) if operational else ((45, 60), (0, 7))
        config = AnEnConfig(weights=equal_weights(3), members=5, half_window=0,
                            operational=operational)
        named = []
        for seed in range(7, 12):
            fc = integer_forecast(seed)
            for loc in range(2):
                one = fc.at_locations(loc, loc + 1)
                tables = SearchTables(one, config, test, search)
                try:
                    search_analogs(one, config, test, search)
                except InsufficientCandidatesError as expected:
                    with pytest.raises(InsufficientCandidatesError) as raised:
                        tables.members(config.weights, loc)
                    # the slice search names its only location 0
                    assert str(raised.value) == str(expected).replace("location 0,",
                                                                      f"location {loc},")
                    named.append(str(expected).split(", ", 1)[1])
                else:
                    assert tables.members(config.weights, loc)[1].all()
        assert len(set(named)) > 1  # short cells at more than one (test init, lead)

    def test_invalid_vector_and_many_locations_are_value_errors(self):
        fc = integer_forecast(seed=8)
        config = AnEnConfig(weights=equal_weights(3), members=5)
        with pytest.raises(ValueError):
            SearchTables(fc, config, (45, 60), (0, 45))
        tables = SearchTables(fc.at_locations(0, 1), config, (45, 60), (0, 45))
        for w in ([0.5, 0.5], [0.5, 0.5, 0.5], [-0.5, 0.5, 1.0]):
            with pytest.raises(ValueError):
                tables.members(np.array(w), 0)
        assert all(not table.flags.writeable for table in tables.roots.values())


def aligned_from(fc, obs_values):
    obs = ObservationTensor(
        ("a", "b"),
        fc.locations,
        TimeAxis((fc.init_times.instants[:, None] + fc.lead_times.offsets[None, :]).ravel()),
        obs_values,
    )
    return align_observations(obs, fc.init_times, fc.lead_times)


class TestBuildEnsemble:
    def make_setup(self, seed=90, n_loc=2, n_init=10, n_lead=3):
        fc = make_forecast(n_pred=2, n_loc=n_loc, n_init=n_init, n_lead=n_lead, seed=seed)
        r = np.random.default_rng(seed + 1)
        obs_values = r.normal(0, 1, size=(2, n_loc, n_init * n_lead))
        aligned = aligned_from(fc, obs_values)
        return fc, aligned

    def test_gather_identity(self):
        fc, aligned = self.make_setup()
        cfg = AnEnConfig(weights=equal_weights(2), members=2, half_window=0)
        out = search_analogs(fc, cfg, (8, 10), (0, 8))
        ens = build_multivariate_ensemble(out, aligned)
        l, t, j = 1, 0, 2
        for m in range(2):
            src = int(out.search_index[l, t, j, m])
            assert ens.values[0, l, t, j, m] == aligned.values[0, l, src, j]

    def test_shared_analog_property(self):
        fc, aligned = self.make_setup(seed=91)
        cfg = AnEnConfig(weights=equal_weights(2), members=3, half_window=1)
        out = search_analogs(fc, cfg, (7, 10), (0, 7))
        ens = build_multivariate_ensemble(out, aligned)
        # member m of every variable traces to the same historical init
        for m in range(3):
            src = out.search_index[..., m].astype(int)
            for v in range(2):
                expected = aligned.values[v][
                    np.arange(2)[:, None, None], src, np.arange(3)[None, None, :]
                ]
                np.testing.assert_array_equal(ens.values[v, ..., m], expected)

    def test_matches_scalar_gather_oracle(self, rng):
        fc, aligned = self.make_setup(seed=92, n_loc=3, n_init=14, n_lead=4)
        cfg = AnEnConfig(weights=equal_weights(2), members=4, half_window=1, allow_partial=True)
        out = search_analogs(fc, cfg, (10, 14), (0, 10))
        ens = build_multivariate_ensemble(out, aligned)
        expected = gather_members(aligned.values, out.search_index)
        np.testing.assert_array_equal(ens.values, expected)

    def test_missing_observations_propagate(self):
        fc, aligned = self.make_setup(seed=93)
        values = aligned.values.copy()
        values[0, 0, :, 1] = MISSING
        aligned2 = type(aligned)(aligned.variable_names, aligned.locations,
                                 aligned.init_times, aligned.lead_times, values)
        cfg = AnEnConfig(weights=equal_weights(2), members=2, half_window=0)
        out = search_analogs(fc, cfg, (8, 10), (0, 8))
        ens = build_multivariate_ensemble(out, aligned2)
        assert np.all(np.isnan(ens.values[0, 0, :, 1, :]))
        assert np.all(np.isfinite(ens.values[1, 0, :, 1, :]))

    def test_tensors_keep_the_arrays_anen_fills(self, monkeypatch):
        given = {}

        def spy(cls):
            def build(*args):
                given[cls] = args
                return cls(*args)
            return build

        for cls in (AnalogIndexSet, EnsembleTensor):
            monkeypatch.setattr(anen, cls.__name__, spy(cls))
        fc, aligned = self.make_setup(seed=96)
        cfg = AnEnConfig(weights=equal_weights(2), members=2, half_window=0)
        out = search_analogs(fc, cfg, (8, 10), (0, 8))
        ens = build_multivariate_ensemble(out, aligned)
        for array, passed in ((out.search_index, given[AnalogIndexSet][-2]),
                              (out.distance, given[AnalogIndexSet][-1]),
                              (ens.values, given[EnsembleTensor][-1])):
            assert not array.flags.writeable
            assert array is passed.array  # handed over, not copied

    def test_observations_on_other_axes_do_not_pair(self):
        # observations aligned over more leads than the index set, or over
        # init times a day later, hold other cells than the analogs name
        fc, aligned = self.make_setup(seed=97)
        cfg = AnEnConfig(weights=equal_weights(2), members=2, half_window=0)
        out = search_analogs(fc, cfg, (8, 10), (0, 8))
        obs = ObservationTensor(aligned.variable_names, aligned.locations,
                                TimeAxis(fc.init_times.instants[0] + 3600 * np.arange(24 * 12)),
                                np.zeros((2, 2, 24 * 12)))
        for axis, init, lead in (("lead_times", fc.init_times, LeadTimeAxis(3600 * np.arange(5))),
                                 ("init_times", TimeAxis(fc.init_times.instants + 86400), fc.lead_times)):
            with pytest.raises(DimensionMismatchError, match=axis):
                build_multivariate_ensemble(out, align_observations(obs, init, lead))

    @pytest.mark.parametrize("position", [-1, 10])
    def test_an_analog_outside_the_init_axis_is_value_error(self, position):
        fc, aligned = self.make_setup(seed=98)
        cfg = AnEnConfig(weights=equal_weights(2), members=2, half_window=0)
        out = search_analogs(fc, cfg, (8, 10), (0, 8))
        index = out.search_index.copy()
        index[1, 0, 2, 1] = position
        with pytest.raises(ValueError, match="outside the init axis"):
            build_multivariate_ensemble(dataclasses.replace(out, search_index=index), aligned)


class TestAnalogSerialization:
    def test_round_trip_with_distances(self, tmp_path):
        fc = make_forecast(n_pred=2, n_loc=2, n_init=12, n_lead=3, seed=95)
        cfg = AnEnConfig(weights=equal_weights(2), members=3, half_window=1)
        out = search_analogs(fc, cfg, (9, 12), (0, 9))
        assert not out.test_indices.flags.writeable
        path = tmp_path / "analogs.ansr"
        write_tensor(out, path)
        back = read_tensor(path)
        assert isinstance(back, AnalogIndexSet)
        np.testing.assert_array_equal(back.search_index, out.search_index)
        np.testing.assert_array_equal(back.distance, out.distance)
        np.testing.assert_array_equal(back.test_indices, out.test_indices)
        assert back.members == 3
