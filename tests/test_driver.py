import dataclasses

import numpy as np
import pytest

from anensolar import anen
from anensolar.anen import AnEnConfig, compute_sigma, equal_weights, search_analogs
from anensolar.coredata import ForecastTensor, LocationSet
from anensolar.driver import (
    WeightObjective,
    anen_weather_ensemble,
    forecast_weather_ensemble,
    power_from_weather,
)
from anensolar.errors import DimensionMismatchError, InsufficientCandidatesError
from anensolar.pvchain import SystemConfig, load_module_catalog
from anensolar.solar import precompute_solar
from anensolar.synth import SynthConfig, generate
from anensolar.weights import enumerate_weights, optimize_weights

from oracles import per_location_search, reference_weight_score


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(5)
    locs = LocationSet.from_coords(rng.uniform(30, 45, 3), rng.uniform(-110, -80, 3))
    cfg = SynthConfig(seed=3, locations=locs, start=1546300800, n_days=60)
    return generate(cfg)


def test_slices_preserve_values(dataset):
    obs, fc = dataset
    f1 = fc.at_locations(1, 2)
    assert f1.values.shape[1] == 1
    np.testing.assert_array_equal(f1.values[:, 0], fc.values[:, 1])
    o1 = obs.at_locations(2, 3)
    np.testing.assert_array_equal(o1.values[:, 0], obs.values[:, 2])


def test_forecast_wrapper_is_one_member(dataset):
    _, fc = dataset
    ens = forecast_weather_ensemble(fc, range(50, 60))
    assert ens.members == 1
    np.testing.assert_array_equal(ens.values[..., 0], fc.values[:, :, 50:60, :])


def test_uniform_per_location_weights_match_single_search(dataset):
    obs, fc = dataset
    cfg = AnEnConfig(weights=equal_weights(5), members=5, half_window=1, operational=True)
    single = anen_weather_ensemble(fc, obs, cfg, range(45, 60), range(0, 45))
    stacked = np.tile(equal_weights(5), (3, 1))
    per_loc = anen_weather_ensemble(fc, obs, dataclasses.replace(cfg, weights=stacked),
                                    range(45, 60), range(0, 45))
    np.testing.assert_array_equal(single.values, per_loc.values)


def test_weight_objective_is_pure_and_finite(dataset):
    obs, fc = dataset
    base = AnEnConfig(weights=equal_weights(5), members=5, half_window=1, operational=True)
    spec = next(s for s in load_module_catalog() if s.code == "STU300")
    objective = WeightObjective(fc, obs, base, range(40, 50), range(0, 40), spec, SystemConfig())
    w = equal_weights(5)
    first, other = objective.scores([w, np.array([0.6, 0.1, 0.1, 0.1, 0.1])], 0)
    second, = objective.scores([w], 0)
    assert np.isfinite(first)
    assert first == second
    assert np.isfinite(other) and other != first


def test_power_from_weather_builds_cache_once(dataset):
    obs, fc = dataset
    weather = forecast_weather_ensemble(fc, range(55, 60))
    spec = load_module_catalog()[0]
    power = power_from_weather(weather, [spec], SystemConfig())
    assert power.variable_names == ("SP128",)
    assert power.values.shape == (1, 3, 5, 24, 1)
    assert np.all(power.values >= 0)


@pytest.fixture(scope="module")
def holed(dataset):
    """The dataset with 3% NaN holes in the forecasts and predictor 2 held
    constant (sigma 0, below epsilon) at leads 3-5 only."""
    obs, fc = dataset
    values = fc.values.copy()
    values[np.random.default_rng(9).random(values.shape) < 0.03] = np.nan
    values[2, :, :, 3:6] = 7.0
    return obs, ForecastTensor(fc.predictor_names, fc.locations, fc.init_times,
                               fc.lead_times, values)


OBJECTIVE_CASES = {
    "fixed": (dict(members=5, half_window=1), range(45, 60), range(0, 45)),
    "operational": (dict(members=5, half_window=2, operational=True), range(40, 60), range(5, 40)),
    "partial": (dict(members=12, half_window=0, operational=True, allow_partial=True),
                range(8, 20), range(0, 8)),
    # a pool of exactly M candidates: every one is a member, short lists padded
    "whole_pool": (dict(members=8, half_window=0, allow_partial=True), range(45, 60), range(0, 8)),
}


class TestObjectiveTables:
    spec = next(s for s in load_module_catalog() if s.code == "STU300")

    def objective(self, data, case):
        obs, fc = data
        kwargs, test, search = OBJECTIVE_CASES[case]
        base = AnEnConfig(weights=equal_weights(5), **kwargs)
        return WeightObjective(fc, obs, base, test, search, self.spec, SystemConfig())

    def test_holed_fixture_has_the_edge_cases(self, holed):
        _, fc = holed
        sigma = compute_sigma(fc, range(0, 45)).values[2]
        assert np.isnan(fc.values).any()
        assert (sigma[:, 3:6] < 1e-6).all() and (sigma[:, :3] >= 1e-6).all()

    @pytest.mark.parametrize("case", sorted(OBJECTIVE_CASES))
    def test_equals_the_search_gather_simulate_chain(self, holed, case):
        obs, fc = holed
        objective = self.objective(holed, case)
        _, test, search = OBJECTIVE_CASES[case]
        base = objective.base
        vectors = enumerate_weights(5, 0.25).vectors
        scores = []
        for loc in (0, 2):
            row = objective.scores(vectors, loc)
            assert row.shape == (len(vectors),)
            for w, score in zip(vectors, row):
                assert score == reference_weight_score(fc, obs, base, test, search, self.spec,
                                                       SystemConfig(), w, loc)
            scores.extend(row)
        assert np.isfinite(scores).all() and len(set(scores)) > 1
        if base.allow_partial:
            found = search_analogs(fc.at_locations(0, 1), base, test, search).member_count()
            assert found.min() < base.members <= found.max()

    def test_short_lists_raise_the_search_error(self, holed):
        obs, fc = holed
        kwargs, test, search = OBJECTIVE_CASES["partial"]
        w = np.array([0.25, 0.25, 0.0, 0.5, 0.0])
        strict = AnEnConfig(weights=w, **dict(kwargs, allow_partial=False))
        objective = WeightObjective(fc, obs, strict, test, search, self.spec, SystemConfig())
        with pytest.raises(InsufficientCandidatesError) as expected:
            search_analogs(fc.at_locations(1, 2), strict, test, search)
        with pytest.raises(InsufficientCandidatesError) as raised:
            objective.scores([w], 1)
        # the slice search names its only location 0; the objective names location 1
        assert str(raised.value) == str(expected.value).replace("location 0,", "location 1,")

    def test_sample_locations_alone_score_as_the_whole_archive(self, holed):
        obs, fc = holed
        whole = self.objective(holed, "fixed")
        kwargs, test, search = OBJECTIVE_CASES["fixed"]
        samples = [2, 0]
        alone = WeightObjective(fc.take_locations(samples), obs.take_locations(samples), whole.base,
                                test, search, self.spec, SystemConfig(), locations=samples)
        vectors = enumerate_weights(5, 0.25).vectors
        for loc in samples:
            assert alone.scores(vectors, loc).tobytes() == whole.scores(vectors, loc).tobytes()
        with pytest.raises(KeyError):
            alone.scores(vectors, 1)

    def test_short_lists_name_the_archive_location_of_a_sample(self, holed):
        obs, fc = holed
        kwargs, test, search = OBJECTIVE_CASES["partial"]
        w = np.array([0.25, 0.25, 0.0, 0.5, 0.0])
        strict = AnEnConfig(weights=w, **dict(kwargs, allow_partial=False))
        whole = WeightObjective(fc, obs, strict, test, search, self.spec, SystemConfig())
        alone = WeightObjective(fc.take_locations([1]), obs.take_locations([1]), strict, test, search,
                                self.spec, SystemConfig(), locations=[1])
        with pytest.raises(InsufficientCandidatesError) as expected:
            whole.scores([w], 1)
        with pytest.raises(InsufficientCandidatesError) as raised:
            alone.scores([w], 1)
        assert "location 1," in str(raised.value)
        assert str(raised.value) == str(expected.value)

    def test_rb_run_builds_each_sample_location_once(self, holed):
        grid = enumerate_weights(5, 0.5)
        labels = np.array([1, 2, 1])
        samples = [0, 1, 2]
        objective = self.objective(holed, "fixed")
        builds = []
        build = objective._build
        objective._build = lambda loc: builds.append(loc) or build(loc)
        optimize_weights(grid, objective.scores, labels, samples)
        assert sorted(builds) == samples

    @pytest.mark.parametrize("w", [[-0.25, 0.5, 0.25, 0.25, 0.25], [0.5, 0.5, 0.5, 0.0, 0.0],
                                   [0.5, 0.5]])
    def test_invalid_vector_is_value_error(self, holed, w):
        objective = self.objective(holed, "fixed")
        with pytest.raises(ValueError):
            objective.scores([equal_weights(5), np.array(w)], 0)

    @pytest.mark.parametrize("test", [range(50, 70), range(-5, 5)])
    def test_a_split_out_of_bounds_is_value_error(self, dataset, test):
        obs, fc = dataset
        with pytest.raises(ValueError, match="out of bounds"):
            WeightObjective(fc, obs, AnEnConfig(weights=equal_weights(5)), test, range(0, 40),
                            self.spec, SystemConfig())


def test_an_analysis_at_other_locations_does_not_pair(dataset):
    obs, fc = dataset
    spec = next(s for s in load_module_catalog() if s.code == "STU300")
    base = AnEnConfig(weights=equal_weights(5), members=5, half_window=1)
    moved = dataclasses.replace(obs, locations=LocationSet.from_coords(
        obs.locations.latitude + 1.0, obs.locations.longitude, obs.locations.elevation))
    for analysis in (moved, obs.take_locations([0, 1])):
        with pytest.raises(DimensionMismatchError, match="locations"):
            WeightObjective(fc, analysis, base, range(40, 50), range(0, 40), spec, SystemConfig())


def night_holed(dataset, holes):
    """The dataset with the forecasts of every predictor in ``holes`` (a
    predictor -> (L, I, J) mask) NaN where the mask is set at night, and the
    (L, I, J) night mask."""
    obs, fc = dataset
    night = ~precompute_solar(fc.locations, fc.init_times, fc.lead_times).daylight_mask()
    values = fc.values.copy()
    for p, mask in holes.items():
        values[p][mask & night] = np.nan
    return obs, ForecastTensor(fc.predictor_names, fc.locations, fc.init_times,
                               fc.lead_times, values), night


class TestNightRows:
    """The objective's tables keep the daylight (test init, lead) rows alone,
    unless a night row could go short."""

    spec = TestObjectiveTables.spec
    vectors = enumerate_weights(5, 0.25).vectors

    def assert_scores_are_the_chain(self, obs, fc, base, test, search, loc, vectors):
        objective = WeightObjective(fc, obs, base, test, search, self.spec, SystemConfig())
        got = objective.scores(vectors, loc)
        want = np.array([reference_weight_score(fc, obs, base, test, search, self.spec,
                                                SystemConfig(), w, loc) for w in vectors])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert np.isfinite(got).all() and len(set(got.tolist())) > 1
        return objective._build(loc).search

    @pytest.mark.parametrize("case", ["fixed", "operational"])
    def test_night_holes_that_leave_m_candidates_drop_the_night_rows(self, dataset, case):
        shape = dataset[1].values.shape[1:]
        holes = {p: np.random.default_rng(p).random(shape) < 0.02 for p in range(1, 5)}
        obs, fc, night = night_holed(dataset, holes)
        kwargs, test, search = OBJECTIVE_CASES[case]
        base = AnEnConfig(weights=equal_weights(5), **kwargs)
        for loc in range(3):
            tables = self.assert_scores_are_the_chain(obs, fc, base, test, search, loc, self.vectors)
            day = ~night[loc, test.start : test.stop]
            assert tables.cells.tolist() == np.flatnonzero(day).tolist()
            assert 0 < len(tables.cells) < day.size
            # the holes disqualify candidates in the rows kept
            assert any(np.isnan(roots).any() for roots in tables.roots.values())

    def short_night(self, dataset):
        """Location 1's temperature NaN at night for search inits 0-41: a
        night row that weighs it keeps 3 of 45 candidates, fewer than M = 5."""
        shape = dataset[1].values.shape[1:]
        holes = np.zeros(shape, dtype=bool)
        holes[1, :42] = True
        return night_holed(dataset, {1: holes})

    def test_a_night_row_that_can_go_short_keeps_every_row(self, dataset):
        obs, fc, night = self.short_night(dataset)
        _, test, search = OBJECTIVE_CASES["fixed"]
        strict = AnEnConfig(weights=equal_weights(5), members=5, half_window=0)
        objective = WeightObjective(fc, obs, strict, test, search, self.spec, SystemConfig())
        with pytest.raises(InsufficientCandidatesError) as expected:
            search_analogs(fc.at_locations(1, 2), strict, test, search)
        with pytest.raises(InsufficientCandidatesError) as raised:
            optimize_weights(enumerate_weights(5, 0.5), objective.scores, np.array([1, 1, 1]), [1])
        assert str(raised.value) == str(expected.value).replace("location 0,", "location 1,")
        # the cell named is a night cell, which the tables would otherwise drop
        assert str(raised.value) == "3 finite-distance candidates for location 1, test init 45, lead 1; need 5"
        assert night[1, 45, 1]
        assert len(objective._build(1).search.cells) == len(test) * fc.values.shape[3]
        # vectors that do not weigh the temperature score every row as the chain does
        cold = [w for w in self.vectors if w[1] == 0.0]
        self.assert_scores_are_the_chain(obs, fc, strict, test, search, 1, cold)

    def test_short_night_rows_allowed_partial_are_dropped(self, dataset):
        obs, fc, night = self.short_night(dataset)
        _, test, search = OBJECTIVE_CASES["fixed"]
        base = AnEnConfig(weights=equal_weights(5), members=5, half_window=0, allow_partial=True)
        tables = self.assert_scores_are_the_chain(obs, fc, base, test, search, 1, self.vectors)
        assert tables.cells.tolist() == np.flatnonzero(~night[1, test.start : test.stop]).tolist()

    @pytest.mark.parametrize("operational", [False, True])
    def test_polar_night_keeps_no_row_and_scores_inf_as_the_chain(self, operational):
        locs = LocationSet.from_coords(np.array([78.0]), np.array([15.0]))
        obs, fc = generate(SynthConfig(seed=3, locations=locs, start=1546300800, n_days=40))
        base = AnEnConfig(weights=equal_weights(5), members=5, half_window=1, operational=operational)
        objective = WeightObjective(fc, obs, base, range(30, 40), range(0, 30), self.spec,
                                    SystemConfig())
        assert len(objective._build(0).search.cells) == 0
        for w in self.vectors[:3]:
            assert objective.scores([w], 0)[0] == np.inf == reference_weight_score(
                fc, obs, base, range(30, 40), range(0, 30), self.spec, SystemConfig(), w, 0)


LOCATION_ROWS = np.array([[0.25, 0.25, 0.0, 0.5, 0.0],
                          [0.0, 0.0, 1.0, 0.0, 0.0],
                          [0.1, 0.3, 0.2, 0.0, 0.4]])


@pytest.mark.parametrize("given_sigma", [False, True])
@pytest.mark.parametrize("case", sorted(OBJECTIVE_CASES))
def test_location_rows_search_once_like_per_location_slices(holed, case, given_sigma):
    obs, fc = holed
    kwargs, test, search = OBJECTIVE_CASES[case]
    config = AnEnConfig(weights=LOCATION_ROWS, **kwargs)
    sigma = compute_sigma(fc, search) if given_sigma else None
    found = search_analogs(fc, config, test, search, sigma)
    index, distance = per_location_search(fc, config, test, search, LOCATION_ROWS, sigma)
    np.testing.assert_array_equal(found.search_index, index)
    np.testing.assert_array_equal(found.distance, distance)
    assert np.isnan(found.search_index).any() == config.allow_partial


def test_per_location_weights_search_once(dataset, monkeypatch):
    obs, fc = dataset
    calls = []
    monkeypatch.setattr(anen, "search_analogs",
                        lambda *args: calls.append(args) or search_analogs(*args))
    cfg = AnEnConfig(weights=equal_weights(5), members=5)
    ensemble = anen_weather_ensemble(fc, obs, dataclasses.replace(cfg, weights=LOCATION_ROWS),
                                     range(45, 60), range(0, 45))
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0][1].weights, LOCATION_ROWS)
    assert ensemble.values.shape[1] == 3


def test_short_list_error_names_the_real_location(dataset):
    obs, fc = dataset
    values = fc.values.copy()
    values[0, 2, :42, 14] = np.nan  # location 2 keeps 3 candidates around lead 14
    fc = ForecastTensor(fc.predictor_names, fc.locations, fc.init_times, fc.lead_times, values)
    cfg = AnEnConfig(weights=equal_weights(5), members=5, half_window=1)
    with pytest.raises(InsufficientCandidatesError,
                       match="3 finite-distance candidates for location 2, test init 45, lead"):
        anen_weather_ensemble(fc, obs, dataclasses.replace(cfg, weights=LOCATION_ROWS),
                              range(45, 60), range(0, 45))
