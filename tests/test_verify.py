import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anensolar.coredata import LeadTimeAxis, LocationSet, TimeAxis
from anensolar.errors import EmptySeriesError
from anensolar.solar import precompute_solar
from anensolar.verify import (
    CellFields,
    SolarNoonAlignment,
    aggregate,
    align_solar_noon,
    bias,
    crps,
    crps_field,
    group_cells,
    paired_significance,
    read_region_map,
    rmse,
    spread_field,
)

from oracles import crps_double_sum, loop_aggregate


class TestRmseBias:
    def test_perfect_prediction(self):
        x = np.arange(6.0)
        assert rmse(x, x) == 0.0
        assert bias(x, x) == 0.0

    def test_symmetric_errors(self):
        pred = np.array([2.0, -2.0])
        truth = np.zeros(2)
        assert rmse(pred, truth) == pytest.approx(2.0)
        assert bias(pred, truth) == pytest.approx(0.0)

    def test_missing_pairs_dropped(self):
        pred = np.array([1.0, np.nan, 3.0, 4.0])
        truth = np.array([1.0, 2.0, np.nan, 2.0])
        assert rmse(pred, truth) == pytest.approx(np.sqrt(4.0 / 2.0))
        assert bias(pred, truth) == pytest.approx(1.0)

    def test_all_missing_is_error(self):
        with pytest.raises(EmptySeriesError):
            rmse(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(EmptySeriesError):
            bias(np.array([np.nan]), np.array([1.0]))

    def test_under_prediction_is_negative(self):
        assert bias(np.array([1.0, 1.0]), np.array([3.0, 3.0])) == -2.0

    def test_rmse_at_least_abs_bias(self, rng):
        for _ in range(50):
            pred = rng.normal(0, 5, 30)
            truth = rng.normal(0, 5, 30)
            assert rmse(pred, truth) >= abs(bias(pred, truth)) - 1e-12


class TestCrps:
    def test_two_member_unit_case(self):
        assert crps([0.0, 2.0], 1.0) == pytest.approx(0.5)

    def test_perfect_ensemble(self):
        assert crps([3.0, 3.0, 3.0], 3.0) == 0.0

    def test_single_member_reduces_to_absolute_error(self, rng):
        for _ in range(100):
            x = float(rng.normal(0, 10))
            y = float(rng.normal(0, 10))
            assert crps([x], y) == pytest.approx(abs(x - y), rel=1e-12)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(EmptySeriesError):
            crps([], 1.0)

    def test_matches_double_sum_oracle(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 12))
            members = rng.normal(0, 3, m).tolist()
            truth = float(rng.normal(0, 3))
            assert crps(members, truth) == pytest.approx(
                crps_double_sum(members, truth), rel=1e-12
            )

    def test_at_most_mean_absolute_member_error(self, rng):
        for _ in range(50):
            members = rng.normal(0, 2, 8)
            truth = float(rng.normal(0, 2))
            assert crps(members, truth) <= np.mean(np.abs(members - truth)) + 1e-12

    def test_field_form_matches_scalar(self, rng):
        ens = rng.normal(0, 1, size=(3, 4, 5))
        truth = rng.normal(0, 1, size=(3, 4))
        field = crps_field(ens, truth)
        for i in range(3):
            for j in range(4):
                assert field[i, j] == pytest.approx(crps(ens[i, j], truth[i, j]), rel=1e-12)


class TestCrpsField:
    @staticmethod
    def ensemble(rng, shape, m):
        """Members drawn from a few repeated values, so ties are common."""
        return rng.choice(rng.normal(0, 3, max(2, m // 3)), size=shape + (m,))

    @pytest.mark.parametrize("m", [1, 2, 3, 21])
    def test_matches_double_sum_oracle_with_ties(self, rng, m):
        ens = self.ensemble(rng, (40,), m)
        ens[0] = 1.5  # one constant ensemble
        truth = rng.normal(0, 3, 40)
        truth[1] = ens[1, 0]  # one truth equal to a member
        field = crps_field(ens, truth)
        for cell in range(40):
            assert field[cell] == pytest.approx(
                crps_double_sum(ens[cell].tolist(), float(truth[cell])), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 5, 21])
    def test_member_order_does_not_change_the_score(self, rng, m):
        ens = rng.normal(0, 3, (6, 7, m))
        truth = rng.normal(0, 3, (6, 7))
        shuffled = rng.permuted(ens, axis=-1)
        np.testing.assert_array_equal(crps_field(shuffled, truth), crps_field(ens, truth))
        np.testing.assert_array_equal(crps_field(ens[..., ::-1], truth), crps_field(ens, truth))

    def test_stacked_call_equals_separate_calls(self, rng):
        ens = rng.normal(100, 20, (5, 9, 24, 21))
        truth = rng.normal(100, 20, (9, 24))
        stacked = crps_field(ens, truth)
        assert stacked.shape == (5, 9, 24)
        for v in range(5):
            np.testing.assert_array_equal(stacked[v], crps_field(ens[v : v + 1], truth)[0])

    def test_missing_member_or_truth_is_nan(self, rng):
        ens = rng.normal(0, 1, (3, 21))
        truth = rng.normal(0, 1, 3)
        ens[0, 4] = np.nan
        truth[1] = np.nan
        field = crps_field(ens, truth)
        assert np.isnan(field[:2]).all() and np.isfinite(field[2])


def hourly_cache(lons, lats=None, n_init=2):
    lats = lats if lats is not None else [40.0] * len(lons)
    locs = LocationSet.from_coords(lats, lons)
    init = TimeAxis(1623456000 + 86400 * np.arange(n_init))  # 00 UTC inits
    lead = LeadTimeAxis(3600 * np.arange(24))
    return precompute_solar(locs, init, lead)


class TestSolarNoonAlignment:
    def test_greenwich_noon_maps_to_slot_12(self):
        cache = hourly_cache([0.0])
        alignment = align_solar_noon(cache)
        assert alignment.offsets[0] == 0
        assert alignment.slots(24)[0, 12] == 12

    def test_105_west_offset_plus_seven(self):
        cache = hourly_cache([-105.0])
        alignment = align_solar_noon(cache)
        assert alignment.offsets[0] == 7
        assert alignment.slots(24)[0, 19] == 12

    def test_same_longitude_same_offset(self):
        cache = hourly_cache([-80.0, -80.0], lats=[30.0, 45.0])
        alignment = align_solar_noon(cache)
        assert alignment.offsets[0] == alignment.offsets[1]

    def test_pure_shift_preserves_ordering(self):
        cache = hourly_cache([-105.0, 0.0, 30.0])
        alignment = align_solar_noon(cache)
        slots = alignment.slots(24)
        assert np.all(np.diff(slots, axis=1) == 1)


class TestAggregate:
    def make_data(self, rng, n_loc=3, n_init=4, n_lead=6, members=5):
        ens = rng.normal(100, 20, size=(n_loc, n_init, n_lead, members))
        truth = rng.normal(100, 20, size=(n_loc, n_init, n_lead))
        init = TimeAxis(1546300800 + 86400 * np.arange(n_init))
        return ens, truth, init

    def test_single_group_equals_global_metrics(self, rng):
        ens, truth, init = self.make_data(rng, n_loc=1, n_lead=1)
        report = aggregate(ens, truth, "location", init_times=init)
        assert len(report.rows) == 1
        row = report.rows[0]
        mean = ens.mean(axis=-1)
        assert row.rmse == pytest.approx(float(np.sqrt(((mean - truth) ** 2).mean())))
        assert row.bias == pytest.approx(float((mean - truth).mean()))
        assert row.crps == pytest.approx(float(crps_field(ens, truth).mean()))
        assert row.spread == pytest.approx(float(spread_field(ens).mean()))
        assert row.count == truth.size

    def test_group_crps_is_the_mean_of_one_crps_field_call(self, rng):
        ens, truth, init = self.make_data(rng, n_loc=4, n_init=12, n_lead=24, members=21)
        ens[0, 0, 3, 7] = np.nan
        ens[2, 5, :, 0] = np.nan
        truth[3, 1, 2] = np.nan
        report = aggregate(ens, truth, "location", init_times=init)
        whole = crps_field(ens, truth)
        valid = np.isfinite(truth) & np.all(np.isfinite(ens), axis=-1)
        assert len(report.rows) == 4 and not valid.all()
        for row in report.rows:
            assert row.crps == float(whole[row.group][valid[row.group]].mean())

    def test_region_recombination_identity(self, rng):
        ens, truth, init = self.make_data(rng, n_loc=4)
        region_map = {0: "east", 1: "east", 2: "west", 3: "west"}
        by_region = aggregate(ens, truth, "region", init_times=init, region_map=region_map)
        glob = aggregate(ens, truth, "location", init_times=init)
        total = sum(r.count for r in by_region.rows)
        # count-weighted recombination of the group statistics equals the global value
        mse = sum(r.count * r.rmse**2 for r in by_region.rows) / total
        b = sum(r.count * r.bias for r in by_region.rows) / total
        c = sum(r.count * r.crps for r in by_region.rows) / total
        global_mse = sum(r.count * r.rmse**2 for r in glob.rows) / total
        global_bias = sum(r.count * r.bias for r in glob.rows) / total
        global_crps = sum(r.count * r.crps for r in glob.rows) / total
        assert mse == pytest.approx(global_mse, rel=1e-9)
        assert b == pytest.approx(global_bias, rel=1e-9)
        assert c == pytest.approx(global_crps, rel=1e-9)

    def test_unmapped_locations_excluded_from_regions(self, rng):
        ens, truth, init = self.make_data(rng, n_loc=3)
        report = aggregate(ens, truth, "region", init_times=init, region_map={0: "5B"})
        assert {r.group for r in report.rows} == {"5B"}
        assert report.rows[0].count == truth[0].size

    def test_daypart_slots_outside_daylight_excluded(self, rng):
        ens, truth, init = self.make_data(rng, n_loc=2, n_lead=24)
        alignment = SolarNoonAlignment(offsets=np.array([0, 0]))
        daylight = np.zeros(truth.shape, dtype=bool)
        daylight[:, :, 9:15] = True  # only slots 9..14 are daylight
        report = aggregate(ens, truth, "daypart", init_times=init,
                           alignment=alignment, daylight=daylight)
        rows = report.by_group()
        assert set(rows) == {"morning", "noon", "afternoon"}
        # morning covers slots 8-10 but only 9 and 10 are daylight
        assert rows["morning"].count == 2 * 4 * 2
        assert rows["noon"].count == 2 * 4 * 3
        assert rows["afternoon"].count == 2 * 4 * 1

    def test_lead_grouping_uses_aligned_slots(self, rng):
        ens, truth, init = self.make_data(rng, n_loc=2, n_lead=4)
        alignment = SolarNoonAlignment(offsets=np.array([0, 2]))
        report = aggregate(ens, truth, "lead", init_times=init, alignment=alignment)
        groups = [r.group for r in report.rows]
        assert groups == [-2, -1, 0, 1, 2, 3]

    def test_season_grouping(self, rng):
        n_init = 12
        ens = rng.normal(0, 1, size=(1, n_init, 2, 3))
        truth = rng.normal(0, 1, size=(1, n_init, 2))
        # monthly inits through 2019
        months = np.array([np.datetime64(f"2019-{m:02d}-15") for m in range(1, 13)])
        init = TimeAxis(months.astype("datetime64[s]").astype(np.int64))
        report = aggregate(ens, truth, "season", init_times=init)
        assert {r.group for r in report.rows} == {"DJF", "MAM", "JJA", "SON"}
        counts = {r.group: r.count for r in report.rows}
        assert counts["DJF"] == 3 * 2  # jan feb dec
        assert counts["JJA"] == 3 * 2

    def test_unknown_grouping_rejected(self, rng):
        ens, truth, init = self.make_data(rng)
        with pytest.raises(ValueError):
            aggregate(ens, truth, "altitude", init_times=init)

    def test_deterministic_forecast_input(self, rng):
        _, truth, init = self.make_data(rng, n_loc=1, n_lead=1)
        pred = truth + 1.0
        report = aggregate(pred, truth, "location", init_times=init)
        assert report.rows[0].rmse == pytest.approx(1.0)
        assert report.rows[0].crps == pytest.approx(1.0)  # M=1: CRPS is absolute error
        assert report.rows[0].spread == 0.0

    def test_csv_emission(self, rng, tmp_path):
        ens, truth, init = self.make_data(rng)
        report = aggregate(ens, truth, "location", init_times=init)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "group,rmse,bias,crps,spread,count"
        assert len(lines) == 1 + len(report.rows)


@pytest.mark.parametrize("grouping", ["lead", "daypart", "location", "region", "season"])
def test_group_codes_match_the_per_cell_loop(grouping):
    rng = np.random.default_rng(len(grouping))
    rows = 0
    for case in range(12):
        n_loc, n_init, n_lead = rng.integers(1, 5), rng.integers(1, 40), rng.integers(1, 26)
        members = rng.integers(1, 6)
        ens = rng.normal(100, 20, size=(n_loc, n_init, n_lead, members))
        ens[rng.random(ens.shape) < 0.02] = np.nan
        truth = rng.normal(100, 20, size=(n_loc, n_init, n_lead))
        truth[rng.random(truth.shape) < 0.02] = np.nan
        init = TimeAxis(1546300800 + 86400 * 11 * np.arange(n_init))
        kwargs = dict(
            init_times=init,
            daylight=rng.random(truth.shape) < 0.7,
            region_map={l: str(rng.integers(0, 3)) for l in range(n_loc) if rng.random() < 0.7},
            alignment=SolarNoonAlignment(rng.integers(-4, 5, n_loc)) if case % 2 else None,
        )
        ensemble = ens[..., 0] if members == 1 and case % 4 == 1 else ens
        report = aggregate(ensemble, truth, grouping, **kwargs)
        assert report == loop_aggregate(ensemble, truth, grouping, **kwargs)
        rows += len(report.rows)
    assert rows > 12


@settings(max_examples=60, deadline=None)
@given(members=st.sampled_from([1, 7, 21]), n_loc=st.integers(1, 5), n_init=st.integers(1, 9),
       n_lead=st.integers(1, 26), nan_share=st.sampled_from([0.0, 0.02, 0.3]), seed=st.integers(0, 2**32 - 1))
def test_location_slabs_give_the_whole_fields_and_reports(members, n_loc, n_init, n_lead, nan_share, seed):
    # verify puts one location's slab at a time; every cell's scores, and so
    # every report, equal those of the whole field bit for bit
    rng = np.random.default_rng(seed)
    shape = (n_loc, n_init, n_lead)
    ens = rng.gamma(2.0, 300.0, size=(*shape, members))
    ens[rng.random(ens.shape) < nan_share] = np.nan
    truth = rng.gamma(2.0, 300.0, size=shape)
    truth[rng.random(shape) < nan_share] = np.nan
    daylight = rng.random(shape) < 0.7
    whole = CellFields.empty(shape).put(0, ens, truth, daylight)
    streamed = CellFields.empty(shape)
    for loc in range(n_loc):
        streamed.put(loc, ens[loc:loc + 1].copy(), truth[loc:loc + 1].copy(), daylight[loc:loc + 1])
    for got, want in zip(streamed, whole):
        assert got.tobytes() == want.tobytes()
    kwargs = dict(init_times=TimeAxis(1546300800 + 86400 * 23 * np.arange(n_init)),
                  alignment=SolarNoonAlignment(rng.integers(-4, 5, n_loc)),
                  region_map={l: str(rng.integers(0, 2)) for l in range(n_loc)})
    for grouping in ("lead", "location", "season", "daypart", "region"):
        report = group_cells(streamed, grouping, **kwargs)
        assert report == aggregate(ens, truth, grouping, daylight=daylight, **kwargs)
        assert report == loop_aggregate(ens, truth, grouping, daylight=daylight, **kwargs)


class TestPairedSignificance:
    def test_identical_samples_not_significant(self):
        x = np.arange(10.0)
        significant, p = paired_significance(x, x)
        assert not significant
        assert p == 1.0

    def test_forced_separation_significant(self, rng):
        a = rng.normal(0, 1, 100)
        b = a + 50.0
        significant, p = paired_significance(a, b)
        assert significant
        assert p < 0.001

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError):
            paired_significance(np.ones(5), np.zeros(5))

    def test_null_rejection_rate_calibrated(self):
        rng = np.random.default_rng(2024)
        rejections = 0
        trials = 1000
        for _ in range(trials):
            a = rng.normal(0, 1, 30)
            b = rng.normal(0, 1, 30)
            significant, _ = paired_significance(a, b, level=0.05)
            rejections += significant
        rate = rejections / trials
        assert 0.03 <= rate <= 0.07


def test_read_region_map(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text("location,region\n0,5B\n1,3C\n2,\n")
    mapping = read_region_map(path)
    assert mapping == {0: "5B", 1: "3C"}
