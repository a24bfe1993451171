import numpy as np
import pytest

from anensolar.coredata import LeadTimeAxis, TimeAxis
from anensolar.solar import (
    SOLAR_CONSTANT,
    distance_correction,
    extraterrestrial_normal,
    precompute_solar,
    relative_airmass,
    solar_position,
    sun_terms,
)

from conftest import make_locations
from oracles import psa_position, whole_array_refraction

# (epoch, lat, lon, psa zenith, psa azimuth) frozen from the PSA ephemeris oracle
ALMANAC_SPOTS = [
    (1609520400, 40.79, -77.86, 63.830, 176.098),   # 2021-01-01 17:00 UTC, State College PA
    (1119355200, 51.48, 0.0, 28.043, 179.127),      # 2005-06-21 12:00 UTC, Greenwich
    (1363802400, 33.45, -112.07, 40.194, 141.102),  # 2013-03-20 18:00 UTC, Phoenix
    (1916373600, -33.87, 151.21, 67.877, 285.695),  # 2030-09-23 06:00 UTC, Sydney
    (1008928800, 64.84, -147.72, 138.561, 3.820),   # 2001-12-21 10:00 UTC, Fairbanks (night)
    (1720123200, 34.05, -118.24, 11.292, 182.876),  # 2024-07-04 20:00 UTC, Los Angeles
    (1503340200, 36.97, -87.66, 26.404, 200.338),   # 2017-08-21 18:30 UTC, Hopkinsville KY
    (2214115200, 28.61, 77.21, 38.768, 202.698),    # 2040-02-29 08:00 UTC, Delhi
    (1224082800, -1.29, 36.82, 85.264, 261.272),    # 2008-10-15 15:00 UTC, Nairobi
    (2061637200, 59.33, 18.07, 50.680, 223.948),    # 2035-05-01 13:00 UTC, Stockholm
]


class TestSolarPosition:
    @pytest.mark.parametrize("epoch,lat,lon,zen,az", ALMANAC_SPOTS)
    def test_almanac_spot_checks(self, epoch, lat, lon, zen, az):
        p = solar_position(epoch, lat, lon)
        assert abs(p.apparent_zenith - zen) < 0.5
        if zen < 85.0:  # azimuth is well-conditioned away from horizon/zenith
            assert abs((p.azimuth - az + 180.0) % 360.0 - 180.0) < 0.5

    def test_equator_equinox_noon_overhead(self):
        # 2021-03-20 (equinox); solar noon at longitude 0 is ~12:07 UTC
        epoch = 1616241600 + 7 * 60
        p = solar_position(epoch, 0.0, 0.0)
        assert p.apparent_zenith < 1.5

    def test_hemispheric_symmetry_at_noon(self):
        day = 1609977600  # 2021-01-07 00:00 UTC
        eot = solar_position(day + 43200, 0.0, 0.0).equation_of_time
        epoch = int(day + (720.0 - eot) * 60.0)  # solar noon at longitude 0
        north = solar_position(epoch, 40.0, 0.0)
        south = solar_position(epoch, -40.0, 0.0)
        decl = north.declination
        assert abs(north.apparent_zenith - (40.0 - decl)) < 0.5
        assert abs(south.apparent_zenith - (40.0 + decl)) < 0.5

    def test_agreement_with_psa_over_random_instants(self, rng):
        for _ in range(300):
            t = int(rng.integers(946684800, 2524608000))  # 2000..2050
            lat = float(rng.uniform(-65, 65))
            lon = float(rng.uniform(-180, 180))
            p = solar_position(t, lat, lon)
            zen_o, az_o = psa_position(t, lat, lon)
            if zen_o < 85:
                assert abs(p.apparent_zenith - zen_o) < 0.5
            if 5 < zen_o < 85:
                assert abs((p.azimuth - az_o + 180.0) % 360.0 - 180.0) < 0.5

    def test_angle_ranges(self, rng):
        for _ in range(200):
            t = int(rng.integers(946684800, 2524608000))
            p = solar_position(t, float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
            assert 0.0 <= p.apparent_zenith <= 180.0
            assert 0.0 <= p.azimuth < 360.0


class TestExtraterrestrial:
    def test_unit_correction_day(self):
        # the cosine form crosses exactly 1 at doy = 365/4
        r = distance_correction(365.0 / 4.0, form="cosine")
        assert abs(r - 1.0) < 1e-12
        assert abs(SOLAR_CONSTANT * r - SOLAR_CONSTANT) < 1e-9

    @pytest.mark.parametrize("form", ["cosine", "spencer"])
    def test_early_january_ratio(self, form):
        for day in range(1, 8):
            epoch = 1609459200 + (day - 1) * 86400  # 2021-01-01 ..
            ratio = extraterrestrial_normal(epoch, form=form) / SOLAR_CONSTANT
            assert 1.025 <= ratio <= 1.0351

    @pytest.mark.parametrize("form", ["cosine", "spencer"])
    def test_early_july_ratio(self, form):
        for day in range(0, 7):
            epoch = 1625097600 + day * 86400  # 2021-07-01 ..
            ratio = extraterrestrial_normal(epoch, form=form) / SOLAR_CONSTANT
            assert 0.965 <= ratio <= 0.975

    def test_cosine_form_stays_in_spec_band(self):
        # the config-declared default keeps early January within [1.025, 1.035]
        for day in range(1, 8):
            epoch = 1609459200 + (day - 1) * 86400
            ratio = extraterrestrial_normal(epoch) / SOLAR_CONSTANT
            assert 1.025 <= ratio <= 1.035

    def test_annual_mean_is_one(self):
        epochs = 1609459200 + 86400 * np.arange(365) + 43200
        ratios = extraterrestrial_normal(epochs) / SOLAR_CONSTANT
        assert 0.999 <= ratios.mean() <= 1.001

    def test_range_bounds(self):
        epochs = 1609459200 + 86400 * np.arange(365)
        e0n = extraterrestrial_normal(epochs)
        assert np.all(e0n >= 1300.0) and np.all(e0n <= 1430.0)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            distance_correction(1, form="quartic")


class TestAirmass:
    def test_overhead(self):
        assert abs(relative_airmass(0.0) - 1.0) < 1e-3

    def test_sixty_degrees(self):
        am = relative_airmass(60.0)
        assert 1.99 <= am <= 2.00

    def test_below_horizon_sentinel(self):
        assert np.isnan(relative_airmass(95.0))
        assert np.isnan(relative_airmass(90.0))

    def test_monotone_in_zenith(self):
        z = np.arange(0.0, 90.0, 0.25)
        am = relative_airmass(z)
        assert np.all(np.diff(am) > 0)
        assert np.all(am >= relative_airmass(0.0))


class TestPrecompute:
    def make_cache(self, n_loc=3, n_init=4, n_lead=6):
        locs = make_locations(n_loc, seed=5)
        init = TimeAxis(1609459200 + 86400 * np.arange(n_init))
        lead = LeadTimeAxis(3600 * np.arange(n_lead))
        return precompute_solar(locs, init, lead), locs, init, lead

    def test_shape_is_full_cross_product(self):
        cache, locs, init, lead = self.make_cache()
        assert cache.shape == (3, 4, 6)

    def test_cache_equals_direct_recomputation(self, rng):
        cache, locs, init, lead = self.make_cache()
        for _ in range(100):
            l = int(rng.integers(0, 3))
            i = int(rng.integers(0, 4))
            j = int(rng.integers(0, 6))
            t = int(init.instants[i] + lead.offsets[j])
            p = solar_position(t, float(locs.latitude[l]), float(locs.longitude[l]))
            cell = cache.sample(l, i, j)
            assert cell.apparent_zenith == pytest.approx(p.apparent_zenith, abs=1e-9)
            assert cell.azimuth == pytest.approx(p.azimuth, abs=1e-9)
            assert cell.e0n == pytest.approx(extraterrestrial_normal(t), abs=1e-9)
            am = relative_airmass(p.apparent_zenith)
            if np.isnan(am):
                assert np.isnan(cell.airmass)
            else:
                assert cell.airmass == pytest.approx(am, abs=1e-9)

    def test_two_precomputes_bit_identical(self):
        a, *_ = self.make_cache()
        b, *_ = self.make_cache()
        for f in ("apparent_zenith", "azimuth", "e0n", "airmass"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes()

    def test_e0n_band_and_airmass_contract(self):
        cache, *_ = self.make_cache(n_loc=4, n_init=8, n_lead=24)
        assert np.all(cache.e0n >= 1300.0) and np.all(cache.e0n <= 1430.0)
        day = cache.apparent_zenith < 90.0
        assert np.all(cache.airmass[day] >= 1.0 - 1e-3)
        assert np.all(np.isnan(cache.airmass[~day]))

    def test_noon_lead_matches_analytic_solar_noon(self):
        locs = make_locations(4, seed=11)
        init = TimeAxis([1623456000])  # 2021-06-12 00:00 UTC
        lead = LeadTimeAxis(3600 * np.arange(24))
        cache = precompute_solar(locs, init, lead)
        for l in range(4):
            zen = cache.apparent_zenith[l, 0]
            j = int(np.argmin(zen))
            instant = int(init.instants[0] + lead.offsets[j])
            p = solar_position(instant, float(locs.latitude[l]), float(locs.longitude[l]))
            noon_minutes = 720.0 - 4.0 * float(locs.longitude[l]) - p.equation_of_time
            noon_epoch = int(init.instants[0]) + noon_minutes * 60.0
            assert abs(instant - noon_epoch) <= 3600.0


    def test_each_locations_cache_under_shared_sun_terms_is_that_location_of_the_whole(self):
        from anensolar.verify import align_solar_noon

        locs = make_locations(6, seed=7)
        init = TimeAxis(1546300800 + 86400 * np.arange(40))
        lead = LeadTimeAxis(3600 * np.arange(24))
        whole = precompute_solar(locs, init, lead)
        sun = sun_terms(init, lead)
        for loc in range(6):
            one = precompute_solar(locs.take([loc]), init, lead, sun)
            assert one.shape == (1, 40, 24)
            for field in one.ARRAYS:
                np.testing.assert_array_equal(getattr(one, field).view(np.uint64),
                                              getattr(whole, field)[loc:loc + 1].view(np.uint64))
            assert align_solar_noon(one).offsets[0] == align_solar_noon(whole).offsets[loc]


class TestBandedRefraction:
    EDGES = np.array([-9.0, -0.575, 5.0, 85.0, 89.9])

    def elevations(self):
        edges = np.concatenate([self.EDGES, np.nextafter(self.EDGES, -np.inf), np.nextafter(self.EDGES, np.inf)])
        return np.concatenate([np.linspace(-95.0, 95.0, 190_001), edges, [np.nan, -np.inf, np.inf, 0.0, -0.0]])

    def test_bit_identical_to_the_whole_array_formulas(self):
        from anensolar.solar import _refraction_correction

        e = self.elevations()
        got = _refraction_correction(e)
        assert got.shape == e.shape
        np.testing.assert_array_equal(got.view(np.uint64), whole_array_refraction(e).view(np.uint64))
        grid = e.reshape(1, -1)  # any shape, and one value alone
        np.testing.assert_array_equal(_refraction_correction(grid).view(np.uint64),
                                      whole_array_refraction(grid).view(np.uint64))
        for value in [*self.EDGES, np.nan]:
            one = _refraction_correction(value)
            assert one.shape == () and one.view(np.uint64) == whole_array_refraction(value).view(np.uint64)

    def test_the_zenith_alone_is_the_zenith_of_the_whole_ephemeris(self):
        from anensolar.solar import _apparent_zenith, _noaa_arrays

        locs = make_locations(6, seed=3)
        t = (1546300800 + 3600 * np.arange(24 * 40))[None, :].astype(float)
        lat, lon = locs.latitude[:, None], locs.longitude[:, None]
        zen = _apparent_zenith(t, lat, lon)
        np.testing.assert_array_equal(zen.view(np.uint64), _noaa_arrays(t, lat, lon)[0].view(np.uint64))
        assert float(_apparent_zenith(1623456000.0, 40.0, -100.0)) == solar_position(1623456000, 40.0, -100.0).apparent_zenith


class TestPrecomputeMemory:
    def test_fresh_arrays_are_kept_uncopied(self, monkeypatch):
        from anensolar import solar

        made = {}
        noaa, airmass = solar._noaa_arrays, solar.relative_airmass
        monkeypatch.setattr(solar, "_noaa_arrays", lambda *a: made.setdefault("noaa", noaa(*a)))
        monkeypatch.setattr(solar, "relative_airmass", lambda z: made.setdefault("am", airmass(z)))
        locs = make_locations(3, seed=5)
        init = TimeAxis(1609459200 + 86400 * np.arange(4))
        lead = LeadTimeAxis(3600 * np.arange(6))
        cache = precompute_solar(locs, init, lead)
        zen, az, *_ = made["noaa"]
        assert cache.apparent_zenith is zen and cache.azimuth is az and cache.airmass is made["am"]
        # the broadcast field is an array of its own, equal as uint64 to the broadcast
        e0n = extraterrestrial_normal(init.instants[:, None] + lead.offsets)
        assert cache.e0n.flags.owndata and not cache.e0n.flags.writeable
        np.testing.assert_array_equal(cache.e0n.view(np.uint64),
                                      np.broadcast_to(e0n, cache.shape).view(np.uint64))

    def test_traced_peak_beyond_the_table(self, monkeypatch):
        import tracemalloc

        from anensolar import solar

        # the forecast-chain shape: 10 locations x 365 inits x 24 leads
        locs = make_locations(10, seed=5)
        init = TimeAxis(1546300800 + 86400 * np.arange(365))
        lead = LeadTimeAxis(3600 * np.arange(24))
        precompute_solar(locs, init, lead)  # warm numpy's caches outside the trace
        before, peaks = [], []
        table_type = solar.SolarCacheTable

        def construct(*args):
            # the peak up to the table's construction, then of the construction alone
            before.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            table = table_type(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return table

        monkeypatch.setattr(solar, "SolarCacheTable", construct)
        tracemalloc.start()
        try:
            cache = precompute_solar(locs, init, lead)
            peak = max(before[0], tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        field = 10 * 365 * 24 * 8
        table = sum(getattr(cache, a).nbytes for a in cache.ARRAYS)
        assert table == 4 * field
        # over the whole call, the ephemeris's (L, I, J) temporaries set the
        # peak, about 4.8 fields beyond the table
        assert peak - table < 12 * field
        # the construction holds the table alone: copies of zen, az and am
        # would add three fields
        assert peaks[0] - table < field / 2
