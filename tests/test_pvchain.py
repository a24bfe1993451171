import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from anensolar.coredata import EnsembleTensor, LeadTimeAxis, TimeAxis
from anensolar.errors import DimensionMismatchError, MissingVariableError
from anensolar.pvchain import (
    IrradianceComponents,
    PvModuleSpec,
    SystemConfig,
    WeatherSample,
    _chain,
    cell_temperature,
    disc_decompose,
    load_module_catalog,
    load_module_specs,
    module_power,
    simulate_ensemble,
    simulate_system,
    system_scale,
    transpose_poa,
)
from anensolar.solar import SolarSample, precompute_solar, relative_airmass

from conftest import make_locations
from oracles import disc_reference

SPEC = PvModuleSpec("TEST", area=1.6, material="c-Si", cells_in_series=96,
                    stc_rating=300.0, efficiency=17.8)
FLAT = SystemConfig(capacity=10_000.0, tilt=0.0, azimuth=180.0)


def daylight_sample(rng):
    z = float(rng.uniform(0.0, 87.0))
    e0n = float(rng.uniform(1320.0, 1410.0))
    ghi = float(rng.uniform(0.0, 1.05) * e0n * math.cos(math.radians(z)))
    return ghi, z, relative_airmass(z), e0n


class TestDisc:
    def test_zero_ghi(self):
        comp = disc_decompose(0.0, 30.0, relative_airmass(30.0), 1380.0)
        assert comp.dni == 0.0 and comp.dhi == 0.0 and comp.kt == 0.0

    def test_zenith_boundary_rule(self):
        comp = disc_decompose(50.0, 89.0, relative_airmass(89.0), 1380.0)
        assert comp.dni == 0.0
        assert comp.dhi == pytest.approx(50.0)

    def test_fixed_case_matches_reference(self):
        am = relative_airmass(30.0)
        comp = disc_decompose(600.0, 30.0, am, 1400.0)
        dni_o, dhi_o, kt_o = disc_reference(600.0, 30.0, am, 1400.0)
        assert comp.dni == pytest.approx(dni_o, rel=1e-6)
        assert comp.dhi == pytest.approx(dhi_o, rel=1e-6)
        assert comp.kt == pytest.approx(kt_o, rel=1e-6)
        assert dni_o > 0

    def test_matches_reference_on_random_daylight(self, rng):
        for _ in range(500):
            ghi, z, am, e0n = daylight_sample(rng)
            comp = disc_decompose(ghi, z, am, e0n)
            dni_o, dhi_o, kt_o = disc_reference(ghi, z, am, e0n)
            assert comp.dni == pytest.approx(dni_o, rel=1e-6, abs=1e-9)
            assert comp.dhi == pytest.approx(dhi_o, rel=1e-6, abs=1e-9)

    def test_closure_invariant(self, rng):
        for _ in range(500):
            ghi, z, am, e0n = daylight_sample(rng)
            comp = disc_decompose(ghi, z, am, e0n)
            if z < 87.5:
                closure = comp.dni * math.cos(math.radians(z)) + comp.dhi - ghi
                assert abs(closure) <= 1e-6 * max(ghi, 1.0)
            assert comp.dni >= 0.0 and comp.dhi >= 0.0
            assert 0.0 <= comp.kt <= 1.1

    def test_vectorized_matches_scalar(self, rng):
        # SIMD vs scalar transcendental paths may differ in the last ulp
        ghi = rng.uniform(0, 900, 64)
        z = rng.uniform(0, 95, 64)
        am = relative_airmass(z)
        comp = disc_decompose(ghi, z, am, 1380.0)
        for k in range(64):
            one = disc_decompose(float(ghi[k]), float(z[k]), float(am[k]), 1380.0)
            assert float(comp.dni[k]) == pytest.approx(float(one.dni), rel=1e-12, abs=1e-12)
            assert float(comp.dhi[k]) == pytest.approx(float(one.dhi), rel=1e-12, abs=1e-12)


class TestTransposePoa:
    def test_horizontal_reduction(self, rng):
        for _ in range(100):
            ghi, z, am, e0n = daylight_sample(rng)
            comp = disc_decompose(ghi, z, am, e0n)
            poa = transpose_poa(comp, ghi, 0.3, z, 150.0, e0n, FLAT)
            assert float(poa.ground_diffuse) == 0.0
            expected = comp.dni * math.cos(math.radians(z)) + comp.dhi
            assert float(poa.global_) == pytest.approx(float(expected), rel=1e-9, abs=1e-9)

    def test_horizontal_equals_ghi_for_consistent_components(self, rng):
        for _ in range(200):
            ghi, z, am, e0n = daylight_sample(rng)
            if ghi <= 0.0:
                continue
            comp = disc_decompose(ghi, z, am, e0n)
            poa = transpose_poa(comp, ghi, 0.2, z, 210.0, e0n, FLAT)
            assert float(poa.global_) == pytest.approx(ghi, rel=1e-6)

    def test_tilted_hand_evaluation(self):
        sys30 = SystemConfig(capacity=10_000.0, tilt=30.0, azimuth=180.0)
        dni, dhi, ghi = 700.0, 120.0, 700.0 * math.cos(math.radians(35.0)) + 120.0
        z, az, e0n, albedo = 35.0, 160.0, 1390.0, 0.25
        comp = IrradianceComponents(np.float64(dni), np.float64(dhi), np.float64(0.7))
        poa = transpose_poa(comp, ghi, albedo, z, az, e0n, sys30)
        # term-by-term evaluation of the transposition model
        tilt = math.radians(30.0)
        cos_aoi = (math.cos(tilt) * math.cos(math.radians(z))
                   + math.sin(tilt) * math.sin(math.radians(z)) * math.cos(math.radians(az - 180.0)))
        direct = dni * max(cos_aoi, 0.0)
        rb = max(cos_aoi, 0.0) / max(math.cos(math.radians(z)), math.cos(math.radians(87.5)))
        ai = dni / e0n
        sky = dhi * ((1.0 - ai) * (1.0 + math.cos(tilt)) / 2.0 + ai * rb)
        ground = ghi * albedo * (1.0 - math.cos(tilt)) / 2.0
        assert float(poa.direct) == pytest.approx(direct, rel=1e-12)
        assert float(poa.sky_diffuse) == pytest.approx(sky, rel=1e-12)
        assert float(poa.ground_diffuse) == pytest.approx(ground, rel=1e-12)
        assert float(poa.global_) == pytest.approx(direct + sky + ground, rel=1e-12)


class TestCellTemperature:
    def test_no_heating_at_zero_poa(self):
        assert float(cell_temperature(0.0, 21.5, 3.0, SPEC)) == pytest.approx(21.5)

    def test_direct_formula_value(self):
        t = cell_temperature(1000.0, 25.0, 0.0, SPEC)
        expected = 25.0 + 1000.0 * math.exp(-3.56) + 3.0
        assert float(t) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(56.44, abs=0.01)

    def test_monotone_decreasing_in_wind(self):
        winds = np.linspace(0.0, 30.0, 40)
        temps = cell_temperature(800.0, 20.0, winds, SPEC)
        assert np.all(np.diff(temps) < 0)
        assert temps[-1] > 20.0  # approaches ambient from above


class TestModulePower:
    def test_stc_by_construction(self):
        for spec in load_module_catalog():
            assert float(module_power(1000.0, 25.0, spec)) == spec.stc_rating

    def test_temperature_derating(self):
        p = module_power(1000.0, 35.0, SPEC)
        assert float(p) == pytest.approx(0.955 * SPEC.stc_rating, rel=1e-12)

    def test_zero_poa(self):
        assert float(module_power(0.0, 25.0, SPEC)) == 0.0

    def test_floor_at_zero(self):
        assert float(module_power(500.0, 300.0, SPEC)) == 0.0

    def test_monotone_in_poa(self):
        poa = np.linspace(0.0, 1200.0, 50)
        p = module_power(poa, 30.0, SPEC)
        assert np.all(np.diff(p) >= 0)


class TestSimulateSystem:
    def sun(self, z=30.0, e0n=1390.0):
        return SolarSample(z, 170.0, e0n, relative_airmass(z))

    def test_sp128_scaling_factor_is_25(self):
        catalog = {s.code: s for s in load_module_catalog()}
        assert catalog["SP128"].stc_rating == 400.0
        assert system_scale(catalog["SP128"], FLAT) == 25.0

    def test_night_is_zero(self):
        w = WeatherSample(0.0, 0.2, 10.0, 2.0)
        assert simulate_system(w, self.sun(z=95.0), SPEC, FLAT) == 0.0

    def test_zero_ghi_is_zero(self):
        w = WeatherSample(0.0, 0.2, 10.0, 2.0)
        assert simulate_system(w, self.sun(), SPEC, FLAT) == 0.0

    def test_equals_stage_composition(self, rng):
        for _ in range(100):
            ghi, z, am, e0n = daylight_sample(rng)
            w = WeatherSample(ghi, float(rng.uniform(0,  1)), float(rng.uniform(-5, 35)),
                              float(rng.uniform(0, 12)))
            sun = SolarSample(z, float(rng.uniform(0, 360)), e0n, am)
            direct = simulate_system(w, sun, SPEC, FLAT)
            comp = disc_decompose(w.ghi, z, am, e0n)
            poa = transpose_poa(comp, w.ghi, w.albedo, z, sun.azimuth, e0n, FLAT)
            t_cell = cell_temperature(poa.global_, w.ambient_temp, w.wind_speed, SPEC)
            power = module_power(poa.global_, t_cell, SPEC) * system_scale(SPEC, FLAT)
            assert direct == pytest.approx(float(power), rel=1e-12)

    def test_energy_sanity_bound(self, rng):
        for _ in range(200):
            ghi, z, am, e0n = daylight_sample(rng)
            w = WeatherSample(ghi, 0.4, 45.0, 0.0)
            p = simulate_system(w, SolarSample(z, 180.0, e0n, am), SPEC, FLAT)
            comp = disc_decompose(ghi, z, am, e0n)
            poa = transpose_poa(comp, ghi, 0.4, z, 180.0, e0n, FLAT)
            bound = FLAT.capacity * (float(poa.global_) / 1000.0) * (1.0 + abs(SPEC.gamma) * 100.0)
            assert 0.0 <= p <= bound + 1e-9


def make_weather_ensemble(members=3, n_loc=2, n_init=2, n_lead=5, seed=9):
    r = np.random.default_rng(seed)
    locs = make_locations(n_loc, seed)
    init = TimeAxis(1623456000 + 86400 * np.arange(n_init))
    lead = LeadTimeAxis(3600 * (np.arange(n_lead) + 14))
    shape = (n_loc, n_init, n_lead, members)
    values = np.stack([
        r.uniform(0, 800, shape),        # ghi
        r.uniform(0.05, 0.6, shape),     # albedo
        r.uniform(-5, 35, shape),        # temperature
        r.uniform(0, 12, shape),         # wind_speed
    ])
    ens = EnsembleTensor(("ghi", "albedo", "temperature", "wind_speed"),
                         locs, init, lead, members, values)
    cache = precompute_solar(locs, init, lead)
    return ens, cache


class TestSimulateEnsemble:
    def test_identical_members_give_identical_power(self):
        ens, cache = make_weather_ensemble(members=4)
        values = ens.values.copy()
        values[...] = values[..., :1]
        ens = EnsembleTensor(ens.variable_names, ens.locations, ens.init_times,
                             ens.lead_times, 4, values)
        power = simulate_ensemble(ens, cache, [SPEC], FLAT)
        for m in range(1, 4):
            np.testing.assert_array_equal(power.values[..., m], power.values[..., 0])

    def test_two_modules_same_weather_differ_only_by_spec(self):
        ens, cache = make_weather_ensemble()
        spec2 = PvModuleSpec("OTHER", 1.0, "CdTe", 116, 72.5, 10.07, gamma=-0.002)
        power = simulate_ensemble(ens, cache, [SPEC, spec2], FLAT)
        assert power.variable_names == ("TEST", "OTHER")
        alone = simulate_ensemble(ens, cache, [spec2], FLAT)
        np.testing.assert_array_equal(power.values[1], alone.values[0])

    def test_single_member_equals_scalar_path(self, rng):
        ens, cache = make_weather_ensemble(members=1)
        power = simulate_ensemble(ens, cache, [SPEC], FLAT)
        for l in range(2):
            for i in range(2):
                for j in range(5):
                    w = WeatherSample(*(float(ens.values[v, l, i, j, 0]) for v in range(4)))
                    expected = simulate_system(w, cache.sample(l, i, j), SPEC, FLAT)
                    assert float(power.values[0, l, i, j, 0]) == pytest.approx(expected, rel=1e-12)

    def test_missing_variable_rejected(self):
        ens, cache = make_weather_ensemble()
        stripped = EnsembleTensor(("ghi", "albedo", "temperature", "gust"),
                                  ens.locations, ens.init_times, ens.lead_times,
                                  ens.members, ens.values)
        with pytest.raises(MissingVariableError):
            simulate_ensemble(stripped, cache, [SPEC], FLAT)

    def test_a_cache_on_other_axes_does_not_pair(self):
        # the sun of 180 days later, of other locations or of other leads
        ens, _ = make_weather_ensemble()
        later = TimeAxis(ens.init_times.instants + 180 * 86400)
        for axis, cache in (("init_times", precompute_solar(ens.locations, later, ens.lead_times)),
                            ("locations", precompute_solar(make_locations(2, 99), ens.init_times, ens.lead_times)),
                            ("lead_times", precompute_solar(ens.locations, ens.init_times,
                                                            LeadTimeAxis(ens.lead_times.offsets[:-1])))):
            with pytest.raises(DimensionMismatchError, match=axis):
                simulate_ensemble(ens, cache, [SPEC], FLAT)

    def test_deterministic(self):
        ens, cache = make_weather_ensemble()
        a = simulate_ensemble(ens, cache, [SPEC], FLAT)
        b = simulate_ensemble(ens, cache, [SPEC], FLAT)
        assert a.values.tobytes() == b.values.tobytes()


class TestLocationBlocks:
    """simulate_ensemble runs the chain one location at a time, the
    weather-only steps once per location."""

    def test_catalog_equals_per_spec_chain_over_the_whole_field(self):
        # tilted, so that the transposition does real work; 24 leads from
        # 14 UTC, so that every location has night cells; NaN weather cells
        ens, cache = make_weather_ensemble(members=5, n_loc=4, n_init=3, n_lead=24)
        values = ens.values.copy()
        r = np.random.default_rng(3)
        values[r.random(values.shape) < 0.05] = np.nan
        ens = EnsembleTensor(ens.variable_names, ens.locations, ens.init_times,
                             ens.lead_times, ens.members, values)
        tilted = SystemConfig(capacity=10_000.0, tilt=30.0, azimuth=160.0)
        specs = load_module_catalog()
        assert len(specs) == 11

        power = simulate_ensemble(ens, cache, specs, tilted)

        zen, az, am, e0n = (a[..., None] for a in
                            (cache.apparent_zenith, cache.azimuth, cache.airmass, cache.e0n))
        expected = np.stack([_chain(*values, zen, az, am, e0n, spec, tilted) for spec in specs])
        assert np.isnan(expected).any() and (expected == 0.0).any() and (expected > 0.0).any()
        assert (cache.apparent_zenith >= 90.0).any(axis=(1, 2)).all()
        assert power.variable_names == tuple(s.code for s in specs)
        np.testing.assert_array_equal(power.values.view(np.uint64), expected.view(np.uint64))

    def test_temporaries_span_one_location_not_the_ensemble(self):
        # The steps before the output's slice run on one location's
        # (init, lead, member) block, so the memory beyond the output is a
        # fixed number of blocks (DISC holds about eleven at once): at
        # L = 32 locations, half of one full-field array is 16 blocks.
        # Running the chain over the whole field builds about ten
        # full-field temporaries, and a copy of the output would add eleven.
        n_loc = 32
        ens, cache = make_weather_ensemble(members=21, n_loc=n_loc, n_init=4, n_lead=24)
        specs = load_module_catalog()
        field_bytes = np.prod(ens.values.shape[1:]) * 8
        tracemalloc.start()
        try:
            power = simulate_ensemble(ens, cache, specs, FLAT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert power.values.nbytes == len(specs) * field_bytes
        assert peak - power.values.nbytes < field_bytes / 2


class TestCatalog:
    def test_eleven_bundled_modules(self):
        catalog = load_module_catalog()
        assert len(catalog) == 11
        assert [s.code for s in catalog] == [
            "SP128", "SP305", "STU300", "ST240", "BP3232G", "ND216U1F",
            "SF160S", "KD135GX", "KC85T", "FS272", "KS20",
        ]
        by_code = {s.code: s for s in catalog}
        assert by_code["STU300"].stc_rating == 300.0
        assert by_code["KS20"].stc_rating == 20.0
        assert by_code["FS272"].stc_rating == 72.5
        assert by_code["SP128"].area == 2.144
        assert by_code["SF160S"].cells_in_series == 172
        ratings = [s.stc_rating for s in catalog]
        assert ratings == sorted(ratings, reverse=True)

    def test_spec_file_unknown_columns_ignored(self, tmp_path):
        path = tmp_path / "mods.csv"
        path.write_text(
            "code,area,material,cells_in_series,stc_rating,efficiency,color,year\n"
            "X1,1.5,c-Si,60,250,15.5,blue,2012\n"
        )
        specs = load_module_specs(path)
        assert len(specs) == 1
        assert specs[0].code == "X1"
        assert specs[0].stc_rating == 250.0
        assert specs[0].gamma == -0.0045  # default fills the absent column

    def test_spec_file_columns_are_the_spec_fields(self, tmp_path):
        # every field of every catalog spec, columns reversed, reads back
        # equal and of the field's own type
        catalog = load_module_catalog()
        names = [f.name for f in dataclasses.fields(PvModuleSpec)]
        assert len(names) == 10
        path = tmp_path / "mods.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([names[::-1]] + [[str(getattr(s, n)) for n in names[::-1]]
                                                       for s in catalog])
        specs = load_module_specs(path)
        assert specs == catalog
        assert all(type(getattr(a, n)) is type(getattr(b, n)) for a, b in zip(specs, catalog) for n in names)
        assert {type(getattr(specs[0], n)) for n in names} == {str, float, int}

    def test_invalid_rating_rejected(self):
        with pytest.raises(ValueError):
            PvModuleSpec("BAD", 1.0, "c-Si", 60, 0.0, 15.0)


def test_weather_sample_invariants():
    with pytest.raises(ValueError):
        WeatherSample(-1.0, 0.2, 10.0, 2.0)
    with pytest.raises(ValueError):
        WeatherSample(100.0, 1.2, 10.0, 2.0)
    WeatherSample(0.0, 0.0, -40.0, 0.0)
