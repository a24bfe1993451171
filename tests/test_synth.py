import hashlib

import numpy as np
import pytest

from anensolar import tensorio

from anensolar.anen import AnEnConfig, equal_weights
from anensolar.coredata import LocationSet
from anensolar.driver import (
    anen_weather_ensemble,
    analysis_weather_ensemble,
    forecast_weather_ensemble,
    power_from_weather,
)
from anensolar.pvchain import SystemConfig, load_module_catalog
from anensolar.solar import precompute_solar
from anensolar.synth import PredictorErrorModel, SynthConfig, VARIABLES, default_error_models, generate
from anensolar.verify import rmse


def small_config(seed=11, n_loc=3, n_days=12, errors=None, **kwargs):
    rng = np.random.default_rng(seed + 1)
    locs = LocationSet.from_coords(
        rng.uniform(30, 45, n_loc), rng.uniform(-110, -80, n_loc), rng.uniform(0, 1500, n_loc)
    )
    return SynthConfig(
        seed=seed, locations=locs, start=1546300800, n_days=n_days,
        errors=errors if errors is not None else default_error_models(), **kwargs,
    )


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a_obs, a_fc = generate(small_config())
        b_obs, b_fc = generate(small_config())
        assert a_obs.values.tobytes() == b_obs.values.tobytes()
        assert a_fc.values.tobytes() == b_fc.values.tobytes()

    def test_different_seed_differs(self):
        a_obs, _ = generate(small_config(seed=1))
        b_obs, _ = generate(small_config(seed=2))
        assert a_obs.values.tobytes() != b_obs.values.tobytes()

    def test_night_ghi_exactly_zero(self):
        obs, fc = generate(small_config())
        locs = obs.locations
        cache = precompute_solar(locs, obs.valid_times, type(fc.lead_times)([0]))
        night = cache.apparent_zenith[:, :, 0] >= 90.0
        ghi = obs.values[obs.variable_index("ghi")]
        assert np.all(ghi[night] == 0.0)
        assert np.any(~night)

    def test_zero_noise_zero_bias_forecast_equals_analysis(self):
        errors = {name: PredictorErrorModel(0.0, 0.0, None) for name in VARIABLES}
        obs, fc = generate(small_config(errors=errors))
        aligned = analysis_weather_ensemble(obs, fc.init_times, fc.lead_times)
        np.testing.assert_array_equal(fc.values, aligned.values[..., 0])

    def test_physical_ranges(self):
        obs, fc = generate(small_config(n_days=20))
        ghi = obs.values[obs.variable_index("ghi")]
        albedo = obs.values[obs.variable_index("albedo")]
        cloud = obs.values[obs.variable_index("cloud_cover")]
        wind = obs.values[obs.variable_index("wind_speed")]
        from anensolar.solar import extraterrestrial_normal
        e0n = extraterrestrial_normal(obs.valid_times.instants)
        assert np.all(ghi >= 0.0) and np.all(ghi <= e0n[None, :] + 1e-9)
        assert np.all((albedo >= 0.0) & (albedo <= 1.0))
        assert np.all((cloud >= 0.0) & (cloud <= 1.0))
        assert np.all(wind >= 0.0)
        assert np.all(fc.values[0] >= 0.0)

    def test_variables_and_shapes(self):
        cfg = small_config(n_loc=2, n_days=5, n_leads=24)
        obs, fc = generate(cfg)
        assert obs.variable_names == VARIABLES
        assert fc.predictor_names == VARIABLES
        assert fc.values.shape == (5, 2, 5, 24)
        assert obs.values.shape == (5, 2, (5 - 1) * 24 + 24)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(ar_coeff=1.0)
        with pytest.raises(ValueError):
            small_config(cloud_noise=-0.1)
        bad = {name: PredictorErrorModel(0.0, -1.0, None) for name in VARIABLES}
        with pytest.raises(ValueError):
            small_config(errors=bad)

    def test_the_tensors_keep_the_arrays_generate_fills(self, monkeypatch):
        from anensolar import synth

        given = []
        for kind in ("ObservationTensor", "ForecastTensor"):
            monkeypatch.setattr(synth, kind, lambda *a, real=getattr(synth, kind): given.append(a[-1]) or real(*a))
        obs, fc = generate(small_config())
        assert obs.values is given[0].array and fc.values is given[1].array

    @pytest.mark.parametrize("field, value", [
        ("regimes", np.array([0, 1])), ("regimes", np.zeros((3, 1), dtype=int)),
        ("location_temp_offset", np.zeros(5)), ("location_temp_offset", np.zeros(2)),
    ])
    def test_per_location_arrays_need_one_value_per_location(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(n_loc=3, **{field: value})

    def test_drivers_must_be_variables(self):
        errors = default_error_models()
        errors["ghi"] = PredictorErrorModel(0.3, 0.06, "cloudcover")
        with pytest.raises(ValueError, match="bias_driver"):
            small_config(errors=errors)
        with pytest.raises(ValueError, match="regime_drivers"):
            small_config(regimes=np.array([0, 0, 1]), regime_drivers={0: "wind_speed", 1: "pressure"})
        with pytest.raises(ValueError, match="regime_drivers"):
            small_config(regimes=np.array([0, 0, 1]), regime_drivers={0: None})

    def test_regime_dependent_bias_differs_by_regime(self):
        errors = default_error_models()
        errors["ghi"] = PredictorErrorModel(0.3, 0.0, "cloud_cover")
        regimes = np.array([0, 0, 1])
        cfg = small_config(
            n_loc=3, errors=errors,
            regimes=regimes, regime_drivers={0: "temperature", 1: "wind_speed"},
        )
        obs, fc = generate(cfg)
        aligned = analysis_weather_ensemble(obs, fc.init_times, fc.lead_times).values[..., 0]
        err = fc.values[0] - aligned[0]
        day = aligned[0] > 1.0
        temp_anom = aligned[1] - aligned[1].mean(axis=(1, 2), keepdims=True)
        wind_anom = aligned[2] - aligned[2].mean(axis=(1, 2), keepdims=True)
        # in regime 0 the ghi error tracks temperature, in regime 1 wind speed
        for loc in (0, 1):
            sel = day[loc]
            c_temp = np.corrcoef(err[loc][sel], temp_anom[loc][sel])[0, 1]
            c_wind = np.corrcoef(err[loc][sel], wind_anom[loc][sel])[0, 1]
            assert c_temp > abs(c_wind)
        sel = day[2]
        c_temp = np.corrcoef(err[2][sel], temp_anom[2][sel])[0, 1]
        c_wind = np.corrcoef(err[2][sel], wind_anom[2][sel])[0, 1]
        assert c_wind > abs(c_temp)


def _quiet_errors():
    errors = default_error_models()
    errors["ghi"] = PredictorErrorModel(0.0, 0.06, "cloud_cover")
    return errors


_REGIMES = np.array([0, 0, 1, 1])

# SHA-256 of the written (observations, forecasts) files of each configuration
PINNED = {
    "defaults": (
        lambda: small_config(),
        "32501d5bc0667917b42b882552ad61916893d5d9c9105f502d47e312559a16cb",
        "4737bf5180021ffb7e3b368ceaff7a7acaa55a6b7f6a742109ef1675395a8a10",
    ),
    "regimes": (
        lambda: small_config(n_loc=4, regimes=_REGIMES, regime_drivers={0: "wind_speed", 1: "albedo"},
                             location_temp_offset=np.where(_REGIMES == 0, -6.0, 6.0)),
        "44b892cb96716132aa200249aa8a42c4411052930f74fad2aa041d693a46929b",
        "3133f6a45f22c8c807589130f1a7fb8d9db8691d690237e6ee0e5920fc7596c9",
    ),
    "no cloud noise, no AR, no ghi bias": (
        lambda: small_config(cloud_noise=0.0, ar_coeff=0.0, errors=_quiet_errors()),
        "bf19d5b95898696814ca2ee72cd86dc859ae9d865b42c33d12bdd0a576d7cb41",
        "57c53ec30f50f43fd1f7c52c131cf3a8bff57629c0a87880522208946f861384",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_written_archive_bytes_are_pinned(tmp_path, name):
    # every stream, and the order of every floating-point step, is fixed: a
    # change to synth or the ephemeris that moves one byte fails here
    make, *digests = PINNED[name]
    got = []
    for tensor, file in zip(generate(make()), ("observations.ansr", "forecasts.ansr")):
        tensorio.write_tensor(tensor, tmp_path / file)
        got.append(hashlib.sha256((tmp_path / file).read_bytes()).hexdigest())
    assert got == digests


class TestPlantedBiasRecoverable:
    def test_analog_mean_beats_raw_forecast(self):
        # compact version of the synthetic skill check: the weather-conditional
        # bias must be correctable by the analog ensemble on a held-out period
        cfg = small_config(seed=7, n_loc=4, n_days=150)
        obs, fc = generate(cfg)
        search = range(0, 120)
        test = range(120, 150)
        anen_cfg = AnEnConfig(weights=equal_weights(5), members=10, half_window=1,
                              operational=True)
        weather = anen_weather_ensemble(fc, obs, anen_cfg, test, search)
        spec = next(s for s in load_module_catalog() if s.code == "STU300")
        system = SystemConfig()
        cache = precompute_solar(weather.locations, weather.init_times, weather.lead_times)
        anen_power = power_from_weather(weather, [spec], system, cache).values[0].mean(axis=-1)
        raw_weather = forecast_weather_ensemble(fc, test)
        raw_power = power_from_weather(raw_weather, [spec], system, cache).values[0, ..., 0]
        truth_weather = analysis_weather_ensemble(obs, fc.init_times, fc.lead_times, test)
        truth_power = power_from_weather(truth_weather, [spec], system, cache).values[0, ..., 0]
        day = cache.daylight_mask()
        anen_rmse = rmse(anen_power[day], truth_power[day])
        raw_rmse = rmse(raw_power[day], truth_power[day])
        assert anen_rmse < raw_rmse
