"""Synthetic forecast/analysis generator.

Produces a physically plausible analysis archive (clear-sky envelope times an
AR(1) sky-transmission process, smooth temperature/wind/albedo processes) and
a deterministic forecast archive with weather-conditional biases, so the full
analog -> power -> verification chain can be exercised without a real model
archive. Fully deterministic given the seed, with per-location derived
sub-streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coredata import (
    ForecastTensor,
    LeadTimeAxis,
    LocationSet,
    ObservationTensor,
    TimeAxis,
)
from .solar import _noaa_arrays, extraterrestrial_normal

VARIABLES = ("ghi", "temperature", "wind_speed", "albedo", "cloud_cover")


@dataclass(frozen=True)
class PredictorErrorModel:
    """Forecast-error structure for one predictor.

    ``bias_amplitude`` scales a weather-conditional bias driven by the
    standardized state of ``bias_driver`` (a variable name); ``noise_scale``
    scales iid noise. For ghi both are relative to the clear-sky envelope,
    for the other variables they are in natural units.
    """

    bias_amplitude: float = 0.0
    noise_scale: float = 0.0
    bias_driver: str | None = None


def default_error_models() -> dict:
    return {
        "ghi": PredictorErrorModel(0.30, 0.06, "cloud_cover"),
        "temperature": PredictorErrorModel(0.0, 1.0, None),
        "wind_speed": PredictorErrorModel(0.0, 0.6, None),
        "albedo": PredictorErrorModel(0.0, 0.02, None),
        "cloud_cover": PredictorErrorModel(0.0, 0.05, None),
    }


@dataclass(frozen=True)
class SynthConfig:
    """Generator parameters.

    One initialization per day at 00 UTC starting at ``start`` (epoch
    seconds), hourly lead times. ``regimes``/``regime_drivers`` optionally
    plant a regime-dependent ghi bias: the driver variable conditioning the
    bias differs per regime. ``location_temp_offset`` shifts each location's
    temperature climate (useful to make planted regimes recoverable from
    features).
    """

    seed: int
    locations: LocationSet
    start: int
    n_days: int
    n_leads: int = 24
    ar_coeff: float = 0.8
    cloud_noise: float = 0.12
    sky_base: float = 0.78
    transmittance: float = 0.75
    errors: dict = field(default_factory=default_error_models)
    regimes: np.ndarray | None = None
    regime_drivers: dict | None = None
    location_temp_offset: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ValueError("AR coefficient must be in [0, 1)")
        if self.cloud_noise < 0:
            raise ValueError("noise scales must be >= 0")
        for name, model in self.errors.items():
            if model.noise_scale < 0:
                raise ValueError(f"noise scale for {name} must be >= 0")
        if self.n_days < 1 or self.n_leads < 1:
            raise ValueError("need at least one day and one lead")


def _ar1(rng, n: int, coeff: float, scale: float) -> np.ndarray:
    # imported here: scipy takes about a second to load, and no CLI command
    # but synth needs it
    from scipy.signal import lfilter

    innov = rng.standard_normal(n) * scale
    return lfilter([1.0], [1.0, -coeff], innov)


def generate(cfg: SynthConfig):
    """Build the (analysis, forecasts) pair described by the configuration.

    Returns (ObservationTensor, ForecastTensor). Analysis GHI is the
    clear-sky envelope e0n * cos(zenith) * transmittance times the AR(1) sky
    fraction clipped to [0.05, 1]; night cells are exactly zero; all GHI lies
    in [0, e0n]. Forecasts are analysis plus conditional bias plus noise,
    gathered onto the (init, lead) layout.
    """
    locs = cfg.locations
    n_loc = len(locs)
    init_times = TimeAxis(cfg.start + 86400 * np.arange(cfg.n_days))
    lead_times = LeadTimeAxis(3600 * np.arange(cfg.n_leads))
    n_hours = (cfg.n_days - 1) * 24 + cfg.n_leads
    valid_times = TimeAxis(cfg.start + 3600 * np.arange(n_hours))

    doy_e0n = extraterrestrial_normal(valid_times.instants)
    truth = np.zeros((len(VARIABLES), n_loc, n_hours))
    e0n_by_hour = np.broadcast_to(doy_e0n, (n_loc, n_hours))

    zen, _, _, _ = _noaa_arrays(
        valid_times.instants[None, :].astype(float),
        locs.latitude[:, None], locs.longitude[:, None],
    )
    cos_z = np.maximum(np.cos(np.radians(zen)), 0.0)
    envelope = e0n_by_hour * cos_z * cfg.transmittance

    doy = ((valid_times.instants - valid_times.instants[0]) // 86400 % 365).astype(float)
    seasonal = 10.0 * np.sin(2.0 * np.pi * (doy - 100.0) / 365.0)

    temp_offset = cfg.location_temp_offset
    if temp_offset is None:
        temp_offset = np.zeros(n_loc)

    for loc in range(n_loc):
        rng = np.random.default_rng([cfg.seed, loc])
        sky = np.clip(cfg.sky_base + _ar1(rng, n_hours, cfg.ar_coeff, cfg.cloud_noise), 0.05, 1.0)
        cloud = 1.0 - sky
        ghi = envelope[loc] * sky
        temp = (
            12.0 + temp_offset[loc] + seasonal
            + 7.0 * cos_z[loc]
            + _ar1(rng, n_hours, 0.9, 1.0)
        )
        wind = np.clip(np.abs(3.0 + _ar1(rng, n_hours, 0.85, 1.2)), 0.0, 25.0)
        albedo = np.clip(0.2 + _ar1(rng, n_hours, 0.99, 0.01), 0.05, 0.9)
        truth[0, loc] = ghi
        truth[1, loc] = np.clip(temp, -30.0, 45.0)
        truth[2, loc] = wind
        truth[3, loc] = albedo
        truth[4, loc] = cloud

    analysis = ObservationTensor(VARIABLES, locs, valid_times, truth)

    # standardized driver states condition the planted biases
    anomalies = {}
    for v, name in enumerate(VARIABLES):
        series = truth[v]
        mean = series.mean(axis=1, keepdims=True)
        std = series.std(axis=1, keepdims=True)
        std = np.where(std > 0, std, 1.0)
        anomalies[name] = np.tanh((series - mean) / (2.0 * std))

    # hour index of every (init, lead) cell in the valid axis
    cell_hour = (
        (init_times.instants[:, None] + lead_times.offsets[None, :] - cfg.start) // 3600
    ).astype(np.int64)

    forecasts = np.zeros((len(VARIABLES), n_loc, cfg.n_days, cfg.n_leads))
    env_cells = envelope[:, cell_hour]  # (L, I, J)
    e0n_cells = e0n_by_hour[:, cell_hour]
    for v, name in enumerate(VARIABLES):
        model = cfg.errors.get(name, PredictorErrorModel())
        truth_cells = truth[v][:, cell_hour]
        bias = np.zeros_like(truth_cells)
        if model.bias_amplitude != 0.0:
            for loc in range(n_loc):
                driver = model.bias_driver
                if cfg.regimes is not None and cfg.regime_drivers is not None and name == "ghi":
                    driver = cfg.regime_drivers.get(int(cfg.regimes[loc]), driver)
                if driver is None:
                    continue
                state = anomalies[driver][loc, cell_hour]
                if name == "ghi":
                    bias[loc] = model.bias_amplitude * state * env_cells[loc]
                else:
                    bias[loc] = model.bias_amplitude * state
        noise = np.zeros_like(truth_cells)
        if model.noise_scale > 0.0:
            for loc in range(n_loc):
                rng = np.random.default_rng([cfg.seed, loc, 1000 + v])
                draw = rng.standard_normal((cfg.n_days, cfg.n_leads))
                if name == "ghi":
                    noise[loc] = model.noise_scale * draw * env_cells[loc]
                else:
                    noise[loc] = model.noise_scale * draw
        forecasts[v] = truth_cells + bias + noise

    forecasts[0] = np.clip(forecasts[0], 0.0, e0n_cells)
    forecasts[1] = np.clip(forecasts[1], -40.0, 50.0)
    forecasts[2] = np.clip(forecasts[2], 0.0, 30.0)
    forecasts[3] = np.clip(forecasts[3], 0.0, 1.0)
    forecasts[4] = np.clip(forecasts[4], 0.0, 1.0)

    forecast_tensor = ForecastTensor(VARIABLES, locs, init_times, lead_times, forecasts)
    return analysis, forecast_tensor
