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
    _Owned,
)
from .solar import _apparent_zenith, extraterrestrial_normal

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
        for name in ("regimes", "location_temp_offset"):
            value = getattr(self, name)
            if value is not None and np.shape(value) != (len(self.locations),):
                raise ValueError(f"{name} must hold one value per location ({len(self.locations)}), "
                                 f"got shape {np.shape(value)}")
        for name, model in self.errors.items():
            if model.bias_driver is not None and model.bias_driver not in VARIABLES:
                raise ValueError(f"bias_driver of {name} must be one of {VARIABLES}, got {model.bias_driver!r}")
        for regime, driver in (self.regime_drivers or {}).items():
            if driver not in VARIABLES:
                raise ValueError(f"regime_drivers[{regime!r}] must be one of {VARIABLES}, got {driver!r}")


# (AR coefficient, innovation scale) of the temperature, wind and albedo
# processes; the sky process takes both from the configuration
_WEATHER_AR = ((0.9, 1.0), (0.85, 1.2), (0.99, 0.01))


def _anomaly(series: np.ndarray) -> np.ndarray:
    """The standardized state tanh((x - mean) / (2 std)) of each location's row."""
    mean = series.mean(axis=1, keepdims=True)
    std = series.std(axis=1, keepdims=True)
    std = np.where(std > 0, std, 1.0)
    return np.tanh((series - mean) / (2.0 * std))


def generate(cfg: SynthConfig):
    """Build the (analysis, forecasts) pair described by the configuration.

    Returns (ObservationTensor, ForecastTensor). Analysis GHI is the
    clear-sky envelope e0n * cos(zenith) * transmittance times the AR(1) sky
    fraction clipped to [0.05, 1]; night cells are exactly zero; all GHI lies
    in [0, e0n]. Forecasts are analysis plus conditional bias plus noise,
    gathered onto the (init, lead) layout.
    """
    # imported here: scipy takes most of a second to load, and no other
    # command needs scipy.signal
    from scipy.signal import lfilter

    locs = cfg.locations
    n_loc = len(locs)
    init_times = TimeAxis(cfg.start + 86400 * np.arange(cfg.n_days))
    lead_times = LeadTimeAxis(3600 * np.arange(cfg.n_leads))
    n_hours = (cfg.n_days - 1) * 24 + cfg.n_leads
    valid_times = TimeAxis(cfg.start + 3600 * np.arange(n_hours))

    doy_e0n = extraterrestrial_normal(valid_times.instants)
    zen = _apparent_zenith(
        valid_times.instants[None, :].astype(float),
        locs.latitude[:, None], locs.longitude[:, None],
    )
    cos_z = np.maximum(np.cos(np.radians(zen)), 0.0)
    envelope = np.broadcast_to(doy_e0n, (n_loc, n_hours)) * cos_z * cfg.transmittance

    doy = ((valid_times.instants - valid_times.instants[0]) // 86400 % 365).astype(float)
    seasonal = 10.0 * np.sin(2.0 * np.pi * (doy - 100.0) / 365.0)

    temp_offset = np.zeros(n_loc) if cfg.location_temp_offset is None else np.asarray(cfg.location_temp_offset)

    # each location's stream draws its sky, temperature, wind and albedo
    # innovations in that order; each process is one AR(1) filter over every
    # location's row
    innov = np.empty((n_loc, 1 + len(_WEATHER_AR), n_hours))
    for loc in range(n_loc):
        np.random.default_rng([cfg.seed, loc]).standard_normal(out=innov[loc])
    sky, temp, wind, albedo = (
        lfilter([1.0], [1.0, -coeff], innov[:, p] * scale)
        for p, (coeff, scale) in enumerate(((cfg.ar_coeff, cfg.cloud_noise), *_WEATHER_AR))
    )
    del innov

    truth = np.empty((len(VARIABLES), n_loc, n_hours))
    sky = np.clip(cfg.sky_base + sky, 0.05, 1.0)
    np.multiply(envelope, sky, out=truth[0])
    np.clip(12.0 + temp_offset[:, None] + seasonal + 7.0 * cos_z + temp, -30.0, 45.0, out=truth[1])
    np.clip(np.abs(3.0 + wind), 0.0, 25.0, out=truth[2])
    np.clip(0.2 + albedo, 0.05, 0.9, out=truth[3])
    np.subtract(1.0, sky, out=truth[4])

    # standardized driver states condition the planted biases: only those of
    # the drivers some bias reads are computed
    models = {name: cfg.errors.get(name, PredictorErrorModel()) for name in VARIABLES}
    drivers = {model.bias_driver for model in models.values() if model.bias_amplitude != 0.0}
    if cfg.regimes is not None and cfg.regime_drivers is not None:
        drivers.update(cfg.regime_drivers.values())
    anomalies = {name: _anomaly(truth[v]) for v, name in enumerate(VARIABLES) if name in drivers}

    # hour index of every (init, lead) cell in the valid axis
    cell_hour = (
        (init_times.instants[:, None] + lead_times.offsets[None, :] - cfg.start) // 3600
    ).astype(np.int64)

    cells = (n_loc, cfg.n_days, cfg.n_leads)
    forecasts = np.empty((len(VARIABLES), *cells))
    env_cells = envelope[:, cell_hour]  # (L, I, J)
    # the range each forecast variable is clipped to
    clip_range = {"ghi": (0.0, doy_e0n[cell_hour]), "temperature": (-40.0, 50.0),
                  "wind_speed": (0.0, 30.0), "albedo": (0.0, 1.0), "cloud_cover": (0.0, 1.0)}
    for v, name in enumerate(VARIABLES):
        model = models[name]
        bias = noise = 0.0  # adds as a zero array would, bit for bit
        if model.bias_amplitude != 0.0:
            loc_drivers = [model.bias_driver] * n_loc
            if cfg.regimes is not None and cfg.regime_drivers is not None and name == "ghi":
                loc_drivers = [cfg.regime_drivers.get(int(r), model.bias_driver) for r in cfg.regimes]
            bias = np.zeros(cells)
            for driver in set(loc_drivers) - {None}:
                rows = np.flatnonzero([d == driver for d in loc_drivers])
                state = model.bias_amplitude * anomalies[driver][rows[:, None, None], cell_hour]
                bias[rows] = state * env_cells[rows] if name == "ghi" else state
        if model.noise_scale > 0.0:
            noise = np.empty(cells)  # C-contiguous, as the draws into it need
            for loc in range(n_loc):
                np.random.default_rng([cfg.seed, loc, 1000 + v]).standard_normal(out=noise[loc])
            noise *= model.noise_scale
            if name == "ghi":
                noise *= env_cells
        np.add(truth[v][:, cell_hour], bias, out=forecasts[v])
        forecasts[v] += noise
        np.clip(forecasts[v], *clip_range[name], out=forecasts[v])

    # truth and forecasts are fresh arrays the tensors keep uncopied
    analysis = ObservationTensor(VARIABLES, locs, valid_times, _Owned(truth))
    forecast_tensor = ForecastTensor(VARIABLES, locs, init_times, lead_times, _Owned(forecasts))
    return analysis, forecast_tensor
