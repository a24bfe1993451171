"""End-to-end composition helpers: forecast/analysis/analog weather ensembles,
power simulation against a shared solar cache, and the CRPS objective used by
the weight search.

Everything here is thin orchestration over the engine modules; per-location
work is pure, so evaluations can be partitioned over locations or sample
points and merged by index.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from .anen import (
    AnalogIndexSet,
    AnEnConfig,
    SigmaTensor,
    build_multivariate_ensemble,
    compute_sigma,
    search_analogs,
)
from .coredata import (
    EnsembleTensor,
    ForecastTensor,
    LocationSet,
    ObservationTensor,
    TimeAxis,
    align_observations,
)
from .pvchain import PvModuleSpec, SystemConfig, simulate_ensemble
from .solar import precompute_solar
from .verify import crps_field


def single_location(locations: LocationSet, loc: int) -> LocationSet:
    return LocationSet(
        np.array([0]),
        locations.latitude[loc : loc + 1],
        locations.longitude[loc : loc + 1],
        locations.elevation[loc : loc + 1],
    )


def slice_forecast_location(forecasts: ForecastTensor, loc: int) -> ForecastTensor:
    return ForecastTensor(
        forecasts.predictor_names,
        single_location(forecasts.locations, loc),
        forecasts.init_times,
        forecasts.lead_times,
        forecasts.values[:, loc : loc + 1],
    )


def slice_observation_location(obs: ObservationTensor, loc: int) -> ObservationTensor:
    return ObservationTensor(
        obs.variable_names,
        single_location(obs.locations, loc),
        obs.valid_times,
        obs.values[:, loc : loc + 1],
    )


def forecast_weather_ensemble(forecasts: ForecastTensor, test_range=None) -> EnsembleTensor:
    """The raw deterministic forecast wrapped as a one-member ensemble."""
    if test_range is None:
        test_range = range(len(forecasts.init_times))
    idx = np.arange(test_range.start, test_range.stop)
    return EnsembleTensor(
        forecasts.predictor_names,
        forecasts.locations,
        TimeAxis(forecasts.init_times.instants[idx]),
        forecasts.lead_times,
        1,
        forecasts.values[:, :, idx, :, None],
    )


def analysis_weather_ensemble(analysis: ObservationTensor, init_times: TimeAxis,
                              lead_times, test_range=None) -> EnsembleTensor:
    """The analysis re-addressed by (init, lead) as a one-member ensemble;
    feeding this through the simulation chain produces the verification truth."""
    if test_range is None:
        test_range = range(len(init_times))
    idx = np.arange(test_range.start, test_range.stop)
    aligned = align_observations(analysis, TimeAxis(init_times.instants[idx]), lead_times)
    return EnsembleTensor(
        aligned.variable_names,
        aligned.locations,
        aligned.init_times,
        aligned.lead_times,
        1,
        aligned.values[..., None],
    )


def anen_weather_ensemble(forecasts: ForecastTensor, analysis: ObservationTensor,
                          config: AnEnConfig, test_range, search_range,
                          sigma: SigmaTensor | None = None,
                          per_location_weights: np.ndarray | None = None) -> EnsembleTensor:
    """Search analogs and gather the multivariate weather ensemble.

    With ``per_location_weights`` (an L x N matrix) every location is searched
    with its own weight vector; otherwise ``config.weights`` applies
    everywhere.
    """
    aligned = align_observations(analysis, forecasts.init_times, forecasts.lead_times)
    if per_location_weights is None:
        indices = search_analogs(forecasts, config, test_range, search_range, sigma)
        return build_multivariate_ensemble(indices, aligned)

    pieces = []
    for loc in range(len(forecasts.locations)):
        cfg = dataclasses.replace(config, weights=per_location_weights[loc])
        fc = slice_forecast_location(forecasts, loc)
        sg = None
        if sigma is not None:
            sg = SigmaTensor(sigma.predictor_names, fc.locations, sigma.lead_times,
                             sigma.values[:, loc : loc + 1])
        pieces.append(search_analogs(fc, cfg, test_range, search_range, sg))

    test = pieces[0].test_indices
    merged = AnalogIndexSet(
        forecasts.locations,
        forecasts.init_times,
        test,
        forecasts.lead_times,
        config.members,
        np.concatenate([p.search_index for p in pieces], axis=0),
        np.concatenate([p.distance for p in pieces], axis=0),
    )
    return build_multivariate_ensemble(merged, aligned)


def power_from_weather(weather: EnsembleTensor, specs, system: SystemConfig,
                       cache=None) -> EnsembleTensor:
    """Simulate system power for a weather ensemble, reusing (or building once)
    the solar cache on the ensemble's own axes."""
    if cache is None:
        cache = precompute_solar(weather.locations, weather.init_times, weather.lead_times)
    return simulate_ensemble(weather, cache, specs, system)


class WeightObjective:
    """CRPS-of-simulated-power objective for the weight grid search.

    ``evaluate(weights, location)`` runs the analog search for one location
    over the optimization split, simulates power for every member with the
    configured module, and returns the mean CRPS against the analysis-driven
    truth over daylight cells. Per-location artifacts (sigma, aligned
    analysis, solar cache, truth power) are built once and cached; the
    closure is pure per weight vector.
    """

    def __init__(self, forecasts: ForecastTensor, analysis: ObservationTensor,
                 base_config: AnEnConfig, opt_test_range, opt_search_range,
                 spec: PvModuleSpec, system: SystemConfig):
        self.forecasts = forecasts
        self.analysis = analysis
        self.base = base_config
        self.test_range = opt_test_range
        self.search_range = opt_search_range
        self.spec = spec
        self.system = system
        self._sigma = compute_sigma(forecasts, opt_search_range)
        self._lock = threading.Lock()
        self._per_location = {}

    def _artifacts(self, loc: int):
        with self._lock:
            cached = self._per_location.get(loc)
        if cached is not None:
            return cached
        fc = slice_forecast_location(self.forecasts, loc)
        sg = SigmaTensor(self._sigma.predictor_names, fc.locations, self._sigma.lead_times,
                         self._sigma.values[:, loc : loc + 1])
        an = slice_observation_location(self.analysis, loc)
        aligned = align_observations(an, fc.init_times, fc.lead_times)
        test = range(self.test_range.start, self.test_range.stop)
        truth_weather = analysis_weather_ensemble(an, fc.init_times, fc.lead_times, test)
        cache = precompute_solar(fc.locations, truth_weather.init_times, fc.lead_times)
        truth_power = simulate_ensemble(truth_weather, cache, [self.spec], self.system).values[0, ..., 0]
        daylight = cache.daylight_mask()
        entry = (fc, sg, aligned, cache, truth_power, daylight)
        with self._lock:
            self._per_location[loc] = entry
        return entry

    def evaluate(self, weights, loc: int) -> float:
        fc, sg, aligned, cache, truth_power, daylight = self._artifacts(loc)
        cfg = dataclasses.replace(self.base, weights=np.asarray(weights, dtype=float))
        indices = search_analogs(fc, cfg, self.test_range, self.search_range, sg)
        weather = build_multivariate_ensemble(indices, aligned)
        power = simulate_ensemble(weather, cache, [self.spec], self.system).values[0]
        scores = crps_field(power, truth_power)
        ok = daylight & np.isfinite(scores) & np.isfinite(truth_power)
        if not ok.any():
            return float("inf")
        return float(scores[ok].mean())

    __call__ = evaluate
