"""End-to-end composition helpers: forecast/analysis/analog weather ensembles,
power simulation against a shared solar cache, and the CRPS objective used by
the weight search.

Everything here is thin orchestration over the engine modules; per-location
work is pure, so evaluations can be partitioned over locations or sample
points and merged by index.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .anen import (
    AnEnConfig,
    SigmaTensor,
    active_scale,
    add_scaled,
    build_multivariate_ensemble,
    check_split,
    compute_sigma,
    disqualify,
    require_members,
    search_analogs,
    top_mask,
    validate_weights,
    window_roots,
)
from .coredata import (
    MISSING,
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
                          sigma: SigmaTensor | None = None) -> EnsembleTensor:
    """Search analogs once and gather the multivariate weather ensemble."""
    indices = search_analogs(forecasts, config, test_range, search_range, sigma)
    aligned = align_observations(analysis, forecasts.init_times, forecasts.lead_times)
    return build_multivariate_ensemble(indices, aligned)


def power_from_weather(weather: EnsembleTensor, specs, system: SystemConfig,
                       cache=None) -> EnsembleTensor:
    """Simulate system power for a weather ensemble, reusing (or building once)
    the solar cache on the ensemble's own axes."""
    if cache is None:
        cache = precompute_solar(weather.locations, weather.init_times, weather.lead_times)
    return simulate_ensemble(weather, cache, specs, system)


@dataclasses.dataclass(frozen=True)
class _LocationTables:
    """Weight-independent tables of one location (see ``WeightObjective``)."""

    loc: int                 # the location, named in short-list errors
    sigma: np.ndarray        # (N, 1, J) for N predictors
    roots: dict              # predictor -> (T, J, C) window roots, in predictor order
    test_start: int          # init index of test row 0
    cand_start: int          # init index of candidate column 0
    power: np.ndarray        # (T * J, C) member power P
    truth_power: np.ndarray  # (1, T, J)
    daylight: np.ndarray     # (1, T, J)


class WeightObjective:
    """CRPS-of-simulated-power objective for the weight grid search.

    ``scores(vectors, location)`` returns one score per weight vector: the
    mean CRPS, over daylight cells, of the power ensemble that the analog
    search with that vector gives at one location over the optimization
    split, against the analysis-driven truth. Each score equals, bit for
    bit, running ``search_analogs`` on the single-location slice, gathering
    the members with ``build_multivariate_ensemble``, simulating them with
    the configured module and scoring with ``crps_field``.

    Nothing but the weighted sum of the search depends on the weights, so a
    call builds the location's sigma, truth power, daylight mask and two
    tables once, and every vector is then a scan of the tables:

    - per predictor, ``sqrt(window sum of squared differences)`` over
      (test init, lead, candidate), built by the search's own kernel;
    - the member power ``P[t, j, s]``: the PV chain applied to the analysis
      at (candidate s, lead j) under the sun of test cell (t, j), from one
      ``simulate_ensemble`` call whose member axis holds the candidates.

    A vector then costs the ``w_p / sigma_p`` multiply-adds in predictor
    order, the search's top-M mask, a gather from ``P`` and the CRPS. The
    CRPS scores members as a set (``crps_field`` sorts them and takes
    ``(1/M) sum_k |x_(k) - y| - (1/M^2) sum_k (2k - M - 1) x_(k)``, in O(M)
    memory per cell), so the members are gathered in candidate order and the
    search's ordering of each top-M list is skipped; a pool of no more than M
    candidates is taken whole and padded with MISSING, as the search pads it.
    Nothing is kept between calls: the working set of one call is
    ``(N + 1) * T * J * C`` float64 values for N predictors, T test inits,
    J leads and C candidates (about 46 MB at 5 x 90 x 24 x 450).
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

    def scores(self, vectors, loc: int) -> np.ndarray:
        """The score of each weight vector at location ``loc``, in order."""
        tables = self._build(loc)
        return np.array([self.evaluate(w, tables) for w in vectors])

    def _build(self, loc: int):
        test, search, cand = check_split(self.test_range, self.search_range,
                                         len(self.forecasts.init_times), self.base.operational)
        fc = slice_forecast_location(self.forecasts, loc)
        sigma = compute_sigma(fc, search).values  # per location, so only sampled ones pay
        an = slice_observation_location(self.analysis, loc)
        truth_weather = analysis_weather_ensemble(an, fc.init_times, fc.lead_times, test)
        cache = precompute_solar(fc.locations, truth_weather.init_times, fc.lead_times)
        truth_power = simulate_ensemble(truth_weather, cache, [self.spec], self.system).values[0, ..., 0]

        # (a) per-predictor window roots, for predictors active at some lead
        # under some weight vector
        usable = np.isfinite(sigma[:, 0]) & (sigma[:, 0] >= self.base.sigma_epsilon)
        shape = (len(test), len(fc.lead_times), cand.stop - cand.start)
        roots = {}
        for p in np.flatnonzero(usable.any(axis=1)):
            values = fc.values[p, 0]
            table = window_roots(values[test.start : test.stop], np.ascontiguousarray(values[cand].T),
                                 self.base.half_window, np.empty(shape), np.empty(shape))
            table.setflags(write=False)
            roots[int(p)] = table

        # (b) member power: candidate weather under each test cell's sun
        aligned = align_observations(an, fc.init_times, fc.lead_times).values[:, :, cand]
        members = np.broadcast_to(aligned.transpose(0, 1, 3, 2)[:, :, None],
                                  (aligned.shape[0], 1) + shape)
        weather = EnsembleTensor(an.variable_names, fc.locations, truth_weather.init_times,
                                 fc.lead_times, shape[2], members)
        power = simulate_ensemble(weather, cache, [self.spec], self.system).values[0, 0]
        power = power.reshape(-1, shape[2])  # (T * J, C)
        return _LocationTables(loc, sigma, roots, test.start, cand.start, power, truth_power,
                               cache.daylight_mask())

    # One call per (vector, location), so that the bench harness, which wraps
    # ``WeightObjective.evaluate`` by name (perfbench/spans.py), counts and
    # times each evaluation.
    def evaluate(self, weights, tab: _LocationTables) -> float:
        """The score of one weight vector, scanned from a location's tables."""
        cfg = dataclasses.replace(self.base, weights=np.asarray(weights, dtype=float))
        validate_weights(cfg.weights, len(self.forecasts.predictor_names), 1)
        active, scale = active_scale(cfg.weights, tab.sigma, cfg.sigma_epsilon)
        n_test, n_lead = tab.truth_power.shape[1:]
        total = np.zeros((n_test, n_lead, tab.power.shape[1]))
        product = np.empty_like(total)
        for p, roots in tab.roots.items():
            if active[p, 0].any():
                add_scaled(total, roots, scale[p, 0], active[p, 0], product)
        dist = disqualify(total, tab.test_start, tab.cand_start, cfg.operational)
        chosen = np.flatnonzero(top_mask(dist, cfg.members))  # row by row, in candidate order
        take = min(cfg.members, dist.shape[1])
        ok = np.isfinite(dist.take(chosen)).reshape(-1, take)
        if not cfg.allow_partial:
            require_members(ok.sum(axis=1).reshape(n_test, n_lead), cfg.members, tab.loc,
                            tab.test_start)
        members = np.full((n_test * n_lead, cfg.members), MISSING)
        members[:, :take] = np.where(ok, tab.power.take(chosen).reshape(-1, take), MISSING)
        scores = crps_field(members.reshape(1, n_test, n_lead, cfg.members), tab.truth_power)
        ok = tab.daylight & np.isfinite(scores) & np.isfinite(tab.truth_power)
        if not ok.any():
            return float("inf")
        return float(scores[ok].mean())

