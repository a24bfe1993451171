"""End-to-end composition helpers: forecast/analysis/analog weather ensembles,
power simulation against a shared solar cache, and the CRPS objective used by
the weight search, which takes each vector's members from ``anen.SearchTables``
and scores their simulated power.

Everything here is thin orchestration over the engine modules; per-location
work is pure, so evaluations can be partitioned over locations or sample
points and merged by index. The analog search and the CRPS are imported by
the functions that run them, so a process that only simulates power loads
neither.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from .coredata import (
    MISSING,
    EnsembleTensor,
    ForecastTensor,
    ObservationTensor,
    SigmaTensor,
    TimeAxis,
    align_observations,
    axis_mismatch,
)
from .errors import DimensionMismatchError
from .pvchain import PvModuleSpec, SystemConfig, simulate_ensemble
from .solar import precompute_solar

if TYPE_CHECKING:
    from .anen import AnEnConfig, SearchTables


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
    from . import anen

    indices = anen.search_analogs(forecasts, config, test_range, search_range, sigma)
    aligned = align_observations(analysis, forecasts.init_times, forecasts.lead_times)
    return anen.build_multivariate_ensemble(indices, aligned)


def power_from_weather(weather: EnsembleTensor, specs, system: SystemConfig,
                       cache=None) -> EnsembleTensor:
    """Simulate system power for a weather ensemble, reusing (or building once)
    the solar cache on the ensemble's own axes."""
    if cache is None:
        cache = precompute_solar(weather.locations, weather.init_times, weather.lead_times)
    return simulate_ensemble(weather, cache, specs, system)


@dataclasses.dataclass(frozen=True)
class _LocationTables:
    """Weight-independent tables of one location (see ``WeightObjective``),
    each at the rows of ``search``."""

    loc: int                 # the location, named in short-list errors
    search: SearchTables     # the search's split, sigma and window roots
    power: np.ndarray        # (rows, C) member power P
    truth_power: np.ndarray  # (rows,)
    scored: np.ndarray       # (rows,) daylight with a finite truth


class WeightObjective:
    """CRPS-of-simulated-power objective for the weight grid search.

    ``scores(vectors, location)`` returns one score per weight vector: the
    mean CRPS, over daylight cells, of the power ensemble that the analog
    search with that vector gives at one location over the optimization
    split, against the analysis-driven truth. Each score equals, bit for
    bit, running ``search_analogs`` on the single-location slice, gathering
    the members with ``build_multivariate_ensemble``, simulating them with
    the configured module and scoring with ``crps_field``.

    Nothing but the search's weighted sum depends on the weights, so a call
    builds the location's tables once: the solar cache and its daylight
    mask, ``anen.SearchTables`` (sigma and the window roots) at the daylight
    (test init, lead) rows, the truth power and the member power ``P[t, j,
    s]``, the PV chain applied to the analysis at (candidate s, lead j) under
    the sun of test cell (t, j), from one ``simulate_ensemble`` call over
    every cell whose member axis holds the candidates, kept at the same rows.
    ``SearchTables`` keeps the night rows too when some vector could leave
    one short, so a short list raises naming the same cell as the search.
    Each vector then asks ``SearchTables.members`` for its top-M cells,
    gathers them from ``P``, pads short lists with MISSING as the search
    does, and scores them. The CRPS scores members as a set (``crps_field``
    sorts them), so their order within a list does not matter, and each
    cell's score does not depend on the others: the daylight rows give, in
    the same order, the values the whole table's daylight mean reduces.
    Nothing is kept between calls: the working set of one call is ``(N + 1)
    * rows * C`` float64 values for N predictors, rows daylight cells and C
    candidates (about 23 MB at 5 x 90 x 24 x 450 with half the cells in
    daylight), after a build that holds the N whole ``T * J * C`` root
    tables once.

    The objective scores the tensors it is given, which must hold the same
    locations (else ``DimensionMismatchError`` names the axis): ``locations``
    lists the archive location of each of their rows (by default, row i is
    location i), so a caller can give it the sample locations alone.
    ``scores`` takes, and short-list errors name, the archive location.
    """

    def __init__(self, forecasts: ForecastTensor, analysis: ObservationTensor,
                 base_config: AnEnConfig, opt_test_range, opt_search_range,
                 spec: PvModuleSpec, system: SystemConfig, locations=None):
        from .anen import _check_split

        if mismatch := axis_mismatch(analysis, forecasts):
            raise DimensionMismatchError(f"analysis does not pair with the forecasts: {mismatch}")
        if locations is None:
            locations = range(len(forecasts.locations))
        self.rows = {int(loc): row for row, loc in enumerate(locations)}
        self.forecasts = forecasts
        self.analysis = analysis
        self.base = base_config
        # checked here: each build reads the test inits before its search tables
        self.test_range, self.search_range, _ = _check_split(
            opt_test_range, opt_search_range, len(forecasts.init_times), base_config.operational)
        self.spec = spec
        self.system = system

    def scores(self, vectors, loc: int) -> np.ndarray:
        """The score of each weight vector at location ``loc``, in order."""
        tables = self._build(loc)
        return np.array([self.evaluate(w, tables) for w in vectors])

    def _build(self, loc: int):
        from .anen import SearchTables

        row = self.rows[loc]
        fc = self.forecasts.at_locations(row, row + 1)
        an = self.analysis.at_locations(row, row + 1)
        truth_weather = analysis_weather_ensemble(an, fc.init_times, fc.lead_times, self.test_range)
        cache = precompute_solar(fc.locations, truth_weather.init_times, fc.lead_times)
        search = SearchTables(fc, self.base, self.test_range, self.search_range,
                              cache.daylight_mask()[0])
        rows = search.cells
        truth = simulate_ensemble(truth_weather, cache, [self.spec], self.system).values.reshape(-1)[rows]

        # member power: candidate weather under each test cell's sun
        aligned = align_observations(an, fc.init_times, fc.lead_times).values[:, :, search.cand]
        members = np.broadcast_to(aligned.transpose(0, 1, 3, 2)[:, :, None],
                                  (aligned.shape[0], 1) + search.shape)
        weather = EnsembleTensor(an.variable_names, fc.locations, truth_weather.init_times,
                                 fc.lead_times, search.shape[2], members)
        power = simulate_ensemble(weather, cache, [self.spec], self.system).values
        return _LocationTables(loc, search, power.reshape(-1, search.shape[2])[rows], truth,
                               cache.daylight_mask().reshape(-1)[rows] & np.isfinite(truth))

    # One call per (vector, location), so that the bench harness, which wraps
    # ``WeightObjective.evaluate`` by name (perfbench/spans.py), counts and
    # times each evaluation.
    def evaluate(self, weights, tab: _LocationTables) -> float:
        """The score of one weight vector, gathered from a location's tables."""
        from .verify import crps_field

        chosen, ok = tab.search.members(weights, tab.loc)
        members = np.full((len(ok), self.base.members), MISSING)
        members[:, : ok.shape[1]] = np.where(ok, tab.power.take(chosen).reshape(ok.shape), MISSING)
        scores = crps_field(members, tab.truth_power)
        ok = tab.scored & np.isfinite(scores)
        if not ok.any():
            return float("inf")
        return float(scores[ok].mean())
