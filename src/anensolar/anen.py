"""Analog ensemble engine: windowed similarity metric, analog search over a
forecast history (fixed or operationally growing), and the shared-analog
multivariate ensemble construction.

The distance between a target forecast at init t and a candidate at init t'
for one location and lead is

    sum_i (w_i / sigma_i) * sqrt( sum_{j in [-hw, hw]} (F[i, t, l+j] - F[i, t', l+j])^2 )

with the window clipped to the lead axis, predictors skipped when their
weight is zero or their sigma is below the configured epsilon, missing target
terms dropped, and candidates disqualified (infinite distance) when any
needed candidate value is missing. Search is pure and independent per
(location, test init, lead) and may be partitioned arbitrarily over
locations.

``search_analogs`` scores each location in one pass over all of its leads,
in blocks of test inits sized so that one (rows, n_lead, n_cand) float64
buffer holds about ``BLOCK_BYTES``; three such buffers, allocated once per
call, bound its working memory whatever the number of test inits. Per
predictor it squares the differences for every lead at once, builds each
lead's window sum by adding shifted lead slabs left to right, and adds the
scaled square roots into the total in predictor order: the same operations in
the same order as the scalar ``similarity``, so distances match it bit for
bit. With missing target terms zeroed, a NaN total marks exactly a
disqualified candidate. Its steps (``check_split``, ``active_scale``,
``window_roots``, ``add_scaled``, ``disqualify``, ``top_mask``,
``require_members``) are shared with the weight objective in ``driver``,
which caches the window roots once per location, re-weights them per vector
and, scoring members as a set, skips the ordering of the top-M lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coredata import (
    MISSING,
    AlignedObservations,
    EnsembleTensor,
    ForecastTensor,
    LeadTimeAxis,
    LocationSet,
    TimeAxis,
)
from .errors import InsufficientCandidatesError, MissingVariableError
from . import tensorio


def validate_weights(weights, n_predictors: int | None = None,
                     n_locations: int | None = None) -> np.ndarray:
    """Check the weight contract on one vector (P,) or one row per location
    (L, P): every row finite, non-negative and summing to 1 within 1e-9."""
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.size == 0:
        raise ValueError("weights must be a non-empty vector or one row per location")
    if n_predictors is not None and w.shape[-1] != n_predictors:
        raise ValueError(f"expected {n_predictors} weights, got {w.shape[-1]}")
    if n_locations is not None and w.ndim == 2 and len(w) != n_locations:
        raise ValueError(f"expected {n_locations} weight rows, one per location, got {len(w)}")
    for row, v in enumerate(np.atleast_2d(w)):
        at = f" in row {row}" if w.ndim == 2 else ""
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise ValueError(f"weights must be finite and non-negative{at}")
        if abs(float(v.sum()) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1{at} (got {v.sum()!r})")
    return w


def equal_weights(n_predictors: int) -> np.ndarray:
    return np.full(n_predictors, 1.0 / n_predictors)


@dataclass(frozen=True)
class AnEnConfig:
    """Analog search configuration.

    members: ensemble size M; half_window: temporal trend window half size in
    lead steps; weights: per-predictor weights, one vector (P,) for every
    location or one row per location (L, P); operational: grow the
    search with every init strictly earlier than the test init; allow_partial:
    store fewer than M members instead of failing; sigma_epsilon: predictors
    with a smaller spread are skipped.
    """

    weights: np.ndarray
    members: int = 21
    half_window: int = 1
    operational: bool = False
    allow_partial: bool = False
    sigma_epsilon: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "weights", validate_weights(self.weights))
        if self.members < 1:
            raise ValueError("members must be >= 1")
        if self.half_window < 0:
            raise ValueError("half_window must be >= 0")
        if not self.sigma_epsilon > 0:
            raise ValueError("sigma_epsilon must be positive")


@dataclass(frozen=True)
class SigmaTensor:
    """Per (predictor, location, lead) standard deviation over the search period."""

    predictor_names: tuple
    locations: LocationSet
    lead_times: LeadTimeAxis
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "predictor_names", tuple(self.predictor_names))
        arr = np.array(self.values, dtype=float, copy=True)
        expected = (len(self.predictor_names), len(self.locations), len(self.lead_times))
        if arr.shape != expected:
            raise ValueError(f"sigma values have shape {arr.shape}, expected {expected}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def write(self, path):
        tensorio.write_extended(
            "sigma", path,
            field_names=self.predictor_names,
            locations=self.locations,
            sections=[("lead_times", self.lead_times.offsets)],
            values=self.values,
        )

    @classmethod
    def read(cls, path) -> "SigmaTensor":
        raw = tensorio.read_tensor(path)
        if not isinstance(raw, dict) or raw["kind"] != "sigma":
            raise tensorio.TensorHeaderError("not a sigma file")
        return cls(tuple(raw["fields"]), raw["locations"],
                   LeadTimeAxis(raw["sections"]["lead_times"]), raw["values"])


def _as_range(r) -> range:
    if isinstance(r, range):
        return r
    start, stop = r
    return range(int(start), int(stop))


def compute_sigma(forecasts: ForecastTensor, search_range) -> SigmaTensor:
    """Population standard deviation per (predictor, location, lead) over the
    search inits, ignoring missing values; NaN where fewer than two finite
    samples exist."""
    search = _as_range(search_range)
    if len(search) == 0:
        raise ValueError("search range is empty")
    vals = forecasts.values[:, :, search.start : search.stop, :]
    finite = np.isfinite(vals)
    count = finite.sum(axis=2)
    safe = np.where(finite, vals, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = safe.sum(axis=2) / count
        var = (np.where(finite, (vals - mean[:, :, None, :]) ** 2, 0.0)).sum(axis=2) / count
    sigma = np.where(count >= 2, np.sqrt(var), MISSING)
    return SigmaTensor(forecasts.predictor_names, forecasts.locations, forecasts.lead_times, sigma)


def _window(lead: int, half_window: int, n_leads: int) -> slice:
    return slice(max(0, lead - half_window), min(n_leads - 1, lead + half_window) + 1)


def similarity(forecasts: ForecastTensor, location: int, target_init: int,
               candidate_init: int, lead: int, sigma: SigmaTensor,
               config: AnEnConfig) -> float:
    """Distance between the target and one candidate at a (location, lead) cell.

    Scalar reference path of the metric; ``search_analogs`` evaluates the same
    quantity vectorized. Returns inf when the candidate is disqualified by a
    missing needed value.
    """
    win = _window(lead, config.half_window, len(forecasts.lead_times))
    weights = config.weights if config.weights.ndim == 1 else config.weights[location]
    total = 0.0
    for p in range(len(forecasts.predictor_names)):
        w = weights[p]
        s = sigma.values[p, location, lead]
        if w == 0.0 or not np.isfinite(s) or s < config.sigma_epsilon:
            continue
        acc = 0.0
        for j in range(win.start, win.stop):
            f = forecasts.values[p, location, target_init, j]
            a = forecasts.values[p, location, candidate_init, j]
            if np.isnan(f):
                continue
            if np.isnan(a):
                return float("inf")
            diff = f - a
            acc += diff * diff
        total += (w / s) * np.sqrt(acc)
    return float(total)


@dataclass(frozen=True)
class AnalogIndexSet:
    """Ranked analog members per (location, test init, lead).

    ``search_index`` holds positions into ``init_times`` (NaN where a slot is
    unused under allow_partial); ``distance`` holds the matching metric
    values. Distances are non-decreasing within a member list and, in
    operational mode, every stored init strictly precedes its test init.
    """

    locations: LocationSet
    init_times: TimeAxis
    test_indices: np.ndarray
    lead_times: LeadTimeAxis
    members: int
    search_index: np.ndarray
    distance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "test_indices", np.array(self.test_indices, dtype=np.int64))
        shape = (len(self.locations), len(self.test_indices), len(self.lead_times), self.members)
        for name in ("search_index", "distance"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def member_count(self) -> np.ndarray:
        """Stored members per (location, test, lead)."""
        return np.isfinite(self.search_index).sum(axis=-1)

    def write(self, path, include_distances: bool = True):
        fields = ("search_init", "distance") if include_distances else ("search_init",)
        values = np.stack([self.search_index, self.distance][: len(fields)])
        tensorio.write_extended(
            "analogs", path,
            field_names=fields,
            locations=self.locations,
            sections=[
                ("init_times", self.init_times.instants),
                ("test_indices", self.test_indices),
                ("lead_times", self.lead_times.offsets),
                ("members", self.members),
            ],
            values=values,
        )

    @classmethod
    def read(cls, path) -> "AnalogIndexSet":
        raw = tensorio.read_tensor(path)
        if not isinstance(raw, dict) or raw["kind"] != "analogs":
            raise tensorio.TensorHeaderError("not an analog index file")
        sec = raw["sections"]
        values = raw["values"]
        search = values[0]
        if "distance" in raw["fields"]:
            dist = values[raw["fields"].index("distance")]
        else:
            dist = np.full_like(search, MISSING)
        return cls(raw["locations"], TimeAxis(sec["init_times"]), sec["test_indices"],
                   LeadTimeAxis(sec["lead_times"]), sec["members"], search, dist)


# Bytes of one (rows, n_lead, n_cand) float64 work buffer of search_analogs,
# which holds three: small enough to stay in cache while it is reused.
BLOCK_BYTES = 1 << 20


def _window_sums(d2, acc, half_window):
    """Window sums over the lead axis of a (rows, n_lead, n_cand) block.

    ``acc[:, l]`` becomes ``d2[:, lo] + d2[:, lo + 1] + ... + d2[:, hi]`` over
    the clipped window of lead l, added left to right exactly as the scalar
    metric adds them, so the sums match it bit for bit.
    """
    n = d2.shape[1]
    if half_window == 0:
        return d2
    # first term of each window: lead max(0, l - hw)
    if half_window < n:
        acc[:, half_window:] = d2[:, : n - half_window]
    acc[:, : min(half_window, n)] = d2[:, :1]
    # later terms, in order of offset k: lead l + k wherever it lies in
    # 1 .. n-1 (lead 0 only ever opens a window)
    for k in range(max(1 - half_window, 2 - n), min(half_window, n - 1) + 1):
        lo, hi = max(0, 1 - k), min(n, n - k)
        acc[:, lo:hi] += d2[:, lo + k : hi + k]
    return acc


def top_mask(dist, members):
    """Where the ``members`` smallest entries of each row of ``dist`` (rows,
    n_cand) lie, ties at the M-th value going to the lower columns; every
    entry when a row has no more than ``members``. Unordered: each row of the
    boolean (rows, n_cand) result has min(members, n_cand) entries set."""
    n_cand = dist.shape[1]
    if n_cand <= members:
        return np.ones(dist.shape, dtype=bool)
    kth = np.partition(dist, members - 1, axis=1)[:, members - 1 : members]
    chosen = dist <= kth
    over = chosen.sum(axis=1) > members
    if over.any():
        # too many ties at the M-th value: keep only the earliest of them
        sub, sub_kth = dist[over], kth[over]
        ties = sub == sub_kth
        room = members - (sub < sub_kth).sum(axis=1)
        chosen[over] = (sub < sub_kth) | (ties & (np.cumsum(ties, axis=1) <= room[:, None]))
    return chosen


def _top_members(dist, members):
    """Column indices and values of the ``members`` smallest entries per row
    of ``dist`` (rows, n_cand), ascending, ties going to the lower column."""
    cols = np.nonzero(top_mask(dist, members))[1].reshape(len(dist), min(members, dist.shape[1]))
    values = np.take_along_axis(dist, cols, axis=1)
    order = np.argsort(values, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(values, order, axis=1)


def check_split(test_range, search_range, n_init: int, operational: bool):
    """Validate a (test, search) init split; return it as ranges with the
    candidate pool as a slice.

    Both ranges must be non-empty and inside ``0..n_init``, and disjoint
    unless ``operational`` is set; the pool is the search range in fixed mode
    and search start up to test stop in operational mode.
    """
    test = _as_range(test_range)
    search = _as_range(search_range)
    if len(search) == 0:
        raise ValueError("search range is empty")
    if len(test) == 0:
        raise ValueError("test range is empty")
    if test.start < 0 or test.stop > n_init or search.start < 0 or search.stop > n_init:
        raise ValueError("init ranges out of bounds")
    if not operational and range(max(test.start, search.start), min(test.stop, search.stop)):
        raise ValueError("test and search ranges overlap; enable operational mode")
    return test, search, slice(search.start, test.stop if operational else search.stop)


def active_scale(weights, sigma_values, sigma_epsilon):
    """Where each predictor counts, and its ``w / sigma`` factor.

    ``weights`` is one vector (P,) or one row per location (L, P) and
    ``sigma_values`` is (P, L, J); both results are (P, L, J), and the scale
    is meaningful only where active (w != 0, sigma finite and >= epsilon).
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float)).T[:, :, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        active = (w != 0.0) & np.isfinite(sigma_values) & (sigma_values >= sigma_epsilon)
        scale = w / sigma_values
    return active, scale


def window_roots(target, cand_t, half_window, d2, acc):
    """One predictor's ``sqrt(window sum of squared differences)``.

    ``target`` is (rows, J) test values, ``cand_t`` is (J, C) candidate
    values, ``d2`` and ``acc`` are (rows, J, C) buffers; the result is one of
    them. Terms where the target is missing are zeroed, so a NaN result marks
    exactly a candidate missing a value the target has.
    """
    np.subtract(target[:, :, None], cand_t[None], out=d2)
    np.multiply(d2, d2, out=d2)
    target_missing = np.isnan(target)
    if target_missing.any():
        d2[target_missing] = 0.0
    roots = _window_sums(d2, acc, half_window)
    np.sqrt(roots, out=roots)
    return roots


def add_scaled(total, roots, scale, on, out):
    """``total += roots * scale`` on the leads where ``on`` is set.

    ``scale`` and ``on`` are per lead; ``out`` is a (rows, J, C) buffer for
    the product and may be ``roots`` itself.
    """
    where = True if on.all() else on[None, :, None]
    np.multiply(roots, scale[None, :, None], out=out, where=where)
    np.add(total, out, out=total, where=where)


def disqualify(total, first_row, cand_start, operational):
    """Set to +inf, in place, every entry of a (rows, J, C) distance total,
    row ``i`` being test init ``first_row + i``, that no member may take: a
    disqualified (NaN) distance and, in operational mode, every candidate at
    or after the row's own init (all of them for a test init before the
    pool). Returns ``total`` as (rows * J, C)."""
    total[np.isnan(total)] = np.inf
    if operational:
        for i in range(len(total)):
            total[i, :, max(0, first_row + i - cand_start) :] = np.inf
    return total.reshape(-1, total.shape[2])


def require_members(found, members, location, first_row):
    """Raise InsufficientCandidatesError naming the first short (lead, row)
    cell of a (rows, J) count table, in lead-major order."""
    short = found < members
    if short.any():
        lead, row = np.argwhere(short.T)[0]
        raise InsufficientCandidatesError(
            f"{found[row, lead]} finite-distance candidates for location {location}, "
            f"test init {first_row + row}, lead {lead}; need {members}"
        )


def search_analogs(forecasts: ForecastTensor, config: AnEnConfig, test_range,
                   search_range, sigma: SigmaTensor | None = None) -> AnalogIndexSet:
    """Find the M nearest historical forecasts per (location, test init, lead).

    ``test_range`` and ``search_range`` are half-open init-index intervals and
    must be disjoint unless ``config.operational`` is set; in operational mode
    the candidate pool for test init t is every init from the start of the
    search range up to (excluding) t, so the repository grows as the test
    period advances. Ties are broken by earlier candidate init time. Sigma is
    computed once over the base search range (also in operational mode)
    unless a precomputed table is supplied.

    Raises InsufficientCandidatesError when fewer than M finite-distance
    candidates exist and partial lists are not allowed.
    """
    test, search, cand = check_split(test_range, search_range, len(forecasts.init_times),
                                     config.operational)
    validate_weights(config.weights, len(forecasts.predictor_names), len(forecasts.locations))

    if sigma is None:
        sigma = compute_sigma(forecasts, search)

    values = forecasts.values
    n_pred, n_loc, _, n_lead = values.shape
    n_test = len(test)
    m = config.members
    n_cand = cand.stop - cand.start
    active, scale = active_scale(config.weights, sigma.values, config.sigma_epsilon)

    rows = min(n_test, max(1, BLOCK_BYTES // (8 * n_lead * n_cand)))
    d2, acc, total = (np.empty((rows, n_lead, n_cand)) for _ in range(3))
    out_idx = np.full((n_loc, n_test, n_lead, m), MISSING)
    out_dist = np.full((n_loc, n_test, n_lead, m), MISSING)
    found = np.empty((n_test, n_lead), dtype=np.int64)

    for loc in range(n_loc):
        preds = [p for p in range(n_pred) if active[p, loc].any()]
        cand_t = {p: np.ascontiguousarray(values[p, loc, cand].T) for p in preds}  # (J, C)
        for r0 in range(0, n_test, rows):
            r1 = min(r0 + rows, n_test)
            blk_d2, blk_acc, blk_total = d2[: r1 - r0], acc[: r1 - r0], total[: r1 - r0]
            blk_total.fill(0.0)
            for p in preds:
                target = values[p, loc, test.start + r0 : test.start + r1]  # (rows, J)
                roots = window_roots(target, cand_t[p], config.half_window, blk_d2, blk_acc)
                add_scaled(blk_total, roots, scale[p, loc], active[p, loc], roots)
            cols, dist = _top_members(disqualify(blk_total, test.start + r0, cand.start,
                                                 config.operational), m)
            ok = np.isfinite(dist)
            take = cols.shape[1]
            shape = (r1 - r0, n_lead, take)
            out_idx[loc, r0:r1, :, :take] = np.where(ok, cols + cand.start, MISSING).reshape(shape)
            out_dist[loc, r0:r1, :, :take] = np.where(ok, dist, MISSING).reshape(shape)
            found[r0:r1] = ok.sum(axis=1).reshape(r1 - r0, n_lead)
        if not config.allow_partial:
            require_members(found, m, loc, test.start)

    return AnalogIndexSet(forecasts.locations, forecasts.init_times, np.arange(test.start, test.stop),
                          forecasts.lead_times, m, out_idx, out_dist)


def build_multivariate_ensemble(indices: AnalogIndexSet, aligned: AlignedObservations,
                                variables=None) -> EnsembleTensor:
    """Gather observed values for every analog member, one index set for all
    variables (the shared-analog multivariate construction).

    Member m of variable v at (l, i, j) is the aligned observation of v at
    (l, search_init of member m, j). Missing observations propagate as NaN
    members.
    """
    if variables is None:
        variables = aligned.variable_names
    var_idx = []
    for name in variables:
        try:
            var_idx.append(aligned.variable_index(name))
        except KeyError:
            raise MissingVariableError(name) from None

    n_loc, n_test, n_lead, m = indices.search_index.shape
    src = indices.search_index
    filled = np.isfinite(src)
    safe = np.where(filled, src, 0).astype(np.int64)
    if safe.max(initial=0) >= len(aligned.init_times) or (
        len(indices.init_times) != len(aligned.init_times)
        or np.any(indices.init_times.instants != aligned.init_times.instants)
    ):
        raise ValueError("aligned observations do not cover the analog init axis")

    l_ix = np.arange(n_loc)[:, None, None, None]
    j_ix = np.arange(n_lead)[None, None, :, None]
    out = np.empty((len(var_idx), n_loc, n_test, n_lead, m))
    for k, v in enumerate(var_idx):
        gathered = aligned.values[v, l_ix, safe, j_ix]
        out[k] = np.where(filled, gathered, MISSING)

    test_times = TimeAxis(indices.init_times.instants[indices.test_indices])
    return EnsembleTensor(tuple(variables), indices.locations, test_times,
                          indices.lead_times, m, out)
