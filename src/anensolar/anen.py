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
locations. The spread table and the member lists it produces,
``SigmaTensor`` and ``AnalogIndexSet``, are tensors of ``coredata``, written
and read like every other container kind.

``search_analogs`` scores each location in one pass over all of its leads,
in blocks of test inits sized so that one (rows, n_lead, n_cand) float64
buffer holds about ``BLOCK_BYTES``; three such buffers, allocated once per
call, bound its working memory whatever the number of test inits. Per
predictor it squares the differences for every lead at once, builds each
lead's window sum by adding shifted lead slabs left to right, and adds the
scaled square roots into the total in predictor order: the same operations in
the same order as the scalar ``similarity``, so distances match it bit for
bit. With missing target terms zeroed, a NaN total marks exactly a
disqualified candidate.

``SearchTables`` serves the weight objective in ``driver`` with the same
steps: it keeps one location's split, sigma and window roots at the (test
init, lead) rows the objective scores, and ``SearchTables.members``
re-weights them per vector and returns the top-M cells unordered, so only
this module applies the distance rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coredata import (
    MISSING,
    AlignedObservations,
    AnalogIndexSet,
    EnsembleTensor,
    ForecastTensor,
    SigmaTensor,
    TimeAxis,
    _Owned,
    axis_mismatch,
)
from .errors import DimensionMismatchError, InsufficientCandidatesError


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


def similarity(forecasts: ForecastTensor, location: int, target_init: int,
               candidate_init: int, lead: int, sigma: SigmaTensor,
               config: AnEnConfig) -> float:
    """Distance between the target and one candidate at a (location, lead) cell.

    Scalar reference path of the metric; ``search_analogs`` evaluates the same
    quantity vectorized. Returns inf when the candidate is disqualified by a
    missing needed value.
    """
    hw, n_leads = config.half_window, len(forecasts.lead_times)
    weights = config.weights if config.weights.ndim == 1 else config.weights[location]
    total = 0.0
    for p in range(len(forecasts.predictor_names)):
        w = weights[p]
        s = sigma.values[p, location, lead]
        if w == 0.0 or not np.isfinite(s) or s < config.sigma_epsilon:
            continue
        acc = 0.0
        for j in range(max(0, lead - hw), min(n_leads - 1, lead + hw) + 1):
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


# Bytes of one (rows, n_lead, n_cand) float64 work buffer of search_analogs,
# which holds three: 1.5 MiB in all, small enough to stay in a 2 MiB L2
# cache while they are reused.
BLOCK_BYTES = 1 << 19


def _window_sums(d2, acc, half_window):
    """Window sums over the lead axis of a (rows, n_lead, n_cand) block.

    ``acc[:, l]`` becomes ``d2[:, lo] + d2[:, lo + 1] + ... + d2[:, hi]`` over
    the clipped window of lead l, added left to right exactly as the scalar
    metric adds them, so the sums match it bit for bit.
    """
    n = d2.shape[1]
    if half_window == 0 or n == 1:
        return d2  # one-term windows
    # first two terms of each window: lead max(0, l - hw) and the next one
    if half_window < n:
        np.add(d2[:, : n - half_window], d2[:, 1 : n - half_window + 1], out=acc[:, half_window:])
    np.add(d2[:, :1], d2[:, 1:2], out=acc[:, : min(half_window, n)])
    # later terms, in order of offset k: lead l + k wherever it lies in
    # 2 .. n-1 (leads 0 and 1 only ever open a window)
    for k in range(max(2 - half_window, 3 - n), min(half_window, n - 1) + 1):
        lo, hi = max(0, 2 - k), min(n, n - k)
        acc[:, lo:hi] += d2[:, lo + k : hi + k]
    return acc


def _top_mask(dist, members):
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
    cols = np.nonzero(_top_mask(dist, members))[1].reshape(len(dist), min(members, dist.shape[1]))
    values = np.take_along_axis(dist, cols, axis=1)
    order = np.argsort(values, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(values, order, axis=1)


def _check_split(test_range, search_range, n_init: int, operational: bool):
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


def _active_scale(weights, sigma_values, sigma_epsilon):
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


def _window_roots(target, cand_t, half_window, d2, acc):
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


def _add_scaled(total, roots, scale, on, out):
    """``total += roots * scale`` where ``on`` is set.

    ``total`` and ``roots`` are (rows, J, C) blocks of the search or (rows,
    C) tables of ``SearchTables``; ``scale`` (``w / sigma``) and ``on``
    (whether the predictor counts) index the axis before the candidates:
    each lead of a block, or each row of a table. ``out`` is a buffer of the
    same shape for the product and may be ``roots`` itself.
    """
    where = True if on.all() else on[:, None]
    np.multiply(roots, scale[:, None], out=out, where=where)
    np.add(total, out, out=total, where=where)


def _disqualify(total, init, cand_start, operational):
    """Set to +inf, in place, every entry of a distance total, (rows, J, C)
    or (rows, C), that no member may take: a disqualified (NaN) distance
    and, in operational mode, every candidate at or after the row's test
    init ``init[row]`` (all of them for a test init before the pool). Rows
    of one init must be adjacent. Returns ``total``."""
    total[np.isnan(total)] = np.inf
    if operational:
        # one slice per run of rows that share a test init (inits are >= 0)
        first = np.flatnonzero(np.diff(init, prepend=-1)).tolist()
        for a, b in zip(first, first[1:] + [len(init)]):
            total[a:b, ..., max(0, init[a] - cand_start) :] = np.inf
    return total


def _require_members(found, members, location, first_row):
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
                   search_range, sigma: SigmaTensor | None = None,
                   first_location: int = 0) -> AnalogIndexSet:
    """Find the M nearest historical forecasts per (location, test init, lead).

    ``test_range`` and ``search_range`` are half-open init-index intervals and
    must be disjoint unless ``config.operational`` is set; in operational mode
    the candidate pool for test init t is every init from the start of the
    search range up to (excluding) t, so the repository grows as the test
    period advances. Ties are broken by earlier candidate init time. Sigma is
    computed once over the base search range (also in operational mode)
    unless a precomputed table is supplied.

    Raises InsufficientCandidatesError when fewer than M finite-distance
    candidates exist and partial lists are not allowed. The error names the
    location by its index plus ``first_location``: the index in the archive
    of the first location of ``forecasts``, where they are a slab of it.
    """
    test, search, cand = _check_split(test_range, search_range, len(forecasts.init_times),
                                      config.operational)
    validate_weights(config.weights, len(forecasts.predictor_names), len(forecasts.locations))

    if sigma is None:
        sigma = compute_sigma(forecasts, search)

    values = forecasts.values
    n_pred, n_loc, _, n_lead = values.shape
    n_test = len(test)
    m = config.members
    n_cand = cand.stop - cand.start
    active, scale = _active_scale(config.weights, sigma.values, config.sigma_epsilon)

    rows = min(n_test, max(1, BLOCK_BYTES // (8 * n_lead * n_cand)))
    buffers = [np.empty(rows * n_lead * n_cand) for _ in range(3)]
    out_idx = np.full((n_loc, n_test, n_lead, m), MISSING)
    out_dist = np.full((n_loc, n_test, n_lead, m), MISSING)
    found = np.empty((n_test, n_lead), dtype=np.int64)

    for loc in range(n_loc):
        preds = [p for p in range(n_pred) if active[p, loc].any()]
        cand_t = {p: np.ascontiguousarray(values[p, loc, cand].T) for p in preds}  # (J, C)
        for r0 in range(0, n_test, rows):
            r1 = min(r0 + rows, n_test)
            init = np.arange(test.start + r0, test.start + r1)
            # in operational mode no row takes a candidate at or after the
            # block's last init: score only the columns before it
            width = min(n_cand, max(0, init[-1] - cand.start)) if config.operational else n_cand
            shape = (r1 - r0, n_lead, width)
            blk_d2, blk_acc, blk_total = (b[: np.prod(shape)].reshape(shape) for b in buffers)
            blk_total.fill(0.0)
            for p in preds:
                target = values[p, loc, test.start + r0 : test.start + r1]  # (rows, J)
                roots = _window_roots(target, cand_t[p][:, :width], config.half_window,
                                      blk_d2, blk_acc)
                _add_scaled(blk_total, roots, scale[p, loc], active[p, loc], roots)
            dist = _disqualify(blk_total, init, cand.start, config.operational)
            cols, dist = _top_members(dist.reshape((r1 - r0) * n_lead, width), m)
            ok = np.isfinite(dist)
            take = cols.shape[1]
            shape = (r1 - r0, n_lead, take)
            out_idx[loc, r0:r1, :, :take] = np.where(ok, cols + cand.start, MISSING).reshape(shape)
            out_dist[loc, r0:r1, :, :take] = np.where(ok, dist, MISSING).reshape(shape)
            found[r0:r1] = ok.sum(axis=1).reshape(r1 - r0, n_lead)
        if not config.allow_partial:
            _require_members(found, m, first_location + loc, test.start)

    return AnalogIndexSet(forecasts.locations, forecasts.init_times, np.arange(test.start, test.stop),
                          forecasts.lead_times, m, _Owned(out_idx), _Owned(out_dist))


class SearchTables:
    """The weight-independent half of ``search_analogs`` at one location,
    kept at a set of (test init, lead) cells, the rows: the split (``test``,
    ``cand``), sigma, the (T, J, C) ``shape`` of the whole distance table
    (test inits, leads, candidates), each row's flat cell ``t * J + j`` in
    ``cells`` (ascending), its test init and lead, and, per predictor usable
    at some lead, a read-only (rows, C) table of its window roots from the
    search kernel.

    With no ``mask`` the rows are all T * J cells. A (T, J) ``mask`` keeps
    the cells where it is set, unless a cell it drops could go short: one
    that, with every usable predictor active and the operational cut, keeps
    fewer than M candidates with finite roots, which some vector would raise
    for. Then every cell is kept, so ``members`` raises naming the same cell
    as the search. Short lists are allowed with ``allow_partial``, so it
    drops what the mask drops."""

    def __init__(self, forecasts: ForecastTensor, config: AnEnConfig, test_range, search_range,
                 mask=None):
        if len(forecasts.locations) != 1:
            raise ValueError("search tables hold one location")
        self.config = config
        self.test, search, self.cand = _check_split(test_range, search_range,
                                                    len(forecasts.init_times), config.operational)
        self.sigma = compute_sigma(forecasts, search).values  # (N, 1, J)
        self.shape = n_test, n_lead, n_cand = (len(self.test), len(forecasts.lead_times),
                                               self.cand.stop - self.cand.start)
        usable = np.isfinite(self.sigma[:, 0]) & (self.sigma[:, 0] >= config.sigma_epsilon)
        roots = {}  # predictor -> window roots of every cell, in predictor order
        for p in np.flatnonzero(usable.any(axis=1)):
            values = forecasts.values[p, 0]
            table = _window_roots(values[self.test.start : self.test.stop],
                                  np.ascontiguousarray(values[self.cand].T), config.half_window,
                                  np.empty(self.shape), np.empty(self.shape))
            roots[int(p)] = table.reshape(-1, n_cand)
        self.cells = np.arange(n_test * n_lead)
        if mask is not None:
            kept = np.asarray(mask, dtype=bool).reshape(-1)
            if config.allow_partial or not self._can_go_short(roots, usable, self.cells[~kept]):
                self.cells = self.cells[kept]
        self.init, self.lead = np.divmod(self.cells, n_lead)
        self.init += self.test.start
        self.roots = {}
        for p in list(roots):  # each whole table is freed once its rows are copied
            self.roots[p] = roots.pop(p)[self.cells]
            self.roots[p].setflags(write=False)

    def _can_go_short(self, roots, usable, cells) -> bool:
        """Whether some vector could leave one of ``cells`` with fewer than M
        finite distances: at worst every predictor ``usable`` (N, J) at the
        cell's lead counts, and a candidate is lost where one of them has a
        root that is not finite or the operational cut falls."""
        init, lead = np.divmod(cells, self.shape[1])
        lost = np.zeros((len(cells), self.shape[2]), dtype=bool)
        for p, table in roots.items():
            lost |= ~np.isfinite(table[cells]) & usable[p, lead][:, None]
        if self.config.operational:
            lost |= np.arange(self.shape[2]) >= (self.test.start + init - self.cand.start)[:, None]
        return bool(np.any(self.shape[2] - lost.sum(axis=1) < self.config.members))

    def members(self, weights, location: int):
        """The members ``search_analogs`` finds with ``weights``, row by row:
        flat indices into the (rows, C) distances of the min(M, C) cells each
        row takes, in candidate order, and the mask of those that are finite.
        Short lists raise as in the search, naming ``location``, unless
        allowed."""
        cfg = self.config
        w = validate_weights(weights, len(self.sigma), 1)
        active, scale = _active_scale(w, self.sigma, cfg.sigma_epsilon)
        total = np.zeros((len(self.cells), self.shape[2]))
        product = np.empty_like(total)
        for p, roots in self.roots.items():
            if active[p, 0].any():
                _add_scaled(total, roots, scale[p, 0, self.lead], active[p, 0, self.lead], product)
        dist = _disqualify(total, self.init, self.cand.start, cfg.operational)
        chosen = np.flatnonzero(_top_mask(dist, cfg.members))
        ok = np.isfinite(dist.take(chosen)).reshape(len(dist), min(cfg.members, dist.shape[1]))
        if not cfg.allow_partial:
            found = np.full(self.shape[:2], cfg.members)  # the cells dropped cannot go short
            found.flat[self.cells] = ok.sum(axis=1)
            _require_members(found, cfg.members, location, self.test.start)
        return chosen, ok


def build_multivariate_ensemble(indices: AnalogIndexSet, aligned: AlignedObservations) -> EnsembleTensor:
    """The shared-analog multivariate ensemble of every variable of
    ``aligned``: one index set serves them all.

    Member m of variable v at (l, i, j) is the aligned observation of v at
    (l, search_init of member m, j). Missing observations and unfilled
    member slots are NaN members. Observations off the analogs' locations,
    init or lead times raise ``DimensionMismatchError``, and an analog off the
    init axis ``ValueError``.
    """
    if mismatch := axis_mismatch(aligned, indices, ("locations", "init_times", "lead_times")):
        raise DimensionMismatchError(f"aligned observations do not pair with the analogs: {mismatch}")
    src = indices.search_index
    n_loc, _, n_lead, _ = src.shape
    n_init = len(aligned.init_times)
    filled = np.isfinite(src)
    cells = np.zeros(src.shape, dtype=np.int64)  # each member's init; an unfilled slot reads init 0
    np.copyto(cells, src, casting="unsafe", where=filled)
    if cells.min(initial=0) < 0 or cells.max(initial=0) >= n_init:
        raise ValueError("an analog lies outside the init axis")
    # then, in place, its cell in a variable's flat (location, init, lead) block
    cells += n_init * np.arange(n_loc)[:, None, None, None]
    cells *= n_lead
    cells += np.arange(n_lead)[:, None]
    out = np.take(aligned.values.reshape(len(aligned.values), -1), cells, axis=1)
    out[:, ~filled] = MISSING
    return EnsembleTensor(aligned.variable_names, indices.locations,
                          TimeAxis(indices.init_times.instants[indices.test_indices]),
                          indices.lead_times, indices.members, _Owned(out))
