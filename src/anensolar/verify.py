"""Skill metrics (RMSE, bias, CRPS, ensemble spread), solar-noon lead-time
alignment, grouped aggregation, and paired significance testing.

Bias is mean(pred - truth), so under-prediction is negative. Night cells
(cache zenith >= 90 degrees) are excluded from every metric. Truth is
expected to be power simulated from the analysis through the identical
simulation chain; the reporting helpers make no attempt to verify against
anything else.

Grouped verification is two steps: ``CellFields.put`` scores a slab of
locations into four (L, I, J) fields (validity, mean error, CRPS, spread),
and ``group_cells`` reduces the fields to a report. Every cell's scores
depend on that cell alone, so the ``verify`` command puts one location at a
time, holding the fields and one location's rows, and its report equals the
one ``aggregate`` gives on the whole field.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._atomic import atomic_write_csv
from .coredata import TimeAxis
from .errors import EmptySeriesError
from .solar import SolarCacheTable

SEASON_OF_MONTH = {12: "DJF", 1: "DJF", 2: "DJF",
                   3: "MAM", 4: "MAM", 5: "MAM",
                   6: "JJA", 7: "JJA", 8: "JJA",
                   9: "SON", 10: "SON", 11: "SON"}

NOON_SLOT = 12  # the lead slot each location's solar noon is aligned to
DAYPART_SLOTS = {"morning": (8, 10), "noon": (11, 13), "afternoon": (14, 16)}

# every grouping name the report accepts -> the grouping it selects
GROUPINGS = {"lead-time": "lead", "lead_time": "lead",
             **{g: g for g in ("lead", "location", "region", "season", "daypart")}}


def _paired(pred, truth):
    pred = np.asarray(pred, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if pred.shape != truth.shape:
        raise ValueError("series lengths differ")
    keep = np.isfinite(pred) & np.isfinite(truth)
    if not keep.any():
        raise EmptySeriesError("no finite pairs after dropping missing values")
    return pred[keep], truth[keep]


def rmse(pred, truth) -> float:
    """Root-mean-square error over finite pairs."""
    p, t = _paired(pred, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def bias(pred, truth) -> float:
    """Mean error, mean(pred - truth); negative means under-prediction."""
    p, t = _paired(pred, truth)
    return float(np.mean(p - t))


def crps(ensemble, truth: float) -> float:
    """Empirical continuous ranked probability score of one ensemble: the
    one-cell case of ``crps_field``. A single-member ensemble reduces to the
    absolute error.
    """
    x = np.asarray(ensemble, dtype=float).ravel()
    if x.size == 0:
        raise EmptySeriesError("ensemble has no members")
    return float(crps_field(x, truth))


def crps_field(ensemble: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Empirical CRPS over the trailing member axis; NaN where the truth or
    any member is missing.

    With the members sorted, x_(1) <= ... <= x_(M), the pairwise form
    (1/M) sum_i |x_i - y| - (1/(2 M^2)) sum_ij |x_i - x_j| equals

        (1/M) sum_k |x_(k) - y| - (1/M^2) sum_k (2k - M - 1) x_(k)

    (Hersbach 2000; Gneiting and Raftery 2007), which costs O(M log M) time
    and O(M) memory per cell instead of O(M^2). Both sums run over the sorted
    members left to right in k, one elementwise operation per k, so a cell's
    value depends only on the multiset of its members and its truth: not on
    member order, nor on the leading shape of the call.
    """
    x = np.sort(np.asarray(ensemble, dtype=float), axis=-1)
    y = np.asarray(truth, dtype=float)
    m = x.shape[-1]
    term1 = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape))
    term2 = np.zeros_like(term1)
    for k in range(m):
        term1 += np.abs(x[..., k] - y)
        term2 += (2 * k + 1 - m) * x[..., k]
    return term1 / m - term2 / (m * m)


def spread_field(ensemble: np.ndarray) -> np.ndarray:
    """Ensemble standard deviation (population) over the trailing member axis."""
    return np.asarray(ensemble, dtype=float).std(axis=-1)


@dataclass(frozen=True)
class SolarNoonAlignment:
    """Per-location lead remapping that puts the local solar noon at ``NOON_SLOT``.

    ``offsets[l]`` is how many lead steps location l's noon sits after that
    slot; a lead index j maps to slot ``j - offsets[l]``. The remapping is a
    pure shift, so relative lead ordering is preserved.
    """

    offsets: np.ndarray

    def slots(self, n_leads: int) -> np.ndarray:
        """Slot of every (location, lead) pair, shape (L, n_leads)."""
        return np.arange(n_leads)[None, :] - self.offsets[:, None]


def align_solar_noon(cache: SolarCacheTable) -> SolarNoonAlignment:
    """Find each location's minimum-mean-zenith lead and shift it to slot ``NOON_SLOT``."""
    if cache.apparent_zenith.size == 0:
        raise ValueError("solar cache is empty")
    mean_zenith = cache.apparent_zenith.mean(axis=1)  # (L, J)
    noon_lead = np.argmin(mean_zenith, axis=1)
    return SolarNoonAlignment(noon_lead - NOON_SLOT)


@dataclass(frozen=True)
class ReportRow:
    group: object
    rmse: float
    bias: float
    crps: float
    spread: float
    count: int


@dataclass(frozen=True)
class VerifyReport:
    grouping: str
    rows: tuple

    def to_csv(self, path):
        """Write the report atomically; returns the file's SHA-256 hex digest."""
        return atomic_write_csv(path, ["group", "rmse", "bias", "crps", "spread", "count"],
                                ([r.group, repr(r.rmse), repr(r.bias), repr(r.crps),
                                  repr(r.spread), r.count] for r in self.rows))

    def by_group(self) -> dict:
        return {r.group: r for r in self.rows}


def _month_of(epoch_seconds: np.ndarray) -> np.ndarray:
    t = np.asarray(epoch_seconds, dtype="int64").astype("datetime64[s]")
    return t.astype("datetime64[M]").astype(int) % 12 + 1


def _group_codes(keys, shape):
    """Group labels in report order and the code of every key, reshaped to
    ``shape``: a key's position among the labels, or -1 for a None key."""
    labels = sorted({k for k in keys if k is not None}, key=lambda v: (str(type(v)), v))
    index = {k: code for code, k in enumerate(labels)}
    return labels, np.array([index.get(k, -1) for k in keys], dtype=np.int64).reshape(shape)


class CellFields(NamedTuple):
    """The per-cell scores of a power field over (L, I, J): ``valid`` marks
    the cells that count (in daylight, with a finite truth and every member
    finite), ``error`` is the member mean less the truth, and ``crps`` and
    ``spread`` come from ``crps_field`` and ``spread_field``. Each cell's
    scores depend on that cell alone, so fields put one location slab at a
    time equal those of the whole field, bit for bit."""

    valid: np.ndarray
    error: np.ndarray
    crps: np.ndarray
    spread: np.ndarray

    @classmethod
    def empty(cls, shape) -> "CellFields":
        """Fields of ``shape`` (L, I, J), every cell invalid until put."""
        return cls(np.zeros(shape, dtype=bool), *(np.empty(shape) for _ in range(3)))

    def put(self, start: int, ensemble, truth, daylight=None) -> "CellFields":
        """Score the slab of locations ``start`` onward, ``ensemble`` (l, I,
        J, M), or (l, I, J) for a deterministic field, against ``truth`` (l,
        I, J), and write its cells; cells outside ``daylight`` do not count.
        Returns the fields."""
        ens = np.asarray(ensemble, dtype=float)
        if ens.ndim == 3:
            ens = ens[..., None]
        tru = np.asarray(truth, dtype=float)
        cells = slice(start, start + len(tru))
        valid = np.isfinite(tru) & np.all(np.isfinite(ens), axis=-1)
        if daylight is not None:
            valid &= daylight
        self.valid[cells] = valid
        np.subtract(ens.mean(axis=-1), tru, out=self.error[cells])
        self.crps[cells] = crps_field(ens, tru)
        self.spread[cells] = spread_field(ens)
        return self


def aggregate(ensemble: np.ndarray, truth: np.ndarray, grouping: str, *,
              init_times: TimeAxis | None = None,
              alignment: SolarNoonAlignment | None = None,
              daylight: np.ndarray | None = None,
              region_map: dict | None = None) -> VerifyReport:
    """Grouped verification of an ensemble (or deterministic) power field.

    ``ensemble`` is (L, I, J, M) (a trailing member axis of one is added for
    deterministic input) and ``truth`` is (L, I, J). The field is scored
    whole (``CellFields.put``) and grouped by ``group_cells``; ``verify``
    puts one location slab at a time into the same fields instead, and
    groups them the same way.
    """
    fields = CellFields.empty(np.shape(truth)).put(0, ensemble, truth, daylight)
    return group_cells(fields, grouping, init_times=init_times, alignment=alignment, region_map=region_map)


def group_cells(fields: CellFields, grouping: str, *,
                init_times: TimeAxis | None = None,
                alignment: SolarNoonAlignment | None = None,
                region_map: dict | None = None) -> VerifyReport:
    """The report of ``fields`` grouped by ``grouping``. Keys: "lead"
    (solar-aligned slot when an alignment is given), "location", "region"
    (requires region_map; unmapped locations are excluded), "season" (DJF/
    MAM/JJA/SON from the init time), "daypart" (aligned slots 8-10, 11-13,
    14-16). Only valid cells count. Group metrics recombine: bias, CRPS,
    spread, and squared RMSE are count-weighted means.
    """
    if grouping not in GROUPINGS:
        raise ValueError(f"unknown grouping key {grouping!r}")
    grouping = GROUPINGS[grouping]
    valid = fields.valid
    n_loc, n_init, n_lead = valid.shape

    if grouping in ("lead", "daypart"):
        if alignment is not None:
            slots = alignment.slots(n_lead).ravel().tolist()
        else:
            slots = list(range(n_lead)) * n_loc
        if grouping == "daypart":
            slots = [next((part for part, (lo, hi) in DAYPART_SLOTS.items() if lo <= slot <= hi), None)
                     for slot in slots]
        labels, codes = _group_codes(slots, (n_loc, 1, n_lead))
    elif grouping == "location":
        labels, codes = _group_codes(range(n_loc), (n_loc, 1, 1))
    elif grouping == "region":
        if region_map is None:
            raise ValueError("region grouping needs a region map")
        labels, codes = _group_codes([region_map.get(l) for l in range(n_loc)], (n_loc, 1, 1))
    else:  # season
        if init_times is None:
            raise ValueError("season grouping needs init_times")
        months = _month_of(init_times.instants).tolist()
        labels, codes = _group_codes([SEASON_OF_MONTH[m] for m in months], (1, n_init, 1))

    # valid cells of each group, in flat order; a group's mean then adds the
    # same values in the same order as a per-cell scan would
    codes = np.broadcast_to(codes, valid.shape).ravel()
    cells = np.flatnonzero(valid.ravel() & (codes >= 0))
    cells = cells[np.argsort(codes[cells], kind="stable")]
    groups = np.split(cells, np.flatnonzero(np.diff(codes[cells])) + 1) if cells.size else []

    rows = []
    e2 = (fields.error ** 2).ravel()
    b = fields.error.ravel()
    c = fields.crps.ravel()
    s = fields.spread.ravel()
    for sel in groups:
        rows.append(ReportRow(
            group=labels[codes[sel[0]]],
            rmse=float(np.sqrt(e2[sel].mean())),
            bias=float(b[sel].mean()),
            crps=float(c[sel].mean()),
            spread=float(s[sel].mean()),
            count=int(sel.size),
        ))
    return VerifyReport(grouping, tuple(rows))


def paired_significance(errors_a, errors_b, level: float = 0.05):
    """Two-sided paired Wilcoxon signed-rank test on squared-error differences.

    Returns (significant, p_value). Requires at least eight pairs; identical
    samples yield (False, 1.0).
    """
    a = np.asarray(errors_a, dtype=float).ravel()
    b = np.asarray(errors_b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    keep = np.isfinite(a) & np.isfinite(b)
    a, b = a[keep], b[keep]
    if a.size < 8:
        raise ValueError("need at least 8 paired samples")
    diff = a**2 - b**2
    if np.all(diff == 0.0):
        return False, 1.0
    from scipy import stats  # imported here so that loading the CLI does not load scipy

    result = stats.wilcoxon(diff, alternative="two-sided")
    p = float(result.pvalue)
    return p < level, p


def read_region_map(path) -> dict:
    """Two-column CSV (location, region) -> {location id: region label}.

    A first row whose location is not an integer is the header; a later row
    without a region is skipped. A blank first row, or a later location that
    is not an integer, raises ValueError naming the row.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and not rows[0]:
        raise ValueError("row 1 is blank; need a header or a location,region row")
    first = 1 if rows and not rows[0][0].lstrip("-").isdigit() else 0
    regions = {}
    for number, r in enumerate(rows[first:], start=first + 1):
        if len(r) >= 2 and r[1]:
            try:
                regions[int(r[0])] = r[1]
            except ValueError:
                raise ValueError(f"row {number}: location {r[0]!r} is not an integer") from None
    return regions
