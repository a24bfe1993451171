"""Predictor-weight search: simplex grid enumeration, the sample locations
of the nearest-neighbor and regime-based spatial strategies, one selection
rule over per-location labels and their sample locations, and the
agglomerative clustering that defines the regimes from an analysis's
location features.

The weight lattice is enumerated in integer parts of 1/step so that every
emitted vector sums to one exactly; clustering uses unweighted average
linkage on Euclidean distance over z-scored features with a fully
deterministic merge order, found with stored nearest neighbours in O(n^2)
typical work. The CSV reports go through ``_atomic.atomic_write_csv`` and
return its digest.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import comb

import numpy as np

from ._atomic import atomic_write_csv
from .coredata import LocationSet


@dataclass(frozen=True)
class WeightGrid:
    """Exhaustive simplex lattice of weight vectors with spacing ``step``."""

    step: float
    n_predictors: int
    exclude_unit_vectors: bool
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.vectors)


def enumerate_weights(n_predictors: int, step: float,
                      exclude_unit_vectors: bool = False) -> WeightGrid:
    """All weight vectors with components on {0, step, 2*step, ...} summing to 1.

    Vectors are emitted in descending lexicographic order, duplicate-free.
    1/step must be integral; with ``exclude_unit_vectors`` the n single-predictor
    vectors are dropped. The count is C(n + 1/step - 1, n - 1), minus n when
    excluding.
    """
    if n_predictors < 1:
        raise ValueError("need at least one predictor")
    if not 0.0 < step <= 1.0:
        raise ValueError("step must be in (0, 1]")
    parts = 1.0 / step
    k = round(parts)
    if abs(parts - k) > 1e-9:
        raise ValueError(f"1/step must be integral, got {parts!r}")

    compositions = []
    partial = [0] * n_predictors

    def fill(pos: int, remaining: int):
        if pos == n_predictors - 1:
            partial[pos] = remaining
            compositions.append(partial.copy())
            return
        for v in range(remaining, -1, -1):
            partial[pos] = v
            fill(pos + 1, remaining - v)

    fill(0, k)
    lattice = np.array(compositions, dtype=float)
    if exclude_unit_vectors:
        keep = ~np.any(lattice == k, axis=1) if n_predictors > 1 else np.ones(len(lattice), bool)
        lattice = lattice[keep]
    vectors = lattice / k
    expected = comb(n_predictors + k - 1, n_predictors - 1)
    if exclude_unit_vectors and n_predictors > 1:
        expected -= n_predictors
    assert len(vectors) == expected
    return WeightGrid(step, n_predictors, exclude_unit_vectors, vectors)


@dataclass(frozen=True)
class RegimeClustering:
    """Location regimes from agglomerative clustering: labels in 1..K plus the
    per-regime centroids in z-scored feature space."""

    labels: np.ndarray
    centroids: np.ndarray
    feature_names: tuple

    @property
    def n_regimes(self) -> int:
        return len(self.centroids)

    def members(self, regime: int) -> np.ndarray:
        return np.flatnonzero(self.labels == regime)

    def write_csv(self, path):
        return atomic_write_csv(path, ["location", "label"],
                                ([loc, int(lab)] for loc, lab in enumerate(self.labels)))


def zscore_features(features: np.ndarray):
    """Z-score feature columns; constant columns are dropped.

    Returns (zscored matrix, kept-column indices).
    """
    f = np.asarray(features, dtype=float)
    if f.ndim != 2:
        raise ValueError("features must be a location x feature matrix")
    if not np.all(np.isfinite(f)):
        raise ValueError("features must be finite")
    std = f.std(axis=0)
    keep = np.flatnonzero(std > 0)
    z = (f[:, keep] - f[:, keep].mean(axis=0)) / std[keep]
    return z, keep


def average_linkage_merges(points: np.ndarray, stop_at: int = 1):
    """Agglomerative merge sequence under unweighted average linkage.

    Starting from singleton clusters, repeatedly joins the pair with the
    smallest average Euclidean distance until ``stop_at`` clusters remain;
    ties between numerically equal distances are broken by the smallest
    positional pair (i, j), and the merged cluster replaces position i while
    position j is removed. Distances are maintained with the Lance-Williams
    update ``(n_i d_i + n_j d_j) / (n_i + n_j)``, whose rounding can separate
    averages that are mathematically tied, so such a tie may go to another
    pair than a direct recomputation of the averages would pick.

    Stored nearest neighbours (Anderberg 1973; the "generic" algorithm of
    Muellner 2011, arXiv:1109.2378): every cluster keeps its slot, a merged
    slot j is set to +inf, and each row r keeps the first minimum over the
    later live slots, ``nn[r]`` and ``best[r]``. Slots keep their positional
    order, so the first ``argmin`` of ``best`` is the smallest positional
    pair. After a merge only row i and the rows whose neighbour was i or j
    are rescanned; any other row r < i takes i when the new d(r, i) is
    smaller than ``best[r]``, or equal with i < ``nn[r]``. That is O(n) array
    work per merge and O(n^2) in all for typical data; a rescan costs O(n),
    so data that sends many rows to one cluster costs more.

    Returns (merges, member lists) where each merge records
    (members of i, members of j, linkage distance) at the time of merging.
    """
    n = len(points)
    if stop_at < 1 or stop_at > n:
        raise ValueError(f"stop_at must be in 1..{n}")
    members = [[i] for i in range(n)]
    sizes = np.ones(n)
    d = np.empty((n, n))
    # 128-row blocks sum each element over the features as one (n, n, F)
    # difference would, without holding that temporary
    for a in range(0, n, 128):
        np.sqrt(((points[a:a + 128, None, :] - points[None]) ** 2).sum(axis=2), out=d[a:a + 128])
    np.fill_diagonal(d, np.inf)
    # each slot's first nearest later slot; the last slot and every merged
    # slot have none (-1 at +inf), so no merge picks or rescans them
    nn = np.array([r + 1 + np.argmin(d[r, r + 1:]) for r in range(n - 1)] + [-1], dtype=np.int64)
    best = d[np.arange(n), nn]
    best[-1] = np.inf
    merges = []
    for _ in range(n - stop_at):
        i = int(np.argmin(best))
        j = int(nn[i])
        merges.append((tuple(members[i]), tuple(members[j]), float(d[i, j])))
        ni, nj = sizes[i], sizes[j]
        # +inf on the diagonal and in merged slots stays +inf in the new row
        row = (ni * d[i] + nj * d[j]) / (ni + nj)
        d[i], d[:, i] = row, row
        d[j], d[:, j] = np.inf, np.inf
        members[i] += members[j]
        members[j] = None
        sizes[i] += sizes[j]
        # row i is among them, as nn[i] == j
        rescan = np.flatnonzero((nn == i) | (nn == j))
        nn[j], best[j] = -1, np.inf
        head = row[:i]
        closer = (head < best[:i]) | ((head == best[:i]) & (i < nn[:i]))
        nn[:i][closer], best[:i][closer] = i, head[closer]
        for r in rescan:
            tail = d[r, r + 1:]
            nn[r] = r + 1 + np.argmin(tail)
            best[r] = d[r, nn[r]]
    return merges, [m for m in members if m is not None]


def hierarchical_cluster(features: np.ndarray, k: int,
                         feature_names=None) -> RegimeClustering:
    """Cut the average-linkage merge tree of the z-scored features at exactly
    k clusters. Labels are 1..k, ordered by each cluster's smallest member."""
    f = np.asarray(features, dtype=float)
    n = len(f)
    if k < 1 or k > n:
        raise ValueError(f"k must be in 1..{n}")
    z, kept = zscore_features(f)
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(f.shape[1]))
    kept_names = tuple(feature_names[i] for i in kept)

    _, members = average_linkage_merges(z if z.size else np.zeros((n, 0)), stop_at=k)
    members = sorted(members, key=min)
    labels = np.zeros(n, dtype=np.int64)
    centroids = np.zeros((k, z.shape[1] if z.size else 0))
    for label, group in enumerate(members, start=1):
        labels[group] = label
        if z.size:
            centroids[label - 1] = z[group].mean(axis=0)
    return RegimeClustering(labels, centroids, kept_names)


REGIME_FEATURES = ("orography", "daily_max_ghi", "daily_max_temperature", "mean_cloud_cover")
# the analysis variable each feature after orography reduces, and whether it
# takes the mean of the variable's daily maxima or of all its values
_REDUCTIONS = {"ghi": True, "temperature": True, "cloud_cover": False}
REGIME_VARIABLES = tuple(_REDUCTIONS)


def _finite_mean(rows: np.ndarray) -> np.ndarray:
    """Each row's mean over its finite values; NaN for a row with none."""
    finite = np.isfinite(rows)
    with np.errstate(invalid="ignore"):
        return np.where(finite, rows, 0.0).sum(axis=1) / finite.sum(axis=1)


def regime_features(locations: LocationSet, valid_times, blocks):
    """``regime_feature_matrix`` of an analysis over ``locations`` and the
    ``TimeAxis`` ``valid_times``, given as ``blocks``: (variable name, rows)
    pairs in file order, each rows array holding the next locations' rows of
    that variable, as ``tensorio.Container.blocks`` yields them. Each
    feature is a reduction over one row, so the result does not depend on
    how the rows are blocked, and only the blocks of the variables in
    ``REGIME_VARIABLES`` are reduced. A variable missing from ``blocks`` is a
    ValueError."""
    instants = valid_times.instants
    # the first time of each day, as the time axis strictly increases
    starts = np.flatnonzero(np.diff((instants - instants[0]) // 86400, prepend=-1))
    parts = {name: [] for name in REGIME_VARIABLES}
    for name, rows in blocks:
        if name in parts:
            daily = np.fmax.reduceat(rows, starts, axis=1) if _REDUCTIONS[name] else rows
            parts[name].append(_finite_mean(daily))
    missing = [name for name, got in parts.items() if not got]
    if missing:
        raise ValueError(f"the analysis lacks the variables {missing}")
    return (np.column_stack([locations.elevation, *(np.concatenate(parts[n]) for n in REGIME_VARIABLES)]),
            REGIME_FEATURES)


def regime_feature_matrix(analysis):
    """Location features for regime clustering: orography, annual daily-max
    GHI, annual daily-max temperature, mean cloud cover, as (location x
    feature matrix, ``REGIME_FEATURES``).

    Missing values are skipped: a day's maximum is over its finite values,
    and a mean over the finite daily maxima or values. A location with no
    finite value of a variable gets NaN for its feature, which
    ``hierarchical_cluster`` refuses. The tensor's own rows go through
    ``regime_features``, one block per variable.
    """
    return regime_features(analysis.locations, analysis.valid_times,
                           zip(analysis.variable_names, analysis.values))


def regime_clustering(analysis, k: int) -> RegimeClustering:
    """The k regimes of the analysis's locations, clustered on
    ``regime_feature_matrix``."""
    feats, names = regime_feature_matrix(analysis)
    return hierarchical_cluster(feats, k, names)


@dataclass(frozen=True)
class SampleAssignment:
    """The nearest-neighbor strategy's tiles: a label per location and one
    sample location per label."""

    sample_of: np.ndarray          # location -> sample id
    representatives: np.ndarray    # sample id -> representative location


def nn_sample_grid(locations: LocationSet, lat_spacing: float = 4.5,
                   lon_spacing: float = 3.5) -> SampleAssignment:
    """Tile the bounding box into lat_spacing x lon_spacing cells; each
    non-empty tile becomes one sample point represented by the member
    location nearest the tile's member centroid."""
    if len(locations) == 0:
        raise ValueError("empty location set")
    lat = locations.latitude
    lon = locations.longitude
    row = np.floor((lat - lat.min()) / lat_spacing).astype(np.int64)
    col = np.floor((lon - lon.min()) / lon_spacing).astype(np.int64)
    tiles = {}
    for loc in range(len(locations)):
        tiles.setdefault((row[loc], col[loc]), []).append(loc)

    sample_of = np.zeros(len(locations), dtype=np.int64)
    reps = []
    for sid, key in enumerate(sorted(tiles)):
        group = tiles[key]
        c_lat = lat[group].mean()
        c_lon = lon[group].mean()
        dist2 = (lat[group] - c_lat) ** 2 + (lon[group] - c_lon) ** 2
        reps.append(group[int(np.argmin(dist2))])
        sample_of[group] = sid
    return SampleAssignment(sample_of, np.array(reps, dtype=np.int64))


def rb_sample_points(clustering: RegimeClustering, total_samples: int,
                     seed: int = 0) -> list:
    """Sample locations per regime, proportional to regime size (minimum one),
    drawn deterministically from a seeded shuffle of each regime's members."""
    if total_samples < 1:
        raise ValueError("total_samples must be >= 1")
    n = len(clustering.labels)
    picked = []
    for regime in range(1, clustering.n_regimes + 1):
        members = clustering.members(regime)
        share = len(members) / n
        count = max(1, round(share * total_samples))
        count = min(count, len(members))
        rng = np.random.default_rng([seed, regime])
        shuffled = members[rng.permutation(len(members))]
        picked.extend(int(loc) for loc in shuffled[:count])
    return picked


def _best_vector(grid: WeightGrid, scores: np.ndarray) -> np.ndarray:
    tied = np.flatnonzero(scores == np.min(scores))
    return grid.vectors[min(tied, key=lambda k: tuple(grid.vectors[k]))]


def optimize_weights(grid: WeightGrid, scores, labels, samples) -> np.ndarray:
    """Select a weight vector per location by exhaustive grid scan.

    ``labels`` gives each location a label and ``samples`` lists sample
    locations. For each label in sorted order, every location with that label
    gets the grid vector minimizing the mean score over the samples carrying
    that label, in the order given: NN labels each location by its tile, with
    the tile's representative as its one sample; RB by its regime, with the
    regime's sample points. A label with no sample location is a ValueError.

    ``scores(vectors, location)`` returns the score of each vector at one
    location, in order, and must be pure. It is called once per sample
    location. Ties go to the lexicographically first vector.
    """
    if len(grid) == 0:
        raise ValueError("empty weight grid")
    labels = np.asarray(labels)
    samples = np.asarray(samples, dtype=np.int64)
    out = np.zeros((len(labels), grid.n_predictors))
    for label in sorted(set(labels.tolist())):  # a first np.unique call adds 1.6 MB of peak RSS
        own = samples[labels[samples] == label]
        if len(own) == 0:
            raise ValueError(f"label {label} has no sample location")
        # one C-contiguous row per vector: numpy sums each row pairwise,
        # as it sums a 1-D array, so a mean equals the mean of the
        # vector's scores taken on their own (axis 0 would sum in order)
        by_vector = np.stack([scores(grid.vectors, int(loc)) for loc in own], axis=1)
        out[labels == label] = _best_vector(grid, by_vector.mean(axis=1))
    return out


def write_weights_csv(path, weights: np.ndarray, predictor_names):
    return atomic_write_csv(path, ["location", *predictor_names],
                            ([loc, *(repr(float(v)) for v in row)] for loc, row in enumerate(weights)))


def read_weights_csv(path, predictor_names=None) -> np.ndarray:
    """The weight rows of a ``write_weights_csv`` file, in location order.

    Raises ValueError unless the location ids are 0..n-1, once each, and,
    when ``predictor_names`` is given, the header names them in that order.
    """
    with open(path, newline="") as fh:
        header, *body = list(csv.reader(fh)) or [[]]
    if predictor_names is not None and header[1:] != list(predictor_names):
        raise ValueError(f"columns {header[1:]} are not the predictors {list(predictor_names)}")
    body = sorted((r for r in body if r), key=lambda r: int(r[0]))
    ids = [int(r[0]) for r in body]
    if ids != list(range(len(body))):
        raise ValueError(f"location ids must be 0..{len(body) - 1}, once each")
    return np.array([[float(v) for v in r[1:]] for r in body])
