"""Predictor-weight search: simplex grid enumeration, the equal-weight /
nearest-neighbor / regime-based spatial strategies, and the agglomerative
clustering that defines the regimes (also reused for module-catalog
clustering).

The weight lattice is enumerated in integer parts of 1/step so that every
emitted vector sums to one exactly; clustering uses unweighted average
linkage on Euclidean distance over z-scored features with a fully
deterministic merge order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import comb

import numpy as np

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
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["location", "label"])
            for loc, lab in enumerate(self.labels):
                out.writerow([loc, int(lab)])


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
    update, whose rounding can separate averages that are mathematically
    tied, so such a tie may go to another pair than a direct recomputation
    of the averages would pick.

    Each merge is one ``argmin`` over the remaining k x k distance matrix
    with the diagonal and lower triangle masked to +inf: its row-major first
    occurrence is the smallest positional pair. A merge costs O(k^2) array
    work and no Python loop, O(n^3) element operations in all.

    Returns (merges, member lists) where each merge records
    (members of i, members of j, linkage distance) at the time of merging.
    """
    n = len(points)
    if stop_at < 1 or stop_at > n:
        raise ValueError(f"stop_at must be in 1..{n}")
    members = [[i] for i in range(n)]
    sizes = np.ones(n)
    if points.size:
        d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    else:
        d = np.zeros((n, n))
    # +inf on and below the diagonal; its leading k x k block masks k clusters
    lower = np.where(np.tri(n, dtype=bool), np.inf, 0.0)
    merges = []
    while len(members) > stop_at:
        k = len(members)
        best_i, best_j = divmod(int(np.argmin(d + lower[:k, :k])), k)
        best_d = d[best_i, best_j]
        merges.append((tuple(members[best_i]), tuple(members[best_j]), float(best_d)))
        ni, nj = sizes[best_i], sizes[best_j]
        row = (ni * d[best_i, :] + nj * d[best_j, :]) / (ni + nj)
        d[best_i, :] = row
        d[:, best_i] = row
        d[best_i, best_i] = 0.0
        keep = np.arange(len(members)) != best_j
        d = d[np.ix_(keep, keep)]
        members[best_i] = members[best_i] + members[best_j]
        sizes[best_i] += sizes[best_j]
        del members[best_j]
        sizes = np.delete(sizes, best_j)
    return merges, members


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


@dataclass(frozen=True)
class SampleAssignment:
    """Per-location sample-point assignment for the nearest-neighbor strategy."""

    sample_of: np.ndarray          # location -> sample id
    representatives: np.ndarray    # sample id -> representative location
    members: tuple                 # sample id -> tuple of member locations

    @property
    def n_samples(self) -> int:
        return len(self.representatives)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["location", "sample"])
            for loc, s in enumerate(self.sample_of):
                out.writerow([loc, int(s)])


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
    member_lists = []
    for sid, key in enumerate(sorted(tiles)):
        group = tiles[key]
        c_lat = lat[group].mean()
        c_lon = lon[group].mean()
        dist2 = (lat[group] - c_lat) ** 2 + (lon[group] - c_lon) ** 2
        reps.append(group[int(np.argmin(dist2))])
        member_lists.append(tuple(group))
        sample_of[group] = sid
    return SampleAssignment(sample_of, np.array(reps, dtype=np.int64), tuple(member_lists))


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


def optimize_weights(grid: WeightGrid, scores, strategy: str, *,
                     n_locations: int | None = None,
                     assignment: SampleAssignment | None = None,
                     clustering: RegimeClustering | None = None,
                     regime_samples=None) -> np.ndarray:
    """Select a weight vector per location by exhaustive grid scan.

    ``scores(vectors, location)`` returns the score of each vector at one
    location, in order, and must be pure. It is called once per sample
    location. Strategies:

    - "EW": the uniform vector everywhere (no evaluation);
    - "NN": per sample point, the grid vector minimizing the score at the
      representative location, broadcast to the tile's members;
    - "RB": per regime, the grid vector minimizing the mean score over the
      regime's sample locations, broadcast to the regime.

    Ties go to the lexicographically first vector.
    """
    if len(grid) == 0:
        raise ValueError("empty weight grid")
    n = grid.n_predictors
    strategy = strategy.upper()

    if strategy == "EW":
        if n_locations is None:
            raise ValueError("EW needs n_locations")
        return np.tile(np.full(n, 1.0 / n), (n_locations, 1))

    if strategy == "NN":
        if assignment is None:
            raise ValueError("NN needs a SampleAssignment")
        out = np.zeros((len(assignment.sample_of), n))
        for sid in range(assignment.n_samples):
            rep = int(assignment.representatives[sid])
            out[list(assignment.members[sid])] = _best_vector(grid, scores(grid.vectors, rep))
        return out

    if strategy == "RB":
        if clustering is None or regime_samples is None:
            raise ValueError("RB needs a RegimeClustering and its sample points")
        out = np.zeros((len(clustering.labels), n))
        samples = np.asarray(regime_samples, dtype=np.int64)
        for regime in range(1, clustering.n_regimes + 1):
            members = clustering.members(regime)
            own = samples[clustering.labels[samples] == regime]
            if len(own) == 0:
                raise ValueError(f"regime {regime} has no sample points")
            # one C-contiguous row per vector: numpy sums each row pairwise,
            # as it sums a 1-D array, so a mean equals the mean of the
            # vector's scores taken on their own (axis 0 would sum in order)
            by_vector = np.stack([scores(grid.vectors, int(loc)) for loc in own], axis=1)
            out[members] = _best_vector(grid, by_vector.mean(axis=1))
        return out

    raise ValueError(f"unknown strategy {strategy!r}")


def write_weights_csv(path, weights: np.ndarray, predictor_names):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["location", *predictor_names])
        for loc, row in enumerate(weights):
            out.writerow([loc, *(repr(float(v)) for v in row)])


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
