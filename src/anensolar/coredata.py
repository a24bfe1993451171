"""Tensor data model: location/time axes, the dense forecast, observation,
and ensemble containers every other module consumes, and the sigma table and
analog index set that the analog search produces.

All values are float64; missing data is encoded as NaN (one sentinel
throughout). Times are UTC epoch seconds; lead times are seconds from
initialization. Tensors are immutable after construction and safe to share
across concurrent readers. Every kind derives from ``_Tensor`` and declares
its axes once, in ``AXES``: the shape check, ``shape``, the location slab
``at_locations`` and ``tensorio``'s file layout all follow them, and so does
``axis_mismatch``, the one rule that says whether two tensors pair: every
command and library function that joins two tensors asks it, never their
array positions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .errors import (
    AxisMonotonicityError,
    DimensionMismatchError,
    DuplicateNameError,
    TensorFormatError,
)

MISSING = float("nan")


class _Owned:
    """An array that nothing else refers to, handed to a tensor constructor.

    ``tensorio.read_tensor`` wraps the array it read a file into, and the
    producers wrap the arrays they fill (``anen``'s search and gather,
    ``pvchain.simulate_ensemble``, ``solar.precompute_solar``,
    ``synth.generate``, ``align_observations``, ``take_locations``), so
    the tensor keeps them without a copy; ``_Tensor.__post_init__`` freezes
    them in place. Every other caller's array is copied, because tensors are
    immutable and the caller keeps its reference.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen_array(values, dtype) -> np.ndarray:
    if isinstance(values, _Owned):
        arr = np.asarray(values.array, dtype=dtype, order="C")
    else:
        arr = np.array(values, dtype=dtype, order="C", copy=True)
    arr.setflags(write=False)
    return arr


def _check_names(names, what: str) -> tuple[str, ...]:
    names = tuple(str(n) for n in names)
    for n in names:
        if not n or any(c.isspace() for c in n):
            raise TensorFormatError(f"invalid {what} name: {n!r}")
    if len(set(names)) != len(names):
        raise DuplicateNameError(f"duplicate {what} names")
    return names


@dataclass(frozen=True)
class LocationSet:
    """Grid points: dense integer ids 0..L-1 with coordinates in degrees."""

    ids: np.ndarray
    latitude: np.ndarray
    longitude: np.ndarray
    elevation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", _frozen_array(self.ids, np.int64))
        for name in ("latitude", "longitude", "elevation"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), np.float64))
        n = len(self.ids)
        if any(len(getattr(self, f)) != n for f in ("latitude", "longitude", "elevation")):
            raise DimensionMismatchError("location fields have differing lengths")
        if not np.array_equal(self.ids, np.arange(n)):
            raise TensorFormatError("location ids must be dense 0..L-1")
        if np.any(self.latitude < -90) or np.any(self.latitude > 90):
            raise TensorFormatError("latitude outside [-90, 90]")
        if np.any(self.longitude < -180) or np.any(self.longitude > 180):
            raise TensorFormatError("longitude outside [-180, 180]")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_coords(cls, latitude, longitude, elevation=None) -> "LocationSet":
        latitude = np.asarray(latitude, dtype=float)
        if elevation is None:
            elevation = np.zeros_like(latitude)
        return cls(np.arange(len(latitude)), latitude, longitude, elevation)

    def take(self, rows) -> "LocationSet":
        """The locations ``rows``, in that order, renumbered from 0."""
        rows = np.asarray(rows, dtype=np.int64)
        return LocationSet.from_coords(self.latitude[rows], self.longitude[rows], self.elevation[rows])


def _check_increasing(values: np.ndarray, what: str):
    if len(values) == 0:
        raise AxisMonotonicityError(f"{what} axis is empty")
    if np.any(np.diff(values) <= 0):
        raise AxisMonotonicityError(f"{what} axis is not strictly increasing")


@dataclass(frozen=True)
class TimeAxis:
    """Strictly increasing UTC epoch seconds. Uniform spacing is not required."""

    instants: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "instants", _frozen_array(self.instants, np.int64))
        _check_increasing(self.instants, "time")

    def __len__(self) -> int:
        return len(self.instants)

    def index_of(self, instant: int) -> int:
        """Position of an exact instant, or -1 when absent."""
        i = int(np.searchsorted(self.instants, instant))
        if i < len(self.instants) and self.instants[i] == instant:
            return i
        return -1


@dataclass(frozen=True)
class LeadTimeAxis:
    """Strictly increasing, non-negative offsets in seconds from initialization."""

    offsets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", _frozen_array(self.offsets, np.int64))
        _check_increasing(self.offsets, "lead-time")
        if self.offsets[0] < 0:
            raise AxisMonotonicityError("lead-time offsets must be non-negative")

    def __len__(self) -> int:
        return len(self.offsets)


def _check_shape(values: np.ndarray, expected: tuple, what: str):
    if values.shape != expected:
        raise DimensionMismatchError(f"{what} has shape {values.shape}, expected {expected}")


def _check_no_inf(values: np.ndarray, what: str):
    # +-inf is neither missing nor a usable value: inf - inf would give a NaN
    # distance that silently drops an analog candidate; fmax/fmin skip NaN, with no mask
    if (np.fmax.reduce(values, axis=None, initial=-np.inf) == np.inf
            or np.fmin.reduce(values, axis=None, initial=np.inf) == -np.inf):
        raise TensorFormatError(f"{what} contains +-inf; encode missing data as NaN")


@dataclass(frozen=True)
class _Tensor:
    """Float64 arrays over declared axes, the base of every tensor kind.

    ``AXES`` names the attributes whose lengths give the shape of each array
    in ``ARRAYS``, in order: a named kind lists its ``*_names`` attribute
    first, and ``members`` counts as a length. Construction checks the names,
    freezes each array (see ``_Owned``) and checks its shape, and a
    ``FINITE`` kind also rejects +-inf. ``tensorio`` lays every kind out on
    disk from the same ``AXES``.
    """

    AXES = ()
    ARRAYS = ("values",)
    FINITE = False

    def __post_init__(self):
        kind = type(self).__name__
        names = self.AXES[0]
        if names.endswith("_names"):
            checked = _check_names(getattr(self, names), names.removesuffix("_names"))
            object.__setattr__(self, names, checked)
        if "members" in self.AXES and self.members < 1:
            raise DimensionMismatchError(f"{kind} must have at least one member")
        for name in self.ARRAYS:
            arr = _frozen_array(getattr(self, name), np.float64)
            object.__setattr__(self, name, arr)
            _check_shape(arr, self.shape, f"{kind}.{name}")
            if self.FINITE:
                _check_no_inf(arr, f"{kind}.{name}")

    @property
    def shape(self) -> tuple:
        return tuple(self.members if a == "members" else len(getattr(self, a)) for a in self.AXES)

    def _name_index(self, name: str) -> int:
        try:
            return getattr(self, self.AXES[0]).index(name)
        except ValueError:
            raise KeyError(name) from None

    def at_locations(self, start: int, stop: int):
        """The same tensor over locations ``start:stop`` alone, renumbered
        from 0; consecutive slabs joined along the location axis give the
        whole back."""
        return self.take_locations(range(start, stop))

    def take_locations(self, rows):
        """The same tensor over the locations ``rows`` alone, in that order,
        renumbered from 0."""
        rows = np.asarray(rows, dtype=np.int64)
        axis = self.AXES.index("locations")
        return replace(self, locations=self.locations.take(rows),
                       **{a: _Owned(np.take(getattr(self, a), rows, axis=axis)) for a in self.ARRAYS})


@dataclass(frozen=True)
class ForecastTensor(_Tensor):
    """Deterministic forecast archive: predictor x location x init x lead."""

    predictor_names: tuple
    locations: LocationSet
    init_times: TimeAxis
    lead_times: LeadTimeAxis
    values: np.ndarray

    AXES = ("predictor_names", "locations", "init_times", "lead_times")
    FINITE = True
    predictor_index = _Tensor._name_index


@dataclass(frozen=True)
class ObservationTensor(_Tensor):
    """Analysis/observation archive: variable x location x valid-time."""

    variable_names: tuple
    locations: LocationSet
    valid_times: TimeAxis
    values: np.ndarray

    AXES = ("variable_names", "locations", "valid_times")
    FINITE = True
    variable_index = _Tensor._name_index


@dataclass(frozen=True)
class EnsembleTensor(_Tensor):
    """Ensemble values: variable x location x init x lead x member."""

    variable_names: tuple
    locations: LocationSet
    init_times: TimeAxis
    lead_times: LeadTimeAxis
    members: int
    values: np.ndarray

    AXES = ("variable_names", "locations", "init_times", "lead_times", "members")
    variable_index = _Tensor._name_index


@dataclass(frozen=True)
class SigmaTensor(_Tensor):
    """Per (predictor, location, lead) standard deviation over the search period."""

    predictor_names: tuple
    locations: LocationSet
    lead_times: LeadTimeAxis
    values: np.ndarray

    AXES = ("predictor_names", "locations", "lead_times")


@dataclass(frozen=True)
class AnalogIndexSet(_Tensor):
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

    AXES = ("locations", "test_indices", "lead_times", "members")
    ARRAYS = ("search_index", "distance")

    def __post_init__(self):
        object.__setattr__(self, "test_indices", _frozen_array(self.test_indices, np.int64))
        super().__post_init__()

    def member_count(self) -> np.ndarray:
        """Stored members per (location, test, lead)."""
        return np.isfinite(self.search_index).sum(axis=-1)


@dataclass(frozen=True)
class AlignedObservations(_Tensor):
    """Observations re-addressed by (init, lead): variable x location x init x lead.

    Element (v, l, i, j) holds the observed value at valid time
    ``init_times[i] + lead_times[j]``, or NaN when that instant is absent
    from the observation axis.
    """

    variable_names: tuple
    locations: LocationSet
    init_times: TimeAxis
    lead_times: LeadTimeAxis
    values: np.ndarray

    AXES = ("variable_names", "locations", "init_times", "lead_times")
    variable_index = _Tensor._name_index


def axis_mismatch(given, reference, axes=None) -> str | None:
    """The first of ``axes`` on which ``given`` differs from ``reference``,
    by length or by an entry, as text naming the axis and the entry; None
    when they pair. A location compares by its id and coordinates, a time or
    lead by its value. ``axes`` defaults to those both kinds declare in
    ``AXES``, names and ``members`` left out; a caller names them where one
    side keeps an axis outside ``AXES`` (an index set's ``init_times``, a
    file header's ``locations``).
    """
    if axes is None:
        axes = [a for a in given.AXES
                if a in reference.AXES and a != "members" and not a.endswith("_names")]
    for axis in axes:
        mine, theirs = getattr(given, axis), getattr(reference, axis)
        if len(mine) != len(theirs):
            return f"{len(mine)} {axis} against {len(theirs)}"
        # an axis is a dataclass of per-entry arrays (LocationSet, TimeAxis,
        # LeadTimeAxis) or an array itself (an index set's test_indices)
        differ = np.logical_or.reduce(
            [getattr(mine, f.name) != getattr(theirs, f.name) for f in fields(mine)]
            if is_dataclass(mine) else [mine != theirs])
        if differ.any():
            return f"{axis} entry {int(np.argmax(differ))} differs"
    return None


def align_observations(
    obs: ObservationTensor, init_times: TimeAxis, lead_times: LeadTimeAxis
) -> AlignedObservations:
    """Index observations by (init, lead) with exact epoch-second matching.

    Total and idempotent: the output shape is fully determined by the inputs,
    and instants absent from the observation axis become NaN rather than an
    error.
    """
    wanted = init_times.instants[:, None] + lead_times.offsets[None, :]
    pos = np.searchsorted(obs.valid_times.instants, wanted)
    pos_clipped = np.minimum(pos, len(obs.valid_times) - 1)
    hit = obs.valid_times.instants[pos_clipped] == wanted
    # take along one axis returns a fresh C-ordered array, masked in place
    out = np.take(obs.values, pos_clipped, axis=2)
    np.copyto(out, MISSING, where=~hit)
    return AlignedObservations(obs.variable_names, obs.locations, init_times, lead_times,
                               _Owned(out))
