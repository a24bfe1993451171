"""Tensor data model: location/time axes and the dense forecast, observation,
and ensemble containers every other module consumes.

All values are float64; missing data is encoded as NaN (one sentinel
throughout). Times are UTC epoch seconds; lead times are seconds from
initialization. Tensors are immutable after construction and safe to share
across concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AxisMonotonicityError,
    DimensionMismatchError,
    DuplicateNameError,
    TensorFormatError,
)

MISSING = float("nan")


def _frozen_array(values, dtype) -> np.ndarray:
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
        raise DimensionMismatchError(
            f"{what} values have shape {values.shape}, expected {expected}"
        )


def _check_no_inf(values: np.ndarray, what: str):
    # +-inf is neither missing nor a usable value: inf - inf would give a NaN
    # distance that silently drops an analog candidate
    if np.isinf(values).any():
        raise TensorFormatError(f"{what} values contain +-inf; encode missing data as NaN")


@dataclass(frozen=True)
class ForecastTensor:
    """Deterministic forecast archive: predictor x location x init x lead."""

    predictor_names: tuple
    locations: LocationSet
    init_times: TimeAxis
    lead_times: LeadTimeAxis
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "predictor_names", _check_names(self.predictor_names, "predictor"))
        object.__setattr__(self, "values", _frozen_array(self.values, np.float64))
        _check_shape(
            self.values,
            (len(self.predictor_names), len(self.locations), len(self.init_times), len(self.lead_times)),
            "forecast",
        )
        _check_no_inf(self.values, "forecast")

    @property
    def shape(self):
        return self.values.shape

    def predictor_index(self, name: str) -> int:
        try:
            return self.predictor_names.index(name)
        except ValueError:
            raise KeyError(name) from None


@dataclass(frozen=True)
class ObservationTensor:
    """Analysis/observation archive: variable x location x valid-time."""

    variable_names: tuple
    locations: LocationSet
    valid_times: TimeAxis
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "variable_names", _check_names(self.variable_names, "variable"))
        object.__setattr__(self, "values", _frozen_array(self.values, np.float64))
        _check_shape(
            self.values,
            (len(self.variable_names), len(self.locations), len(self.valid_times)),
            "observation",
        )
        _check_no_inf(self.values, "observation")

    @property
    def shape(self):
        return self.values.shape

    def variable_index(self, name: str) -> int:
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise KeyError(name) from None


@dataclass(frozen=True)
class EnsembleTensor:
    """Ensemble values: variable x location x init x lead x member."""

    variable_names: tuple
    locations: LocationSet
    init_times: TimeAxis
    lead_times: LeadTimeAxis
    members: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "variable_names", _check_names(self.variable_names, "variable"))
        object.__setattr__(self, "values", _frozen_array(self.values, np.float64))
        if self.members < 1:
            raise DimensionMismatchError("ensemble must have at least one member")
        _check_shape(
            self.values,
            (
                len(self.variable_names),
                len(self.locations),
                len(self.init_times),
                len(self.lead_times),
                self.members,
            ),
            "ensemble",
        )

    @property
    def shape(self):
        return self.values.shape

    def variable_index(self, name: str) -> int:
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise KeyError(name) from None


@dataclass(frozen=True)
class AlignedObservations:
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

    def __post_init__(self):
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        object.__setattr__(self, "values", _frozen_array(self.values, np.float64))
        _check_shape(
            self.values,
            (len(self.variable_names), len(self.locations), len(self.init_times), len(self.lead_times)),
            "aligned-observation",
        )

    def variable_index(self, name: str) -> int:
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise KeyError(name) from None


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
    gathered = obs.values[:, :, pos_clipped]
    out = np.where(hit[None, None, :, :], gathered, MISSING)
    return AlignedObservations(obs.variable_names, obs.locations, init_times, lead_times, out)
