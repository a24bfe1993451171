import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anensolar.coredata import (
    AlignedObservations,
    AnalogIndexSet,
    EnsembleTensor,
    ForecastTensor,
    LeadTimeAxis,
    LocationSet,
    ObservationTensor,
    SigmaTensor,
    TimeAxis,
    _check_no_inf,
    align_observations,
    axis_mismatch,
)
from anensolar.errors import (
    AxisMonotonicityError,
    DimensionMismatchError,
    DuplicateNameError,
    TensorFormatError,
)
from anensolar.solar import SolarCacheTable, precompute_solar

from conftest import make_forecast, make_locations, make_observation
from oracles import lookup_aligned


class TestLocationSet:
    def test_dense_ids_required(self):
        with pytest.raises(TensorFormatError):
            LocationSet(np.array([0, 2]), np.zeros(2), np.zeros(2), np.zeros(2))

    def test_latitude_range_checked(self):
        with pytest.raises(TensorFormatError):
            LocationSet.from_coords([91.0], [0.0])

    def test_longitude_range_checked(self):
        with pytest.raises(TensorFormatError):
            LocationSet.from_coords([0.0], [-181.0])

    def test_from_coords(self):
        locs = LocationSet.from_coords([10.0, 20.0], [30.0, 40.0])
        assert len(locs) == 2
        assert locs.elevation.tolist() == [0.0, 0.0]


class TestAxes:
    def test_time_axis_strictly_increasing(self):
        with pytest.raises(AxisMonotonicityError):
            TimeAxis([0, 0, 1])
        with pytest.raises(AxisMonotonicityError):
            TimeAxis([3, 2, 1])

    def test_lead_axis_non_negative(self):
        with pytest.raises(AxisMonotonicityError):
            LeadTimeAxis([-3600, 0])

    def test_uniform_spacing_not_required(self):
        axis = TimeAxis([0, 3600, 4000, 90000])
        assert len(axis) == 4

    def test_index_of(self):
        axis = TimeAxis([10, 20, 30])
        assert axis.index_of(20) == 1
        assert axis.index_of(25) == -1
        assert axis.index_of(31) == -1


class TestTensors:
    def test_shape_enforced(self):
        locs = make_locations(2)
        with pytest.raises(DimensionMismatchError):
            ForecastTensor(("a",), locs, TimeAxis([0]), LeadTimeAxis([0]), np.zeros((1, 2, 1, 2)))

    def test_duplicate_predictor_names(self):
        locs = make_locations(1)
        with pytest.raises(DuplicateNameError):
            ForecastTensor(("a", "a"), locs, TimeAxis([0]), LeadTimeAxis([0]), np.zeros((2, 1, 1, 1)))

    def test_values_immutable_after_load(self):
        fc = make_forecast()
        with pytest.raises(ValueError):
            fc.values[0, 0, 0, 0] = 99.0

    def test_out_of_shape_access_fails(self):
        fc = make_forecast(n_pred=2, n_loc=2, n_init=6, n_lead=4)
        with pytest.raises(IndexError):
            fc.values[2, 0, 0, 0]
        with pytest.raises(IndexError):
            fc.values[0, 0, 6, 0]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_values_rejected(self, bad):
        fc = make_forecast()
        values = fc.values.copy()
        values[1, 0, 2, 3] = bad
        with pytest.raises(TensorFormatError, match="inf"):
            ForecastTensor(fc.predictor_names, fc.locations, fc.init_times, fc.lead_times, values)
        obs = make_observation()
        values = obs.values.copy()
        values[0, 1, 5] = bad
        with pytest.raises(TensorFormatError, match="inf"):
            ObservationTensor(obs.variable_names, obs.locations, obs.valid_times, values)

    def test_inf_check_allocates_no_mask(self):
        import tracemalloc

        values = np.random.default_rng(0).normal(size=(2, 10, 500, 100))
        values[0, 3, 7] = np.nan
        tracemalloc.start()
        try:
            _check_no_inf(values, "forecast")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # isinf's boolean mask of the 1M cells would be 1 MB
        assert peak < 64 * 1024

    def test_predictor_index(self):
        fc = make_forecast(n_pred=3)
        assert fc.predictor_index("p1") == 1
        with pytest.raises(KeyError):
            fc.predictor_index("nope")


class TestAlignObservations:
    def test_exact_index_identity(self):
        # obs at {0, 3600}; init {0}; leads {0, 3600} -> picks obs[..., 0], obs[..., 1]
        obs = ObservationTensor(
            ("x",), make_locations(1), TimeAxis([0, 3600]), np.array([[[7.0, 9.0]]])
        )
        view = align_observations(obs, TimeAxis([0]), LeadTimeAxis([0, 3600]))
        assert view.values[0, 0, 0, 0] == 7.0
        assert view.values[0, 0, 0, 1] == 9.0

    def test_absent_valid_time_is_sentinel(self):
        obs = ObservationTensor(("x",), make_locations(1), TimeAxis([0]), np.array([[[7.0]]]))
        view = align_observations(obs, TimeAxis([0]), LeadTimeAxis([7200]))
        assert np.isnan(view.values[0, 0, 0, 0])

    def test_matches_scalar_lookup_oracle(self, rng):
        obs = make_observation(n_var=3, n_loc=4, n_time=40, step=3600)
        # irregular init/lead instants so that only some cells match exactly
        init = TimeAxis(obs.valid_times.instants[0] + np.array([0, 5 * 3600, 13 * 3600, 41 * 3600]))
        leads = LeadTimeAxis(np.array([0, 1800, 3600, 7 * 3600]))
        view = align_observations(obs, init, leads)
        expected = lookup_aligned(obs.values, obs.valid_times.instants, init.instants, leads.offsets)
        np.testing.assert_array_equal(view.values, expected)

    def test_idempotent_and_total(self):
        obs = make_observation()
        init = TimeAxis([obs.valid_times.instants[0]])
        leads = LeadTimeAxis([0, 3600])
        a = align_observations(obs, init, leads)
        b = align_observations(obs, init, leads)
        assert a.values.shape == (2, 2, 1, 2)
        np.testing.assert_array_equal(a.values, b.values)

    def test_peak_is_about_the_output(self):
        import tracemalloc

        # 24 (variable, location) rows, so the (init, lead) index arrays are
        # small beside the aligned output
        obs = make_observation(n_var=3, n_loc=8, n_time=24 * 64, step=3600)
        init = TimeAxis(obs.valid_times.instants[0] + 86400 * np.arange(60))
        leads = LeadTimeAxis(3600 * np.arange(0, 48, 2) + 1800 * (np.arange(24) % 5 == 0))
        tracemalloc.start()
        try:
            view = align_observations(obs, init, leads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < np.isnan(view.values).mean() < 1
        expected = lookup_aligned(obs.values, obs.valid_times.instants, init.instants, leads.offsets)
        np.testing.assert_array_equal(view.values.view(np.uint64), expected.view(np.uint64))
        assert peak <= 1.25 * view.values.nbytes


def _every_tensor():
    """One small tensor of each kind, over 3 locations."""
    rng = np.random.default_rng(7)
    fc = make_forecast(n_pred=2, n_loc=3, n_init=6, n_lead=4)
    obs = make_observation(n_var=2, n_loc=3, n_time=24 * 7)
    index = rng.integers(0, 6, size=(3, 2, 4, 3)).astype(float)
    index[0, 1, 2, 2] = np.nan
    return {
        "forecast": fc,
        "observation": obs,
        "ensemble": EnsembleTensor(fc.predictor_names, fc.locations, fc.init_times, fc.lead_times,
                                   3, rng.random((2, 3, 6, 4, 3))),
        "sigma": SigmaTensor(fc.predictor_names, fc.locations, fc.lead_times, rng.random((2, 3, 4))),
        "analogs": AnalogIndexSet(fc.locations, fc.init_times, [4, 5], fc.lead_times, 3,
                                  index, rng.random((3, 2, 4, 3))),
        "aligned": align_observations(obs, fc.init_times, fc.lead_times),
        "solar cache": precompute_solar(fc.locations, fc.init_times, fc.lead_times),
    }


def _one_short(value):
    """An axis one element shorter (a member count one larger)."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, LocationSet):
        return LocationSet.from_coords(value.latitude[:-1], value.longitude[:-1], value.elevation[:-1])
    if isinstance(value, TimeAxis):
        return TimeAxis(value.instants[:-1])
    if isinstance(value, LeadTimeAxis):
        return LeadTimeAxis(value.offsets[:-1])
    return value[:-1]


KINDS = tuple(_every_tensor())


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_checks_its_axes_names_and_arrays(kind):
    tensor = _every_tensor()[kind]
    arrays = [getattr(tensor, a) for a in tensor.ARRAYS]
    assert all(a.shape == tensor.shape for a in arrays)
    for axis in tensor.AXES:
        with pytest.raises(DimensionMismatchError):
            dataclasses.replace(tensor, **{axis: _one_short(getattr(tensor, axis))})
    names = tensor.AXES[0]
    if kind not in ("analogs", "solar cache"):
        assert names.endswith("_names")
        duplicate = (getattr(tensor, names)[0],) * len(getattr(tensor, names))
        with pytest.raises(DuplicateNameError):
            dataclasses.replace(tensor, **{names: duplicate})
    writable = [f.name for f in dataclasses.fields(tensor)
                if isinstance(getattr(tensor, f.name), np.ndarray)
                and getattr(tensor, f.name).flags.writeable]
    assert writable == []


@pytest.mark.parametrize("kind", KINDS)
def test_location_slabs_join_to_the_whole(kind):
    tensor = _every_tensor()[kind]
    axis = tensor.AXES.index("locations")
    slabs = [tensor.at_locations(0, 1), tensor.at_locations(1, 3)]
    for slab in slabs:
        assert type(slab) is type(tensor)
        assert slab.locations.ids.tolist() == list(range(len(slab.locations)))
        assert slab.shape[axis] == len(slab.locations)
    for coord in ("latitude", "longitude", "elevation"):
        np.testing.assert_array_equal(
            np.concatenate([getattr(s.locations, coord) for s in slabs]),
            getattr(tensor.locations, coord))
    for name in tensor.ARRAYS:
        joined = np.concatenate([getattr(s, name) for s in slabs], axis=axis)
        np.testing.assert_array_equal(joined.view(np.uint64), getattr(tensor, name).view(np.uint64))
    kept = [f.name for f in dataclasses.fields(tensor) if f.name not in ("locations", *tensor.ARRAYS)]
    for slab in slabs:
        for name in kept:
            np.testing.assert_equal(getattr(slab, name), getattr(tensor, name))


@pytest.mark.parametrize("kind", KINDS)
def test_taken_locations_are_the_joined_slabs_in_their_order(kind):
    tensor = _every_tensor()[kind]
    axis = tensor.AXES.index("locations")
    taken = tensor.take_locations([2, 0])
    slabs = [tensor.at_locations(2, 3), tensor.at_locations(0, 1)]
    assert type(taken) is type(tensor)
    assert taken.locations.ids.tolist() == [0, 1]
    for coord in ("latitude", "longitude", "elevation"):
        np.testing.assert_array_equal(getattr(taken.locations, coord),
                                      np.concatenate([getattr(s.locations, coord) for s in slabs]))
    for name in tensor.ARRAYS:
        joined = np.concatenate([getattr(s, name) for s in slabs], axis=axis)
        assert getattr(taken, name).tobytes() == joined.tobytes()
        assert not getattr(taken, name).flags.writeable


# -- pairing by axes ----------------------------------------------------------

# the axes a pair can share, besides names and members
PAIRED_AXES = ("locations", "init_times", "valid_times", "lead_times", "test_indices")


def _axis(name, n, moved=None):
    """Axis ``name`` of ``n`` entries spaced 10 apart, plus ``moved`` ((3, n):
    a location's three coordinates, else row 0 alone); a time entry moved by
    1..9 keeps its axis increasing."""
    m = np.zeros((3, n), dtype=int) if moved is None else moved
    at = 10 * np.arange(n)
    if name == "locations":
        return LocationSet.from_coords(30.0 + at / 10 + m[0], -100.0 + at / 10 + m[1], at + m[2])
    if name in ("init_times", "valid_times"):
        return TimeAxis(1_546_300_800 + at + m[0])
    if name == "lead_times":
        return LeadTimeAxis(at + m[0])
    return at + m[0]


def _kind_over(kind, axes):
    """A tensor of ``kind`` over the axes ``axes`` (name -> axis), one name
    and two members, zero-filled."""
    loc, init, lead = axes["locations"], axes["init_times"], axes["lead_times"]
    n = (len(loc), len(init), len(lead))
    if kind == "forecast":
        return ForecastTensor(("a",), loc, init, lead, np.zeros((1, *n)))
    if kind == "observation":
        return ObservationTensor(("a",), loc, axes["valid_times"], np.zeros((1, n[0], len(axes["valid_times"]))))
    if kind == "ensemble":
        return EnsembleTensor(("a",), loc, init, lead, 2, np.zeros((1, *n, 2)))
    if kind == "sigma":
        return SigmaTensor(("a",), loc, lead, np.zeros((1, n[0], n[2])))
    if kind == "aligned":
        return AlignedObservations(("a",), loc, init, lead, np.zeros((1, *n)))
    if kind == "solar cache":
        return SolarCacheTable(loc, init, lead, *[np.zeros(n)] * 4)
    shape = (n[0], len(axes["test_indices"]), n[2], 2)
    return AnalogIndexSet(loc, init, axes["test_indices"], lead, 2, np.zeros(shape), np.zeros(shape))


@st.composite
def _pairs(draw):
    """(given, reference, axes, changed axis, changed entry or None): two
    tensors over the same axes but one, which differs by its length (entry
    None) or by one entry; ``axes`` is None (the kinds' shared ``AXES``) or
    every axis both tensors hold, named by the caller."""
    kinds = st.sampled_from(KINDS)
    first, second = draw(kinds), draw(kinds)
    counts = {axis: draw(st.integers(1, 4)) for axis in PAIRED_AXES}
    base = {a: _axis(a, counts[a]) for a in PAIRED_AXES}
    built = [_kind_over(k, base) for k in (first, second)]
    named = draw(st.booleans())
    if named:
        axes = [a for a in PAIRED_AXES if all(hasattr(t, a) for t in built)]
    else:
        axes = [a for a in PAIRED_AXES if all(a in t.AXES for t in built)]
    changed = draw(st.sampled_from(axes))
    n = counts[changed]
    entry = draw(st.none() | st.integers(0, n - 1))
    if entry is None:
        axis = _axis(changed, n + 1)
    else:
        moved = np.zeros((3, n), dtype=int)
        moved[draw(st.integers(0, 2)) if changed == "locations" else 0, entry] = draw(st.integers(1, 9))
        axis = _axis(changed, n, moved)
    other = {**base, changed: axis}
    if draw(st.booleans()):
        return built[0], _kind_over(second, other), axes if named else None, changed, entry
    return _kind_over(first, other), built[1], axes if named else None, changed, entry


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_pairs())
def test_the_pairing_rule_names_the_one_axis_that_differs(pair):
    given_tensor, reference, axes, changed, entry = pair
    for a, b in ((given_tensor, reference), (reference, given_tensor)):
        mismatch = axis_mismatch(a, b, axes)
        assert mismatch is not None and changed in mismatch
        assert f"entry {entry} " in mismatch if entry is not None else "entry" not in mismatch
        assert axis_mismatch(a, a, axes) is None
        assert axis_mismatch(b, b, axes) is None


def test_the_pairing_rule_leaves_out_names_and_members():
    fc = make_forecast(n_pred=2, n_loc=3, n_init=6, n_lead=4)
    renamed = ForecastTensor(("x", "y", "z"), fc.locations, fc.init_times, fc.lead_times,
                             np.zeros((3, 3, 6, 4)))
    ensemble = EnsembleTensor(fc.predictor_names, fc.locations, fc.init_times, fc.lead_times,
                              5, np.zeros((2, 3, 6, 4, 5)))
    one = EnsembleTensor(fc.predictor_names, fc.locations, fc.init_times, fc.lead_times,
                         1, np.zeros((2, 3, 6, 4, 1)))
    assert axis_mismatch(renamed, fc) is None
    assert axis_mismatch(ensemble, one) is None
    # the first axis that differs, in the given tensor's order, is named
    moved = EnsembleTensor(fc.predictor_names, make_locations(3, seed=9), TimeAxis(fc.init_times.instants + 1),
                           fc.lead_times, 1, np.zeros((2, 3, 6, 4, 1)))
    assert axis_mismatch(moved, one) == "locations entry 0 differs"
    assert axis_mismatch(moved, one, ("init_times", "locations")) == "init_times entry 0 differs"
