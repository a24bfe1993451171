import dataclasses
import hashlib
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anensolar.coredata import (
    MISSING,
    AnalogIndexSet,
    EnsembleTensor,
    ForecastTensor,
    LeadTimeAxis,
    LocationSet,
    ObservationTensor,
    SigmaTensor,
    TimeAxis,
)
from anensolar.errors import (
    AxisMonotonicityError,
    DimensionMismatchError,
    DuplicateNameError,
    TensorFormatError,
    TensorHeaderError,
)
from anensolar import tensorio
from anensolar.tensorio import read_tensor, write_tensor

from conftest import make_forecast, make_locations, make_observation


def test_forecast_round_trip_bit_exact(tmp_path):
    fc = make_forecast(n_pred=2, n_loc=3, n_init=4, n_lead=5)
    values = fc.values.copy()
    values[0, 0, 0, 0] = MISSING
    values[1, 2, 3, 4] = -0.0
    fc = ForecastTensor(fc.predictor_names, fc.locations, fc.init_times, fc.lead_times, values)
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    back = read_tensor(path)
    assert back.predictor_names == fc.predictor_names
    np.testing.assert_array_equal(back.init_times.instants, fc.init_times.instants)
    np.testing.assert_array_equal(back.lead_times.offsets, fc.lead_times.offsets)
    np.testing.assert_array_equal(back.locations.latitude, fc.locations.latitude)
    # bit-exact payload, including NaN patterns and signed zero
    assert back.values.tobytes() == fc.values.tobytes()


def test_observation_round_trip(tmp_path):
    obs = make_observation()
    path = tmp_path / "obs.ansr"
    write_tensor(obs, path)
    back = read_tensor(path)
    assert isinstance(back, ObservationTensor)
    assert back.values.tobytes() == obs.values.tobytes()


def test_ensemble_round_trip(tmp_path):
    locs = make_locations(2)
    ens = EnsembleTensor(
        ("ghi",), locs, TimeAxis([0, 86400]), LeadTimeAxis([0, 3600]), 3,
        np.arange(2 * 2 * 2 * 3, dtype=float).reshape(1, 2, 2, 2, 3),
    )
    path = tmp_path / "ens.ansr"
    write_tensor(ens, path)
    back = read_tensor(path)
    assert back.members == 3
    np.testing.assert_array_equal(back.values, ens.values)


def test_header_declares_more_names_than_rows(tmp_path):
    fc = make_forecast(n_pred=2)
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    raw = path.read_bytes()
    bad = raw.replace(b"predictors 2", b"predictors 3", 1)
    bad_path = tmp_path / "bad.ansr"
    bad_path.write_bytes(bad)
    with pytest.raises(TensorHeaderError):
        read_tensor(bad_path)


def test_bad_magic_rejected(tmp_path, monkeypatch):
    bad, text = tmp_path / "x.ansr", tmp_path / "x.csv"
    bad.write_bytes(b"NOTMAGIC/9\nkind forecast\n\x00\n")
    # a text file has no separator: it is refused by its first line too
    text.write_text("location,ghi\n" + "0,0.5\n" * 100_000)
    for chunk in (1, 7, 1 << 16):
        monkeypatch.setattr(tensorio, "_HEADER_CHUNK", chunk)
        for path in (bad, text):
            with pytest.raises(TensorHeaderError, match="bad magic line"):
                read_tensor(path)


@pytest.mark.parametrize("row", [b"0 40.0 -105.0", b"0 north -105.0 1650.0"], ids=["short", "not a number"])
def test_a_location_row_that_does_not_parse_is_header_error(tmp_path, row):
    path = tmp_path / "fc.ansr"
    write_tensor(make_forecast(n_loc=1), path)
    head, sep, payload = path.read_bytes().partition(b"\x00\n")
    lines = head.split(b"\n")
    lines[lines.index(b"locations 1") + 1] = row
    path.write_bytes(b"\n".join(lines) + sep + payload)
    with pytest.raises(TensorHeaderError, match="location rows need"):
        read_tensor(path)


def test_non_increasing_init_times_is_axis_error(tmp_path):
    fc = make_forecast(n_init=3)
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    text = path.read_bytes()
    header, _, payload = text.partition(b"\x00\n")
    lines = header.decode().split("\n")
    start = lines.index("init_times 3") + 1
    lines[start], lines[start + 1] = lines[start + 1], lines[start]
    bad_path = tmp_path / "bad.ansr"
    bad_path.write_bytes("\n".join(lines).encode() + b"\x00\n" + payload)
    with pytest.raises(AxisMonotonicityError):
        read_tensor(bad_path)


def test_duplicate_names_is_distinct_error(tmp_path):
    fc = make_forecast(n_pred=2)
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    raw = path.read_bytes()
    bad = raw.replace(b"p1\n", b"p0\n", 1)
    bad_path = tmp_path / "bad.ansr"
    bad_path.write_bytes(bad)
    with pytest.raises(DuplicateNameError):
        read_tensor(bad_path)


def test_payload_size_mismatch_is_dimension_error(tmp_path):
    fc = make_forecast()
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    raw = path.read_bytes()
    bad_path = tmp_path / "bad.ansr"
    bad_path.write_bytes(raw[:-8])
    with pytest.raises(DimensionMismatchError):
        read_tensor(bad_path)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("tensor", [make_forecast(), make_observation()], ids=["forecast", "observation"])
def test_infinite_payload_value_rejected(tmp_path, tensor, bad):
    path = tmp_path / "t.ansr"
    write_tensor(tensor, path)
    raw = path.read_bytes()
    # the payload is the trailing block of little-endian float64 values
    cell = len(raw) - 8 * (tensor.values.size // 2)
    bad_path = tmp_path / "bad.ansr"
    bad_path.write_bytes(raw[:cell] + np.array([bad], dtype="<f8").tobytes() + raw[cell + 8 :])
    with pytest.raises(TensorFormatError, match="inf"):
        read_tensor(bad_path)


def test_missing_separator(tmp_path):
    path = tmp_path / "x.ansr"
    path.write_bytes(b"ANENSOLAR/1\nkind forecast\n")
    with pytest.raises(TensorHeaderError):
        read_tensor(path)


KINDS = ("forecast", "observation", "ensemble", "analogs", "sigma")


def _every_kind():
    """One small tensor of each container kind, NaN and -0.0 included."""
    fc = make_forecast(n_pred=2, n_loc=3, n_init=4, n_lead=5)
    vals = fc.values.copy()
    vals[0, 0, 0, 0], vals[1, 2, 3, 4] = MISSING, -0.0
    fc = ForecastTensor(fc.predictor_names, fc.locations, fc.init_times, fc.lead_times, vals)
    index = np.random.default_rng(5).integers(0, 4, size=(3, 2, 5, 3)).astype(float)
    index[0, 0, 0, 2] = MISSING
    return {
        "forecast": fc,
        "observation": make_observation(),
        "ensemble": EnsembleTensor(("ghi", "albedo"), fc.locations, fc.init_times, fc.lead_times, 3,
                                   np.random.default_rng(4).normal(size=(2, 3, 4, 5, 3))),
        "analogs": AnalogIndexSet(fc.locations, fc.init_times, [2, 3], fc.lead_times, 3,
                                  index, np.random.default_rng(6).random((3, 2, 5, 3))),
        "sigma": SigmaTensor(fc.predictor_names, fc.locations, fc.lead_times,
                             np.where(np.arange(5) == 1, MISSING, 1.5) * np.ones((2, 3, 5))),
    }


def _block(tensor):
    """The arrays of a tensor's float64 block, in file order."""
    return [getattr(tensor, a) for a in tensor.ARRAYS]


def _arrays(obj):
    """(name, array) of every array attribute of a tensor and of the axes and
    locations it holds."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, np.ndarray):
            yield f"{type(obj).__name__}.{field.name}", value
        elif dataclasses.is_dataclass(value):
            yield from _arrays(value)


def test_every_kind_has_a_layout():
    assert tuple(tensorio.LAYOUTS) == KINDS
    assert {kind: type(t) for kind, t in _every_kind().items()} == {
        kind: layout.tensor for kind, layout in tensorio.LAYOUTS.items()}


@pytest.mark.parametrize("kind", KINDS)
def test_read_owns_one_copy_of_every_kind(tmp_path, kind):
    tensor = _every_kind()[kind]
    path = tmp_path / f"{kind}.ansr"
    write_tensor(tensor, path)
    back = read_tensor(path)
    assert type(back) is type(tensor)
    # the one array read, kept as the values or as one view per stacked field
    arrays = _block(back)
    owner = arrays[0] if len(arrays) == 1 else arrays[0].base
    assert all(a is owner or a.base is owner for a in arrays)
    # an aligned array of its own, not a view into the bytes read from the file
    assert owner.base is None and owner.flags.owndata
    assert owner.flags.aligned and owner.flags.c_contiguous
    assert owner.tobytes() == b"".join(a.tobytes() for a in _block(tensor))
    # the payload is the trailing block of the file, as written
    assert owner.tobytes() == path.read_bytes()[-owner.nbytes:]


@pytest.mark.parametrize("kind", KINDS)
def test_every_array_of_every_kind_is_read_only(tmp_path, kind):
    tensor = _every_kind()[kind]
    write_tensor(tensor, tmp_path / "t.ansr")
    for which, t in (("built", tensor), ("read", read_tensor(tmp_path / "t.ansr"))):
        assert [name for name, a in _arrays(t) if a.flags.writeable] == [], which


@pytest.mark.parametrize("kind", KINDS)
def test_short_payload_of_every_kind_is_dimension_error(tmp_path, kind):
    path = tmp_path / f"{kind}.ansr"
    write_tensor(_every_kind()[kind], path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DimensionMismatchError):
        read_tensor(path)


def test_analogs_fields_other_than_the_fixed_pair_are_header_error(tmp_path):
    path = tmp_path / "analogs.ansr"
    write_tensor(_every_kind()["analogs"], path)
    path.write_bytes(path.read_bytes().replace(b"\nsearch_init\ndistance\n",
                                               b"\nsearch_init\ndistances\n", 1))
    with pytest.raises(TensorHeaderError, match="fields must be"):
        read_tensor(path)


def _pinned():
    """One fixed tensor of each container kind, built from exact arithmetic
    with NaN and -0.0 in every block: file name -> tensor."""
    locs = LocationSet.from_coords([40.0, -33.5], [-105.25, 151.0], [1650.0, 0.0])
    init = TimeAxis(1_546_300_800 + 86400 * np.arange(3))
    lead = LeadTimeAxis([0, 3600])

    def grid(*shape):
        values = np.arange(np.prod(shape), dtype=float).reshape(shape) / 10 - 1.0
        values.flat[1], values.flat[-1] = MISSING, -0.0
        return values

    fc = ForecastTensor(("p0", "p1"), locs, init, lead, grid(2, 2, 3, 2))
    obs = ObservationTensor(("ghi",), locs, TimeAxis(1_546_300_800 + 3600 * np.arange(4)), grid(1, 2, 4))
    return {
        "forecast.ansr": fc,
        "observation.ansr": obs,
        "ensemble.ansr": EnsembleTensor(("ghi", "power"), locs, init, lead, 3, grid(2, 2, 3, 2, 3)),
        "analogs.ansr": AnalogIndexSet(locs, init, [1, 2], lead, 2,
                                       np.array([0.0, MISSING] * 8).reshape(2, 2, 2, 2),
                                       np.abs(grid(2, 2, 2, 2))),
        "sigma.ansr": SigmaTensor(("p0", "p1"), locs, lead, grid(2, 2, 2)),
    }


# SHA-256 of each file of _pinned(), recorded before one layout table drove the
# encoder: a change here is a change of the file format
PINNED_DIGESTS = {
    "forecast.ansr": "b4f308f6d5d2e053392db1fcb1659c1ecdfb245c88874adddda274f198e6c1c0",
    "observation.ansr": "4daee18e74294a3d1d5f3dcd4f853d94a322b9f2fa21eac743e1c5f3b5eb0307",
    "ensemble.ansr": "34e612e16009a570ddff84e9e5607facdfcac244aea0922dd880c49d05c74ee9",
    "analogs.ansr": "17513d5bbab67e903f93264df616ab7929ec8700c7296747c830ac79a02e1e31",
    "sigma.ansr": "386840ce512a29b90fec6c3862115bc0b6bfce3a5203ac85472a609e38b3f9c9",
}


def test_every_kind_writes_its_pinned_bytes(tmp_path):
    again = tmp_path / "again"
    again.mkdir()
    digests = {}
    for name, tensor in _pinned().items():
        write_tensor(tensor, tmp_path / name)
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        # decoding and encoding again gives the same bytes
        write_tensor(read_tensor(tmp_path / name), again / name)
        assert (again / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert digests == PINNED_DIGESTS
    # every write renamed its temporary file away
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*PINNED_DIGESTS, "again"])


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_failed_write_leaves_the_previous_file(tmp_path, monkeypatch, name):
    path = tmp_path / name
    path.write_bytes(b"previous bytes")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_tensor(_pinned()[name], path)
    assert path.read_bytes() == b"previous bytes"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_read_holds_the_payload_once(tmp_path):
    import tracemalloc

    fc = make_forecast(n_loc=2, n_init=1000, n_lead=250)
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    tracemalloc.start()
    try:
        back = read_tensor(path, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one array of the payload; a second copy of it would double the peak
    assert back.values.nbytes == 8_000_000
    assert peak < 1.5 * back.values.nbytes


def test_header_longer_than_one_read_chunk(tmp_path):
    obs = make_observation(n_var=1, n_loc=2, n_time=8000)
    path = tmp_path / "obs.ansr"
    write_tensor(obs, path)
    assert path.read_bytes().index(b"\x00\n") > 65536
    back = read_tensor(path)
    np.testing.assert_array_equal(back.valid_times.instants, obs.valid_times.instants)
    assert back.values.tobytes() == obs.values.tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_separator_and_payload_across_chunk_edges(tmp_path, monkeypatch, chunk):
    # small chunks put the separator and the start of the payload at every
    # offset of a chunk
    fc = make_forecast()
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    monkeypatch.setattr(tensorio, "_HEADER_CHUNK", chunk)
    digests = {}
    assert read_tensor(path, digests).values.tobytes() == fc.values.tobytes()
    assert digests[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_one_trailing_payload_byte_is_dimension_error(tmp_path):
    path = tmp_path / "fc.ansr"
    write_tensor(make_forecast(), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DimensionMismatchError):
        read_tensor(path)


def test_non_utf8_header_is_header_error(tmp_path):
    path = tmp_path / "fc.ansr"
    write_tensor(make_forecast(), path)
    path.write_bytes(path.read_bytes().replace(b"p0\n", b"p\xff\n", 1))
    with pytest.raises(TensorHeaderError, match="UTF-8"):
        read_tensor(path)


def test_digest_is_the_sha256_of_the_file(tmp_path):
    path = tmp_path / "fc.ansr"
    write_tensor(make_forecast(n_loc=3), path)
    digests = {}
    read_tensor(path, digests)
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_a_csv_suffix_writes_the_container_of_its_ansr_twin(tmp_path):
    # a file's name means nothing: every tensor file is a container, and its
    # predictors keep their order, which here is not sorted
    fc = make_forecast(n_pred=3, n_loc=3)
    fc = dataclasses.replace(fc, predictor_names=("ghi", "cloud_cover", "albedo"))
    digests = [write_tensor(fc, tmp_path / name) for name in ("fc.csv", "fc.ansr")]
    assert (tmp_path / "fc.csv").read_bytes() == (tmp_path / "fc.ansr").read_bytes()
    assert digests[0] == digests[1]
    back = read_tensor(tmp_path / "fc.csv")
    assert back.predictor_names == ("ghi", "cloud_cover", "albedo")
    assert back.locations.latitude.tobytes() == fc.locations.latitude.tobytes()


def test_public_constructor_copies_the_callers_array():
    fc = make_forecast()
    caller = fc.values.copy()
    tensor = ForecastTensor(fc.predictor_names, fc.locations, fc.init_times, fc.lead_times, caller)
    assert not np.shares_memory(tensor.values, caller)
    caller[...] = 0.0
    assert tensor.values.tobytes() == fc.values.tobytes()


def _six_locations():
    """One tensor of each container kind over six locations: file name ->
    tensor."""
    fc = make_forecast(n_pred=2, n_loc=6, n_init=4, n_lead=5, seed=3)
    obs = make_observation(n_var=2, n_loc=6, n_time=30)
    rng = np.random.default_rng(8)
    index = rng.integers(0, 4, size=(6, 2, 5, 3)).astype(float)
    index[4, 1, 2, 0] = MISSING
    return {
        "forecast.ansr": fc,
        "observation.ansr": obs,
        "ensemble.ansr": EnsembleTensor(("ghi", "albedo"), fc.locations, fc.init_times, fc.lead_times, 3,
                                        rng.normal(size=(2, 6, 4, 5, 3))),
        "analogs.ansr": AnalogIndexSet(fc.locations, fc.init_times, [2, 3], fc.lead_times, 3,
                                       index, rng.random((6, 2, 5, 3))),
        "sigma.ansr": SigmaTensor(fc.predictor_names, fc.locations, fc.lead_times,
                                  rng.random((2, 6, 5))),
    }


SELECTIONS = {"scattered": [4, 0, 5, 2], "reversed": [5, 4, 3, 2, 1, 0], "single": [3], "empty": [],
              "adjacent runs": [1, 2, 4, 5], "all": [0, 1, 2, 3, 4, 5]}


def _take(path, digests, locations):
    """The tensor of the file at ``path`` over ``locations`` alone, taken
    from a container that records its digest in ``digests``."""
    with tensorio.open_container(path, digests) as container:
        return container.take(locations)


def _joined_slabs(tensor, locations):
    """The one-location ``at_locations`` slabs of ``tensor``, joined in the
    order of ``locations``; the empty 0:0 slab for no location."""
    if not locations:
        return tensor.at_locations(0, 0)
    slabs = [tensor.at_locations(loc, loc + 1) for loc in locations]
    axis = tensor.AXES.index("locations")
    coords = {c: np.concatenate([getattr(s.locations, c) for s in slabs])
              for c in ("latitude", "longitude", "elevation")}
    return dataclasses.replace(
        tensor, locations=LocationSet.from_coords(**coords),
        **{a: np.concatenate([getattr(s, a) for s in slabs], axis=axis) for a in tensor.ARRAYS})


@pytest.mark.parametrize("selection", sorted(SELECTIONS))
@pytest.mark.parametrize("name", sorted(_six_locations()))
def test_a_selection_reads_the_joined_location_slabs(tmp_path, name, selection):
    path = tmp_path / name
    write_tensor(_six_locations()[name], path)
    locations = SELECTIONS[selection]
    digests = {}
    picked = _take(path, digests, locations)
    expected = _joined_slabs(read_tensor(path), locations)
    assert type(picked) is type(expected)
    assert picked.shape == expected.shape
    assert picked.locations.ids.tolist() == list(range(len(locations)))
    # equal bit for bit, NaN and -0.0 included, down to the bytes written back
    assert [(n, a.tobytes()) for n, a in _arrays(picked)] == [(n, a.tobytes()) for n, a in _arrays(expected)]
    suffix = path.suffix
    write_tensor(picked, tmp_path / f"picked{suffix}")
    write_tensor(expected, tmp_path / f"expected{suffix}")
    assert (tmp_path / f"picked{suffix}").read_bytes() == (tmp_path / f"expected{suffix}").read_bytes()
    # the digest is the whole file's, whatever the selection
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


@pytest.mark.parametrize("locations, named", [([1, 3, 1], "location 1 is selected twice"),
                                              ([0, 6], "location 6 is outside 0..5"),
                                              ([-1], "location -1 is outside 0..5")])
def test_a_repeated_or_unknown_location_is_value_error(tmp_path, locations, named):
    path = tmp_path / "forecast.ansr"
    write_tensor(_six_locations()["forecast.ansr"], path)
    with pytest.raises(ValueError, match=named):
        _take(path, None, locations)


@pytest.mark.parametrize("name", ["forecast.ansr", "observation.ansr", "ensemble.ansr"])
def test_a_name_selection_reads_those_names_rows_alone(tmp_path, monkeypatch, name):
    path = _written(tmp_path, name, _six_locations()[name])
    whole = read_tensor(path)
    names = list(getattr(whole, whole.AXES[0]))
    monkeypatch.setattr(tensorio, "open", lambda p, mode: _CountingReader(io.FileIO(p, mode)), raising=False)
    digests = {}
    with tensorio.open_container(path, digests) as container:
        for picked_names, rows in (([names[1]], [1]), ([names[1], names[0]], [1, 0])):
            monkeypatch.setattr(_CountingReader, "readintos", 0)
            picked = container.take([4, 1], picked_names)
            # one readinto per selected (name, location) row
            assert _CountingReader.readintos == 2 * len(rows)
            assert getattr(picked, picked.AXES[0]) == tuple(picked_names)
            assert picked.values.tobytes() == whole.values[rows][:, [4, 1]].tobytes()
        with pytest.raises(ValueError, match="name 0 is selected twice"):
            container.take([0], [names[0], names[0]])
        with pytest.raises(ValueError):
            container.take([0], ["no_such_name"])
    # the digest is still the whole file's
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_a_selection_within_the_header_chunk(tmp_path, monkeypatch):
    # the first chunk holds the whole file: selected and skipped rows come
    # from the bytes read with the header, with and without a digest
    path = tmp_path / "fc.ansr"
    fc = _six_locations()["forecast.ansr"]
    write_tensor(fc, path)
    assert path.stat().st_size < tensorio._HEADER_CHUNK
    for digests in (None, {}):
        picked = _take(path, digests, [5, 1])
        assert picked.values.tobytes() == fc.values[:, [5, 1]].tobytes()
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


class _CountingReader(io.BufferedReader):
    readintos = 0

    def readinto(self, buffer):
        type(self).readintos += 1
        return super().readinto(buffer)


def test_a_full_read_is_one_readinto_per_name_and_no_buffer(tmp_path, monkeypatch):
    # each name's block is larger than the first chunk, so every block needs the file
    fc = make_forecast(n_pred=3, n_loc=4, n_init=100, n_lead=24)
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    monkeypatch.setattr(_CountingReader, "readintos", 0)
    monkeypatch.setattr(tensorio, "open", lambda p, mode: _CountingReader(io.FileIO(p, mode)),
                        raising=False)
    assert read_tensor(path, {}).values.tobytes() == fc.values.tobytes()
    assert _CountingReader.readintos == 3


def test_a_selection_holds_one_spare_row_beyond_its_output(tmp_path):
    import tracemalloc

    n_loc, n_init, n_lead = 100, 400, 25
    fc = make_forecast(n_pred=1, n_loc=n_loc, n_init=n_init, n_lead=n_lead)
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    tracemalloc.start()
    try:
        picked = _take(path, {}, [37])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert picked.values.tobytes() == fc.values[:, [37]].tobytes()
    # beyond its output, a selection holds at most one row of n_init x n_lead
    # float64 values (it reads no skipped row, and hashes through 64 KiB)
    assert peak < picked.values.nbytes + n_init * n_lead * 8 + 64 * 2**10


def test_one_location_of_a_large_file_holds_that_location_alone(tmp_path):
    import tracemalloc

    n_pred, n_loc, n_init, n_lead = 5, 100, 400, 25
    fc = ForecastTensor(tuple(f"p{i}" for i in range(n_pred)), make_locations(n_loc),
                        TimeAxis(1_546_300_800 + 86400 * np.arange(n_init)),
                        LeadTimeAxis(3600 * np.arange(n_lead)),
                        np.arange(n_pred * n_loc * n_init * n_lead, dtype=float).reshape(
                            n_pred, n_loc, n_init, n_lead))
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    del fc
    assert path.stat().st_size >= 40_000_000
    digests = {}
    tracemalloc.start()
    try:
        picked = _take(path, digests, [37])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert picked.values.nbytes == n_pred * n_init * n_lead * 8
    assert peak < picked.values.nbytes + 2 * 2**20
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
    step = n_init * n_lead
    assert picked.values[:, 0, 0, 0].tolist() == [float((p * n_loc + 37) * step) for p in range(n_pred)]


def _header(path):
    with tensorio.open_container(path) as container:
        return container.header


def _slabs(path, digests):
    """Each location's tensor in turn, taken from one open container."""
    with tensorio.open_container(path, digests) as container:
        for loc in range(len(container.header.locations)):
            yield container.take([loc])


def test_a_container_header_is_the_header_of_a_full_read(tmp_path):
    for name, tensor in _six_locations().items():
        path = tmp_path / name
        write_tensor(tensor, path)
        header = _header(path)
        kind = name.split(".")[0]
        assert header.kind == kind
        assert header.names == list(tensorio.LAYOUTS[kind].fields or getattr(tensor, tensor.AXES[0]))
        assert header.shape[:2] == (len(header.names), 6)
        assert header.shape[2:] == tensor.shape[tensor.AXES.index("locations") + 1:]
        for coord in ("latitude", "longitude", "elevation"):
            assert getattr(header.locations, coord).tobytes() == getattr(tensor.locations, coord).tobytes()
        for key, value in header.sections.items():
            np.testing.assert_array_equal(value, tensorio._section(tensor, key))


@pytest.mark.parametrize("name", [f"{kind}.ansr" for kind in KINDS])
def test_each_slab_is_at_locations_of_a_full_read(tmp_path, name):
    path = tmp_path / name
    write_tensor(_six_locations()[name], path)
    whole = read_tensor(path)
    digests = {}
    slabs = _slabs(path, digests)
    for loc in range(6):
        slab, expected = next(slabs), whole.at_locations(loc, loc + 1)
        assert type(slab) is type(expected)
        assert [(n, a.tobytes()) for n, a in _arrays(slab)] == [(n, a.tobytes()) for n, a in _arrays(expected)]
    # the digest is the whole file's, taken once the last slab is read
    assert next(slabs, None) is None
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_a_slab_holds_its_location_alone(tmp_path):
    import tracemalloc

    n_loc, n_init, n_lead = 32, 200, 24
    fc = make_forecast(n_pred=3, n_loc=n_loc, n_init=n_init, n_lead=n_lead)
    path = tmp_path / "fc.ansr"
    write_tensor(fc, path)
    slab_bytes = 3 * n_init * n_lead * 8
    firsts = []
    tracemalloc.start()
    try:
        for slab in _slabs(path, {}):
            firsts.append(slab.values[:, 0, 0, 0].tolist())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert firsts == [fc.values[:, loc, 0, 0].tolist() for loc in range(n_loc)]
    # the next slab is read while the last is alive, then the file is hashed
    # in 64 KiB chunks; the whole forecast is 32 slabs
    assert peak < 2 * slab_bytes + 2 * 64 * 2**10 + 32 * 2**10


@pytest.mark.parametrize("read", ["whole", "selection", "slabs", "container"])
def test_a_file_renamed_over_the_path_mid_read_is_not_the_one_hashed(tmp_path, monkeypatch, read):
    # once the first row is in, a new file is renamed over the path; the
    # digest is that of the file the rows came from, which the reader has open
    old = make_forecast(n_pred=3, n_loc=4, n_init=10, n_lead=24, seed=1)
    path, other = tmp_path / "fc.ansr", tmp_path / "other.ansr"
    write_tensor(old, path)
    write_tensor(make_forecast(n_pred=3, n_loc=4, n_init=10, n_lead=24, seed=2), other)
    old_digest = hashlib.sha256(path.read_bytes()).hexdigest()

    class SwappingReader(io.BufferedReader):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            if other.exists():
                os.replace(other, path)
            return n

    monkeypatch.setattr(tensorio, "open", lambda p, mode: SwappingReader(io.FileIO(p, mode)), raising=False)
    digests = {}
    if read == "slabs":
        values = np.concatenate([slab.values for slab in _slabs(path, digests)], axis=1)
        expected = old.values
    elif read == "container":
        # the rows the regime features reduce, streamed, then a selection
        # of sample rows from the same open file
        with tensorio.open_container(path, digests) as container:
            streamed = np.concatenate([rows for _, rows in container.blocks()])
            picked = container.take([2, 0])
        values = np.concatenate([streamed.reshape(old.values.shape), picked.values], axis=1)
        expected = np.concatenate([old.values, old.values[:, [2, 0]]], axis=1)
    elif read == "selection":
        values, expected = _take(path, digests, [2, 0]).values, old.values[:, [2, 0]]
    else:
        values, expected = read_tensor(path, digests).values, old.values
    assert not other.exists()
    assert hashlib.sha256(path.read_bytes()).hexdigest() != old_digest
    assert values.tobytes() == expected.tobytes()
    assert digests == {str(path): old_digest}


@pytest.mark.parametrize("block_rows", [0.5, 1, 2.5, 100])
@pytest.mark.parametrize("name", sorted(_six_locations()))
def test_container_blocks_stream_the_block_in_file_order_and_hash_it(tmp_path, monkeypatch, name, block_rows):
    tensor = _six_locations()[name]
    path = _written(tmp_path, name, tensor)
    rows = _rows(tensor)
    # a block holds BLOCK_BYTES of rows at most, and one row at least
    monkeypatch.setattr(tensorio, "BLOCK_BYTES", int(block_rows * rows[0].nbytes))
    per_block = max(1, int(block_rows))
    digests = {}
    with tensorio.open_container(path, digests) as container:
        blocks = list(container.blocks())
        picked = container.take([4, 0, 5])
    names = [n for n in container.header.names for _ in range(6)]
    assert [n for n, block in blocks for _ in block] == names
    assert all(len(block) <= per_block for _, block in blocks)
    assert np.concatenate([block for _, block in blocks]).tobytes() == np.stack(rows).tobytes()
    expected = _joined_slabs(read_tensor(path), [4, 0, 5])
    assert [(n, a.tobytes()) for n, a in _arrays(picked)] == [(n, a.tobytes()) for n, a in _arrays(expected)]
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_a_container_left_unstreamed_hashes_the_file_it_has_open(tmp_path):
    path = _written(tmp_path, "observation.ansr", _six_locations()["observation.ansr"])
    digests = {}
    with tensorio.open_container(path, digests) as container:
        next(iter(container.blocks()))
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
    # a with block that ends in an error records nothing
    with pytest.raises(KeyError):
        with tensorio.open_container(path, digests := {}) as container:
            raise KeyError("stop")
    assert digests == {}


def _written(tmp_path, name, tensor):
    write_tensor(tensor, tmp_path / name)
    return tmp_path / name


def _rows(tensor):
    """The rows of a tensor's block in file order: (name, location) arrays."""
    by_name = _block(tensor) if len(tensor.ARRAYS) > 1 else tensor.values
    return [row for block in by_name for row in block]


def _slab_puts(tensor, bounds):
    """(start, slab) of each location slab of ``tensor`` between consecutive ``bounds``."""
    return [(start, tensor.at_locations(start, stop)) for start, stop in zip(bounds, bounds[1:])]


def _put_slabs(tensor, path, puts):
    """Put the (start, slab) ``puts`` through ``open_rows`` in a file over
    ``tensor``'s locations; returns the writer."""
    with tensorio.open_rows(path, tensor.locations) as writer:
        for start, slab in puts:
            writer.put(start, slab)
    return writer


def _other_members(slab):
    return dataclasses.replace(slab, members=2, values=slab.values[..., :2])


def _other_leads(slab):
    return dataclasses.replace(slab, lead_times=LeadTimeAxis(slab.lead_times.offsets + 1))


def _another_kind(slab):
    return SigmaTensor(slab.variable_names, slab.locations, slab.lead_times, slab.values[..., 0, :, 0])


ONE_EACH = [0, 1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("puts, match", [
    (lambda t: _slab_puts(t, ONE_EACH[:-1]), "1 locations never put, the first 5"),
    (lambda t: _slab_puts(t, [0, 3]) + _slab_puts(t, [5, 6]), "2 locations never put, the first 3"),
    (lambda t: _slab_puts(t, ONE_EACH) + _slab_puts(t, [4, 5]), "location 4 is put twice"),
    (lambda t: _slab_puts(t, [0, 3]) + _slab_puts(t, [2, 6]), "location 2 is put twice"),
    (lambda t: [(-1, t.at_locations(0, 1))], r"locations -1\.\.-1 are outside the file's 0\.\.5"),
    (lambda t: _slab_puts(t, [0, 5]) + [(6, t.at_locations(5, 6))], r"locations 6\.\.6 are outside"),
    (lambda t: [(4, t.at_locations(0, 3))], r"locations 4\.\.6 are outside"),
    (lambda t: _slab_puts(t, [0, 2]) + [(2, _other_members(t.at_locations(2, 6)))],
     r"the slab at locations 2\.\.5 does not have the file's header"),
    (lambda t: _slab_puts(t, [0, 2]) + [(2, _other_leads(t.at_locations(2, 6)))], "does not have the file's header"),
    (lambda t: _slab_puts(t, [0, 2]) + [(2, _another_kind(t.at_locations(2, 6)))], "does not have the file's header"),
    (lambda t: [(1, t.at_locations(2, 3))], r"the slab at locations 1\.\.1 does not have the file's header"),
], ids=["last never put", "two never put", "put twice", "overlapping slabs", "negative start",
        "start off the file", "slab past the file's end", "other members", "other leads", "another kind",
        "other locations"])
def test_a_slab_writer_not_filled_exactly_once_leaves_the_previous_file(tmp_path, puts, match):
    ensemble = _six_locations()["ensemble.ansr"]
    path = tmp_path / "ensemble.ansr"
    path.write_bytes(b"previous bytes")
    with pytest.raises(DimensionMismatchError, match=match):
        _put_slabs(ensemble, path, puts(ensemble))
    assert path.read_bytes() == b"previous bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["ensemble.ansr"]


def test_a_slab_writer_with_no_slab_has_no_header(tmp_path):
    sigma = _six_locations()["sigma.ansr"].at_locations(0, 0)
    with pytest.raises(DimensionMismatchError, match="no slab was put"):
        _put_slabs(sigma, tmp_path / "sigma.ansr", [])
    assert list(tmp_path.iterdir()) == []


def test_an_error_while_slabs_are_put_leaves_the_previous_file(tmp_path):
    path = tmp_path / "sigma.ansr"
    path.write_bytes(b"previous bytes")
    sigma = _six_locations()["sigma.ansr"]
    with pytest.raises(KeyError, match="stop"):
        with tensorio.open_rows(path, sigma.locations) as writer:
            writer.put(0, sigma.at_locations(0, 1))
            assert (tmp_path / f"sigma.ansr.{os.getpid()}.tmp").exists()
            raise KeyError("stop")
    assert writer.sha256 is None
    assert path.read_bytes() == b"previous bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["sigma.ansr"]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_slabs_put_in_any_order_give_the_file_write_tensor_writes(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("slabs")
    tensor = data.draw(st.sampled_from(list(_six_locations().values())))
    cuts = data.draw(st.sets(st.integers(1, 5)))
    puts = data.draw(st.permutations(_slab_puts(tensor, [0, *sorted(cuts), 6])))
    writer = _put_slabs(tensor, tmp_path / "slabs.ansr", puts)
    assert writer.sha256 == write_tensor(tensor, tmp_path / "whole.ansr")
    assert (tmp_path / "slabs.ansr").read_bytes() == (tmp_path / "whole.ansr").read_bytes()
    assert writer.sha256 == hashlib.sha256((tmp_path / "slabs.ansr").read_bytes()).hexdigest()


def test_header_axes_build_the_tensor_of_the_header(tmp_path):
    for name, tensor in _six_locations().items():
        header = _header(_written(tmp_path, name, tensor))
        rebuilt = type(tensor)(**vars(header.axes), **{a: getattr(tensor, a) for a in tensor.ARRAYS})
        assert tensorio._encode_header(tensorio.Header.of(rebuilt)) == tensorio._encode_header(header)
