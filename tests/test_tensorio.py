import numpy as np
import pytest

from anensolar.coredata import (
    MISSING,
    EnsembleTensor,
    ForecastTensor,
    LeadTimeAxis,
    ObservationTensor,
    TimeAxis,
)
from anensolar.errors import (
    AxisMonotonicityError,
    DimensionMismatchError,
    DuplicateNameError,
    TensorFormatError,
    TensorHeaderError,
)
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


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.ansr"
    path.write_bytes(b"NOTMAGIC/9\nkind forecast\n\x00\n")
    with pytest.raises(TensorHeaderError):
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


def test_csv_forecast_round_trip(tmp_path):
    fc = make_forecast(n_pred=2, n_loc=2, n_init=3, n_lead=2)
    values = fc.values.copy()
    values[0, 1, 2, 0] = MISSING
    fc = ForecastTensor(fc.predictor_names, fc.locations, fc.init_times, fc.lead_times, values)
    path = tmp_path / "fc.csv"
    write_tensor(fc, path)
    back = read_tensor(path)
    assert isinstance(back, ForecastTensor)
    assert back.predictor_names == fc.predictor_names
    np.testing.assert_array_equal(back.values, fc.values)
    np.testing.assert_array_equal(back.init_times.instants, fc.init_times.instants)


def test_csv_observation_round_trip(tmp_path):
    obs = make_observation(n_var=1, n_loc=2, n_time=5)
    path = tmp_path / "obs.csv"
    write_tensor(obs, path)
    back = read_tensor(path)
    assert isinstance(back, ObservationTensor)
    np.testing.assert_array_equal(back.values, obs.values)


def test_csv_unknown_header_rejected(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(TensorHeaderError):
        read_tensor(path)


KINDS = ("forecast", "observation", "ensemble", "analogs", "sigma", "solar")


def _every_kind():
    """One small instance of each container kind, NaN and -0.0 included:
    kind -> (write(path), payload values)."""
    from anensolar.anen import AnalogIndexSet, SigmaTensor
    from anensolar.solar import precompute_solar

    fc = make_forecast(n_pred=2, n_loc=3, n_init=4, n_lead=5)
    vals = fc.values.copy()
    vals[0, 0, 0, 0], vals[1, 2, 3, 4] = MISSING, -0.0
    fc = ForecastTensor(fc.predictor_names, fc.locations, fc.init_times, fc.lead_times, vals)
    obs = make_observation()
    ens = EnsembleTensor(("ghi", "albedo"), fc.locations, fc.init_times, fc.lead_times, 3,
                         np.random.default_rng(4).normal(size=(2, 3, 4, 5, 3)))
    index = np.random.default_rng(5).integers(0, 4, size=(3, 2, 5, 3)).astype(float)
    index[0, 0, 0, 2] = MISSING
    analogs = AnalogIndexSet(fc.locations, fc.init_times, [2, 3], fc.lead_times, 3,
                             index, np.random.default_rng(6).random((3, 2, 5, 3)))
    sigma = SigmaTensor(fc.predictor_names, fc.locations, fc.lead_times,
                        np.where(np.arange(5) == 1, MISSING, 1.5) * np.ones((2, 3, 5)))
    solar = precompute_solar(fc.locations, fc.init_times, fc.lead_times)
    return {
        "forecast": (lambda p: write_tensor(fc, p), fc.values),
        "observation": (lambda p: write_tensor(obs, p), obs.values),
        "ensemble": (lambda p: write_tensor(ens, p), ens.values),
        "analogs": (analogs.write, np.stack([analogs.search_index, analogs.distance])),
        "sigma": (sigma.write, sigma.values),
        "solar": (solar.write, np.stack([solar.apparent_zenith, solar.azimuth, solar.declination,
                                         solar.equation_of_time, solar.e0n, solar.airmass])),
    }


@pytest.mark.parametrize("kind", KINDS)
def test_read_owns_one_copy_of_every_kind(tmp_path, kind):
    write, expected = _every_kind()[kind]
    path = tmp_path / f"{kind}.ansr"
    write(path)
    back = read_tensor(path)
    values = back["values"] if isinstance(back, dict) else back.values
    assert values.tobytes() == np.ascontiguousarray(expected).tobytes()
    # an array of its own, not a view into the bytes read from the file
    assert values.base is None and values.flags.owndata
    if isinstance(back, dict):
        assert values.flags.writeable
        values[(0,) * values.ndim] = 1.0


@pytest.mark.parametrize("kind", KINDS)
def test_short_payload_of_every_kind_is_dimension_error(tmp_path, kind):
    write, _ = _every_kind()[kind]
    path = tmp_path / f"{kind}.ansr"
    write(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DimensionMismatchError):
        read_tensor(path)
