"""On-disk tensor container: a text header followed by a float64 binary block.

Layout::

    ANENSOLAR/1
    kind <forecast|observation|ensemble|analogs|sigma|solar>
    <names section>   e.g. "predictors 2" then one name per line
    locations <L>     then "id lat lon elev" per line
    <time sections>   one axis value per line
    \\x00
    <little-endian float64 block, row-major in the declared shape>

A long-format CSV variant (``.csv``) is accepted for small fixtures:
``name,location,init,lead,value`` for forecasts and
``name,location,valid,value`` for observations. CSV files carry no location
coordinates; those default to zero.
"""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

from .coredata import (
    MISSING,
    EnsembleTensor,
    ForecastTensor,
    LeadTimeAxis,
    LocationSet,
    ObservationTensor,
    TimeAxis,
)
from .errors import (
    DimensionMismatchError,
    TensorFormatError,
    TensorHeaderError,
)

MAGIC = "ANENSOLAR/1"

_CSV_FORECAST_HEADER = ["name", "location", "init", "lead", "value"]
_CSV_OBSERVATION_HEADER = ["name", "location", "valid", "value"]


class _HeaderWriter:
    def __init__(self):
        self.lines = [MAGIC]

    def section(self, key, count):
        self.lines.append(f"{key} {count}")

    def line(self, text):
        self.lines.append(str(text))

    def names(self, key, names):
        self.section(key, len(names))
        for n in names:
            self.line(n)

    def locations(self, locs: LocationSet):
        self.section("locations", len(locs))
        for i in range(len(locs)):
            self.line(
                f"{int(locs.ids[i])} {float(locs.latitude[i])!r} "
                f"{float(locs.longitude[i])!r} {float(locs.elevation[i])!r}"
            )

    def axis(self, key, values):
        self.section(key, len(values))
        for v in values:
            self.line(int(v))

    def encode(self) -> bytes:
        return ("\n".join(self.lines) + "\n").encode("utf-8") + b"\x00\n"


class _HeaderReader:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.pos = 0

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise TensorHeaderError("unexpected end of header")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def section(self, key: str) -> int:
        line = self.next_line()
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise TensorHeaderError(f"expected section {key!r}, got {line!r}")
        try:
            count = int(parts[1])
        except ValueError:
            raise TensorHeaderError(f"bad count in section {line!r}") from None
        if count < 0:
            raise TensorHeaderError(f"negative count in section {line!r}")
        return count

    def names(self, key: str) -> list:
        count = self.section(key)
        names = []
        for _ in range(count):
            n = self.next_line()
            if not n or any(c.isspace() for c in n):
                raise TensorHeaderError(f"invalid name row {n!r} in section {key!r}")
            names.append(n)
        return names

    def locations(self) -> LocationSet:
        count = self.section("locations")
        rows = []
        for _ in range(count):
            parts = self.next_line().split()
            if len(parts) != 4:
                raise TensorHeaderError("location rows need: id lat lon elev")
            rows.append((int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3])))
        ids, lat, lon, elev = zip(*rows) if rows else ((), (), (), ())
        return LocationSet(np.array(ids), np.array(lat), np.array(lon), np.array(elev))

    def axis(self, key: str) -> np.ndarray:
        count = self.section(key)
        vals = []
        for _ in range(count):
            line = self.next_line()
            try:
                vals.append(int(line))
            except ValueError:
                raise TensorHeaderError(f"bad axis value {line!r} in section {key!r}") from None
        return np.array(vals, dtype=np.int64)

    def done(self):
        # trailing empty line comes from the final "\n" before the separator
        while self.pos < len(self.lines):
            if self.lines[self.pos] != "":
                raise TensorHeaderError(f"trailing junk in header: {self.lines[self.pos]!r}")
            self.pos += 1


def _encode_block(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def _decode_block(payload: memoryview, shape: tuple, copy: bool) -> np.ndarray:
    """The float64 block as an array of ``shape``: a read-only view of
    ``payload`` for a constructor that copies it, or one owned copy."""
    expected = int(np.prod(shape)) * 8
    if len(payload) != expected:
        raise DimensionMismatchError(
            f"binary block is {len(payload)} bytes, header shape {shape} needs {expected}"
        )
    block = np.frombuffer(payload, dtype="<f8").reshape(shape)
    return block.astype(np.float64) if copy else block


def write_tensor(tensor, path):
    """Serialize a tensor to ``path``; dispatches on the tensor type and extension."""
    path = str(path)
    if path.endswith(".csv"):
        _write_csv(tensor, path)
        return
    w = _HeaderWriter()
    if isinstance(tensor, ForecastTensor):
        w.line("kind forecast")
        w.names("predictors", tensor.predictor_names)
        w.locations(tensor.locations)
        w.axis("init_times", tensor.init_times.instants)
        w.axis("lead_times", tensor.lead_times.offsets)
    elif isinstance(tensor, ObservationTensor):
        w.line("kind observation")
        w.names("variables", tensor.variable_names)
        w.locations(tensor.locations)
        w.axis("valid_times", tensor.valid_times.instants)
    elif isinstance(tensor, EnsembleTensor):
        w.line("kind ensemble")
        w.names("variables", tensor.variable_names)
        w.locations(tensor.locations)
        w.axis("init_times", tensor.init_times.instants)
        w.axis("lead_times", tensor.lead_times.offsets)
        w.section("members", tensor.members)
    else:
        raise TensorFormatError(f"cannot serialize {type(tensor).__name__}")
    with open(path, "wb") as fh:
        fh.write(w.encode())
        fh.write(_encode_block(tensor.values))


def read_tensor(path, digests=None):
    """Read a tensor container (or CSV fixture); returns the kind-matching type.

    The file is read once. Given a ``digests`` dict, the SHA-256 hex digest of
    the bytes read is stored under ``str(path)``, so a caller that records its
    inputs need not read the file a second time to hash it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if digests is not None:
        digests[str(path)] = hashlib.sha256(raw).hexdigest()
    if str(path).endswith(".csv"):
        return _read_csv(raw.decode("utf-8"))
    return decode_tensor(raw)


def decode_tensor(raw: bytes):
    """Decode the bytes of a tensor container; returns the kind-matching type."""
    sep = raw.find(b"\x00\n")
    if sep < 0:
        raise TensorHeaderError("missing header/payload separator")
    try:
        header = raw[:sep].decode("utf-8")
    except UnicodeDecodeError:
        raise TensorHeaderError("header is not valid UTF-8") from None
    # a view: each returned array is the one copy of the payload
    payload = memoryview(raw)[sep + 2 :]
    r = _HeaderReader(header)
    if r.next_line() != MAGIC:
        raise TensorHeaderError(f"bad magic line, expected {MAGIC}")
    kind_line = r.next_line().split()
    if len(kind_line) != 2 or kind_line[0] != "kind":
        raise TensorHeaderError("missing kind line")
    kind = kind_line[1]
    if kind == "forecast":
        names = r.names("predictors")
        locs = r.locations()
        init = TimeAxis(r.axis("init_times"))
        lead = LeadTimeAxis(r.axis("lead_times"))
        r.done()
        values = _decode_block(payload, (len(names), len(locs), len(init), len(lead)), copy=False)
        return ForecastTensor(names, locs, init, lead, values)
    if kind == "observation":
        names = r.names("variables")
        locs = r.locations()
        valid = TimeAxis(r.axis("valid_times"))
        r.done()
        values = _decode_block(payload, (len(names), len(locs), len(valid)), copy=False)
        return ObservationTensor(names, locs, valid, values)
    if kind == "ensemble":
        names = r.names("variables")
        locs = r.locations()
        init = TimeAxis(r.axis("init_times"))
        lead = LeadTimeAxis(r.axis("lead_times"))
        members = r.section("members")
        r.done()
        values = _decode_block(payload, (len(names), len(locs), len(init), len(lead), members), copy=False)
        return EnsembleTensor(names, locs, init, lead, members, values)
    if kind in ("analogs", "sigma", "solar"):
        return _read_extended(kind, r, payload)
    raise TensorHeaderError(f"unknown kind {kind!r}")


# Extended kinds (analog index sets, sigma tables, solar caches) are written by
# their owning modules through these two hooks to keep one file grammar.

def write_extended(kind, path, *, field_names, locations, sections, values):
    """Write a non-core kind. ``sections`` is a list of (key, axis-int-array)
    or (key, int) pairs appended after the location block."""
    w = _HeaderWriter()
    w.line(f"kind {kind}")
    w.names("fields", field_names)
    w.locations(locations)
    for key, val in sections:
        if np.isscalar(val) or isinstance(val, int):
            w.section(key, int(val))
        else:
            w.axis(key, val)
    with open(str(path), "wb") as fh:
        fh.write(w.encode())
        fh.write(_encode_block(values))


def _read_extended(kind, r: _HeaderReader, payload: memoryview):
    fields = r.names("fields")
    locs = r.locations()
    sections = {}
    if kind == "analogs":
        # the init axis is lookup-only; the block is (fields, L, |test|, |leads|, M)
        sections["init_times"] = r.axis("init_times")
        sections["test_indices"] = r.axis("test_indices")
        sections["lead_times"] = r.axis("lead_times")
        sections["members"] = r.section("members")
        dims = (len(fields), len(locs), len(sections["test_indices"]),
                len(sections["lead_times"]), sections["members"])
    elif kind == "sigma":
        sections["lead_times"] = r.axis("lead_times")
        dims = (len(fields), len(locs), len(sections["lead_times"]))
    else:  # solar
        sections["init_times"] = r.axis("init_times")
        sections["lead_times"] = r.axis("lead_times")
        dims = (len(fields), len(locs), len(sections["init_times"]), len(sections["lead_times"]))
    r.done()
    values = _decode_block(payload, dims, copy=True)
    return {"kind": kind, "fields": fields, "locations": locs, "sections": sections, "values": values}


def _write_csv(tensor, path):
    if isinstance(tensor, ForecastTensor):
        if tensor.values.size > 1_000_000:
            raise TensorFormatError("CSV variant is limited to 1e6 cells")
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(_CSV_FORECAST_HEADER)
            for p, name in enumerate(tensor.predictor_names):
                for l in range(len(tensor.locations)):
                    for i, t0 in enumerate(tensor.init_times.instants):
                        for j, dt in enumerate(tensor.lead_times.offsets):
                            out.writerow([name, l, int(t0), int(dt), repr(float(tensor.values[p, l, i, j]))])
    elif isinstance(tensor, ObservationTensor):
        if tensor.values.size > 1_000_000:
            raise TensorFormatError("CSV variant is limited to 1e6 cells")
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(_CSV_OBSERVATION_HEADER)
            for v, name in enumerate(tensor.variable_names):
                for l in range(len(tensor.locations)):
                    for t, tv in enumerate(tensor.valid_times.instants):
                        out.writerow([name, l, int(tv), repr(float(tensor.values[v, l, t]))])
    else:
        raise TensorFormatError(f"CSV variant does not support {type(tensor).__name__}")


def _dense_positions(values, what):
    uniq = sorted(set(values))
    if uniq != list(range(len(uniq))):
        raise TensorFormatError(f"CSV {what} ids must be dense 0..L-1")
    return {v: i for i, v in enumerate(uniq)}


def _read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise TensorHeaderError("empty CSV file")
    header = rows[0]
    body = rows[1:]
    if header == _CSV_FORECAST_HEADER:
        names, locs, inits, leads = [], [], [], []
        parsed = []
        for row in body:
            if len(row) != 5:
                raise TensorHeaderError(f"bad CSV row: {row!r}")
            name, loc, init, lead, value = row
            parsed.append((name, int(loc), int(init), int(lead), float(value)))
        names = sorted({r[0] for r in parsed})
        loc_pos = _dense_positions([r[1] for r in parsed], "location")
        inits = sorted({r[2] for r in parsed})
        leads = sorted({r[3] for r in parsed})
        name_pos = {n: i for i, n in enumerate(names)}
        init_pos = {t: i for i, t in enumerate(inits)}
        lead_pos = {t: i for i, t in enumerate(leads)}
        values = np.full((len(names), len(loc_pos), len(inits), len(leads)), MISSING)
        for name, loc, init, lead, value in parsed:
            values[name_pos[name], loc_pos[loc], init_pos[init], lead_pos[lead]] = value
        n = len(loc_pos)
        locations = LocationSet(np.arange(n), np.zeros(n), np.zeros(n), np.zeros(n))
        return ForecastTensor(names, locations, TimeAxis(np.array(inits)), LeadTimeAxis(np.array(leads)), values)
    if header == _CSV_OBSERVATION_HEADER:
        parsed = []
        for row in body:
            if len(row) != 4:
                raise TensorHeaderError(f"bad CSV row: {row!r}")
            name, loc, valid, value = row
            parsed.append((name, int(loc), int(valid), float(value)))
        names = sorted({r[0] for r in parsed})
        loc_pos = _dense_positions([r[1] for r in parsed], "location")
        valids = sorted({r[2] for r in parsed})
        name_pos = {n: i for i, n in enumerate(names)}
        valid_pos = {t: i for i, t in enumerate(valids)}
        values = np.full((len(names), len(loc_pos), len(valids)), MISSING)
        for name, loc, valid, value in parsed:
            values[name_pos[name], loc_pos[loc], valid_pos[valid]] = value
        n = len(loc_pos)
        locations = LocationSet(np.arange(n), np.zeros(n), np.zeros(n), np.zeros(n))
        return ObservationTensor(names, locations, TimeAxis(np.array(valids)), values)
    raise TensorHeaderError(f"unrecognized CSV header: {header!r}")
