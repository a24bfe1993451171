"""On-disk tensor container: a text header followed by a float64 binary block.

Layout::

    ANENSOLAR/1
    kind <forecast|observation|ensemble|analogs|sigma>
    <names section>   e.g. "predictors 2" then one name per line
    locations <L>     then "id lat lon elev" per line
    <time sections>   one axis value per line
    \\x00
    <little-endian float64 block, row-major in the declared shape>

Every kind is a ``coredata`` tensor, and this module alone knows how it is
laid out on disk. The tensor's ``AXES`` give the block's shape and the header
sections after the locations; ``LAYOUTS`` adds only what the tensor cannot
say: the names-section key, the fixed field names of a stacked block, and the
lookup-only sections. ``write_tensor`` and ``read_tensor`` follow both for
every kind. The decoder reads the header, then reads the payload straight
into one aligned float64 array that the returned tensor keeps, so a file's
values are held once; the SHA-256 of a read is taken over those same bytes.
A long-format CSV variant (``.csv``) of forecasts and observations is
accepted for small fixtures; its columns are in ``_CSV_AXES`` and it carries
no location coordinates, which default to zero. Every file goes through
``_atomic.atomic_write``, so a failed write leaves the previous file whole, and
every writer returns the SHA-256 of the bytes it wrote.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._atomic import atomic_write, atomic_write_csv
from .coredata import (
    MISSING,
    _Owned,
    AnalogIndexSet,
    EnsembleTensor,
    ForecastTensor,
    LeadTimeAxis,
    LocationSet,
    ObservationTensor,
    SigmaTensor,
    TimeAxis,
)
from .errors import DimensionMismatchError, TensorFormatError, TensorHeaderError

MAGIC = "ANENSOLAR/1"
# bytes per read while looking for the header's end
_HEADER_CHUNK = 1 << 16


class Layout(NamedTuple):
    tensor: type         # the coredata tensor of the kind
    names: str           # key of the names section
    fields: tuple = ()   # fixed names of the tensor's ARRAYS, stacked along the
                         # block's names axis; () when the names axis is the
                         # tensor's names attribute and the block its values
    lookup: tuple = ()   # header sections before the block's axes that the
                         # block does not index

    @property
    def axes(self) -> tuple:
        """The axes of the float64 block after (names, locations)."""
        axes = self.tensor.AXES
        return axes[axes.index("locations") + 1:]

    @property
    def sections(self) -> tuple:
        """The header sections after the locations, in file order."""
        return self.lookup + self.axes


# "members" is a count on its own line; every other section is an int64 axis.
# The analogs init axis is lookup-only: the block indexes test_indices.
LAYOUTS = {
    "forecast": Layout(ForecastTensor, "predictors"),
    "observation": Layout(ObservationTensor, "variables"),
    "ensemble": Layout(EnsembleTensor, "variables"),
    "analogs": Layout(AnalogIndexSet, "fields", ("search_init", "distance"), ("init_times",)),
    "sigma": Layout(SigmaTensor, "fields"),
}
_KINDS = {layout.tensor: kind for kind, layout in LAYOUTS.items()}

# axis section -> (axis type of the tensors, its values attribute)
_AXES = {"init_times": (TimeAxis, "instants"), "valid_times": (TimeAxis, "instants"),
         "lead_times": (LeadTimeAxis, "offsets")}

# CSV kind -> its axis columns, between "name,location" and "value"
_CSV_AXES = {"forecast": ("init", "lead"), "observation": ("valid",)}


def _section(tensor, key):
    """A section's header value: the member count, or an axis's int values."""
    value = getattr(tensor, key)
    return getattr(value, _AXES[key][1]) if key in _AXES else value


def write_tensor(tensor, path):
    """Serialize a tensor of any kind to ``path``: the header in ``LAYOUTS``
    order, then the block. A ``.csv`` path gets the CSV variant of a forecast
    or an observation. Returns the SHA-256 hex digest of the file."""
    kind = _KINDS.get(type(tensor))
    if kind is None:
        raise TensorFormatError(f"cannot serialize {type(tensor).__name__}")
    if str(path).endswith(".csv"):
        return _write_csv(kind, tensor, path)
    layout = LAYOUTS[kind]
    if layout.fields:
        names, block = layout.fields, [getattr(tensor, a) for a in tensor.ARRAYS]
    else:
        names, block = getattr(tensor, tensor.AXES[0]), [tensor.values]
    locations = tensor.locations
    lines = [MAGIC, f"kind {kind}", f"{layout.names} {len(names)}", *map(str, names),
             f"locations {len(locations)}"]
    lines += [f"{int(locations.ids[i])} {float(locations.latitude[i])!r} "
              f"{float(locations.longitude[i])!r} {float(locations.elevation[i])!r}"
              for i in range(len(locations))]
    for key in layout.sections:
        value = _section(tensor, key)
        if key == "members":
            lines.append(f"members {int(value)}")
        else:
            lines.append(f"{key} {len(value)}")
            lines += [str(int(v)) for v in value]
    header = ("\n".join(lines) + "\n").encode("utf-8") + b"\x00\n"
    return atomic_write(path, header, *(np.ascontiguousarray(a, dtype="<f8") for a in block))


def _tensor(kind, names, locations, sections, values):
    """The tensor of ``kind``; ``values``, a fresh array of the reader's, is
    kept by it without a copy."""
    layout = LAYOUTS[kind]
    fields = {key: _AXES[key][0](sections[key]) if key in _AXES else sections[key]
              for key in layout.sections}
    if not layout.fields:
        fields[layout.tensor.AXES[0]], fields["values"] = names, _Owned(values)
    elif list(names) != list(layout.fields):
        raise TensorHeaderError(f"{kind} fields must be {list(layout.fields)}, got {list(names)}")
    else:
        fields.update(zip(layout.tensor.ARRAYS, map(_Owned, values)))
    return layout.tensor(locations=locations, **fields)


class _HeaderReader:
    def __init__(self, text: str):
        self.lines = iter(text.split("\n"))

    def next_line(self) -> str:
        line = next(self.lines, None)
        if line is None:
            raise TensorHeaderError("unexpected end of header")
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
        names = [self.next_line() for _ in range(self.section(key))]
        for n in names:
            if not n or any(c.isspace() for c in n):
                raise TensorHeaderError(f"invalid name row {n!r} in section {key!r}")
        return names

    def locations(self) -> LocationSet:
        rows = []
        for _ in range(self.section("locations")):
            parts = self.next_line().split()
            if len(parts) != 4:
                raise TensorHeaderError("location rows need: id lat lon elev")
            rows.append((int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3])))
        ids, lat, lon, elev = zip(*rows) if rows else ((), (), (), ())
        return LocationSet(np.array(ids), np.array(lat), np.array(lon), np.array(elev))

    def axis(self, key: str):
        """A count for ``members``, else the int64 values of an axis section."""
        if key == "members":
            return self.section(key)
        values = []
        for _ in range(self.section(key)):
            line = self.next_line()
            try:
                values.append(int(line))
            except ValueError:
                raise TensorHeaderError(f"bad axis value {line!r} in section {key!r}") from None
        return np.array(values, dtype=np.int64)

    def done(self):
        # trailing empty line comes from the final "\n" before the separator
        for line in self.lines:
            if line != "":
                raise TensorHeaderError(f"trailing junk in header: {line!r}")


def _parse_header(header: bytes):
    """(kind, names, locations, sections) of a container header."""
    try:
        text = header.decode("utf-8")
    except UnicodeDecodeError:
        raise TensorHeaderError("header is not valid UTF-8") from None
    r = _HeaderReader(text)
    if r.next_line() != MAGIC:
        raise TensorHeaderError(f"bad magic line, expected {MAGIC}")
    kind_line = r.next_line().split()
    if len(kind_line) != 2 or kind_line[0] != "kind":
        raise TensorHeaderError("missing kind line")
    kind = kind_line[1]
    layout = LAYOUTS.get(kind)
    if layout is None:
        raise TensorHeaderError(f"unknown kind {kind!r}")
    names = r.names(layout.names)
    locations = r.locations()
    sections = {key: r.axis(key) for key in layout.sections}
    r.done()
    return kind, names, locations, sections


def read_tensor(path, digests=None):
    """Read a tensor container (or CSV fixture); returns the tensor of its
    kind, ``LAYOUTS[kind].tensor``.

    The header is read in chunks up to its separator. The payload is then
    read straight into one aligned float64 array of the header's shape, which
    the tensor keeps, read-only and never copied: as its values, or, for a
    stacked block, as one view per field. Given a ``digests`` dict, the SHA-256
    hex digest of the header and payload bytes just read, which are the
    file's bytes, is stored under ``str(path)``, so a caller that records its
    inputs need not read the file a second time to hash it.
    """
    if str(path).endswith(".csv"):
        raw = Path(path).read_bytes()
        if digests is not None:
            digests[str(path)] = hashlib.sha256(raw).hexdigest()
        return _read_csv(raw.decode("utf-8"))
    with open(path, "rb") as fh:
        head, sep = bytearray(), -1
        while sep < 0:
            chunk = fh.read(_HEADER_CHUNK)
            if not chunk:
                raise TensorHeaderError("missing header/payload separator")
            start = max(len(head) - 1, 0)
            head += chunk
            sep = head.find(b"\x00\n", start)
        kind, names, locations, sections = _parse_header(head[:sep])
        layout = LAYOUTS[kind]
        shape = (len(names), len(locations),
                 *(sections[key] if key == "members" else len(sections[key])
                   for key in layout.axes))
        payload, expected = os.fstat(fh.fileno()).st_size - sep - 2, int(np.prod(shape)) * 8
        if payload != expected:
            raise DimensionMismatchError(
                f"binary block is {payload} bytes, header shape {shape} needs {expected}")
        values = np.empty(shape, dtype="<f8")
        block = memoryview(values.reshape(-1).view(np.uint8))
        done = len(head) - sep - 2
        block[:done] = head[sep + 2:]
        # a buffered readinto reads until the block is full or the file ends
        if fh.readinto(block[done:]) != expected - done:
            raise DimensionMismatchError("binary block changed size while it was read")
    if digests is not None:
        digest = hashlib.sha256(memoryview(head)[:sep + 2])
        digest.update(block)
        digests[str(path)] = digest.hexdigest()
    return _tensor(kind, names, locations, sections, values)


def _write_csv(kind, tensor, path):
    if kind not in _CSV_AXES:
        raise TensorFormatError(f"CSV variant does not support {type(tensor).__name__}")
    if tensor.values.size > 1_000_000:
        raise TensorFormatError("CSV variant is limited to 1e6 cells")
    names = getattr(tensor, tensor.AXES[0])
    axes = [_section(tensor, key) for key in LAYOUTS[kind].sections]
    rows = ([names[name], loc, *(int(axis[i]) for axis, i in zip(axes, cell)),
             repr(float(tensor.values[(name, loc, *cell)]))]
            for name, loc, *cell in np.ndindex(tensor.values.shape))
    return atomic_write_csv(path, ["name", "location", *_CSV_AXES[kind], "value"], rows)


def _read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise TensorHeaderError("empty CSV file")
    header, body = rows[0], rows[1:]
    kind = next((k for k, cols in _CSV_AXES.items() if header == ["name", "location", *cols, "value"]),
                None)
    if kind is None:
        raise TensorHeaderError(f"unrecognized CSV header: {header!r}")
    parsed = []
    for row in body:
        if len(row) != len(header):
            raise TensorHeaderError(f"bad CSV row: {row!r}")
        parsed.append((row[0], *map(int, row[1:-1]), float(row[-1])))
    # the sorted distinct values of each column but "value": names, locations, axes
    columns = [sorted({r[k] for r in parsed}) for k in range(len(header) - 1)]
    if columns[1] != list(range(len(columns[1]))):
        raise TensorFormatError("CSV location ids must be dense 0..L-1")
    positions = [{v: i for i, v in enumerate(column)} for column in columns]
    values = np.full([len(column) for column in columns], MISSING)
    for row in parsed:
        values[tuple(pos[v] for pos, v in zip(positions, row))] = row[-1]
    n = len(columns[1])
    locations = LocationSet(np.arange(n), np.zeros(n), np.zeros(n), np.zeros(n))
    sections = dict(zip(LAYOUTS[kind].sections, map(np.array, columns[2:])))
    return _tensor(kind, columns[0], locations, sections, values)
