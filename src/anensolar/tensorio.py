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
lookup-only sections. ``Header.of`` gives the header of a tensor, and
``Header.axes`` gives its axes back.

The block is (names, locations, ...), so each location is one contiguous row
per name. There are two writers:

- ``write_tensor`` writes a tensor it is given whole, front to back, and
  hashes the bytes as it writes them;
- ``open_rows(path, locations)`` gives a ``RowWriter``, whose ``put(start,
  slab)`` writes every row of a tensor over the locations ``start`` to
  ``start + n - 1`` at their offsets, in any order, so a command that makes
  one location at a time (``sigma``, ``anen``, ``simulate``) holds one
  location's tensor, never its whole block. The first slab's header, with
  the file's locations, is the file's, and every later slab must match it.
  The file is hashed in one pass when every location is in.

Every read of a block is through ``open_container``, a ``Container`` over
one open file:

- ``read`` reads the payload once and front to back, straight into one
  aligned float64 array that the returned tensor keeps, so a file's values
  are held once;
- ``blocks`` reads it front to back too, but yields it in blocks of rows of
  ``BLOCK_BYTES`` at most, so a reduction over rows
  (``weights.regime_features``) never holds the whole;
- ``take`` reads a location selection, of every name or of some, one seek
  and one read per selected row.

``read_tensor`` is ``read`` on a container of its own. A read that records
a digest stores the SHA-256 of the whole file, whatever it kept: a
front-to-back pass streams every byte through the hash, and otherwise the
container hashes the file it has open from byte 0 in one chunked pass, so a
file renamed over the path meanwhile is not hashed.

A file's name means nothing to this module: every tensor file is a
container, whatever its suffix, and a file that is not one raises a
``TensorFormatError``. Every file is written to ``<path>.<pid>.tmp`` by
``_atomic.atomic_file`` and renamed over its path once whole, so a failed
write leaves the previous file whole, and every writer gives the SHA-256 of
the file it wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import operator
import os
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ._atomic import atomic_file, atomic_write, file_sha256
from .coredata import (
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
_MAGIC_LINE = f"{MAGIC}\n".encode()
# bytes per read while looking for the header's end
_HEADER_CHUNK = 1 << 16
# bytes of rows, at most, in each block ``Container.blocks`` yields
BLOCK_BYTES = 1 << 20


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


def _section(tensor, key):
    """A section's header value: the member count, or an axis's int values."""
    value = getattr(tensor, key)
    return getattr(value, _AXES[key][1]) if key in _AXES else value


def _by_name(tensor):
    """The tensor's block along its names axis: the names of its values, or
    one array per stacked field."""
    return [getattr(tensor, a) for a in tensor.ARRAYS] if LAYOUTS[_KINDS[type(tensor)]].fields else tensor.values


def write_tensor(tensor, path):
    """Serialize a tensor of any kind to ``path``: its own header, then its
    block one name at a time, hashed as written. Returns the SHA-256 hex
    digest of the file."""
    return atomic_write(path, itertools.chain([_encode_header(Header.of(tensor))],
                                              (np.ascontiguousarray(block, dtype="<f8") for block in _by_name(tensor))))


class RowWriter:
    """A container of ``locations`` being written one location slab at a
    time, in any order. ``put`` writes each slab's rows at their offsets;
    ``open_rows`` closes the writer, which then holds the file's digest in
    ``sha256``."""

    def __init__(self, fh, locations: LocationSet):
        self.sha256 = None
        self._fh = fh
        self._locations = locations
        self._header = None  # the first slab's, over the file's locations
        self._missing = np.ones(len(locations), dtype=bool)  # the locations not put yet

    def put(self, start: int, slab):
        """Write every row of ``slab``, a tensor over the file's locations
        ``start`` to ``start + n - 1``, at its offsets. The first slab's
        header, with the file's locations, becomes the file's header, and the
        file is sized for its block; every slab's header must encode to that
        header over its own locations. A location off the file, a location
        put twice or a slab of another header raises ``DimensionMismatchError``."""
        header, start = Header.of(slab), operator.index(start)
        stop, n_loc = start + len(header.locations), len(self._locations)
        if not 0 <= start <= stop <= n_loc:
            raise DimensionMismatchError(f"locations {start}..{stop - 1} are outside the file's 0..{n_loc - 1}")
        if self._header is None:
            self._header = header._replace(locations=self._locations)
            head = _encode_header(self._header)
            self._start, self._row_bytes = len(head), 8 * int(np.prod(self._header.shape[2:]))
            self._fh.write(head)
            self._fh.truncate(self._start + len(header.names) * n_loc * self._row_bytes)
        if _encode_header(header) != _encode_header(self._header._replace(
                locations=self._locations.take(range(start, stop)))):
            raise DimensionMismatchError(f"the slab at locations {start}..{stop - 1} does not have the "
                                         f"file's header there")
        if not self._missing[start:stop].all():
            raise DimensionMismatchError(f"location {start + int(np.argmin(self._missing[start:stop]))} is put twice")
        for name, block in enumerate(_by_name(slab)):
            self._fh.seek(self._start + (name * n_loc + start) * self._row_bytes)
            self._fh.write(np.ascontiguousarray(block, dtype="<f8"))
        self._missing[start:stop] = False

    def _close(self):
        """Check that every location is in, then hash the file in one pass from byte 0."""
        if self._missing.any():
            raise DimensionMismatchError(f"{int(self._missing.sum())} locations never put, the first "
                                         f"{int(np.argmax(self._missing))}")
        if self._header is None:
            raise DimensionMismatchError("no slab was put to give the file its header")
        self.sha256 = file_sha256(self._fh)


@contextlib.contextmanager
def open_rows(path, locations: LocationSet):
    """A ``RowWriter`` of a container over ``locations`` at ``path``. It
    writes to ``<path>.<pid>.tmp``; when the ``with`` block ends without an
    error, the writer checks that every location was put, hashes the file
    into its ``sha256`` and renames it over ``path``. An error, raised in the
    block or by those checks, removes the temporary file, which leaves the
    previous file whole."""
    with atomic_file(path) as fh:
        writer = RowWriter(fh, locations)
        yield writer
        writer._close()


def _encode_header(header) -> bytes:
    """The header's text in ``LAYOUTS`` order, and the separator."""
    layout = LAYOUTS[header.kind]
    locations = header.locations
    lines = [MAGIC, f"kind {header.kind}", f"{layout.names} {len(header.names)}", *map(str, header.names),
             f"locations {len(locations)}"]
    lines += [f"{int(locations.ids[i])} {float(locations.latitude[i])!r} "
              f"{float(locations.longitude[i])!r} {float(locations.elevation[i])!r}"
              for i in range(len(locations))]
    for key in layout.sections:
        value = header.sections[key]
        if key == "members":
            lines.append(f"members {int(value)}")
        else:
            lines.append(f"{key} {len(value)}")
            lines += [str(int(v)) for v in value]
    return ("\n".join(lines) + "\n").encode("utf-8") + b"\x00\n"


def _tensor(header, values):
    """The tensor of ``header``; ``values``, a fresh array of the reader's, is
    kept by it without a copy."""
    layout = LAYOUTS[header.kind]
    fields = vars(header.axes)
    if not layout.fields:
        fields["values"] = _Owned(values)
    elif list(header.names) != list(layout.fields):
        raise TensorHeaderError(f"{header.kind} fields must be {list(layout.fields)}, got {list(header.names)}")
    else:
        fields.update(zip(layout.tensor.ARRAYS, map(_Owned, values)))
    return layout.tensor(**fields)


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
            line = self.next_line()
            try:
                loc, lat, lon, elev = line.split()
                rows.append((int(loc), float(lat), float(lon), float(elev)))
            except ValueError:
                raise TensorHeaderError(f"location rows need: id lat lon elev, got {line!r}") from None
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


class Header(NamedTuple):
    """A container's header: its kind, the names of the block's first axis,
    its locations and the sections after them, as ``LAYOUTS[kind]`` orders
    them (a member count, or an axis's int64 values)."""

    kind: str
    names: list
    locations: LocationSet
    sections: dict

    @classmethod
    def of(cls, tensor) -> "Header":
        """The header of ``tensor``, a tensor of a ``LAYOUTS`` kind."""
        kind = _KINDS.get(type(tensor))
        if kind is None:
            raise TensorFormatError(f"cannot serialize {type(tensor).__name__}")
        layout = LAYOUTS[kind]
        return cls(kind, list(layout.fields or getattr(tensor, tensor.AXES[0])), tensor.locations,
                   {key: _section(tensor, key) for key in layout.sections})

    @property
    def axes(self) -> SimpleNamespace:
        """The tensor's fields other than its arrays, as attributes: its
        names, unless the block stacks fixed fields, its locations, and each
        section as its axis (``TimeAxis``, ``LeadTimeAxis``), index array or
        count."""
        layout = LAYOUTS[self.kind]
        axes = {key: _AXES[key][0](self.sections[key]) if key in _AXES else self.sections[key]
                for key in layout.sections}
        if not layout.fields:
            axes[layout.tensor.AXES[0]] = self.names
        return SimpleNamespace(locations=self.locations, **axes)

    @property
    def shape(self) -> tuple:
        """The shape of the float64 block: (names, locations, *axes)."""
        return (len(self.names), len(self.locations),
                *(self.sections[key] if key == "members" else len(self.sections[key])
                  for key in LAYOUTS[self.kind].axes))


def _parse_header(header: bytes) -> Header:
    try:
        text = header.decode("utf-8")
    except UnicodeDecodeError:
        raise TensorHeaderError("header is not valid UTF-8") from None
    r = _HeaderReader(text)
    r.next_line()  # the magic line, checked as the head was read
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
    return Header(kind, names, locations, sections)


def _read_head(fh):
    """(header, its bytes up to and with the separator) of the open container
    ``fh``, read in chunks up to the separator; ``fh`` is left at the payload,
    which must hold exactly the bytes of the block the header's shape
    declares. A file that does not start with the magic line is refused at
    its first chunk, so a large file of another format is not read through."""
    head, sep = b"", -1
    while sep < 0:
        chunk = fh.read(_HEADER_CHUNK)
        if not chunk:
            raise TensorHeaderError("missing header/payload separator")
        start = max(len(head) - 1, 0)
        head += chunk  # bytes, not a bytearray: the first chunk becomes head uncopied
        if not (head.startswith(_MAGIC_LINE) or _MAGIC_LINE.startswith(head)):
            raise TensorHeaderError(f"bad magic line, expected {MAGIC}")
        sep = head.find(b"\x00\n", start)
    fh.seek(sep + 2)
    header, head = _parse_header(head[:sep]), head[:sep + 2]
    shape = header.shape
    payload, expected = os.fstat(fh.fileno()).st_size - len(head), int(np.prod(shape)) * 8
    if payload != expected:
        raise DimensionMismatchError(
            f"binary block is {payload} bytes, header shape {shape} needs {expected}")
    return header, head


def _selection(indices, n: int, what: str = "location"):
    """The distinct indices ``indices`` of ``what``, each in 0..n-1, in the
    given order."""
    rows = [operator.index(i) for i in indices]
    seen = set()
    for i in rows:
        if not 0 <= i < n:
            raise ValueError(f"{what} {i} is outside 0..{n - 1}")
        if i in seen:
            raise ValueError(f"{what} {i} is selected twice")
        seen.add(i)
    return rows


def _fill(fh, out: np.ndarray, digest):
    """Fill the contiguous array ``out`` with the next ``out.nbytes`` bytes of
    ``fh``, and pass them through the running SHA-256, when one is taken."""
    block = out.reshape(-1).view(np.uint8)
    # a buffered readinto reads until the block is full or the file ends
    if fh.readinto(block) != len(block):
        raise DimensionMismatchError("binary block changed size while it was read")
    if digest is not None:
        digest.update(block)


class Container:
    """A container open for reading on one file: its ``header``, and reads
    of its block that all come from that file, whatever is renamed over its
    path meanwhile.

    ``read`` gives the whole tensor and ``blocks`` the block in bounded
    blocks of rows, both front to back and hashed as read; ``take`` reads a
    location selection. ``sha256`` is the digest of the whole file: the one
    a finished front-to-back pass took, else one chunked pass over the open
    file.
    """

    def __init__(self, fh):
        self._fh = fh
        self.header, self._head = _read_head(fh)
        self._sha256 = None

    def _rewind(self):
        """A SHA-256 over the header, with the file at the block's start."""
        self._fh.seek(len(self._head))
        return hashlib.sha256(self._head)

    def read(self):
        """The whole tensor, read into one aligned float64 array that it
        keeps, read-only and never copied: one ``readinto`` per name."""
        values = np.empty(self.header.shape, dtype="<f8")
        digest = self._rewind()
        for block in values:
            _fill(self._fh, block, digest)
        self._sha256 = digest.hexdigest()
        return _tensor(self.header, values)

    def blocks(self):
        """Yield the block in file order as (name, rows) pairs: for each name
        of the header, the rows of its next locations, ``BLOCK_BYTES`` of
        them at most, or one where a row is larger. Each rows array is fresh,
        so only the blocks the caller keeps are held. Read nothing else from
        the container until the last pair is taken."""
        n_names, n_loc, *axes = self.header.shape
        step = max(1, BLOCK_BYTES // max(1, 8 * int(np.prod(axes))))
        digest = self._rewind()
        for name in self.header.names:
            for start in range(0, n_loc, step):
                rows = np.empty((min(step, n_loc - start), *axes), dtype="<f8")
                _fill(self._fh, rows, digest)
                yield name, rows
        self._sha256 = digest.hexdigest()

    def take(self, locations, names=None):
        """The tensor over the distinct location indices ``locations`` alone,
        in that order, renumbered from 0, and over the distinct header
        ``names`` alone, in that order (every name by default; a kind whose
        block stacks fixed fields needs them all): one seek and one
        ``readinto`` per selected (name, location) row."""
        header = self.header
        n_names, n_loc, *axes = header.shape
        rows = _selection(locations, n_loc)
        picked = range(n_names) if names is None else _selection(map(header.names.index, names), n_names, "name")
        values = np.empty((len(picked), len(rows), *axes), dtype="<f8")
        for name, block in zip(picked, values):
            for row, loc in zip(block, rows):
                self._fh.seek(len(self._head) + (name * n_loc + loc) * row.nbytes)
                _fill(self._fh, row, None)
        return _tensor(header._replace(names=[header.names[n] for n in picked],
                                       locations=header.locations.take(rows)), values)

    def sha256(self) -> str:
        """The SHA-256 hex digest of the whole open file."""
        return self._sha256 or file_sha256(self._fh)


@contextlib.contextmanager
def open_container(path, digests=None):
    """Open a tensor container for reading: a ``Container`` over the open
    file. Given a ``digests`` dict, the container's ``sha256`` is stored
    under ``str(path)`` when the ``with`` block ends without an error, so the
    digest is always that of the file the rows came from."""
    with open(path, "rb") as fh:
        container = Container(fh)
        yield container
        if digests is not None:
            digests[str(path)] = container.sha256()


def read_tensor(path, digests=None):
    """Read a tensor container whole (``Container.read``); returns the tensor
    of its kind, ``LAYOUTS[kind].tensor``. Given a ``digests`` dict, the
    SHA-256 hex digest of the file, hashed as it was read, is stored under
    ``str(path)``."""
    with open_container(path, digests) as container:
        return container.read()
