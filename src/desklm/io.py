"""Deterministic on-disk container for named arrays plus a JSON header.

Layout (all little-endian, no timestamps, so identical content yields
identical bytes):

    bytes 0..3    magic b"DLM1"
    bytes 4..11   uint64: byte length H of the JSON header
    bytes 12..12+H  UTF-8 JSON header (sorted keys)
    remainder     raw array data, concatenated in header order

The header is ``{"format_version": 1, "meta": {...}, "arrays": [...]}``
where each array entry is ``{"name", "dtype", "shape", "offset", "nbytes"}``
with offsets relative to the start of the data section.  Supported dtypes
are "<f8" and "<i4".  Checkpoints and packed token files both use this
container; see README for the exact meta fields each writer stores.

Every file the package writes goes through :func:`atomic_open`: a temporary
file beside the target replaces it only once complete, so a crash never
leaves a half-written file under the target's name.  Reads check the layout
against the file's size and reject a truncated, padded or inconsistent file
with :class:`CorruptFileError`.

Every JSON input is parsed by :func:`parse_json` and typed by
:func:`decode_record`, whose errors name the file.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import os
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptFileError

_MAGIC = b"DLM1"
_PREAMBLE = 12                  # magic plus the uint64 header length
_DTYPES = {"<f8", "<i4"}


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write ``.<name>.<pid>.tmp`` beside ``path``; fsync it and ``os.replace``
    ``path`` with it on a clean exit, remove it on any exception.  Text modes
    write UTF-8 with no newline translation."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """:func:`canonical_json` of ``obj`` plus a newline, written atomically."""
    with atomic_open(path) as f:
        f.write(canonical_json(obj) + "\n")


def write_csv(path, header, rows) -> None:
    """A header row then ``rows``, CSV with CRLF line ends, written atomically."""
    with atomic_open(path) as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays and a metadata dict to ``path``.

    Array insertion order is preserved; the same arrays and meta always
    produce byte-identical files.
    """
    entries = []
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype == np.float64:
            dtype = "<f8"
        elif arr.dtype == np.int32:
            dtype = "<i4"
        else:
            raise ValueError(f"unsupported dtype {arr.dtype} for array {name!r}")
        blob = np.ascontiguousarray(arr).astype(dtype, copy=False).tobytes()
        entries.append({
            "name": name,
            "dtype": dtype,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(blob),
        })
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": 1,
        "meta": meta or {},
        "arrays": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        for blob in blobs:
            f.write(blob)


def load_arrays(path) -> tuple[dict, dict]:
    """Read a container written by :func:`save_arrays`.

    Returns ``(arrays, meta)`` with arrays in file order.  Raises
    :class:`CorruptFileError`, naming ``path``, unless the header fits the
    file and the arrays it lists fill the data section exactly, each in
    header order under its own name, with nbytes = prod(shape) * itemsize
    (each an int, as the format version is).
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise CorruptFileError(f"{path}: not a DLM1 array file")
    if len(raw) < _PREAMBLE:
        raise CorruptFileError(f"{path}: truncated: {len(raw)} bytes, "
                               f"shorter than the {_PREAMBLE}-byte preamble")
    data_start = _PREAMBLE + int.from_bytes(raw[4:_PREAMBLE], "little")
    if data_start > len(raw):
        raise CorruptFileError(f"{path}: truncated: the header ends at byte {data_start} "
                               f"of a {len(raw)}-byte file")
    try:
        header = json.loads(raw[_PREAMBLE:data_start].decode("utf-8"))
        version, meta, entries = header["format_version"], header["meta"], header["arrays"]
        if not isinstance(entries, list):
            raise TypeError(f"arrays is a {type(entries).__name__}, not a list")
        if not isinstance(meta, dict):
            raise TypeError(f"meta is a {type(meta).__name__}, not an object")
    except (ValueError, TypeError, KeyError) as e:
        raise CorruptFileError(f"{path}: unreadable header ({e!r})") from e
    if type(version) is not int or version != 1:
        raise CorruptFileError(f"{path}: unsupported format_version {version!r}")
    data = memoryview(raw)[data_start:]
    arrays = {}
    end = 0
    for ent in entries:
        arrays[ent["name"]] = _read_entry(path, data, ent, end, arrays)
        end += ent["nbytes"]
    if end != len(data):
        raise CorruptFileError(f"{path}: {len(data) - end} trailing bytes after the "
                               f"{end} bytes of array data")
    return arrays, meta


def _read_entry(path, data, ent: dict, offset: int, earlier: dict) -> np.ndarray:
    """One array of the data section, which must start at ``offset`` and
    have a name that no array of ``earlier`` has."""
    try:
        name, dtype, shape, nbytes, start = (
            ent[k] for k in ("name", "dtype", "shape", "nbytes", "offset"))
        if name in earlier:
            raise CorruptFileError(f"{path}: array {name!r} is listed twice")
        if dtype not in _DTYPES:
            raise CorruptFileError(f"{path}: unsupported dtype {dtype!r} for array {name!r}")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise CorruptFileError(f"{path}: array {name!r} has a bad shape {shape!r}")
        count = math.prod(shape)
        want = count * np.dtype(dtype).itemsize
        if (nbytes, start) != (want, offset) or type(nbytes) is not int or type(start) is not int:
            raise CorruptFileError(
                f"{path}: array {name!r} claims {nbytes!r} bytes at offset {start!r}; "
                f"shape {shape} needs {want} bytes at offset {offset}")
    except (TypeError, KeyError) as e:
        raise CorruptFileError(f"{path}: malformed array entry {ent!r}") from e
    if offset + nbytes > len(data):
        raise CorruptFileError(f"{path}: truncated: array {name!r} needs bytes up to "
                               f"{offset + nbytes} of a {len(data)}-byte data section")
    return np.frombuffer(data, dtype=dtype, count=count, offset=offset).reshape(shape).copy()


def canonical_json(obj) -> str:
    """Serialize ``obj`` deterministically (sorted keys, repr floats), each NaN or
    infinite float as null, so :func:`parse_json` reads back all that it writes."""
    return json.dumps(_finite(obj), sort_keys=True, indent=2, allow_nan=False)


def _finite(obj):
    """``obj`` with each non-finite float, in any list, tuple or dict, replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _refuse(number: str):
    raise ValueError(f"{number} is not a finite number")


def parse_json(text, where):
    """The JSON value of ``text`` (str or UTF-8 bytes), each number finite (no
    NaN, Infinity or 1e999); each failure is a ConfigError starting ``where``."""
    try:
        return json.loads(text, parse_constant=_refuse,
                          parse_float=lambda s: _refuse(s) if math.isinf(float(s)) else float(s))
    except ValueError as e:     # JSONDecodeError and UnicodeDecodeError among them
        raise ConfigError(f"{where}: not valid JSON ({e})") from e


def read_json(path):
    """The JSON value in the file ``path``; see :func:`parse_json`."""
    return parse_json(Path(path).read_bytes(), path)


@functools.cache
def _fields(cls) -> dict:
    """{JSON name: (field name, type, required)} of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {f.metadata.get("json", f.name): (f.name, hints[f.name], f.default is not None)
            for f in dataclasses.fields(cls)}


def decode_record(cls, obj, where):
    """Decode the JSON value ``obj`` as ``cls``: a dataclass, ``X | None``,
    ``list[X]``, ``dict[str, X]``, bool, int, float or str (an int passes for
    a float and is read as one, a bool only for a bool).  A dataclass takes an
    object with each field, under its ``metadata["json"]`` name or its own, and
    no other; only a field whose default is None may be absent.  Every error
    is a ConfigError starting with ``where``."""
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if type(None) in args:                                  # X | None, in that order
        return None if obj is None else decode_record(args[0], obj, where)
    kind = origin or (dict if dataclasses.is_dataclass(cls) else cls)
    if not (isinstance(obj, kind) and (kind is bool or not isinstance(obj, bool))
            or kind is float and type(obj) is int):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {type(obj).__name__}")
    if origin is list:
        return [decode_record(args[0], v, f"{where}[{i}]") for i, v in enumerate(obj)]
    if origin is dict:
        return {k: decode_record(args[1], v, f"{where}: {k}") for k, v in obj.items()}
    if kind is float:
        try:
            return float(obj)
        except OverflowError:
            raise ConfigError(f"{where}: an int too large for a float") from None
    if kind is not dict:
        return obj
    table = _fields(cls)
    bad = {"unknown": sorted(obj.keys() - table.keys()),
           "missing": sorted(k for k, (_, _, req) in table.items() if req and k not in obj)}
    if any(bad.values()):
        raise ConfigError(f"{where}: " + ", ".join(f"{k} fields {v}" for k, v in bad.items() if v))
    values = {table[k][0]: decode_record(table[k][1], v, f"{where}: {k}") for k, v in obj.items()}
    try:                        # a record checks itself when it is made
        return cls(**values)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e
