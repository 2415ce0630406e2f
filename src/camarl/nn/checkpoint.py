"""The file layer: every artifact is written and read here, through
``atomic_open``.

Checkpoints: magic ``CMCK``, a little-endian u32 format version, a u64
header length, a canonical-JSON header (sorted keys, fixed separators),
then the raw little-endian float64 tensor payloads in header order.
Unlike zip containers there are no timestamps, so saving identical state
twice gives identical bytes, which the rerun guarantees in the harness
depend on.  CSV (``write_csv``) writes floats, numpy float64 included,
as the ``repr`` of the Python float, which reads back to the same bits;
JSON (``write_json``) is indented by 2 with sorted keys.

Inputs: a file that cannot be opened raises ``UsageError`` (exit 2), and
one that is torn, malformed, not CSV or not a JSON object raises
``ConfigurationError`` (exit 3), as does a record read back that fails
``check_fields``.
"""

import contextlib
import csv
import io
import json
import math
import os
import struct
import sys

import numpy as np

from camarl.errors import ConfigurationError, UsageError

_MAGIC = b"CMCK"
_VERSION = 1


@contextlib.contextmanager
def atomic_open(path, mode, **kwargs):
    """``open(path, mode)`` through a sibling temp file.

    The temp file replaces ``path`` only once the block completes, so a
    block that raises leaves any earlier file at ``path`` intact and no
    temp file behind.  There is no ``fsync``: a crash of this process
    cannot tear the file, but a power loss before the operating system
    writes its cache back can.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(path, header, rows):
    """Write a header row, then one line per row of values."""
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_json(path, obj):
    """Write obj as JSON, indented by 2 with sorted keys."""
    with atomic_open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _open_input(path):
    try:
        return open(path, "rb")
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}") from None


def _read_bytes(path):
    with _open_input(path) as f:
        return f.read()


def read_csv(path):
    """Read a file written by write_csv: one {header: cell} dict per row."""
    raw = _read_bytes(path)
    try:
        return list(csv.DictReader(io.StringIO(raw.decode("utf-8"),
                                               newline="")))
    except (UnicodeDecodeError, csv.Error) as err:
        raise ConfigurationError(f"{path} is not a CSV file: {err}") from None


def read_json(path):
    """Read the JSON object in a file written by write_json."""
    raw = _read_bytes(path)
    try:
        obj = json.loads(raw)
    except ValueError as err:
        raise ConfigurationError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path} does not hold a JSON object")
    return obj


def is_str(v):
    return type(v) is str


def count(lo):
    return lambda v: type(v) is int and v >= lo   # a bool is no int


def number(v):
    # NaN, +-inf and an int beyond float range all fail the comparison
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def finite(a):
    return bool(np.isfinite(a).all())


def strings(v):
    return type(v) is list and len(v) > 0 and all(type(s) is str for s in v)


def ints(n):
    return lambda v: (type(v) is list and len(v) == n
                      and all(type(i) is int for i in v))


def check_fields(obj, checks, what):
    """Return obj if it holds every key of checks and each value passes
    its key's check; else raise ConfigurationError naming what and keys."""
    missing = [k for k in checks if k not in obj]
    if missing:
        raise ConfigurationError(f"{what} lacks {', '.join(missing)}")
    bad = [k for k, ok in checks.items() if not ok(obj[k])]
    if bad:
        raise ConfigurationError(f"{what} has an invalid {', '.join(bad)}")
    return obj


def save_checkpoint(path, arrays, meta=None):
    """Write named float64 arrays plus a JSON-serializable meta dict.

    The substrate version is always recorded in the header.  The file is
    written through ``atomic_open``, so a failed save leaves any earlier
    file at ``path`` intact.
    """
    from camarl import SUBSTRATE_VERSION

    names = list(arrays.keys())
    full_meta = {"substrate_version": SUBSTRATE_VERSION}
    full_meta.update(meta or {})
    header = {
        "version": _VERSION,
        "meta": full_meta,
        "tensors": [{"name": n, "shape": list(np.asarray(arrays[n]).shape)}
                    for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for n in names:
            a = np.ascontiguousarray(np.asarray(arrays[n], dtype="<f8"))
            f.write(a.tobytes())


def _well_formed(header):
    """True when a parsed header has the structure save_checkpoint writes."""
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
            and isinstance(header.get("meta", {}), dict)):
        return False
    return all(isinstance(spec, dict) and isinstance(spec.get("name"), str)
               and isinstance(spec.get("shape"), list)
               and all(type(d) is int and d >= 0 for d in spec["shape"])
               for spec in header["tensors"])


def load_checkpoint(path):
    """Read a checkpoint, returning (arrays, meta).

    A file that cannot be opened raises UsageError.  A file cut short
    anywhere, carrying bytes after its payload, or whose header lacks
    the structure save_checkpoint writes raises ConfigurationError.
    Each tensor is read from the file straight into its array, so a load
    holds no second copy of the payload.
    """
    with _open_input(path) as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(16)
        if head[:4] != _MAGIC:
            raise ConfigurationError(f"{path} is not a checkpoint file")
        if len(head) < 16:
            raise ConfigurationError(f"{path} is truncated")
        version, hlen = struct.unpack("<IQ", head[4:16])
        if version != _VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint version {version}")
        try:
            # a header cut short is never a complete JSON object
            header = json.loads(f.read(min(hlen, size - 16)).decode("utf-8"))
        except ValueError as e:
            raise ConfigurationError(
                f"{path} has a torn or corrupt header: {e}") from None
        if not _well_formed(header):
            raise ConfigurationError(f"{path} has a malformed header")
        arrays = {}
        off = 16 + hlen
        for spec in header["tensors"]:
            shape = tuple(spec["shape"])
            n_values = math.prod(shape)   # a Python int cannot overflow
            off += 8 * n_values
            if off > size:
                raise ConfigurationError(f"{path} is truncated")
            a = np.empty(n_values, dtype="<f8")
            if f.readinto(a) != a.nbytes:   # the file shrank while read
                raise ConfigurationError(f"{path} is truncated")
            arrays[spec["name"]] = a.astype(np.float64, copy=False).reshape(
                shape)
    if off != size:
        raise ConfigurationError(
            f"{path} has {size - off} bytes after its payload")
    return arrays, header.get("meta", {})
