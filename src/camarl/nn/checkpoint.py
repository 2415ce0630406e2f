"""Deterministic binary checkpoints.

Layout: magic ``CMCK``, a little-endian u32 format version, a u64 header
length, a canonical-JSON header (sorted keys, fixed separators), then the
raw little-endian float64 tensor payloads in header order.  Unlike zip
containers there are no timestamps, so saving identical state twice gives
identical bytes, which the rerun guarantees in the harness depend on.
Checkpoints, logs, manifests, curves and charts are all written through
``atomic_open``.
"""

import contextlib
import json
import os
import struct

import numpy as np

from camarl.errors import ConfigurationError

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

    A file cut short anywhere, carrying bytes after its payload, or
    whose header lacks the structure save_checkpoint writes raises
    ConfigurationError.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _MAGIC:
        raise ConfigurationError(f"{path} is not a checkpoint file")
    if len(raw) < 16:
        raise ConfigurationError(f"{path} is truncated")
    version, hlen = struct.unpack("<IQ", raw[4:16])
    if version != _VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {version}")
    try:
        # a header cut short is never a complete JSON object
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
    except ValueError as e:
        raise ConfigurationError(
            f"{path} has a torn or corrupt header: {e}") from None
    if not _well_formed(header):
        raise ConfigurationError(f"{path} has a malformed header")
    arrays = {}
    off = 16 + hlen
    for spec in header["tensors"]:
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = off + 8 * count
        if end > len(raw):
            raise ConfigurationError(f"{path} is truncated")
        arrays[spec["name"]] = np.frombuffer(
            raw[off:end], dtype="<f8").astype(np.float64).reshape(shape)
        off = end
    if off != len(raw):
        raise ConfigurationError(
            f"{path} has {len(raw) - off} bytes after its payload")
    return arrays, header.get("meta", {})
