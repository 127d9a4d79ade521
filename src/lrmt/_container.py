"""The one binary layout behind every lrmt artifact (checkpoints and
activation dumps):

    magic (4 bytes, one per kind) | u32 version | u64 header length |
    UTF-8 JSON header, whose "tensors" list gives each array's name, shape
    and dtype in payload order | the arrays, little-endian, row-major |
    u32 CRC32 of every byte before it

A file is written to a sibling "<name>.tmp" and renamed into place, so a
reader sees the old file or the whole new one.  Every way a file can fail
to load raises a CheckpointError subclass.
"""

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

_PREFIX = struct.Struct("<4sIQ")      # magic, version, header length
_CRC = struct.Struct("<I")


class CheckpointError(Exception):
    pass


class CheckpointFormatError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointChecksumError(CheckpointError):
    pass


def write(path, magic, version, header, arrays):
    """Write one file.  `arrays` lists (name, ndarray, extra): the header's
    "tensors" list gets {name, shape, dtype} plus the `extra` keys of each."""
    manifest = [{"name": name, "shape": list(arr.shape), "dtype": str(arr.dtype), **extra}
                for name, arr, extra in arrays]
    head = json.dumps(dict(header, tensors=manifest), ensure_ascii=False).encode("utf-8")
    blob = bytearray(_PREFIX.pack(magic, version, len(head)))
    blob += head
    for _name, arr, _extra in arrays:
        blob += arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    blob += _CRC.pack(zlib.crc32(blob))
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read(path, magic, versions, build):
    """Check one file and return `build(header, arrays)`, `arrays` mapping
    each "tensors" name to its array.  A KeyError, TypeError or ValueError
    while reading the header, in `build` too, is a CheckpointFormatError."""
    raw = memoryview(Path(path).read_bytes())
    if len(raw) < _PREFIX.size + _CRC.size or raw[:4] != magic:
        raise CheckpointFormatError("%s is not a %s file" % (path, magic.decode("ascii")))
    body = raw[:-_CRC.size]
    if zlib.crc32(body) != _CRC.unpack(raw[-_CRC.size:])[0]:
        raise CheckpointChecksumError("checksum mismatch in %s" % path)
    _magic, version, length = _PREFIX.unpack_from(body)
    if version not in versions:
        raise CheckpointVersionError("unsupported %s version %d in %s"
                                     % (magic.decode("ascii"), version, path))
    offset = _PREFIX.size + length
    try:
        header = json.loads(bytes(body[_PREFIX.size:offset]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError("corrupt header in %s: %s" % (path, exc))
    try:
        arrays = {}
        for entry in header["tensors"]:
            shape = tuple(int(d) for d in entry["shape"])
            if min(shape, default=0) < 0:
                raise ValueError("negative dimension in %r" % entry["name"])
            dtype = np.dtype(entry["dtype"]).newbyteorder("<")
            # frombuffer raises ValueError past the end of the payload
            arrays[entry["name"]] = np.frombuffer(
                body, dtype, math.prod(shape), offset).reshape(shape).copy()
            offset += math.prod(shape) * dtype.itemsize
        if offset != len(body):
            raise CheckpointFormatError("%d stray bytes after the payload in %s"
                                        % (len(body) - offset, path))
        return build(header, arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError("malformed header in %s: %r" % (path, exc))
