"""Binary weight files.

Layout: magic ``AKMW``, a 32-bit format version, a parameter manifest of
(name, shape) entries, then the values as little-endian 32-bit floats in
manifest order. Loading verifies the file's manifest against the model's
own, entry by entry, before touching any parameter, so a file for a
different configuration fails cleanly naming the first mismatch.
"""

import struct

import numpy as np

MAGIC = b"AKMW"
VERSION = 1


class WeightFileError(ValueError):
    """Raised when a weight file is malformed or does not match the model."""


def manifest_entries(named_params):
    return [(name, tuple(p.shape)) for name, p in named_params]


def manifest_bytes(entries):
    out = [struct.pack("<I", len(entries))]
    for name, shape in entries:
        raw = name.encode("utf-8")
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(struct.pack("<B", len(shape)))
        out.append(struct.pack(f"<{len(shape)}I", *shape) if shape else b"")
    return b"".join(out)


def save_weights(path, named_params):
    """Write all parameters to one file, cast to 32-bit floats."""
    entries = manifest_entries(named_params)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(manifest_bytes(entries))
        for _, p in named_params:
            fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise WeightFileError(f"weight file truncated while reading {what}")
    return buf


def read_manifest(fh):
    (count,) = struct.unpack("<I", _read_exact(fh, 4, "manifest count"))
    entries = []
    for i in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(fh, 2, f"name length {i}"))
        name = _read_exact(fh, name_len, f"name {i}").decode("utf-8")
        (ndim,) = struct.unpack("<B", _read_exact(fh, 1, f"rank of {name}"))
        shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, f"shape of {name}")) if ndim else ()
        entries.append((name, tuple(shape)))
    return entries


def load_weights(path, named_params):
    """Replace parameter values from a file after verifying its manifest."""
    expected = manifest_entries(named_params)
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise WeightFileError(f"not a weight file: bad magic in {path}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise WeightFileError(f"unsupported weight file version {version}")
        found = read_manifest(fh)
        if len(found) != len(expected):
            raise WeightFileError(
                f"manifest mismatch: file has {len(found)} parameters, model has {len(expected)}")
        for (fname, fshape), (ename, eshape) in zip(found, expected):
            if fname != ename or fshape != eshape:
                raise WeightFileError(
                    f"manifest mismatch at parameter {ename!r} {eshape}: "
                    f"file has {fname!r} {fshape}")
        for name, p in named_params:
            count = int(np.prod(p.shape)) if p.shape else 1
            raw = _read_exact(fh, 4 * count, f"values of {name}")
            values = np.frombuffer(raw, dtype="<f4").reshape(p.shape)
            p.data[...] = values.astype(p.data.dtype)
        trailing = fh.read(1)
        if trailing:
            raise WeightFileError("trailing bytes after final parameter")
