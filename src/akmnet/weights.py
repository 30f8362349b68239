"""Binary weight files.

Layout: magic ``AKMW``, a 32-bit format version, in version 2 the element
type (3 ASCII bytes, ``<f4`` or ``<f8``), a parameter manifest of
(name, shape) entries, then the values in that element type in manifest
order. Version 1 files hold little-endian 32-bit floats and have no element
type field.

Saving writes version 1 when every parameter fits 32-bit floats exactly, so
float32 models keep the bytes that older builds wrote and read, and version
2 with ``<f8`` otherwise. Loading verifies the file's manifest against the
model's own, entry by entry, before touching any parameter, so a file for a
different configuration fails cleanly naming the first mismatch, and it
refuses values that the model's dtype would round.
"""

import struct

import numpy as np

MAGIC = b"AKMW"
VERSION_F4 = 1
VERSION_TYPED = 2
ELEMENT_TYPES = (b"<f4", b"<f8")


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


def _element_type(named_params):
    """The narrower of ``<f4`` and ``<f8`` that holds every value exactly."""
    for etype in ELEMENT_TYPES:
        if all(np.can_cast(p.data.dtype, etype, "safe") for _, p in named_params):
            return etype
    dtypes = sorted({str(p.data.dtype) for _, p in named_params})
    raise WeightFileError(f"cannot save {', '.join(dtypes)} parameters without rounding")


def save_weights(path, named_params):
    """Write all parameters to one file without rounding any value."""
    entries = manifest_entries(named_params)
    etype = _element_type(named_params)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        if etype == b"<f4":
            fh.write(struct.pack("<I", VERSION_F4))
        else:
            fh.write(struct.pack("<I", VERSION_TYPED))
            fh.write(etype)
        fh.write(manifest_bytes(entries))
        for _, p in named_params:
            fh.write(np.ascontiguousarray(p.data, dtype=etype.decode()).tobytes())


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
        if version == VERSION_F4:
            etype = b"<f4"
        elif version == VERSION_TYPED:
            etype = _read_exact(fh, 3, "element type")
            if etype not in ELEMENT_TYPES:
                raise WeightFileError(f"unsupported element type {etype!r}")
        else:
            raise WeightFileError(f"unsupported weight file version {version}")
        dtype = np.dtype(etype.decode())
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
            if not np.can_cast(dtype, p.data.dtype, "safe"):
                raise WeightFileError(f"{name!r} is {p.data.dtype} but the file holds "
                                      f"{etype.decode()} values, which it would round")
        for name, p in named_params:
            count = int(np.prod(p.shape)) if p.shape else 1
            raw = _read_exact(fh, dtype.itemsize * count, f"values of {name}")
            values = np.frombuffer(raw, dtype=dtype).reshape(p.shape)
            p.data[...] = values.astype(p.data.dtype)
        trailing = fh.read(1)
        if trailing:
            raise WeightFileError("trailing bytes after final parameter")
