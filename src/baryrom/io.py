"""Binary persistence: matrix files, tensor archives, manifests.

Matrix file layout: 8-byte magic ``ROMBMAT1``, then little-endian u64
row and column counts, then rows*cols float64 values, row-major,
little-endian.  The declared sizes must match the payload exactly.

Archive layout: 8-byte magic ``ROMBARC1``, little-endian u64 header
length, a UTF-8 JSON header mapping array names to shapes/offsets plus
free-form metadata, then the raw float64 payloads, concatenated in
offset order so that they fill the rest of the file exactly.  Both
writers are byte-deterministic for equal inputs.

Each file goes through memory and SHA-256 once.  A reader reads the
header, then reads every payload straight into a freshly allocated
float64 array of its final shape, hashing the header and those arrays
as it goes, and returns the arrays themselves.  Every read takes the
digest a manifest recorded and raises the hash-mismatch error for any
file whose bytes do not hash to it, before any format error.  A
writer hashes the bytes it writes from the array's own buffer and
returns the hex digest, so a manifest entry needs no second read.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataIntegrityError

MATRIX_MAGIC = b"ROMBMAT1"
ARCHIVE_MAGIC = b"ROMBARC1"
CHUNK = 2**20  # bytes hashed per read where no array receives them


def _bytes(arr: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous array, as a flat uint8 view of its buffer."""
    return arr.reshape(-1).view(np.uint8)


def _write(path, head: bytes, arrays) -> str:
    """Write ``head`` and then each array's bytes; the file's SHA-256 hex digest."""
    h = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for arr in arrays:
            data = _bytes(arr)
            fh.write(data)
            h.update(data)
    return h.hexdigest()


def write_matrix(path, arr) -> str:
    """Write a matrix file (a vector becomes one column); its SHA-256 hex
    digest."""
    arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"matrix files hold 2-D data, got ndim={arr.ndim}")
    return _write(path, MATRIX_MAGIC + struct.pack("<QQ", *arr.shape), [arr])


def write_archive(path, arrays: dict, meta: dict) -> str:
    """Write an archive of the named arrays, in name order; its SHA-256 hex digest."""
    names = sorted(arrays)
    payloads = [np.ascontiguousarray(np.asarray(arrays[name], dtype="<f8")) for name in names]
    entries = {}
    offset = 0
    for name, arr in zip(names, payloads):
        entries[name] = {"shape": list(arr.shape), "offset": offset}
        offset += arr.nbytes
    header = json.dumps(
        {"arrays": entries, "meta": meta}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _write(path, ARCHIVE_MAGIC + struct.pack("<Q", len(header)) + header, payloads)


def _open(path):
    try:
        return open(path, "rb", buffering=0)
    except OSError as exc:
        raise DataIntegrityError(f"cannot read data file {path}: {exc.strerror}") from exc


def _hash_rest(fh, h):
    """Feed the rest of the file to the hash ``h``; returns ``h``."""
    for chunk in iter(lambda: fh.read(CHUNK), b""):
        h.update(chunk)
    return h


def _verify(path, digest: str, sha256: str) -> None:
    """The hash-mismatch error, unless the file's digest is the recorded one."""
    if digest != sha256:
        raise DataIntegrityError(
            f"hash mismatch for {path}: expected {sha256[:12]}..., got {digest[:12]}..."
        )


def _malformed(path, fh, h, sha256: str, what: str):
    """Raise the format error ``what`` after hashing the rest of the file, so
    a file that does not hash to the recorded digest raises the hash
    mismatch instead."""
    _verify(path, _hash_rest(fh, h).hexdigest(), sha256)
    raise DataIntegrityError(f"{path}: {what}")


def _read_into(path, fh, h, arr: np.ndarray) -> None:
    """Fill ``arr`` with the next bytes of the file and hash them."""
    view = _bytes(arr)
    filled = 0
    while filled < view.size:
        n = fh.readinto(view[filled:])
        if not n:
            raise DataIntegrityError(f"{path}: file ended while it was read")
        filled += n
    h.update(view)


def read_matrix(path, sha256: str) -> np.ndarray:
    """The (rows, cols) float64 array of a matrix file, read and hashed in
    one pass and verified against the recorded hex digest ``sha256``."""
    h = hashlib.sha256()
    with _open(path) as fh:
        head = fh.read(24)
        h.update(head)
        if len(head) < 24 or head[:8] != MATRIX_MAGIC:
            _malformed(path, fh, h, sha256, "not a matrix file")
        rows, cols = struct.unpack("<QQ", head[8:])
        size = os.fstat(fh.fileno()).st_size
        if size != 24 + 8 * rows * cols:
            _malformed(path, fh, h, sha256, f"file length {size} does not match "
                                            f"the declared {rows}x{cols} float64")
        out = np.empty((rows, cols), dtype="<f8")
        _read_into(path, fh, h, out)
    _verify(path, h.hexdigest(), sha256)
    return out


def _archive_layout(header, payload_bytes: int):
    """[(offset, name, shape)] of a parsed archive header, in offset order.
    ValueError unless the arrays fill the payload end to end."""
    layout = []
    for name, entry in header["arrays"].items():
        shape, offset = entry["shape"], entry["offset"]
        if not (isinstance(offset, int) and isinstance(shape, list)
                and all(isinstance(n, int) and n >= 0 for n in shape)):
            raise ValueError(f"array {name!r} has a malformed shape or offset")
        layout.append((offset, name, tuple(shape)))
    layout.sort()
    end = 0
    for offset, name, shape in layout:
        if offset != end:
            raise ValueError(f"array {name!r} does not start where the one before it ends")
        end += 8 * math.prod(shape)
    if end != payload_bytes:
        raise ValueError(f"arrays hold {end} bytes, the payload {payload_bytes}")
    if not isinstance(header["meta"], dict):
        raise ValueError("metadata is not a JSON object")
    return layout


def read_archive(path, sha256: str):
    """(name -> float64 array, metadata) of an archive, read and hashed in
    one pass and verified against the recorded hex digest ``sha256``."""
    h = hashlib.sha256()
    with _open(path) as fh:
        head = fh.read(16)
        h.update(head)
        if len(head) < 16 or head[:8] != ARCHIVE_MAGIC:
            _malformed(path, fh, h, sha256, "not an archive file")
        (hlen,) = struct.unpack("<Q", head[8:])
        payload_bytes = os.fstat(fh.fileno()).st_size - 16 - hlen
        if payload_bytes < 0:
            _malformed(path, fh, h, sha256, "header overruns the file")
        raw = fh.read(hlen)
        h.update(raw)
        try:
            header = json.loads(raw.decode("utf-8"))
            layout = _archive_layout(header, payload_bytes)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            _malformed(path, fh, h, sha256, f"bad archive header: {exc}")
        arrays = {}
        for _, name, shape in layout:
            arrays[name] = np.empty(shape, dtype="<f8")
            _read_into(path, fh, h, arrays[name])
    _verify(path, h.hexdigest(), sha256)
    return arrays, header["meta"]


def sha256_file(path) -> str:
    with _open(path) as fh:
        return _hash_rest(fh, hashlib.sha256()).hexdigest()


def write_manifest(path, manifest: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> dict:
    """A manifest's JSON object; DataIntegrityError if it is missing, is
    not valid JSON or is not an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataIntegrityError(f"manifest not found: {path}") from None
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decoding errors are ValueErrors
        raise DataIntegrityError(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataIntegrityError(f"manifest {path} is not a JSON object")
    return doc


def entry_path(outdir, entry) -> Path:
    """The file a manifest file entry names.  The entry must hold a
    ``path`` that is a plain file name, so the file lies directly inside
    ``outdir``, and a ``sha256`` string."""
    name = entry.get("path") if isinstance(entry, dict) else None
    if not (isinstance(name, str) and isinstance(entry.get("sha256"), str)):
        raise DataIntegrityError(f"manifest file entry without a path and a sha256: {entry!r}")
    path = Path(outdir) / name
    if name in ("", ".", "..") or path.name != name:
        raise DataIntegrityError(f"manifest path {name!r} is not a file name inside {outdir}")
    return path


def check_file(outdir, entry: dict) -> Path:
    """Resolve a manifest file entry and verify its recorded hash."""
    path = entry_path(outdir, entry)
    _verify(path, sha256_file(path), entry["sha256"])
    return path
