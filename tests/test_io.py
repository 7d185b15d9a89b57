import json
import struct

import numpy as np
import pytest

from baryrom import DataIntegrityError
from baryrom.io import (
    check_file,
    entry_path,
    read_archive,
    read_matrix,
    sha256_file,
    write_archive,
    write_matrix,
)


def test_matrix_roundtrip(tmp_path, rng):
    arr = rng.standard_normal((7, 3))
    path = tmp_path / "m.mat"
    back = read_matrix(path, write_matrix(path, arr))
    assert back.tobytes() == arr.tobytes()


def test_matrix_vector_promoted_to_column(tmp_path):
    path = tmp_path / "v.mat"
    digest = write_matrix(path, np.array([1.0, 2.0, 3.0]))
    assert read_matrix(path, digest).shape == (3, 1)


def test_matrix_header_layout(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.zeros((2, 5)))
    raw = path.read_bytes()
    assert raw[:8] == b"ROMBMAT1"
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 5
    assert len(raw) == 24 + 2 * 5 * 8


def test_matrix_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(DataIntegrityError, match="not a matrix file"):
        read_matrix(path, sha256_file(path))


def test_matrix_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.mat"
    write_matrix(path, np.zeros((4, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataIntegrityError, match="does not match the declared"):
        read_matrix(path, sha256_file(path))


def test_archive_roundtrip_and_determinism(tmp_path, rng):
    arrays = {
        "M": rng.standard_normal((2, 2, 3, 3)),
        "F": rng.standard_normal((2, 3)),
        "params": np.array([0.05, 0.07]),
    }
    meta = {"q": 3, "nx": 64, "dx": 0.1}
    p1 = tmp_path / "a.arc"
    p2 = tmp_path / "b.arc"
    digest = write_archive(p1, arrays, meta)
    write_archive(p2, arrays, meta)
    assert p1.read_bytes() == p2.read_bytes()
    back, meta_back = read_archive(p1, digest)
    assert meta_back == meta
    for name, arr in arrays.items():
        assert back[name].tobytes() == arr.tobytes()
        assert back[name].shape == arr.shape


def test_archive_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.arc"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
    with pytest.raises(DataIntegrityError, match="not an archive file"):
        read_archive(path, sha256_file(path))


def test_check_file_hash_mismatch(tmp_path):
    path = tmp_path / "f.mat"
    write_matrix(path, np.ones((2, 2)))
    entry = {"path": "f.mat", "sha256": sha256_file(path)}
    assert check_file(tmp_path, entry) == path
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(DataIntegrityError):
        check_file(tmp_path, entry)
    with pytest.raises(DataIntegrityError):
        check_file(tmp_path, {"path": "missing.mat", "sha256": "00"})


ARRAYS = {"M": np.arange(12.0).reshape(2, 2, 3), "F": np.array([[0.5, -1.0]])}


def _matrix_file(path):
    return write_matrix(path, np.arange(12.0).reshape(4, 3))


def _archive_file(path):
    return write_archive(path, ARRAYS, {"q": 3})


FORMATS = [  # (writer, reader, its format error for a bad magic, for a bad length)
    (_matrix_file, read_matrix, "not a matrix file", "does not match the declared"),
    (_archive_file, read_archive, "not an archive file", "bad archive header"),
]
FORMAT_IDS = ["matrix", "archive"]

DAMAGE = {  # name -> (raw bytes -> damaged bytes, which format error it makes)
    "truncated": (lambda raw: raw[:-1], "length"),
    "trailing byte": (lambda raw: raw + b"\x00", "length"),
    "bad magic": (lambda raw: b"X" + raw[1:], "magic"),
}


@pytest.mark.parametrize("writer, reader, magic_error, length_error", FORMATS, ids=FORMAT_IDS)
def test_writers_return_the_digest_of_the_file_they_wrote(tmp_path, writer, reader,
                                                          magic_error, length_error):
    path = tmp_path / "f"
    assert writer(path) == sha256_file(path)


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("writer, reader, magic_error, length_error", FORMATS, ids=FORMAT_IDS)
def test_damaged_file_is_a_hash_mismatch_given_a_digest(tmp_path, writer, reader,
                                                        magic_error, length_error, damage):
    path = tmp_path / "f"
    digest = writer(path)
    reader(path, digest)
    edit, kind = DAMAGE[damage]
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(DataIntegrityError, match="hash mismatch"):
        reader(path, digest)
    with pytest.raises(DataIntegrityError, match=magic_error if kind == "magic" else length_error):
        reader(path, sha256_file(path))


@pytest.mark.parametrize("writer, reader, magic_error, length_error", FORMATS, ids=FORMAT_IDS)
def test_changed_payload_is_a_hash_mismatch(tmp_path, writer, reader, magic_error,
                                            length_error):
    path = tmp_path / "f"
    digest = writer(path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))
    reader(path, sha256_file(path))  # still well formed
    with pytest.raises(DataIntegrityError, match="hash mismatch"):
        reader(path, digest)


@pytest.mark.parametrize("reader", [read_matrix, read_archive, sha256_file])
def test_missing_file_is_a_data_error(tmp_path, reader):
    args = () if reader is sha256_file else ("0" * 64,)
    with pytest.raises(DataIntegrityError, match="No such file"):
        reader(tmp_path / "absent", *args)


def test_read_arrays_are_owned_writable_contiguous_float64(tmp_path):
    path = tmp_path / "f"
    arrays = [read_matrix(path, _matrix_file(path))]
    arrays += read_archive(path, _archive_file(path))[0].values()
    for arr in arrays:
        assert arr.dtype == np.float64
        assert arr.flags.owndata and arr.flags.writeable and arr.flags.c_contiguous


def _archive_with_header(path, arrays, payload):
    header = json.dumps({"arrays": arrays, "meta": {}}).encode()
    path.write_bytes(b"ROMBARC1" + struct.pack("<Q", len(header)) + header + payload)


@pytest.mark.parametrize("arrays, payload", [
    ({"a": {"shape": [2], "offset": 8}}, bytes(16)),        # gap before the array
    ({"a": {"shape": [2], "offset": 0}}, bytes(24)),        # payload left over
    ({"a": {"shape": [3], "offset": 0}}, bytes(16)),        # array overruns the file
    ({"a": {"shape": [2], "offset": 0},
      "b": {"shape": [1], "offset": 8}}, bytes(24)),        # arrays overlap
    ({"a": {"shape": [-1], "offset": 0}}, bytes(0)),
    ({"a": {"shape": 2, "offset": 0}}, bytes(16)),
    ({"a": {"offset": 0}}, bytes(16)),
    ([], bytes(0)),
])
def test_archive_whose_arrays_do_not_tile_the_payload_is_malformed(tmp_path, arrays, payload):
    path = tmp_path / "bad.arc"
    _archive_with_header(path, arrays, payload)
    with pytest.raises(DataIntegrityError, match="bad archive header"):
        read_archive(path, sha256_file(path))


def test_archive_arrays_in_any_name_order_read_back(tmp_path):
    path = tmp_path / "a.arc"
    _archive_with_header(path, {"z": {"shape": [1], "offset": 0},
                                "a": {"shape": [1, 1], "offset": 8}},
                         struct.pack("<dd", 1.5, -2.0))
    arrays, meta = read_archive(path, sha256_file(path))
    assert meta == {} and arrays["z"].tolist() == [1.5] and arrays["a"].tolist() == [[-2.0]]


@pytest.mark.parametrize("entry", [
    {"path": "../x/f.mat", "sha256": "00"},
    {"path": "/abs/f.mat", "sha256": "00"},
    {"path": "sub/f.mat", "sha256": "00"},
    {"path": "..", "sha256": "00"},
    {"path": "", "sha256": "00"},
    {"sha256": "00"},
    {"path": "f.mat"},
    {"path": "f.mat", "sha256": None},
    ["f.mat"],
])
def test_entry_path_takes_plain_file_names_with_a_hash_only(tmp_path, entry):
    with pytest.raises(DataIntegrityError):
        entry_path(tmp_path, entry)
    with pytest.raises(DataIntegrityError):
        check_file(tmp_path, entry)
