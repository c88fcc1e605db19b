"""Checkpoint wire format: round trips, integrity, config verification."""

import json
import struct
import zlib

import numpy as np
import pytest

from shapestream import checkpoint
from shapestream.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from shapestream.model import ModelConfig, build_model, sequence_predictions

from test_model import random_frames, tiny_config


def test_save_load_save_is_byte_identical(tmp_path):
    model = build_model(tiny_config())
    p1, p2 = tmp_path / "a.mvpc", tmp_path / "b.mvpc"
    save_checkpoint(p1, model.config, model.params)
    loaded = load_model(p1)
    save_checkpoint(p2, loaded.config, loaded.params)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_forward_bit_identical(tmp_path):
    model = build_model(tiny_config("lstm"))
    path = tmp_path / "m.mvpc"
    save_checkpoint(path, model.config, model.params)
    a = load_model(path)
    b = load_model(path)
    frames, _ = random_frames(2, seed=21)
    pa = sequence_predictions(a, frames)
    pb = sequence_predictions(b, frames)
    for x, y in zip(pa, pb):
        np.testing.assert_array_equal(x.data, y.data)


def test_config_embedded_and_recovered(tmp_path):
    config = tiny_config("mvt", kernel="softmax", train_views=6)
    model = build_model(config)
    path = tmp_path / "m.mvpc"
    save_checkpoint(path, config, model.params)
    loaded_config, arrays = load_checkpoint(path)
    assert loaded_config == config
    assert set(arrays) == set(model.params)


def test_flipped_byte_fails_checksum(tmp_path):
    model = build_model(tiny_config())
    path = tmp_path / "m.mvpc"
    save_checkpoint(path, model.config, model.params)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum failure"):
        load_checkpoint(path)


def test_bad_magic_reported(tmp_path):
    path = tmp_path / "m.mvpc"
    blob = bytearray(b"XXXX" + b"\0" * 32)
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_weights_stored_as_float32(tmp_path):
    model = build_model(tiny_config())
    path = tmp_path / "m.mvpc"
    save_checkpoint(path, model.config, model.params)
    _, arrays = load_checkpoint(path)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(
            arr, model.params[name].data.astype(np.float32).astype(np.float64))


def _saved_body(tmp_path) -> bytes:
    """A tiny model's checkpoint without its trailing CRC."""
    model = build_model(tiny_config())
    path = tmp_path / "m.mvpc"
    save_checkpoint(path, model.config, model.params)
    return path.read_bytes()[:-4]


def _write_with_crc(path, body: bytes):
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


@pytest.mark.parametrize("max_views", [4, 64])
def test_checkpoint_with_former_max_views_key_loads(tmp_path, max_views):
    """Checkpoints from before MAX_VIEWS became a constant carry a max_views
    config key. They load with the key dropped, so a re-save equals the
    checkpoint of the same weights written without it."""
    body = _saved_body(tmp_path)
    (cfg_len,) = struct.unpack_from("<I", body, 8)
    config = json.loads(body[12 : 12 + cfg_len])
    legacy = json.dumps({**config, "max_views": max_views}, sort_keys=True).encode()
    path = _write_with_crc(tmp_path / "legacy.mvpc", body[:8] + struct.pack("<I", len(legacy))
                           + legacy + body[12 + cfg_len :])
    model = load_model(path)
    save_checkpoint(tmp_path / "resaved.mvpc", model.config, model.params)
    assert (tmp_path / "resaved.mvpc").read_bytes() == (tmp_path / "m.mvpc").read_bytes()


def _tensor_count_offset(body: bytes) -> int:
    (cfg_len,) = struct.unpack_from("<I", body, 8)
    return 12 + cfg_len


def test_tensor_count_one_too_high_is_checkpoint_error(tmp_path):
    body = bytearray(_saved_body(tmp_path))
    at = _tensor_count_offset(body)
    (count,) = struct.unpack_from("<I", body, at)
    struct.pack_into("<I", body, at, count + 1)
    with pytest.raises(CheckpointError, match="truncated checkpoint"):
        load_checkpoint(_write_with_crc(tmp_path / "bad.mvpc", bytes(body)))


def test_truncated_record_is_checkpoint_error(tmp_path):
    body = _saved_body(tmp_path)
    first_record = _tensor_count_offset(body) + 4
    # cuts through the first record's name length, name, ndim, shape and
    # payload, and one byte short of the end
    for cut in [*range(first_record, first_record + 40), len(body) - 1]:
        with pytest.raises(CheckpointError, match="truncated checkpoint"):
            load_checkpoint(_write_with_crc(tmp_path / "bad.mvpc", body[:cut]))


def test_trailing_bytes_are_checkpoint_error(tmp_path):
    body = _saved_body(tmp_path)
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(_write_with_crc(tmp_path / "bad.mvpc", body + b"\0\0"))


def test_duplicate_tensor_name_is_checkpoint_error(tmp_path):
    body = _saved_body(tmp_path).replace(b"frame.conv1", b"frame.conv0")
    with pytest.raises(CheckpointError, match="duplicate tensor 'frame.conv0'"):
        load_checkpoint(_write_with_crc(tmp_path / "bad.mvpc", body))


def test_tensor_with_more_dims_than_numpy_is_checkpoint_error(tmp_path):
    body = _saved_body(tmp_path)
    end_of_name = body.index(b"dec.out_bias") + len(b"dec.out_bias")
    # the scalar's ndim 0 becomes 65 dimensions of size 1; payload unchanged
    body = (body[:end_of_name] + struct.pack("<B65I", 65, *[1] * 65)
            + body[end_of_name + 1 :])
    with pytest.raises(CheckpointError, match="'dec.out_bias' shape"):
        load_checkpoint(_write_with_crc(tmp_path / "bad.mvpc", body))


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model = build_model(tiny_config())
    path = tmp_path / "m.mvpc"
    save_checkpoint(path, model.config, model.params)
    before = path.read_bytes()

    class HalfWriter:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "open",
                        lambda *args, **kwargs: HalfWriter(open(*args, **kwargs)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model.config, build_model(tiny_config(seed=1)).params)
    monkeypatch.undo()
    assert path.read_bytes() == before
    load_checkpoint(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mvpc"]
