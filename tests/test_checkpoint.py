"""Checkpoint wire format: round trips, integrity, config verification."""

import numpy as np
import pytest

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
    import zlib, struct
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
