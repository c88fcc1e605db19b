"""Checkpoint wire format with integrity checking.

Layout (little-endian):
    magic "MVPC" | u32 format version | u32 json length | config JSON |
    u32 tensor count | records | u32 CRC32 of all preceding bytes
Each record: u16 name length | name utf-8 | u8 ndim | u32 dims... | f32 data.

Weights are stored as float32. A load followed by a save reproduces the file
byte for byte, and everything derived from a loaded model is deterministic;
the first save of a freshly trained float64 model rounds to float32 once.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .autograd import Tensor
from .model import ModelConfig, MvpModel, build_model

CKPT_MAGIC = b"MVPC"
CKPT_VERSION = 1


class CheckpointError(Exception):
    """Raised for malformed or incompatible checkpoint files."""


def save_checkpoint(path, config: ModelConfig, params: dict[str, Tensor]) -> None:
    blob = bytearray()
    blob += CKPT_MAGIC
    blob += struct.pack("<I", CKPT_VERSION)
    cfg_json = json.dumps(config.to_dict(), sort_keys=True).encode()
    blob += struct.pack("<I", len(cfg_json))
    blob += cfg_json
    blob += struct.pack("<I", len(params))
    for name, tensor in params.items():
        encoded = name.encode()
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
        blob += struct.pack("<B", data.ndim)
        for dim in data.shape:
            blob += struct.pack("<I", dim)
        blob += data.astype("<f4").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    with open(path, "wb") as f:
        f.write(bytes(blob))


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise CheckpointError("checkpoint too short")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CheckpointError("checksum failure: checkpoint payload is corrupted")
    if blob[:4] != CKPT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {CKPT_MAGIC!r}")
    offset = 4
    (version,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported format version {version}, expected {CKPT_VERSION}")
    (cfg_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    try:
        config = ModelConfig.from_dict(json.loads(blob[offset : offset + cfg_len].decode()))
    except (ValueError, TypeError, KeyError) as err:
        raise CheckpointError(f"embedded model config is invalid: {err}") from err
    offset += cfg_len
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        name = blob[offset : offset + name_len].decode()
        offset += name_len
        (ndim,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        shape = struct.unpack_from(f"<{ndim}I", blob, offset)
        offset += 4 * ndim
        size = int(np.prod(shape)) if ndim else 1
        data = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
        offset += 4 * size
        params[name] = data.astype(np.float64).reshape(shape)
    return config, params


def load_model(path) -> MvpModel:
    """Rebuild the model from the embedded config and stored weights."""
    config, arrays = load_checkpoint(path)
    model = build_model(config)
    if set(arrays) != set(model.params):
        missing = set(model.params) ^ set(arrays)
        raise CheckpointError(f"parameter names do not match the config: {sorted(missing)}")
    for name, value in arrays.items():
        if model.params[name].data.shape != value.shape:
            raise CheckpointError(
                f"parameter {name!r} shape {value.shape} does not match "
                f"{model.params[name].data.shape}")
        model.params[name].data = value
    return model

