"""Checkpoint wire format with integrity checking.

Layout (little-endian):
    magic "MVPC" | u32 format version | u32 json length | config JSON |
    u32 tensor count | records | u32 CRC32 of all preceding bytes
Each record: u16 name length | name utf-8 | u8 ndim | u32 dims... | f32 data.

Weights are stored as float32. A load followed by a save reproduces the file
byte for byte, and everything derived from a loaded model is deterministic;
the first save of a freshly trained float64 model rounds to float32 once.
A ``max_views`` config key, from before ``model.MAX_VIEWS`` was a constant,
is dropped on load, so such a checkpoint re-saves without it.
"""

from __future__ import annotations

import json
import math
import os
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
        data = tensor.data
        blob += struct.pack("<B", data.ndim)
        for dim in data.shape:
            blob += struct.pack("<I", dim)
        blob += data.astype("<f4").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    # write a sibling, then rename over the target: an interrupted save
    # leaves the previous checkpoint intact
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(bytes(blob))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
    offset, end = 4, len(blob) - 4  # every read stays clear of the trailing CRC

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if n > end - offset:
            raise CheckpointError(
                f"truncated checkpoint: {what} needs {n} bytes, {end - offset} left")
        offset += n
        return blob[offset - n : offset]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    (version,) = unpack("<I", "format version")
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported format version {version}, expected {CKPT_VERSION}")
    (cfg_len,) = unpack("<I", "config length")
    cfg_json = take(cfg_len, "config JSON")
    try:
        raw = json.loads(cfg_json.decode())
        config = ModelConfig.from_dict({k: v for k, v in raw.items() if k != "max_views"})
    except (ValueError, TypeError, KeyError, AttributeError) as err:
        raise CheckpointError(f"embedded model config is invalid: {err}") from err
    (count,) = unpack("<I", "tensor count")
    params: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = unpack("<H", f"tensor {i} name length")
        try:
            name = take(name_len, f"tensor {i} name").decode()
        except UnicodeDecodeError as err:
            raise CheckpointError(f"tensor {i} name is not UTF-8") from err
        if name in params:
            raise CheckpointError(f"duplicate tensor {name!r}")
        (ndim,) = unpack("<B", f"tensor {name!r} ndim")
        shape = unpack(f"<{ndim}I", f"tensor {name!r} shape")
        payload = take(4 * math.prod(shape), f"tensor {name!r} payload")
        try:
            params[name] = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(shape)
        except ValueError as err:  # more dimensions than numpy supports
            raise CheckpointError(f"tensor {name!r} shape {shape}: {err}") from err
    if offset != end:
        raise CheckpointError(f"{end - offset} trailing bytes after the last tensor")
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

