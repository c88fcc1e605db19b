"""Two-tower voxel encoder / sequence block / decoder, in four variants.

One tower embeds only the current frame; the other embeds the frame, adds a
sinusoidal positional encoding and runs the variant's sequence block so the
token can attend to everything seen so far. Both embeddings are summed and
decoded to an r^3 sigmoid occupancy grid in the current camera frame.

Variants differ only in the sequence block:
  * mvp         - kernelized linear attention over the constant-size
                  associative memory (softmax random features or relu)
  * mvt         - exact quadratic attention over the stored key/value history
  * lstm        - an LSTM cell in place of the attention sublayer
  * single_view - a history-free dense sublayer (baseline floor)

Block layers are pre-normalized (RMS scale) with residual attention/recurrent
and MLP sublayers. Attention is single-head by default; extra heads split the
query/key and value widths, each head owning its own memory. Intermediate
activations are ReLU; the output activation is a sigmoid, so predictions
always lie in (0, 1).

One stateful forward serves training and streaming: both encoder towers
and the decoder run once on all L new frames, and one block stack runs over
their (L, latent_dim) tokens, each block's mixing sublayer reading its slot
of the per-sequence state and replacing it with the slot advanced by the L
rows: the associative memory for mvp (constant size), the stored key/value
history for mvt (growing) and (h, c) for lstm. A training sequence is the
recurrence unrolled from a fresh state: ``sequence_predictions`` serves
training (with gradients), validation and eval (under ``no_grad``), carrying
one state through passes of at most ``MAX_VIEWS`` frames (no gradient flows
between passes; 3, 6 or 12 training views fit one), so a sequence may be of
any length. ``forward_step`` advances a copy of the caller's state by one
frame, so a step that raises leaves the caller's state as it was.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import attention as attn
from .autograd import Tensor, concat, conv3d, conv_transpose3d, no_grad
from .checks import check_fields, rule
from .voxel import VoxelGrid

logger = logging.getLogger(__name__)

VARIANTS = ("mvp", "mvt", "lstm", "single_view")
TRAIN_VIEW_CHOICES = (3, 6, 12)

ENC_KERNEL, ENC_STRIDE, ENC_PAD = 3, 2, 1
DEC_KERNEL, DEC_STRIDE, DEC_PAD = 4, 2, 1
RMS_EPS = 1e-6
BCE_EPS = 1e-7
MLP_RATIO = 2  # block MLP hidden width, in multiples of latent_dim
MAX_VIEWS = 64  # frames per forward pass; the weights do not depend on it
OUTPUT_BIAS_INIT = -2.0  # sparse-occupancy prior on the sigmoid head


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters; ``validate`` checks each field's rule, then the rules across fields."""
    variant: str = rule("mvp", choices=VARIANTS)
    resolution: int = rule(16, min=1)
    latent_dim: int = rule(128, min=1)
    qk_dim: int = rule(32, min=1)
    feature_count: int = rule(64, min=1)   # softmax kernel only, per head
    kernel: str = rule("relu", choices=attn.KERNEL_KINDS)
    performer_layers: int = rule(2, min=1)
    attention_heads: int = rule(1, min=1)
    conv_channels: tuple = (8, 16, 32)
    train_views: int = rule(12, choices=TRAIN_VIEW_CHOICES)
    seed: int = rule(0, min=0)

    def __post_init__(self):
        if isinstance(self.conv_channels, list):
            object.__setattr__(self, "conv_channels", tuple(self.conv_channels))

    def validate(self) -> "ModelConfig":
        check_fields(self, "config", ValueError)
        if not self.conv_channels or self.resolution % 2 ** len(self.conv_channels):
            raise ValueError(
                f"invalid channel schedule {self.conv_channels}: needs at least one conv "
                f"stage, and resolution {self.resolution} to halve exactly through each")
        if self.qk_dim % self.attention_heads or self.latent_dim % self.attention_heads:
            raise ValueError(
                f"qk_dim {self.qk_dim} and latent_dim {self.latent_dim} must be "
                f"divisible by attention_heads {self.attention_heads}")
        return self

    @property
    def bottleneck_spatial(self) -> int:
        return self.resolution // (2 ** len(self.conv_channels))

    @property
    def bottleneck_flat(self) -> int:
        return self.conv_channels[-1] * self.bottleneck_spatial ** 3

    @property
    def head_qk_dim(self) -> int:
        return self.qk_dim // self.attention_heads

    @property
    def head_value_dim(self) -> int:
        return self.latent_dim // self.attention_heads

    def feature_maps(self) -> list[attn.KernelFeatureMap]:
        """One feature map per attention head; softmax heads draw distinct
        projections."""
        return [attn.feature_map(self.kernel, d_qk=self.head_qk_dim, m=self.feature_count,
                                 seed=self.seed + head)
                for head in range(self.attention_heads)]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["conv_channels"] = list(self.conv_channels)
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        """Validated config from a flat dict; unknown keys are named in the error."""
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw).validate()


@functools.lru_cache(maxsize=8)
def _position_scales(dim: int) -> np.ndarray:
    scales = np.power(10000.0, (2 * (np.arange(dim) // 2)) / dim)  # shared: read-only
    scales.flags.writeable = False
    return scales


def sinusoidal_positions(start: int, length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos encodings of frame indices start..start+length-1, shape
    (length, dim); the formula holds for any index, so streams are unbounded."""
    angles = np.arange(start, start + length)[:, None] / _position_scales(dim)
    return np.where(np.arange(dim) % 2 == 0, np.sin(angles), np.cos(angles))


# ---------------------------------------------------------------------------
# model and parameters
# ---------------------------------------------------------------------------


class MvpModel:
    """Parameter container plus the per-variant forward machinery."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self.fmaps = config.feature_maps()

    @property
    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def init_state(self) -> "SequenceState":
        return SequenceState.fresh(self)


@dataclass
class SequenceState:
    """Per-sequence streaming state; constant-size for mvp, growing for mvt.
    ``layers[l]`` lists block l's slots (see ``fresh``), which the forward
    replaces and never mutates."""

    variant: str
    frame_index: int = 0
    layers: list = field(default_factory=list)

    @classmethod
    def fresh(cls, model: MvpModel) -> "SequenceState":
        cfg = model.config

        def slots() -> list:
            if cfg.variant == "mvp":
                return [attn.AssociativeMemory.fresh(fmap, cfg.head_value_dim)
                        for fmap in model.fmaps]
            if cfg.variant == "mvt":
                return [(np.zeros((0, cfg.head_qk_dim)), np.zeros((0, cfg.head_value_dim)))
                        for _ in range(cfg.attention_heads)]
            if cfg.variant == "lstm":
                return [(np.zeros((1, cfg.latent_dim)), np.zeros((1, cfg.latent_dim)))]
            return []

        return cls(variant=cfg.variant, layers=[slots() for _ in range(cfg.performer_layers)])

    @property
    def nbytes(self) -> int:
        return sum(slot.nbytes if self.variant == "mvp" else sum(a.nbytes for a in slot)
                   for layer in self.layers for slot in layer)


def _he(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def _linear_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(1.0 / fan_in)


def build_model(config: ModelConfig) -> MvpModel:
    """Deterministic He-style initialization under config.seed."""
    config = config.validate()
    rng = np.random.default_rng(config.seed)
    d = config.latent_dim
    k3 = ENC_KERNEL ** 3
    params: dict[str, Tensor] = {}

    def add(name: str, value: np.ndarray):
        params[name] = Tensor(value, requires_grad=True)

    for tower in ("frame", "ctx"):
        in_ch = 1
        for li, out_ch in enumerate(config.conv_channels):
            add(f"{tower}.conv{li}",
                _he(rng, (out_ch, in_ch, ENC_KERNEL, ENC_KERNEL, ENC_KERNEL), in_ch * k3))
            in_ch = out_ch
        add(f"{tower}.dense.w", _he(rng, (config.bottleneck_flat, d), config.bottleneck_flat))
        add(f"{tower}.dense.b", np.zeros(d))

    hidden = MLP_RATIO * d
    for l in range(config.performer_layers):
        add(f"blk{l}.norm1.scale", np.ones(d))
        if config.variant in ("mvp", "mvt"):
            add(f"blk{l}.wq", _linear_init(rng, (d, config.qk_dim), d))
            add(f"blk{l}.wk", _linear_init(rng, (d, config.qk_dim), d))
            add(f"blk{l}.wv", _linear_init(rng, (d, d), d))
            add(f"blk{l}.wo", _linear_init(rng, (d, d), d))
        elif config.variant == "lstm":
            add(f"blk{l}.lstm.wx", _linear_init(rng, (d, 4 * d), d))
            add(f"blk{l}.lstm.wh", _linear_init(rng, (d, 4 * d), d))
            bias = np.zeros(4 * d)
            bias[d : 2 * d] = 1.0  # forget-gate bias
            add(f"blk{l}.lstm.b", bias)
        else:  # single_view
            add(f"blk{l}.dense.w", _he(rng, (d, d), d))
            add(f"blk{l}.dense.b", np.zeros(d))
        add(f"blk{l}.norm2.scale", np.ones(d))
        add(f"blk{l}.mlp.w1", _he(rng, (d, hidden), d))
        add(f"blk{l}.mlp.b1", np.zeros(hidden))
        add(f"blk{l}.mlp.w2", _linear_init(rng, (hidden, d), hidden))
        add(f"blk{l}.mlp.b2", np.zeros(d))

    add("dec.dense.w", _he(rng, (d, config.bottleneck_flat), d))
    add("dec.dense.b", np.zeros(config.bottleneck_flat))
    dk3 = DEC_KERNEL ** 3
    dec_channels = list(reversed(config.conv_channels)) + [1]
    for li in range(len(dec_channels) - 1):
        in_ch, out_ch = dec_channels[li], dec_channels[li + 1]
        add(f"dec.convt{li}",
            _he(rng, (in_ch, out_ch, DEC_KERNEL, DEC_KERNEL, DEC_KERNEL), in_ch * dk3))
    add("dec.out_bias", np.array(OUTPUT_BIAS_INIT))

    model = MvpModel(config, params)
    logger.info("built %s model: %d parameters", config.variant, model.parameter_count)
    return model


# ---------------------------------------------------------------------------
# forward pieces (shared by training unroll and streaming inference)
# ---------------------------------------------------------------------------


def _encode(model: MvpModel, tower: str, values: np.ndarray) -> Tensor:
    """(L, r, r, r) frames -> (L, latent_dim) embeddings."""
    cfg = model.config
    x = Tensor(values[:, None])
    for li in range(len(cfg.conv_channels)):
        x = conv3d(x, model.params[f"{tower}.conv{li}"], ENC_STRIDE, ENC_PAD).relu()
    flat = x.reshape(len(values), cfg.bottleneck_flat)
    return (flat @ model.params[f"{tower}.dense.w"] + model.params[f"{tower}.dense.b"]).relu()


def _decode(model: MvpModel, embedding: Tensor) -> Tensor:
    """(L, latent_dim) embeddings -> (L, r, r, r) occupancy in (0, 1)."""
    cfg = model.config
    n = embedding.shape[0]
    z = (embedding @ model.params["dec.dense.w"] + model.params["dec.dense.b"]).relu()
    s = cfg.bottleneck_spatial
    x = z.reshape(n, cfg.conv_channels[-1], s, s, s)
    n_stages = len(cfg.conv_channels)
    for li in range(n_stages):
        x = conv_transpose3d(x, model.params[f"dec.convt{li}"], DEC_STRIDE, DEC_PAD)
        if li < n_stages - 1:
            x = x.relu()
    x = x + model.params["dec.out_bias"]
    r = cfg.resolution
    return x.sigmoid().reshape(n, r, r, r)


def _rms_norm(x: Tensor, scale: Tensor) -> Tensor:
    ms = (x * x).mean(axis=1, keepdims=True) + RMS_EPS
    return x * ms.pow(-0.5) * scale


def _mlp(model: MvpModel, l: int, x: Tensor) -> Tensor:
    p = model.params
    h = (x @ p[f"blk{l}.mlp.w1"] + p[f"blk{l}.mlp.b1"]).relu()
    return h @ p[f"blk{l}.mlp.w2"] + p[f"blk{l}.mlp.b2"]


def _lstm_cell(model: MvpModel, l: int, x: Tensor, h: Tensor, c: Tensor
               ) -> tuple[Tensor, Tensor]:
    p = model.params
    d = model.config.latent_dim
    gates = x @ p[f"blk{l}.lstm.wx"] + h @ p[f"blk{l}.lstm.wh"] + p[f"blk{l}.lstm.b"]
    i = gates.narrow(1, 0, d).sigmoid()
    f = gates.narrow(1, d, d).sigmoid()
    g = gates.narrow(1, 2 * d, d).tanh()
    o = gates.narrow(1, 3 * d, d).sigmoid()
    c_new = f * c + i * g
    h_new = o * c_new.tanh()
    return h_new, c_new


def _lstm_rows(model: MvpModel, l: int, x: Tensor, carry: tuple) -> tuple[Tensor, tuple]:
    """Hidden states of the row recurrence from ``carry``'s (h, c), and the
    (h, c) after the last row."""
    h, c = (Tensor(a) for a in carry)
    rows = []
    for i in range(x.shape[0]):
        h, c = _lstm_cell(model, l, x.narrow(0, i, 1), h, c)
        rows.append(h)
    return concat(rows, axis=0), (h.data, c.data)


def _attend(model: MvpModel, q: Tensor, k: Tensor, v: Tensor, slot) -> tuple[Tensor, object]:
    """One head of causal attention for the new rows after the head's slot of
    the state, an associative memory (mvp) or the stored key/value history
    (mvt); returns the rows and the slot advanced by them."""
    cfg = model.config
    if cfg.variant == "mvp":
        memory = replace(slot)
        return attn.causal_linear_attention_t(q, k, v, memory), memory
    keys, values = (concat([Tensor(old), new]) for old, new in zip(slot, (k, v)))
    return attn.exact_causal_attention_t(q, keys, values, cfg.kernel), (keys.data, values.data)


def _mix(model: MvpModel, l: int, x: Tensor, layer: list) -> Tensor:
    """The sequence-mixing sublayer of block ``l``: the only part of the
    block stack that reads the state, replacing ``layer``'s slots."""
    cfg = model.config
    p = model.params
    if cfg.variant == "single_view":
        return (x @ p[f"blk{l}.dense.w"] + p[f"blk{l}.dense.b"]).relu()
    if cfg.variant == "lstm":
        out, layer[0] = _lstm_rows(model, l, x, layer[0])
        return out
    q, k, v = (x @ p[f"blk{l}.w{name}"] for name in "qkv")
    hq, hv = cfg.head_qk_dim, cfg.head_value_dim
    heads, layer[:] = zip(*(_attend(model, q.narrow(1, h * hq, hq), k.narrow(1, h * hq, hq),
                                    v.narrow(1, h * hv, hv), layer[h])
                            for h in range(cfg.attention_heads)))
    return concat(heads, axis=1) @ p[f"blk{l}.wo"]


def _blocks(model: MvpModel, x: Tensor, state: SequenceState) -> Tensor:
    """The pre-normalized residual block stack over (L, latent_dim) tokens."""
    p = model.params
    for l in range(model.config.performer_layers):
        x = x + _mix(model, l, _rms_norm(x, p[f"blk{l}.norm1.scale"]), state.layers[l])
        x = x + _mlp(model, l, _rms_norm(x, p[f"blk{l}.norm2.scale"]))
    return x


def _forward(model: MvpModel, values: np.ndarray, state: SequenceState) -> Tensor:
    """(L, r, r, r) predictions for the L frames that continue ``state``'s
    sequence, which absorbs them."""
    positions = sinusoidal_positions(state.frame_index, len(values), model.config.latent_dim)
    tokens = _encode(model, "ctx", values) + Tensor(positions)
    preds = _decode(model, _encode(model, "frame", values) + _blocks(model, tokens, state))
    state.frame_index += len(values)
    return preds


def _frame_values(frame) -> np.ndarray:
    return frame.values if isinstance(frame, VoxelGrid) else np.asarray(frame, dtype=np.float64)


# ---------------------------------------------------------------------------
# public forward / loss
# ---------------------------------------------------------------------------


def sequence_predictions(model: MvpModel, frames: list) -> Tensor:
    """(L, r, r, r) predictions, iterable by frame, for a sequence from one
    fresh state carried through passes of at most ``MAX_VIEWS`` frames;
    gradient-tracked within a pass unless called under ``no_grad``."""
    cfg = model.config
    if not frames:
        raise ValueError("empty sequence")
    values = [_frame_values(f) for f in frames]
    for v in values:
        if v.shape != (cfg.resolution,) * 3:
            raise ValueError(
                f"frame shape {v.shape} does not match model resolution {cfg.resolution}")
    state = model.init_state()
    passes = [_forward(model, np.stack(values[s : s + MAX_VIEWS]), state)
              for s in range(0, len(values), MAX_VIEWS)]
    return concat(passes)


def forward_step(model: MvpModel, state: SequenceState, frame: VoxelGrid
                 ) -> tuple[VoxelGrid, SequenceState]:
    """The full occupancy in ``frame``'s camera frame, and a copy of ``state``
    that has absorbed the frame; ``state`` itself is left unchanged."""
    cfg = model.config
    if state.variant != cfg.variant:
        raise ValueError(f"state variant {state.variant!r} does not match model "
                         f"variant {cfg.variant!r}")
    if frame.resolution != cfg.resolution:
        raise ValueError(f"frame resolution {frame.resolution} does not match "
                         f"model resolution {cfg.resolution}")
    state = replace(state, layers=[list(layer) for layer in state.layers])
    with no_grad():
        pred = _forward(model, frame.values[None], state)
    return VoxelGrid(pred.data[0], frame.origin, frame.voxel_size), state


def bce_from_predictions(preds: Tensor, targets: list) -> Tensor:
    """Mean BCE over the frames and voxels of (L, r, r, r) predictions and
    their L targets; predictions clamped to [eps, 1-eps]."""
    target = np.stack([_frame_values(t) for t in targets]) if len(targets) else np.empty(0)
    if target.shape != preds.shape or not target.size:
        raise ValueError(f"targets of shape {target.shape} do not match predictions "
                         f"of shape {preds.shape}")
    if target.min() < 0.0 or target.max() > 1.0:
        raise ValueError("target values outside [0, 1]")
    p = preds.clip(BCE_EPS, 1.0 - BCE_EPS)
    tt = Tensor(target)
    return -(tt * p.log() + (1.0 - tt) * (1.0 - p).log()).mean()
