"""Decoder-only transformer: pre-norm RMSNorm blocks with SwiGLU FFNs,
rotary position embeddings, untied input/output embeddings, and no linear
biases anywhere except the final LayerNorm.  Also what a model is built from:
parameter roles and their width classes, ``Multipliers`` and ``HyperParams``.

Two scalar multipliers shape the forward pass: ``input_mult`` scales the
embedding output, ``output_mult`` scales the final hidden states before the
softmax.  Attention logits are scaled by 1/d_head by default (the muP
convention); set ``attn_scale_mode="standard"`` for 1/sqrt(d_head).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, field, fields
from enum import Enum

import numpy as np

from . import io as dio
from . import tensor as T
from .errors import ClassificationError, ConfigError, CorruptFileError
from .tensor import RngState, Tensor, trunc_normal

CHECKPOINT_VERSION = 1


class ParamClass(Enum):
    MATRIX = "matrix_like"
    VECTOR = "vector_like"


# Role suffixes whose tensors have both dims proportional to width.
_MATRIX_SUFFIXES = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")
_VECTOR_SUFFIXES = ("embedding", "lm_head", "gain", "bias")


def classify(param_role: str) -> ParamClass:
    """Map a parameter role name to its width-scaling class.

    Unknown roles raise ClassificationError rather than guessing.
    """
    leaf = param_role.rsplit(".", 1)[-1]
    if leaf in _MATRIX_SUFFIXES:
        return ParamClass.MATRIX
    if leaf in _VECTOR_SUFFIXES:
        return ParamClass.VECTOR
    raise ClassificationError(f"unknown parameter role {param_role!r}")


@dataclass(frozen=True)
class Multipliers:
    """Scalar multipliers on the embedding output and the pre-softmax
    hidden states.  Zero is degenerate but allowed: output_mult=0 makes
    every logit exactly zero, which is useful as a uniform-prediction probe.
    """
    input_mult: float
    output_mult: float

    def __post_init__(self):
        for name in ("input_mult", "output_mult"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class HyperParams:
    """Searched and fixed training hyperparameters; every default is the published value.

    The searched seven: two learning rates, min lr, two init stds, and the
    two multipliers.  The rest ride along unchanged through width transfer.
    JSON names (``metadata["json"]``) follow the published table, snake_cased.
    """

    vector_lr: float = field(metadata={"json": "learning_rate"})
    matrix_lr: float = field(metadata={"json": "matrix_learning_rate"})
    min_lr: float = field(metadata={"json": "minimum_learning_rate"})
    vector_std: float = field(metadata={"json": "standard_deviation"})
    matrix_std: float = field(metadata={"json": "matrix_standard_deviation"})
    input_mult: float
    output_mult: float
    schedule_type: str = field(default="cosine", metadata={"json": "lr_schedule_type"})
    schedule_tokens: int = field(default=2_500_000_000_000, metadata={"json": "lr_schedule_tokens"})
    warmup_steps: int = field(default=2_000, metadata={"json": "warmup_step"})
    clip_grad: float = 1.0
    weight_decay: float = 0.0
    batch_tokens: int = field(default=5_505_024, metadata={"json": "batch_size_tokens"})
    rope_theta: float = 10_000.0

    def __post_init__(self):
        # "not <ok>" rejects NaN.  lr = 0 is allowed: a zero-rate run is the cheapest
        # way to probe that the optimizer path is a no-op (checkpoint before == after).
        if not (self.vector_lr >= 0 and self.matrix_lr >= 0):
            raise ConfigError("learning rates must be >= 0")
        if not 0 <= self.min_lr <= max(self.vector_lr, self.matrix_lr):
            raise ConfigError("min_lr must lie in [0, max(vector_lr, matrix_lr)]")
        if not (self.vector_std > 0 and self.matrix_std > 0):
            raise ConfigError("init stds must be positive")
        Multipliers(self.input_mult, self.output_mult)     # checks the two multipliers
        if self.schedule_type != "cosine":
            raise ConfigError(f"unsupported schedule_type {self.schedule_type!r}")
        if not (self.schedule_tokens > 0 and self.batch_tokens > 0):
            raise ConfigError("schedule_tokens and batch_tokens must be positive")
        if not self.warmup_steps >= 0:
            raise ConfigError("warmup_steps must be >= 0")
        if not self.clip_grad > 0:
            raise ConfigError("clip_grad must be positive")
        if not self.weight_decay >= 0:
            raise ConfigError("weight_decay must be >= 0")
        if not self.rope_theta > 0:
            raise ConfigError("rope_theta must be positive")


def hyperparams_to_dict(hp: HyperParams) -> dict:
    """``hp`` under its JSON field names."""
    return {f.metadata.get("json", f.name): getattr(hp, f.name) for f in fields(hp)}


@dataclass(frozen=True)
class ModelConfig:
    layer_num: int
    attention_heads: int
    hidden_size: int
    ffn_hidden_size: int
    vocab_size: int
    context_length: int
    rope_theta: float = 10_000.0
    norm_eps: float = 1e-5
    attn_scale_mode: str = "mup"   # "mup": 1/d_head, "standard": 1/sqrt(d_head)
    dropout_rate: float = 0.0

    def __post_init__(self):
        # "not <ok>" rejects NaN
        for name in ("layer_num", "attention_heads", "hidden_size",
                     "ffn_hidden_size", "vocab_size", "context_length"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.hidden_size % self.attention_heads != 0:
            raise ConfigError("hidden_size must be divisible by attention_heads")
        if self.head_dim % 2 != 0:
            raise ConfigError("head dim must be even for rotary embeddings")
        if not self.rope_theta > 0:
            raise ConfigError("rope_theta must be positive")
        if not self.norm_eps >= 0:
            raise ConfigError("norm_eps must be >= 0")
        if self.attn_scale_mode not in ("mup", "standard"):
            raise ConfigError(f"unknown attn_scale_mode {self.attn_scale_mode!r}")
        if self.dropout_rate != 0.0:
            raise ConfigError("only dropout_rate=0.0 is supported")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.attention_heads

    def to_dict(self) -> dict:
        return asdict(self)


def param_shapes(config: ModelConfig) -> dict:
    """The ordered ``{role name: shape}`` table of a config's parameters:
    the ones :meth:`Model.build` makes and a checkpoint must hold."""
    d, f, v = config.hidden_size, config.ffn_hidden_size, config.vocab_size
    block = {"attn_norm.gain": (d,), "attn.wq": (d, d), "attn.wk": (d, d), "attn.wv": (d, d),
             "attn.wo": (d, d), "ffn_norm.gain": (d,), "ffn.w_gate": (d, f),
             "ffn.w_up": (d, f), "ffn.w_down": (f, d)}
    return {"embedding": (v, d),
            **{f"layers.{i}.{k}": s for i in range(config.layer_num) for k, s in block.items()},
            "final_norm.gain": (d,), "final_norm.bias": (d,), "lm_head": (d, v)}


def count_params(config: ModelConfig) -> int:
    """Exact trainable-parameter count for a config.

    2*V*d (untied embedding + lm head)
    + L * (4*d^2 attention + 3*d*f SwiGLU + 2*d block norm gains)
    + 2*d final LayerNorm gain and bias.
    """
    return sum(math.prod(shape) for shape in param_shapes(config).values())


def attention_bias(segments: np.ndarray) -> np.ndarray:
    """Additive attention bias from packed-row segment ids.

    segments: [B, T] ints, 0 for padding, 1.. for documents within the row.
    Position i may attend to j <= i in the same segment.  Pad positions
    attend only to themselves (keeps every softmax row non-empty; their
    outputs never reach the loss).  Returns [B, 1, T, T] of 0 / -inf.
    """
    b, t = segments.shape
    causal = np.tril(np.ones((t, t), dtype=bool))
    same = segments[:, :, None] == segments[:, None, :]
    allowed = causal[None, :, :] & same & (segments[:, :, None] != 0)
    eye = np.eye(t, dtype=bool)
    allowed = allowed | eye[None, :, :]
    bias = np.where(allowed, 0.0, -np.inf)
    return bias[:, None, :, :]


def predicted_positions(segments: np.ndarray) -> np.ndarray:
    """[B, T] float 0/1 mask of the positions the loss counts.

    Position t predicts token t+1 and is counted when both are non-pad;
    the last position has no target.
    """
    mask = np.zeros(segments.shape, dtype=np.float64)
    mask[:, :-1] = (segments[:, :-1] != 0) & (segments[:, 1:] != 0)
    return mask


def check_hyperparams(config: ModelConfig, hp: HyperParams):
    """The rule that ``hp`` fits ``config``: both name one rotary base."""
    if hp.rope_theta != config.rope_theta:
        raise ConfigError(
            f"hyperparameter rope_theta {hp.rope_theta!r} differs from "
            f"model config rope_theta {config.rope_theta!r}")


class Model:
    """The transformer plus its parameter table.

    Parameters live in an ordered dict keyed by role path, e.g.
    ``layers.3.attn.wq`` or ``final_norm.gain``; those role names drive
    width-transfer classification and per-class learning rates.
    """

    def __init__(self, config: ModelConfig, multipliers: Multipliers, params: dict):
        self.config = config
        self.multipliers = multipliers
        self.params = params
        self.last_stats = None
        self.loaded_step = 0   # the step of the checkpoint this model was loaded from

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, config: ModelConfig, hp: HyperParams, rng: RngState) -> "Model":
        """Initialize in :func:`param_shapes` order: matrix-like weights get
        trunc_normal(0, matrix_std), embedding and lm head trunc_normal(0,
        vector_std), norm gains 1 and biases 0.  The rotary base comes from
        ``config``; ``hp.rope_theta`` must match it."""
        check_hyperparams(config, hp)
        params = {}
        for name, shape in param_shapes(config).items():
            if name.endswith(".gain"):
                arr = np.ones(shape)
            elif name.endswith(".bias"):
                arr = np.zeros(shape)
            else:
                std = hp.matrix_std if classify(name) is ParamClass.MATRIX else hp.vector_std
                arr = trunc_normal(shape, 0.0, std, rng)
            params[name] = Tensor(arr, requires_grad=True)
        return cls(config, Multipliers(hp.input_mult, hp.output_mult), params)

    def zero_grads(self):
        for t in self.params.values():
            t.grad = None

    # -- forward -----------------------------------------------------------

    def _validate_tokens(self, tokens: np.ndarray):
        if tokens.ndim != 2:
            raise ConfigError(f"tokens must be [B, T], got shape {tokens.shape}")
        if tokens.shape[1] > self.config.context_length:
            raise ConfigError(
                f"sequence length {tokens.shape[1]} exceeds context "
                f"{self.config.context_length}")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise ConfigError("token id out of vocabulary range")

    def forward(self, tokens, segments=None):
        """tokens: [B, T] int ids; segments: [B, T] packed-row segment ids
        (0 = pad) or None for plain causal attention.  Returns [B, T, V]
        logits.  The RMS over live positions of each block output
        (``block_rms``) and of the residual entering the final LayerNorm
        (``pre_logit_rms``) is left on ``self.last_stats``.
        """
        cfg = self.config
        tokens = np.asarray(tokens)
        self._validate_tokens(tokens)
        b, t = tokens.shape
        if segments is None:
            segments = np.ones((b, t), dtype=np.int32)
        else:
            segments = np.asarray(segments)
            if segments.shape != tokens.shape:
                raise ConfigError("segments shape must match tokens")
        d = cfg.hidden_size
        bias = attention_bias(segments)
        live = (segments != 0)[:, :, None]
        n_live = max(int(live.sum()), 1)
        rms = []
        h = T.scale(T.embedding(self.params["embedding"], tokens), self.multipliers.input_mult)
        for i in range(cfg.layer_num):
            h = self._block(i, h, bias)
            rms.append(float(np.sqrt((h.data ** 2 * live).sum() / (n_live * d))))
        self.last_stats = {"block_rms": rms, "pre_logit_rms": rms[-1]}
        hn = T.layer_norm(h, self.params["final_norm.gain"],
                          self.params["final_norm.bias"], cfg.norm_eps)
        logits = T.matmul(T.reshape(hn, (b * t, d)), self.params["lm_head"])
        return T.scale(T.reshape(logits, (b, t, cfg.vocab_size)), self.multipliers.output_mult)

    def _block(self, i, h, bias):
        """Block ``i`` on the residual stream ``h`` [B, T, d], attending under ``bias``:
        the one reader of the ``layers.{i}.*`` parameters."""
        cfg, (b, t, d), pre = self.config, h.shape, f"layers.{i}"
        hd, positions = cfg.head_dim, np.arange(t)
        scale = (1.0 / hd) if cfg.attn_scale_mode == "mup" else (1.0 / math.sqrt(hd))
        x = T.rms_norm(h, self.params[f"{pre}.attn_norm.gain"], cfg.norm_eps)
        x2 = T.reshape(x, (b * t, d))

        def heads_of(role):
            """``x2`` through ``attn.<role>``, split into [B, heads, T, head dim]."""
            y = T.matmul(x2, self.params[f"{pre}.attn.{role}"])
            return T.transpose(T.reshape(y, (b, t, cfg.attention_heads, hd)), (0, 2, 1, 3))

        q, k, v = (heads_of(role) for role in ("wq", "wk", "wv"))
        q, k = (T.rope_rotate(y, positions, cfg.rope_theta) for y in (q, k))
        ctx = T.transpose(T.causal_attention(q, k, v, bias, scale), (0, 2, 1, 3))
        ctx = T.matmul(T.reshape(ctx, (b * t, d)), self.params[f"{pre}.attn.wo"])
        h = T.add(h, T.reshape(ctx, (b, t, d)))
        x = T.rms_norm(h, self.params[f"{pre}.ffn_norm.gain"], cfg.norm_eps)
        return T.add(h, T.swiglu_ffn(x, self.params[f"{pre}.ffn.w_gate"],
                                     self.params[f"{pre}.ffn.w_up"],
                                     self.params[f"{pre}.ffn.w_down"]))

    def loss(self, tokens, segments=None):
        """Mean next-token cross entropy in nats over predicted positions.

        Position t predicts tokens[:, t+1]; a position is counted when both
        it and its target are non-pad.  Document-boundary transitions inside
        a packed row do count (the previous document's last token predicts
        the next document's first).
        """
        tokens = np.asarray(tokens)
        b, t = tokens.shape
        if t < 2:
            raise ConfigError("need at least 2 tokens per row to form a target")
        seg = np.ones((b, t), dtype=np.int32) if segments is None else np.asarray(segments)
        logits = self.forward(tokens, seg)
        targets = np.zeros_like(tokens)
        targets[:, :-1] = tokens[:, 1:]
        mask = predicted_positions(seg)
        return T.softmax_cross_entropy(
            T.reshape(logits, (b * t, self.config.vocab_size)),
            targets.reshape(-1), mask.reshape(-1))

    # -- persistence -------------------------------------------------------

    def save(self, path, step: int = 0):
        """Checkpoint to the DLM1 container; round-trips bit-exactly."""
        meta = {
            "kind": "checkpoint",
            "checkpoint_version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "multipliers": asdict(self.multipliers),
            "step": int(step),
        }
        dio.save_arrays(path, {k: v.data for k, v in self.params.items()}, meta)

    @classmethod
    def load(cls, path) -> "Model":
        arrays, meta = dio.load_arrays(path)
        if meta.get("kind") != "checkpoint":
            raise ConfigError(f"{path} is not a model checkpoint")
        if (version := meta.get("checkpoint_version")) != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version {version!r}")
        config = dio.decode_record(ModelConfig, meta.get("config"), f"{path}: config")
        mult = dio.decode_record(Multipliers, meta.get("multipliers"), f"{path}: multipliers")
        want = {k: ("<f8", shape) for k, shape in param_shapes(config).items()}
        got = {k: (a.dtype.str, a.shape) for k, a in arrays.items()}
        if got != want:
            raise CorruptFileError(f"{path}: holds arrays {sorted(got.items() - want.items())} "
                                   f"where its config needs {sorted(want.items() - got.items())}")
        model = cls(config, mult, {k: Tensor(arrays[k], requires_grad=True) for k in want})
        if type(step := meta.get("step")) is not int or step < 0:
            raise CorruptFileError(f"{path}: step must be an int >= 0, got {step!r}")
        model.loaded_step = step
        return model
