"""Decoder-only transformer: pre-norm RMSNorm blocks with SwiGLU FFNs,
rotary position embeddings, untied input/output embeddings, and no linear
biases anywhere except the final LayerNorm.

Two scalar multipliers shape the forward pass: ``input_mult`` scales the
embedding output, ``output_mult`` scales the final hidden states before the
softmax.  Attention logits are scaled by 1/d_head by default (the muP
convention); set ``attn_scale_mode="standard"`` for 1/sqrt(d_head).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import io as dio
from . import tensor as T
from .errors import ConfigError
from .mup import HyperParams
from .tensor import RngState, Tensor, trunc_normal

CHECKPOINT_VERSION = 1


@dataclass
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

    def validate(self):
        for name in ("layer_num", "attention_heads", "hidden_size",
                     "ffn_hidden_size", "vocab_size", "context_length"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.hidden_size % self.attention_heads != 0:
            raise ConfigError("hidden_size must be divisible by attention_heads")
        if self.head_dim % 2 != 0:
            raise ConfigError("head dim must be even for rotary embeddings")
        if self.rope_theta <= 0:
            raise ConfigError("rope_theta must be positive")
        if self.norm_eps < 0:
            raise ConfigError("norm_eps must be >= 0")
        if self.attn_scale_mode not in ("mup", "standard"):
            raise ConfigError(f"unknown attn_scale_mode {self.attn_scale_mode!r}")
        if self.dropout_rate != 0.0:
            raise ConfigError("only dropout_rate=0.0 is supported")
        return self

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.attention_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d).validate()


@dataclass
class Multipliers:
    """Scalar multipliers on the embedding output and the pre-softmax
    hidden states.  Zero is degenerate but allowed: output_mult=0 makes
    every logit exactly zero, which is useful as a uniform-prediction probe.
    """
    input_mult: float
    output_mult: float

    def validate(self):
        for name in ("input_mult", "output_mult"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0")
        return self


def count_params(config: ModelConfig) -> int:
    """Exact trainable-parameter count for a config.

    2*V*d (untied embedding + lm head)
    + L * (4*d^2 attention + 3*d*f SwiGLU + 2*d block norm gains)
    + 2*d final LayerNorm gain and bias.
    """
    d, f = config.hidden_size, config.ffn_hidden_size
    per_layer = 4 * d * d + 3 * d * f + 2 * d
    return 2 * config.vocab_size * d + config.layer_num * per_layer + 2 * d


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


class Model:
    """The transformer plus its parameter table.

    Parameters live in an ordered dict keyed by role path, e.g.
    ``layers.3.attn.wq`` or ``final_norm.gain``; those role names drive
    width-transfer classification and per-class learning rates.
    """

    def __init__(self, config: ModelConfig, multipliers: Multipliers, params: dict):
        self.config = config.validate()
        self.multipliers = multipliers.validate()
        self.params = params
        self.last_stats = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, config: ModelConfig, hp: HyperParams, rng: RngState) -> "Model":
        """Initialize from hyperparameters: matrix-like weights get
        trunc_normal(0, matrix_std), embedding and lm head get
        trunc_normal(0, vector_std), norm gains 1 and biases 0.  The
        rotary base comes from ``config``; ``hp.rope_theta`` must match it.
        """
        config.validate()
        if hp.rope_theta != config.rope_theta:
            raise ConfigError(
                f"hyperparameter rope_theta {hp.rope_theta!r} differs from "
                f"model config rope_theta {config.rope_theta!r}")
        d, f, v = config.hidden_size, config.ffn_hidden_size, config.vocab_size

        def p(arr):
            return Tensor(arr, requires_grad=True)

        params = {}
        params["embedding"] = p(trunc_normal((v, d), 0.0, hp.vector_std, rng))
        for i in range(config.layer_num):
            pre = f"layers.{i}"
            params[f"{pre}.attn_norm.gain"] = p(np.ones(d))
            for w in ("wq", "wk", "wv", "wo"):
                params[f"{pre}.attn.{w}"] = p(trunc_normal((d, d), 0.0, hp.matrix_std, rng))
            params[f"{pre}.ffn_norm.gain"] = p(np.ones(d))
            params[f"{pre}.ffn.w_gate"] = p(trunc_normal((d, f), 0.0, hp.matrix_std, rng))
            params[f"{pre}.ffn.w_up"] = p(trunc_normal((d, f), 0.0, hp.matrix_std, rng))
            params[f"{pre}.ffn.w_down"] = p(trunc_normal((f, d), 0.0, hp.matrix_std, rng))
        params["final_norm.gain"] = p(np.ones(d))
        params["final_norm.bias"] = p(np.zeros(d))
        params["lm_head"] = p(trunc_normal((d, v), 0.0, hp.vector_std, rng))

        mult = Multipliers(input_mult=hp.input_mult, output_mult=hp.output_mult)
        return cls(config, mult, params)

    def zero_grads(self):
        for t in self.params.values():
            t.grad = None

    def num_params(self) -> int:
        return sum(t.data.size for t in self.params.values())

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
        d, heads, hd = cfg.hidden_size, cfg.attention_heads, cfg.head_dim
        scale = (1.0 / hd) if cfg.attn_scale_mode == "mup" else (1.0 / math.sqrt(hd))
        bias = attention_bias(segments)
        positions = np.arange(t)
        live = segments != 0
        n_live = max(int(live.sum()), 1)

        def rms_of(x_tensor):
            h = x_tensor.data
            return float(np.sqrt((h ** 2 * live[:, :, None]).sum() / (n_live * d)))

        stats = {"block_rms": []}
        h = T.scale(T.embedding(self.params["embedding"], tokens), self.multipliers.input_mult)
        for i in range(cfg.layer_num):
            pre = f"layers.{i}"
            x = T.rms_norm(h, self.params[f"{pre}.attn_norm.gain"], cfg.norm_eps)
            x2 = T.reshape(x, (b * t, d))
            q = T.reshape(T.matmul(x2, self.params[f"{pre}.attn.wq"]), (b, t, heads, hd))
            k = T.reshape(T.matmul(x2, self.params[f"{pre}.attn.wk"]), (b, t, heads, hd))
            v = T.reshape(T.matmul(x2, self.params[f"{pre}.attn.wv"]), (b, t, heads, hd))
            q = T.rope_rotate(T.transpose(q, (0, 2, 1, 3)), positions, cfg.rope_theta)
            k = T.rope_rotate(T.transpose(k, (0, 2, 1, 3)), positions, cfg.rope_theta)
            v = T.transpose(v, (0, 2, 1, 3))
            scores = T.add_const(T.scale(T.bmm(q, T.transpose(k, (0, 1, 3, 2))), scale), bias)
            probs = T.softmax_last(scores)
            ctx = T.transpose(T.bmm(probs, v), (0, 2, 1, 3))
            ctx = T.matmul(T.reshape(ctx, (b * t, d)), self.params[f"{pre}.attn.wo"])
            h = T.add(h, T.reshape(ctx, (b, t, d)))
            x = T.rms_norm(h, self.params[f"{pre}.ffn_norm.gain"], cfg.norm_eps)
            h = T.add(h, T.swiglu_ffn(x, self.params[f"{pre}.ffn.w_gate"],
                                      self.params[f"{pre}.ffn.w_up"],
                                      self.params[f"{pre}.ffn.w_down"]))
            stats["block_rms"].append(rms_of(h))
        stats["pre_logit_rms"] = rms_of(h)
        self.last_stats = stats
        hn = T.layer_norm(h, self.params["final_norm.gain"],
                          self.params["final_norm.bias"], cfg.norm_eps)
        logits = T.matmul(T.reshape(hn, (b * t, d)), self.params["lm_head"])
        return T.scale(T.reshape(logits, (b, t, cfg.vocab_size)), self.multipliers.output_mult)

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
        if segments is None:
            seg = np.ones((b, t), dtype=np.int32)
        else:
            seg = np.asarray(segments)
        logits = self.forward(tokens, segments)
        targets = np.zeros_like(tokens)
        targets[:, :-1] = tokens[:, 1:]
        mask = np.zeros((b, t), dtype=np.float64)
        mask[:, :-1] = (seg[:, :-1] != 0) & (seg[:, 1:] != 0)
        return T.softmax_cross_entropy(
            T.reshape(logits, (b * t, self.config.vocab_size)),
            targets.reshape(-1), mask.reshape(-1))

    # -- persistence -------------------------------------------------------

    def save(self, path, step: int = 0, extra_meta: dict | None = None):
        """Checkpoint to the DLM1 container; round-trips bit-exactly."""
        meta = {
            "kind": "checkpoint",
            "checkpoint_version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "multipliers": asdict(self.multipliers),
            "step": int(step),
        }
        if extra_meta:
            meta["extra"] = extra_meta
        dio.save_arrays(path, {k: v.data for k, v in self.params.items()}, meta)

    @classmethod
    def load(cls, path) -> "Model":
        arrays, meta = dio.load_arrays(path)
        if meta.get("kind") != "checkpoint":
            raise ConfigError(f"{path} is not a model checkpoint")
        if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {meta.get('checkpoint_version')}")
        config = ModelConfig.from_dict(meta["config"])
        mult = Multipliers(**meta["multipliers"])
        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        model = cls(config, mult, params)
        model.loaded_step = meta.get("step", 0)
        return model
