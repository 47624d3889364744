"""Width-transfer hyperparameters (muP style).

Parameters are split into two classes by which of their dimensions grow
with model width:

* matrix-like: both dims scale (attention q/k/v/o and FFN gate/up/down)
* vector-like: at most one dim scales (embedding, lm head, norm gains/biases)

Hyperparameters tuned on a narrow proxy transfer to a wider model with
width ratio r = target/base via

    matrix_lr   -> matrix_lr / r          vector_lr   unchanged
    matrix_std  -> matrix_std / sqrt(r)   vector_std  unchanged
    output_mult -> output_mult / r        input_mult  unchanged
    min_lr      -> min_lr / r   (it floors the matrix lr)

Head count scales with width at fixed head dim, so the per-head dimension
never changes across a width sweep.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace, asdict
from enum import Enum

from .errors import ClassificationError, ConfigError
from .tensor import RngState


class ParamClass(Enum):
    MATRIX = "matrix_like"
    VECTOR = "vector_like"


# Role suffixes whose tensors have both dims proportional to width.
_MATRIX_SUFFIXES = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")
_VECTOR_SUFFIXES = ("embedding", "lm_head", "gain", "bias")


def classify(param_role: str, shape, config=None) -> ParamClass:
    """Map a parameter role name to its width-scaling class.

    Unknown roles raise ClassificationError rather than guessing.
    """
    leaf = param_role.rsplit(".", 1)[-1]
    if leaf in _MATRIX_SUFFIXES:
        return ParamClass.MATRIX
    if leaf in _VECTOR_SUFFIXES:
        return ParamClass.VECTOR
    raise ClassificationError(f"unknown parameter role {param_role!r}")


@dataclass
class HyperParams:
    """Searched and fixed training hyperparameters.

    The searched seven: two learning rates, min lr, two init stds, and the
    two multipliers.  The rest ride along unchanged through width transfer.
    """

    vector_lr: float
    matrix_lr: float
    min_lr: float
    vector_std: float
    matrix_std: float
    input_mult: float
    output_mult: float
    schedule_type: str = "cosine"
    schedule_tokens: int = 2_500_000_000_000
    warmup_steps: int = 2_000
    clip_grad: float = 1.0
    weight_decay: float = 0.0
    batch_tokens: int = 5_505_024
    rope_theta: float = 10_000.0

    def validate(self):
        # lr = 0 is allowed: a zero-rate run is the cheapest way to probe that
        # the optimizer path is a no-op (checkpoint before == checkpoint after).
        if self.vector_lr < 0 or self.matrix_lr < 0:
            raise ConfigError("learning rates must be >= 0")
        if self.min_lr < 0 or self.min_lr > max(self.vector_lr, self.matrix_lr):
            raise ConfigError("min_lr must lie in [0, max(vector_lr, matrix_lr)]")
        if self.vector_std <= 0 or self.matrix_std <= 0:
            raise ConfigError("init stds must be positive")
        for name in ("input_mult", "output_mult"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0")
        if self.schedule_type != "cosine":
            raise ConfigError(f"unsupported schedule_type {self.schedule_type!r}")
        if self.schedule_tokens <= 0 or self.batch_tokens <= 0:
            raise ConfigError("schedule_tokens and batch_tokens must be positive")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")
        if self.warmup_steps * self.batch_tokens >= self.schedule_tokens:
            raise ConfigError("warmup must end before the schedule does")
        if self.clip_grad <= 0:
            raise ConfigError("clip_grad must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        return self


# JSON field names follow the published hyperparameter table, snake_cased.
_JSON_KEYS = {
    "vector_lr": "learning_rate",
    "matrix_lr": "matrix_learning_rate",
    "min_lr": "minimum_learning_rate",
    "vector_std": "standard_deviation",
    "matrix_std": "matrix_standard_deviation",
    "input_mult": "input_mult",
    "output_mult": "output_mult",
    "schedule_type": "lr_schedule_type",
    "schedule_tokens": "lr_schedule_tokens",
    "warmup_steps": "warmup_step",
    "clip_grad": "clip_grad",
    "weight_decay": "weight_decay",
    "batch_tokens": "batch_size_tokens",
    "rope_theta": "rope_theta",
}
_FROM_JSON = {v: k for k, v in _JSON_KEYS.items()}


def hyperparams_to_dict(hp: HyperParams) -> dict:
    return {_JSON_KEYS[k]: v for k, v in asdict(hp).items()}


def hyperparams_from_dict(d: dict) -> HyperParams:
    unknown = set(d) - set(_FROM_JSON)
    if unknown:
        raise ConfigError(f"unknown hyperparameter fields: {sorted(unknown)}")
    missing = set(_FROM_JSON) - set(d)
    if missing:
        raise ConfigError(f"missing hyperparameter fields: {sorted(missing)}")
    return HyperParams(**{_FROM_JSON[k]: v for k, v in d.items()}).validate()


@dataclass(frozen=True)
class WidthPair:
    base: int
    target: int

    @property
    def ratio(self) -> float:
        if self.base <= 0 or self.target <= 0:
            raise ConfigError(f"widths must be positive, got {self.base} -> {self.target}")
        return self.target / self.base


def transfer(hp: HyperParams, widths: WidthPair) -> HyperParams:
    """Rescale hyperparameters from widths.base to widths.target.

    Identity at ratio 1; compositional across chained width pairs.
    """
    r = widths.ratio
    if r <= 0:
        raise ConfigError(f"width ratio must be positive, got {r}")
    out = replace(
        hp,
        matrix_lr=hp.matrix_lr / r,
        min_lr=hp.min_lr / r,
        matrix_std=hp.matrix_std / math.sqrt(r),
        output_mult=hp.output_mult / r,
    )
    return out


def scaled_config(base_config, width: int):
    """Scale hidden/ffn/heads of a config proportionally to a new width."""
    base_w = base_config.hidden_size
    if (width * base_config.ffn_hidden_size) % base_w != 0:
        raise ConfigError(f"ffn size does not scale integrally from {base_w} to {width}")
    if (width * base_config.attention_heads) % base_w != 0:
        raise ConfigError(f"head count does not scale integrally from {base_w} to {width}")
    return replace(
        base_config,
        hidden_size=width,
        ffn_hidden_size=width * base_config.ffn_hidden_size // base_w,
        attention_heads=width * base_config.attention_heads // base_w,
    )


@dataclass
class CoordCheckResult:
    rows: list          # (width, step, metric, value)
    diverged: dict      # width -> bool
    max_rms: dict       # width -> max pre-logit RMS over steps

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["width", "step", "metric", "value"])
            for row in self.rows:
                w.writerow(row)


def coordinate_check(base_config, hp: HyperParams, widths, steps: int,
                     packed, seed: int, rows_per_batch: int = 4,
                     break_transfer: bool = False) -> CoordCheckResult:
    """Train each width briefly and record activation RMS statistics.

    For every width in ``widths`` the base config is rescaled, the
    hyperparameters transferred from ``base_config.hidden_size``, and the
    model trained ``steps`` steps on an identical batch sequence drawn from
    ``packed`` (a (tokens, segments) array pair).  Per step we record the
    training loss (metric ``loss``), the RMS of the residual stream entering
    the final LayerNorm (``pre_logit_rms``) and of each block output
    (``block{i}_rms``), so one sweep yields both loss curves and the
    activation-scale comparison.

    steps=0 records initialization-only statistics.  A width that diverges
    (non-finite loss) is flagged, keeping the statistics gathered so far.
    ``break_transfer=True`` deliberately skips the matrix_lr rescaling, the
    negative control that makes activations blow up with width.
    """
    # model and trainer import this module, so importing them at the top
    # would be a cycle.  The function stays here, not in trainer, because
    # callers (the benchmark's tracing among them) find it as
    # mup.coordinate_check.
    from . import trainer as _trainer
    from .model import Model

    base_w = base_config.hidden_size
    rows, diverged, max_rms = [], {}, {}
    for width in widths:
        cfg = scaled_config(base_config, width)
        hp_w = transfer(hp, WidthPair(base_w, width))
        if break_transfer:
            hp_w = replace(hp_w, matrix_lr=hp.matrix_lr)
        model = Model.build(cfg, hp_w, RngState(seed))
        schedule = _trainer.Schedule.from_hyperparams(hp_w)
        batches = _trainer.batch_iterator(packed, rows_per_batch, max(steps, 1), seed)
        stats_rows, was_diverged = _trainer.run_coord_steps(model, schedule, batches, steps)
        peak = 0.0
        for step, metric, value in stats_rows:
            rows.append((width, step, metric, value))
            if metric == "pre_logit_rms" and math.isfinite(value):
                peak = max(peak, value)
        diverged[width] = was_diverged
        max_rms[width] = peak
    return CoordCheckResult(rows=rows, diverged=diverged, max_rms=max_rms)
