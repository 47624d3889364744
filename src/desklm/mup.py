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

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum

from . import io as dio
from .errors import ClassificationError, ConfigError


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
    """Searched and fixed training hyperparameters.

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

    def validate(self):     # the record itself: it was checked when it was made
        return self


def hyperparams_to_dict(hp: HyperParams) -> dict:
    """``hp`` under its JSON field names."""
    return {f.metadata.get("json", f.name): getattr(hp, f.name) for f in fields(hp)}


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
    return replace(
        hp,
        matrix_lr=hp.matrix_lr / r,
        min_lr=hp.min_lr / r,
        matrix_std=hp.matrix_std / math.sqrt(r),
        output_mult=hp.output_mult / r,
    )


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
        dio.write_csv(path, ["width", "step", "metric", "value"], self.rows)


def coordinate_check(base_config, hp: HyperParams, widths, steps: int,
                     packed, seed: int, rows_per_batch: int,
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
    # A top-level import of trainer, which imports this module, is a cycle; the
    # function stays here because the benchmark's tracing finds it by this name.
    from . import trainer as _trainer

    base_w = base_config.hidden_size
    jobs = []
    for width in widths:
        hp_w = transfer(hp, WidthPair(base_w, width))
        hp_w = replace(hp_w, matrix_lr=hp.matrix_lr) if break_transfer else hp_w
        jobs.append(_trainer.Job(scaled_config(base_config, width), hp_w, seed,
                                 rows_per_batch, steps))
    rows, diverged, max_rms = [], {}, {}
    for job, result in zip(jobs, _trainer.run_jobs(jobs, packed)):
        width = job.config.hidden_size
        for r in result.log:
            rows += [(width, r.step, "loss", r.loss),
                     (width, r.step, "pre_logit_rms", r.pre_logit_rms)]
            rows += [(width, r.step, f"block{j}_rms", v) for j, v in enumerate(r.block_rms)]
        diverged[width] = result.status == "diverged"
        max_rms[width] = max((r.pre_logit_rms for r in result.log
                              if math.isfinite(r.pre_logit_rms)), default=0.0)
    return CoordCheckResult(rows=rows, diverged=diverged, max_rms=max_rms)
