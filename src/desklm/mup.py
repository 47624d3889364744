"""Width-transfer hyperparameters (muP style).

``model.classify`` splits parameters into two classes by which of their
dimensions grow with model width:

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
from dataclasses import dataclass, replace

from . import io as dio
from . import trainer
from .errors import ConfigError
from .model import HyperParams


@dataclass(frozen=True)
class WidthPair:
    base: int
    target: int

    def __post_init__(self):
        if self.base <= 0 or self.target <= 0:
            raise ConfigError(f"widths must be positive, got {self.base} -> {self.target}")

    @property
    def ratio(self) -> float:
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
    base_w = base_config.hidden_size
    jobs = []
    for width in widths:
        hp_w = transfer(hp, WidthPair(base_w, width))
        hp_w = replace(hp_w, matrix_lr=hp.matrix_lr) if break_transfer else hp_w
        jobs.append(trainer.Job(scaled_config(base_config, width), hp_w, seed,
                                rows_per_batch, steps))
    rows, diverged, max_rms = [], {}, {}
    for job, result in zip(jobs, trainer.run_jobs(jobs, packed)):
        width = job.config.hidden_size
        for r in result.log:
            rows += [(width, r.step, "loss", r.loss),
                     (width, r.step, "pre_logit_rms", r.pre_logit_rms)]
            rows += [(width, r.step, f"block{j}_rms", v) for j, v in enumerate(r.block_rms)]
        diverged[width] = result.status == "diverged"
        max_rms[width] = max((r.pre_logit_rms for r in result.log
                              if math.isfinite(r.pre_logit_rms)), default=0.0)
    return CoordCheckResult(rows=rows, diverged=diverged, max_rms=max_rms)
