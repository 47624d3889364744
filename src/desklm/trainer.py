"""Monitored pre-training loop.

Cosine learning-rate schedule with linear warmup, global-norm gradient
clipping, Adam with per-class learning rates (matrix-like vs vector-like
parameters), robust loss-spike detection over a trailing window, and a
small grid-search driver that ranks candidate hyperparameter settings by
smoothed final loss plus stability penalties.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, asdict, field

import numpy as np

from . import io as dio
from .errors import ConfigError, NonFiniteGradientError
from .model import Model
from .mup import HyperParams, ParamClass, classify, hyperparams_to_dict
from .tensor import RngState


@dataclass
class Schedule:
    """Learning-rate schedule plus the fixed optimizer settings.

    Warmup is linear from 0 to the per-class peak over
    ``warmup_steps * batch_tokens`` tokens (override with ``warmup_tokens``
    to think in tokens directly), then cosine decay from peak to ``min_lr``
    over the remaining ``schedule_tokens``, clamped at ``min_lr`` beyond.
    """

    vector_peak_lr: float
    matrix_peak_lr: float
    min_lr: float
    warmup_steps: int
    schedule_tokens: int
    batch_tokens: int
    clip_norm: float = 1.0
    weight_decay: float = 0.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    adam_eps: float = 1e-8
    warmup_tokens: int | None = None

    @classmethod
    def from_hyperparams(cls, hp: HyperParams, **overrides) -> "Schedule":
        sched = cls(
            vector_peak_lr=hp.vector_lr,
            matrix_peak_lr=hp.matrix_lr,
            min_lr=hp.min_lr,
            warmup_steps=hp.warmup_steps,
            schedule_tokens=hp.schedule_tokens,
            batch_tokens=hp.batch_tokens,
            clip_norm=hp.clip_grad,
            weight_decay=hp.weight_decay,
        )
        for k, v in overrides.items():
            setattr(sched, k, v)
        return sched

    def _warmup_tokens(self) -> int:
        if self.warmup_tokens is not None:
            return self.warmup_tokens
        return self.warmup_steps * self.batch_tokens

    def validate(self):
        if self.vector_peak_lr < 0 or self.matrix_peak_lr < 0:
            raise ConfigError("peak learning rates must be >= 0")
        if self.min_lr < 0:
            raise ConfigError("min_lr must be >= 0")
        if self._warmup_tokens() >= self.schedule_tokens:
            raise ConfigError("warmup must end before schedule_tokens")
        return self


def lr_at(schedule: Schedule, param_class: ParamClass, tokens_seen: int) -> float:
    """Learning rate for one parameter class after ``tokens_seen`` tokens.

    Exactly the peak at warmup end, exactly ``min_lr`` at and beyond the
    schedule end, non-increasing in between.
    """
    peak = (schedule.matrix_peak_lr if param_class == ParamClass.MATRIX
            else schedule.vector_peak_lr)
    warm = schedule._warmup_tokens()
    if tokens_seen < 0:
        raise ConfigError("tokens_seen must be >= 0")
    if warm > 0 and tokens_seen <= warm:
        return peak * (tokens_seen / warm)
    if tokens_seen >= schedule.schedule_tokens:
        return schedule.min_lr
    progress = (tokens_seen - warm) / (schedule.schedule_tokens - warm)
    return schedule.min_lr + (peak - schedule.min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


def clip_gradients(grads, clip_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= clip_norm.

    Returns the pre-clip global norm.  Any NaN or Inf raises
    NonFiniteGradientError; the caller should skip the step.
    """
    if clip_norm <= 0:
        raise ConfigError("clip_norm must be positive")
    sq = 0.0
    for g in grads:
        s = float(np.sum(g * g))
        if not math.isfinite(s):
            raise NonFiniteGradientError("gradient contains NaN or Inf")
        sq += s
    norm = math.sqrt(sq)
    if norm > clip_norm:
        factor = clip_norm / norm
        for g in grads:
            g *= factor
    return norm


class AdamState:
    """Per-parameter first/second moment buffers with bias correction."""

    def __init__(self, model: Model):
        self.m = {k: np.zeros_like(p.data) for k, p in model.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in model.params.items()}
        self.t = 0

    def apply(self, model: Model, lrs: dict, schedule: Schedule):
        self.t += 1
        b1, b2, eps = schedule.adam_beta1, schedule.adam_beta2, schedule.adam_eps
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in model.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            lr = lrs[classify(name, p.shape)]
            if schedule.weight_decay > 0.0:
                p.data -= lr * schedule.weight_decay * p.data
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


@dataclass
class StepLog:
    """One training step.  The activation RMS fields (see Model.forward)
    live in memory only; run_log.csv holds RUNLOG_COLUMNS."""
    step: int
    tokens: int
    loss: float
    grad_norm: float
    lr_vector: float
    lr_matrix: float
    wall_ms: float
    pre_logit_rms: float = math.nan
    block_rms: list = field(default_factory=list)


RUNLOG_COLUMNS = ["step", "tokens", "loss", "grad_norm", "lr_vector", "lr_matrix", "wall_ms"]


def write_runlog(path, log):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RUNLOG_COLUMNS)
        for row in log:
            w.writerow([row.step, row.tokens, repr(row.loss), repr(row.grad_norm),
                        repr(row.lr_vector), repr(row.lr_matrix), repr(row.wall_ms)])


def read_runlog(path):
    out = []
    with open(path, newline="") as f:
        for rec in csv.DictReader(f):
            out.append(StepLog(step=int(rec["step"]), tokens=int(rec["tokens"]),
                               loss=float(rec["loss"]), grad_norm=float(rec["grad_norm"]),
                               lr_vector=float(rec["lr_vector"]), lr_matrix=float(rec["lr_matrix"]),
                               wall_ms=float(rec["wall_ms"])))
    return out


@dataclass
class SpikeEvent:
    kind: str              # "transient" or "sustained"
    start_step: int        # index into the log where the excursion began
    length: int            # steps above the band (so far, if ongoing)
    peak_loss: float
    grad_norm_context: list


def _median_band(values, mult):
    med = float(np.median(values))
    mad = float(np.median(np.abs(np.asarray(values) - med)))
    return med, med + mult * mad


def detect_spike(window, recovery_window: int = 20, mad_mult: float = 4.0):
    """Classify the most recent loss behaviour in a trailing window.

    ``window`` is a sequence of (loss, grad_norm) pairs or StepLog rows,
    oldest first.  The loss band is median + mad_mult * MAD over the window
    (MAD = median absolute deviation); grad norms get their own band.

    Returns a SpikeEvent or None:

    * sustained: the trailing run above the loss band has lasted at least
      ``recovery_window`` steps, or grad norms increased strictly
      monotonically over the last ``recovery_window`` steps.
    * transient: an excursion above the band that ended at the latest step
      (back inside the band now), lasted fewer than ``recovery_window``
      steps, and whose grad norms stayed inside their own band.  A short
      excursion with out-of-band grad norms is not classified.
    """
    if len(window) < recovery_window:
        return None
    if isinstance(window[0], StepLog):
        losses = [r.loss for r in window]
        gnorms = [r.grad_norm for r in window]
    else:
        losses = [w[0] for w in window]
        gnorms = [w[1] for w in window]
    n = len(losses)
    _, band = _median_band(losses, mad_mult)
    _, gband = _median_band(gnorms, mad_mult)

    above = [l > band or not math.isfinite(l) for l in losses]
    run = 0
    while run < n and above[n - 1 - run]:
        run += 1
    if run >= recovery_window:
        start = n - run
        return SpikeEvent("sustained", start, run, max(losses[start:]),
                          gnorms[start:])
    tail_g = gnorms[-recovery_window:]
    if all(tail_g[i] < tail_g[i + 1] for i in range(len(tail_g) - 1)):
        return SpikeEvent("sustained", n - recovery_window, recovery_window,
                          max(losses[-recovery_window:]), tail_g)
    if run == 0 and n >= 2 and above[n - 2]:
        end = n - 1
        start = n - 2
        while start > 0 and above[start - 1]:
            start -= 1
        length = end - start
        if length < recovery_window:
            exc_g = gnorms[start:end]
            if all(g <= gband for g in exc_g):
                return SpikeEvent("transient", start, length,
                                  max(losses[start:end]), exc_g)
    return None


@dataclass
class TrainResult:
    log: list
    events: list
    status: str            # "completed" | "diverged" | "abort_recommended"
    skipped_steps: int = 0


def batch_iterator(packed, rows_per_batch: int, steps: int, seed: int):
    """Yield ``steps`` (tokens, segments) batches from packed rows.

    Row order is a fresh seeded permutation each epoch, so two iterators
    with the same arguments produce identical batch sequences.
    """
    tokens, segments = packed
    n = tokens.shape[0]
    if n == 0:
        raise ConfigError("no packed rows to train on")
    if rows_per_batch <= 0:
        raise ConfigError(f"rows_per_batch must be positive, got {rows_per_batch}")
    rng = RngState(seed)
    order = []
    for _ in range(steps):
        while len(order) < rows_per_batch:
            order.extend(rng.permutation(n).tolist())
        idx = order[:rows_per_batch]
        del order[:rows_per_batch]
        yield tokens[idx], segments[idx]


def train_step(model: Model, batch, optimizer: AdamState, schedule: Schedule,
               step_index: int):
    """One forward/backward/update.  Returns (StepLog, ok) where ok is
    False if the step was skipped (non-finite loss or gradients); a
    skipped step's grad_norm is NaN."""
    tokens, segments = batch
    t0 = time.perf_counter()
    tokens_after = (step_index + 1) * schedule.batch_tokens
    lrs = {ParamClass.VECTOR: lr_at(schedule, ParamClass.VECTOR, tokens_after),
           ParamClass.MATRIX: lr_at(schedule, ParamClass.MATRIX, tokens_after)}
    model.zero_grads()
    loss = model.loss(tokens, segments)
    loss_val = loss.item()
    gnorm, ok = math.nan, math.isfinite(loss_val)
    if ok:
        loss.backward()
        grads = [p.grad for p in model.params.values() if p.grad is not None]
        try:
            gnorm = clip_gradients(grads, schedule.clip_norm)
        except NonFiniteGradientError:
            ok = False
        else:
            optimizer.apply(model, lrs, schedule)
    row = StepLog(step_index + 1, tokens_after, loss_val, gnorm,
                  lrs[ParamClass.VECTOR], lrs[ParamClass.MATRIX],
                  (time.perf_counter() - t0) * 1e3, **model.last_stats)
    return row, ok


def train(model: Model, schedule: Schedule, batches, steps: int,
          detect: bool = True, recovery_window: int = 20, mad_mult: float = 4.0,
          detector_window: int = 100, stop_on_abort: bool = True,
          checkpoint_every: int | None = None, checkpoint_dir=None) -> TrainResult:
    """Run up to ``steps`` training steps with monitoring.

    Divergence (non-finite loss) ends the run with status "diverged".
    A sustained spike records an event and, with ``stop_on_abort``, ends
    the run with status "abort_recommended".  Transient spikes are logged
    and training continues.
    """
    schedule.validate()
    optimizer = AdamState(model)
    log, events = [], []
    status = "completed"
    skipped = 0
    last_sustained_start = -1
    for i, batch in enumerate(batches):
        if i >= steps:
            break
        row, ok = train_step(model, batch, optimizer, schedule, i)
        log.append(row)
        if not ok:
            if not math.isfinite(row.loss):
                status = "diverged"
                break
            skipped += 1
            continue
        if checkpoint_every and checkpoint_dir and (i + 1) % checkpoint_every == 0:
            model.save(f"{checkpoint_dir}/step{i + 1:06d}.ckpt", step=i + 1)
        if detect and len(log) >= recovery_window:
            window = log[-detector_window:]
            event = detect_spike(window, recovery_window, mad_mult)
            if event is not None:
                # Index events by absolute step so repeats are deduped.
                event.start_step += len(log) - len(window)
                if event.kind == "sustained":
                    if event.start_step != last_sustained_start:
                        events.append(event)
                        last_sustained_start = event.start_step
                        if stop_on_abort:
                            status = "abort_recommended"
                            break
                else:
                    events.append(event)
    return TrainResult(log=log, events=events, status=status, skipped_steps=skipped)


def run_coord_steps(model: Model, schedule: Schedule, batches, steps: int):
    """Drive a short run capturing loss and activation statistics per step.

    Returns (rows, diverged) where rows are (step, metric, value) with
    metrics ``loss``, ``pre_logit_rms`` and ``block{i}_rms``; one run can
    therefore feed both a loss-curve comparison and a coordinate check.
    steps=0 records a single initialization-only forward pass.
    """
    def emit(step, loss, pre_logit_rms, block_rms):
        return [(step, "loss", loss), (step, "pre_logit_rms", pre_logit_rms)] + [
            (step, f"block{j}_rms", v) for j, v in enumerate(block_rms)]

    if steps == 0:
        tokens, segments = next(iter(batches))
        loss = model.loss(tokens, segments).item()
        return emit(0, loss, **model.last_stats), False
    result = train(model, schedule, batches, steps, detect=False)
    rows = [r for row in result.log
            for r in emit(row.step, row.loss, row.pre_logit_rms, row.block_rms)]
    return rows, result.status == "diverged"


# -- grid search -----------------------------------------------------------

@dataclass
class GridEntry:
    config: dict
    score: float
    status: str
    final_smoothed_loss: float
    non_monotonicity: float
    grad_trend_penalty: float
    curve_path: str | None = None


def smoothed(losses, window: int):
    """Trailing moving average with a ramp-in at the start."""
    out = []
    acc = 0.0
    for i, x in enumerate(losses):
        acc += x
        if i >= window:
            acc -= losses[i - window]
        out.append(acc / min(i + 1, window))
    return out


def score_run(log, status, weights=(1.0, 0.25, 0.25), smooth_window: int | None = None):
    """Scalar quality score for a training curve; lower is better.

    score = w0 * final smoothed loss
          + w1 * total positive variation of the smoothed loss curve
          + w2 * projected grad-norm rise from a linear fit to the second
            half of the run (only if the slope is positive)

    Diverged or aborted runs score +inf and rank last.
    """
    if status != "completed" or not log:
        return math.inf, math.inf, math.inf, math.inf
    losses = [r.loss for r in log]
    w = smooth_window or max(1, min(20, len(losses) // 5))
    sm = smoothed(losses, w)
    final = float(np.mean(losses[-w:]))
    nonmono = float(sum(max(0.0, sm[i + 1] - sm[i]) for i in range(len(sm) - 1)))
    half = [r.grad_norm for r in log[len(log) // 2:]]
    if len(half) >= 2:
        slope = float(np.polyfit(np.arange(len(half)), half, 1)[0])
        gpen = max(0.0, slope) * len(half)
    else:
        gpen = 0.0
    score = weights[0] * final + weights[1] * nonmono + weights[2] * gpen
    return score, final, nonmono, gpen


def run_grid(base_config, hp_list, packed, steps: int, seed: int,
             rows_per_batch: int = 4, out_dir=None,
             weights=(1.0, 0.25, 0.25)) -> list:
    """Train every candidate on an identical data order and rank them.

    Returns GridEntry rows sorted best-first.  The ranking is invariant to
    the order of ``hp_list``: ties break on the canonical config JSON.
    Every run's full curve is persisted under ``out_dir`` when given.
    """
    entries = []
    for idx, hp in enumerate(hp_list):
        hp.validate()
        model = Model.build(base_config, hp, RngState(seed))
        schedule = Schedule.from_hyperparams(hp)
        batches = batch_iterator(packed, rows_per_batch, steps, seed)
        result = train(model, schedule, batches, steps, stop_on_abort=False)
        score, final, nonmono, gpen = score_run(result.log, result.status, weights)
        curve_path = None
        if out_dir is not None:
            curve_path = str(out_dir / f"grid{idx:03d}.csv") if hasattr(out_dir, "__truediv__") \
                else f"{out_dir}/grid{idx:03d}.csv"
            write_runlog(curve_path, result.log)
        entries.append(GridEntry(
            config=hyperparams_to_dict(hp), score=score, status=result.status,
            final_smoothed_loss=final, non_monotonicity=nonmono,
            grad_trend_penalty=gpen, curve_path=curve_path))
    entries.sort(key=lambda e: (e.score, dio.canonical_json(e.config)))
    return entries


def grid_report(entries, weights=(1.0, 0.25, 0.25)) -> dict:
    return {
        "score_weights": list(weights),
        "all_failed": all(e.status != "completed" for e in entries),
        "ranking": [asdict(e) for e in entries],
    }
