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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import io as dio
from .errors import ConfigError, NonFiniteGradientError
from .model import Model, ModelConfig
from .mup import HyperParams, ParamClass, classify, hyperparams_to_dict
from .tensor import RngState


@dataclass(frozen=True)
class Schedule:
    """The learning-rate schedule and optimizer settings of one run.

    Every knob comes from ``hp``; ``batch_tokens`` is the number of tokens
    one optimizer step trains.  Warmup is linear from 0 to the per-class
    peak over ``hp.warmup_steps * batch_tokens`` tokens, then cosine decay
    from peak to ``hp.min_lr`` over the rest of ``hp.schedule_tokens``,
    clamped at ``hp.min_lr`` beyond.
    """

    hp: HyperParams
    batch_tokens: int

    @classmethod
    def from_hyperparams(cls, hp: HyperParams) -> "Schedule":
        """Step by the published ``hp.batch_tokens``."""
        return cls(hp, hp.batch_tokens)

    @property
    def warmup_tokens(self) -> int:
        return self.hp.warmup_steps * self.batch_tokens

    def validate(self):
        self.hp.validate()
        if self.warmup_tokens >= self.hp.schedule_tokens:
            raise ConfigError("warmup must end before schedule_tokens")
        return self


def lr_at(schedule: Schedule, param_class: ParamClass, tokens_seen: int) -> float:
    """Learning rate for one parameter class after ``tokens_seen`` tokens.

    Exactly the peak at warmup end, exactly ``min_lr`` at and beyond the
    schedule end, non-increasing in between.
    """
    hp = schedule.hp
    peak = hp.matrix_lr if param_class == ParamClass.MATRIX else hp.vector_lr
    warm = schedule.warmup_tokens
    if tokens_seen < 0:
        raise ConfigError("tokens_seen must be >= 0")
    if warm > 0 and tokens_seen <= warm:
        return peak * (tokens_seen / warm)
    if tokens_seen >= hp.schedule_tokens:
        return hp.min_lr
    progress = (tokens_seen - warm) / (hp.schedule_tokens - warm)
    return hp.min_lr + (peak - hp.min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


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


# Adam's first and second moment decay rates and its denominator floor.
BETA1, BETA2, EPS = 0.9, 0.95, 1e-8


class AdamState:
    """Per-parameter first/second moment buffers with bias correction."""

    def __init__(self, model: Model):
        self.m = {k: np.zeros_like(p.data) for k, p in model.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in model.params.items()}
        self.t = 0

    def apply(self, model: Model, lrs: dict, schedule: Schedule):
        self.t += 1
        decay = schedule.hp.weight_decay
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for name, p in model.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            lr = lrs[classify(name)]
            if decay > 0.0:
                p.data -= lr * decay * p.data
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)


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


# run_log.csv's columns, each with the type it is read back as.
RUNLOG_COLUMNS = {"step": int, "tokens": int, "loss": float, "grad_norm": float,
                  "lr_vector": float, "lr_matrix": float, "wall_ms": float}


def write_runlog(path, log):
    dio.write_csv(path, list(RUNLOG_COLUMNS),
                  ([getattr(row, c) for c in RUNLOG_COLUMNS] for row in log))


def read_runlog(path):
    with open(path, newline="") as f:
        return [StepLog(**{c: kind(rec[c]) for c, kind in RUNLOG_COLUMNS.items()})
                for rec in csv.DictReader(f)]


@dataclass
class SpikeEvent:
    kind: str              # "transient" or "sustained"
    start_step: int        # index into the log where the excursion began
    length: int            # steps above the band (so far, if ongoing)
    peak_loss: float
    grad_norm_context: list


def _median_band(values):
    med = float(np.median(values))
    mad = float(np.median(np.abs(np.asarray(values) - med)))
    return med + MAD_MULT * mad


# Spike-detector defaults: the excursion length that counts as sustained,
# the band width in MADs, and the trailing window `train` hands the detector.
RECOVERY_WINDOW, MAD_MULT, DETECTOR_WINDOW = 20, 4.0, 100


def check_run(steps: int = 0, recovery_window: int = RECOVERY_WINDOW,
              checkpoint_every: int | None = None, checkpoint_dir=None):
    """The rule for a run's settings, which `train` checks before its first
    step.  A ``recovery_window`` below 2 reads a one-value grad-norm tail as
    rising, so every step is sustained; above DETECTOR_WINDOW it never fires."""
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if not 2 <= recovery_window <= DETECTOR_WINDOW:
        raise ConfigError(f"recovery_window must be in [2, {DETECTOR_WINDOW}], "
                          f"got {recovery_window}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if checkpoint_every is not None and checkpoint_dir is None:
        raise ConfigError("checkpoint_every needs a checkpoint_dir to write to")


def detect_spike(window, recovery_window: int = RECOVERY_WINDOW):
    """Classify the most recent loss behaviour in a trailing window.

    ``window`` is a sequence of (loss, grad_norm) pairs, oldest first.  The
    loss band is median + MAD_MULT * MAD over the window (MAD = median
    absolute deviation); grad norms get their own band.

    Returns a SpikeEvent or None:

    * sustained: the trailing run above the loss band has lasted at least
      ``recovery_window`` steps, or grad norms increased strictly
      monotonically over the last ``recovery_window`` steps.
    * transient: an excursion above the band that ended at the latest step
      (back inside the band now), lasted fewer than ``recovery_window``
      steps, and whose grad norms stayed inside their own band.  A short
      excursion with out-of-band grad norms is not classified.
    """
    check_run(recovery_window=recovery_window)
    if len(window) < recovery_window:
        return None
    losses = [w[0] for w in window]
    gnorms = [w[1] for w in window]
    n = len(losses)
    band = _median_band(losses)
    gband = _median_band(gnorms)

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
    if run == 0 and above[n - 2]:
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
            gnorm = clip_gradients(grads, schedule.hp.clip_grad)
        except NonFiniteGradientError:
            ok = False
        else:
            optimizer.apply(model, lrs, schedule)
    row = StepLog(step_index + 1, tokens_after, loss_val, gnorm,
                  lrs[ParamClass.VECTOR], lrs[ParamClass.MATRIX],
                  (time.perf_counter() - t0) * 1e3, **model.last_stats)
    return row, ok


def train(model: Model, schedule: Schedule, batches, steps: int,
          detect: bool = True, recovery_window: int = RECOVERY_WINDOW,
          stop_on_abort: bool = True,
          checkpoint_every: int | None = None, checkpoint_dir=None) -> TrainResult:
    """Run up to ``steps`` training steps with monitoring.

    Divergence (non-finite loss) ends the run with status "diverged".
    A sustained spike records an event and, with ``stop_on_abort``, ends
    the run with status "abort_recommended".  Transient spikes are logged
    and training continues.
    """
    schedule.validate()
    check_run(steps, recovery_window, checkpoint_every, checkpoint_dir)
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
        if checkpoint_every is not None and (i + 1) % checkpoint_every == 0:
            model.save(Path(checkpoint_dir) / f"step{i + 1:06d}.ckpt", step=i + 1)
        if detect and len(log) >= recovery_window:
            window = [(r.loss, r.grad_norm) for r in log[-DETECTOR_WINDOW:]]
            event = detect_spike(window, recovery_window)
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


@dataclass(frozen=True)
class Job:
    """One model to build and train; ``seed`` draws its weights and batch order."""
    config: ModelConfig
    hp: HyperParams
    seed: int
    rows_per_batch: int
    steps: int

    def build(self):
        """The model and a validated schedule that steps by the tokens trained."""
        model = Model.build(self.config, self.hp, RngState(self.seed))
        schedule = Schedule(self.hp, self.rows_per_batch * self.config.context_length)
        return model, schedule.validate()


def run_coord_steps(model: Model, schedule: Schedule, batches, steps: int) -> TrainResult:
    """Train ``steps`` steps without spike detection.  steps=0 logs one forward at
    initialization as step 0 (grad norm NaN, rates 0), diverged if its loss is not finite."""
    if steps != 0:
        return train(model, schedule, batches, steps, detect=False)
    t0 = time.perf_counter()
    tokens, segments = next(iter(batches))
    loss = model.loss(tokens, segments).item()
    row = StepLog(0, 0, loss, math.nan, 0.0, 0.0, (time.perf_counter() - t0) * 1e3,
                  **model.last_stats)
    return TrainResult([row], [], "completed" if math.isfinite(loss) else "diverged")


def run_jobs(jobs, packed) -> list:
    """Build and train each job on rows of ``packed``; TrainResults in input order."""
    results = []
    for job in jobs:
        model, schedule = job.build()
        batches = batch_iterator(packed, job.rows_per_batch, max(job.steps, 1), job.seed)
        results.append(run_coord_steps(model, schedule, batches, job.steps))
    return results


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


# (final loss, non-monotonicity, grad trend) weights of score_run.
SCORE_WEIGHTS = (1.0, 0.25, 0.25)


def score_run(log, status):
    """Scalar quality score for a training curve; lower is better.

    With (w0, w1, w2) = SCORE_WEIGHTS,

    score = w0 * final smoothed loss
          + w1 * total positive variation of the smoothed loss curve
          + w2 * projected grad-norm rise from a linear fit to the second
            half of the run (only if the slope is positive)

    Diverged or aborted runs score +inf and rank last.
    """
    if status != "completed" or not log:
        return math.inf, math.inf, math.inf, math.inf
    losses = [r.loss for r in log]
    w = max(1, min(20, len(losses) // 5))
    sm = smoothed(losses, w)
    final = float(np.mean(losses[-w:]))
    nonmono = float(sum(max(0.0, sm[i + 1] - sm[i]) for i in range(len(sm) - 1)))
    half = [r.grad_norm for r in log[len(log) // 2:]]
    if len(half) >= 2:
        slope = float(np.polyfit(np.arange(len(half)), half, 1)[0])
        gpen = max(0.0, slope) * len(half)
    else:
        gpen = 0.0
    w0, w1, w2 = SCORE_WEIGHTS
    score = w0 * final + w1 * nonmono + w2 * gpen
    return score, final, nonmono, gpen


def check_grid(steps: int):
    """The rule for a grid search's length: it scores a curve, so steps >= 1."""
    if steps < 1:
        raise ConfigError(f"steps must be >= 1 for a grid search, got {steps}")


def run_grid(base_config, hp_list, packed, steps: int, seed: int,
             rows_per_batch: int = 4, out_dir=None) -> list:
    """Train every candidate on an identical data order and rank them.

    Returns GridEntry rows sorted best-first.  The ranking is invariant to
    the order of ``hp_list``: ties break on the canonical config JSON.
    Every run's full curve is persisted under ``out_dir`` when given.
    Candidates train without spike detection: no event changes a score.
    """
    check_grid(steps)
    jobs = [Job(base_config, hp, seed, rows_per_batch, steps) for hp in hp_list]
    entries = []
    for idx, (job, result) in enumerate(zip(jobs, run_jobs(jobs, packed))):
        score, final, nonmono, gpen = score_run(result.log, result.status)
        curve_path = None
        if out_dir is not None:
            curve_path = str(Path(out_dir) / f"grid{idx:03d}.csv")
            write_runlog(curve_path, result.log)
        entries.append(GridEntry(
            config=hyperparams_to_dict(job.hp), score=score, status=result.status,
            final_smoothed_loss=final, non_monotonicity=nonmono,
            grad_trend_penalty=gpen, curve_path=curve_path))
    entries.sort(key=lambda e: (e.score, dio.canonical_json(e.config)))
    return entries


def grid_report(entries) -> dict:
    return {
        "score_weights": list(SCORE_WEIGHTS),
        "all_failed": all(e.status != "completed" for e in entries),
        "ranking": [asdict(e) for e in entries],
    }
