"""Training loop: schedule, clipping, Adam, spike detection, grid search."""
import math
from dataclasses import replace

import numpy as np
import pytest

from desklm.corpus import pack
from desklm.errors import ConfigError, NonFiniteGradientError
from desklm.model import Model
from desklm.mup import ParamClass
from desklm.presets import hyperparams_52b, toy_config, toy_hyperparams
from desklm.tensor import RngState
from desklm.trainer import (DETECTOR_WINDOW, AdamState, GridEntry, Job, Schedule, StepLog,
                            batch_iterator, clip_gradients, detect_spike,
                            grid_report, lr_at, read_runlog, run_coord_steps,
                            run_grid, run_jobs, score_run, smoothed, train, train_step,
                            write_runlog)


def tiny_setup(seed=0, steps=30, **hp_over):
    config = toy_config(32, layer_num=1, vocab_size=64, context_length=16)
    hp = toy_hyperparams(steps=steps, batch_tokens=32,
                         warmup_steps=min(5, steps - 1))
    if hp_over:
        hp = replace(hp, **hp_over).validate()
    model = Model.build(config, hp, RngState(seed))
    rng = np.random.default_rng(seed + 1)
    docs = [list(map(int, rng.integers(1, 64, size=int(rng.integers(5, 30)))))
            for _ in range(20)]
    packed = pack(docs, 16, pad_id=0)
    return model, Schedule.from_hyperparams(hp).validate(), packed, hp


# -- learning-rate schedule ------------------------------------------------------

def test_lr_exact_peak_at_warmup_end():
    sched = Schedule.from_hyperparams(hyperparams_52b())
    warm = 2_000 * 5_505_024
    assert lr_at(sched, ParamClass.MATRIX, warm) == 1.5e-4
    assert lr_at(sched, ParamClass.VECTOR, warm) == 1.5e-4


def test_lr_exact_min_at_and_beyond_schedule_end():
    sched = Schedule.from_hyperparams(hyperparams_52b())
    end = 2_500_000_000_000
    assert lr_at(sched, ParamClass.MATRIX, end) == 1.5e-5
    assert lr_at(sched, ParamClass.MATRIX, end + 10**12) == 1.5e-5


def test_lr_cosine_midpoint():
    sched = Schedule.from_hyperparams(hyperparams_52b())
    warm = 2_000 * 5_505_024
    mid = warm + (2_500_000_000_000 - warm) // 2
    assert lr_at(sched, ParamClass.MATRIX, mid) == pytest.approx(8.25e-5, rel=1e-9)


def test_lr_warmup_is_linear_from_zero():
    sched = Schedule.from_hyperparams(toy_hyperparams())
    warm = sched.warmup_tokens
    assert lr_at(sched, ParamClass.MATRIX, 0) == 0.0
    assert lr_at(sched, ParamClass.MATRIX, warm // 2) == pytest.approx(
        sched.hp.matrix_lr / 2, rel=1e-12)


def test_lr_non_increasing_after_warmup():
    sched = Schedule.from_hyperparams(toy_hyperparams(steps=1000))
    warm = sched.warmup_tokens
    points = np.linspace(warm, sched.hp.schedule_tokens, 200).astype(int)
    vals = [lr_at(sched, ParamClass.MATRIX, int(t)) for t in points]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_lr_respects_param_class():
    sched = Schedule.from_hyperparams(toy_hyperparams())
    warm = sched.warmup_tokens
    assert lr_at(sched, ParamClass.VECTOR, warm) == 3e-3
    assert lr_at(sched, ParamClass.MATRIX, warm) == 1.2e-2


def test_lr_zero_warmup_starts_at_peak():
    sched = Schedule.from_hyperparams(replace(toy_hyperparams(), warmup_steps=0))
    assert lr_at(sched, ParamClass.MATRIX, 0) == sched.hp.matrix_lr


def test_lr_rejects_negative_tokens():
    sched = Schedule.from_hyperparams(toy_hyperparams())
    with pytest.raises(ConfigError):
        lr_at(sched, ParamClass.MATRIX, -1)


def test_schedule_validation():
    hp = toy_hyperparams()
    with pytest.raises(ConfigError):
        Schedule.from_hyperparams(replace(hp, warmup_steps=10**9)).validate()
    with pytest.raises(ConfigError):
        Schedule.from_hyperparams(replace(hp, matrix_lr=-1.0)).validate()
    Schedule.from_hyperparams(replace(hp, vector_lr=0.0, matrix_lr=0.0,
                                      min_lr=0.0)).validate()
    # hp itself is valid; only the run's step size pushes warmup past the end
    with pytest.raises(ConfigError, match="warmup"):
        Schedule(hp, hp.schedule_tokens).validate()
    with pytest.raises(TypeError):
        Schedule.from_hyperparams(hp, warmup_steps=5)


# -- gradient clipping --------------------------------------------------------------

def test_clip_three_four_five():
    grads = [np.array([3.0]), np.array([4.0])]
    norm = clip_gradients(grads, 1.0)
    assert norm == 5.0
    assert grads[0][0] == pytest.approx(0.6) and grads[1][0] == pytest.approx(0.8)
    assert math.hypot(grads[0][0], grads[1][0]) == pytest.approx(1.0)


def test_clip_leaves_small_gradients_alone():
    grads = [np.array([0.3, 0.4])]
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(0.5)
    assert grads[0].tolist() == [0.3, 0.4]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_clip_rejects_non_finite(bad):
    with pytest.raises(NonFiniteGradientError):
        clip_gradients([np.array([1.0, bad])], 1.0)


def test_clip_rejects_bad_norm():
    with pytest.raises(ConfigError):
        clip_gradients([np.array([1.0])], 0.0)


# -- Adam ------------------------------------------------------------------------------

def test_adam_first_step_moves_by_lr():
    model, schedule, _, _ = tiny_setup()
    opt = AdamState(model)
    model.zero_grads()
    gain = model.params["final_norm.gain"]
    wq = model.params["layers.0.attn.wq"]
    gain.grad = np.ones_like(gain.data)
    wq.grad = -np.ones_like(wq.data)
    before_gain, before_wq = gain.data.copy(), wq.data.copy()
    before_emb = model.params["embedding"].data.copy()
    opt.apply(model, {ParamClass.VECTOR: 0.1, ParamClass.MATRIX: 0.01}, schedule)
    np.testing.assert_allclose(before_gain - gain.data, 0.1, rtol=1e-6)
    np.testing.assert_allclose(before_wq - wq.data, -0.01, rtol=1e-6)
    # params without gradients stay untouched
    assert np.array_equal(model.params["embedding"].data, before_emb)


def test_adam_weight_decay_shrinks_params():
    model, _, _, hp = tiny_setup()
    schedule = Schedule.from_hyperparams(replace(hp, weight_decay=0.5))
    opt = AdamState(model)
    model.zero_grads()
    wq = model.params["layers.0.attn.wq"]
    wq.grad = np.zeros_like(wq.data)
    before = wq.data.copy()
    opt.apply(model, {ParamClass.VECTOR: 0.1, ParamClass.MATRIX: 0.1}, schedule)
    np.testing.assert_allclose(wq.data, before * (1 - 0.1 * 0.5), rtol=1e-12)


def test_zero_lr_run_is_a_no_op():
    model, _, packed, hp = tiny_setup(vector_lr=0.0, matrix_lr=0.0, min_lr=0.0)
    schedule = Schedule.from_hyperparams(hp)
    before = {k: p.data.copy() for k, p in model.params.items()}
    result = train(model, schedule, batch_iterator(packed, 2, 5, seed=1), steps=5)
    assert result.status == "completed"
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k]), k


@pytest.mark.parametrize("bad", [{"weight_decay": -0.1},
                                 {"min_lr": 0.5}])   # above both peak rates
def test_train_rejects_invalid_schedule_before_first_step(bad):
    model, _, packed, hp = tiny_setup()
    schedule = Schedule.from_hyperparams(replace(hp, **bad))
    before = {k: p.data.copy() for k, p in model.params.items()}
    with pytest.raises(ConfigError):
        train(model, schedule, batch_iterator(packed, 2, 5, seed=1), steps=5)
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k]), k


# -- training loop -------------------------------------------------------------------

def test_training_reduces_loss():
    model, schedule, packed, _ = tiny_setup(steps=40)
    result = train(model, schedule, batch_iterator(packed, 2, 40, seed=2), steps=40)
    assert result.status == "completed"
    assert len(result.log) == 40
    first = np.mean([r.loss for r in result.log[:5]])
    last = np.mean([r.loss for r in result.log[-5:]])
    assert last < first


def test_training_is_bit_deterministic():
    runs = []
    for _ in range(2):
        model, schedule, packed, _ = tiny_setup(seed=7, steps=20)
        result = train(model, schedule, batch_iterator(packed, 2, 20, seed=3), steps=20)
        runs.append((result, {k: p.data.copy() for k, p in model.params.items()}))
    (r1, p1), (r2, p2) = runs
    assert [r.loss for r in r1.log] == [r.loss for r in r2.log]
    assert [r.grad_norm for r in r1.log] == [r.grad_norm for r in r2.log]
    for k in p1:
        assert np.array_equal(p1[k], p2[k]), k


def test_non_finite_loss_ends_run_as_diverged():
    model, schedule, packed, _ = tiny_setup()
    model.params["embedding"].data[:] = np.nan
    result = train(model, schedule, batch_iterator(packed, 2, 10, seed=1), steps=10)
    assert result.status == "diverged"
    assert len(result.log) == 1
    assert math.isnan(result.log[0].loss)


def test_step_log_token_accounting():
    model, schedule, packed, _ = tiny_setup(steps=8)
    result = train(model, schedule, batch_iterator(packed, 2, 8, seed=1), steps=8)
    assert [r.tokens for r in result.log] == [32 * (i + 1) for i in range(8)]
    assert [r.step for r in result.log] == list(range(1, 9))


def test_checkpoint_every(tmp_path):
    model, schedule, packed, _ = tiny_setup(steps=10)
    train(model, schedule, batch_iterator(packed, 2, 10, seed=1), steps=10,
          checkpoint_every=5, checkpoint_dir=tmp_path)
    assert (tmp_path / "step000005.ckpt").exists()
    assert (tmp_path / "step000010.ckpt").exists()
    loaded = Model.load(tmp_path / "step000010.ckpt")
    assert loaded.loaded_step == 10


def test_run_coord_steps_emits_loss_and_rms():
    model, schedule, packed, _ = tiny_setup(steps=3)
    result = run_coord_steps(model, schedule, batch_iterator(packed, 2, 3, seed=1), steps=3)
    assert result.status == "completed" and result.events == []
    assert [r.step for r in result.log] == [1, 2, 3]
    for r in result.log:
        assert math.isfinite(r.loss) and r.pre_logit_rms > 0 and len(r.block_rms) == 1


def test_run_coord_steps_zero_steps_snapshots_init():
    model, schedule, packed, _ = tiny_setup()
    result = run_coord_steps(model, schedule, batch_iterator(packed, 2, 1, seed=1), steps=0)
    assert result.status == "completed"
    [row] = result.log
    assert (row.step, row.tokens, row.lr_vector, row.lr_matrix) == (0, 0, 0.0, 0.0)
    assert math.isnan(row.grad_norm) and math.isfinite(row.loss)
    assert row.pre_logit_rms > 0 and len(row.block_rms) == 1


def test_run_coord_steps_zero_steps_reports_nonfinite_loss():
    model, schedule, packed, _ = tiny_setup(output_mult=1e308)
    with np.errstate(over="ignore"):    # the logits overflow on purpose
        result = run_coord_steps(
            model, schedule, batch_iterator(packed, 2, 1, seed=1), steps=0)
    assert result.status == "diverged"
    assert [r.loss for r in result.log] == [math.inf]


def test_run_jobs_equals_building_and_training_each_job():
    _, _, packed, hp = tiny_setup(steps=6)
    config = toy_config(32, layer_num=1, vocab_size=64, context_length=16)
    jobs = [Job(config, hp, 1, 2, 6), Job(config, replace(hp, matrix_lr=0.05), 2, 1, 4)]
    results = run_jobs(jobs, packed)
    for job, result in zip(jobs, results):
        model, schedule = job.build()
        by_hand = train(model, schedule,
                        batch_iterator(packed, job.rows_per_batch, job.steps, job.seed),
                        job.steps, detect=False)
        assert result.status == by_hand.status == "completed"
        assert [(r.loss, r.grad_norm) for r in result.log] == [
            (r.loss, r.grad_norm) for r in by_hand.log]
    assert [len(r.log) for r in results] == [6, 4]


# -- batch iterator -------------------------------------------------------------------

def labeled_packed(n_rows=6, ctx=4):
    tokens = (np.arange(n_rows)[:, None] * np.ones(ctx)[None, :]).astype(np.int32)
    segments = np.ones_like(tokens)
    return tokens, segments


def test_batch_iterator_deterministic():
    packed = labeled_packed()
    a = [t.copy() for t, _ in batch_iterator(packed, 2, 5, seed=3)]
    b = [t.copy() for t, _ in batch_iterator(packed, 2, 5, seed=3)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_batch_iterator_covers_each_row_once_per_epoch():
    packed = labeled_packed(n_rows=6)
    seen = []
    for tokens, _ in batch_iterator(packed, 2, 6, seed=1):
        seen.extend(tokens[:, 0].astype(int).tolist())
    assert len(seen) == 12
    counts = {i: seen.count(i) for i in range(6)}
    assert counts == {i: 2 for i in range(6)}
    assert sorted(seen[:6]) == list(range(6))   # first epoch is a permutation


def test_batch_iterator_rejects_empty():
    tokens = np.zeros((0, 4), dtype=np.int32)
    with pytest.raises(ConfigError):
        next(batch_iterator((tokens, tokens), 2, 1, seed=0))
    for rows in (0, -2):
        with pytest.raises(ConfigError, match="rows_per_batch"):
            next(batch_iterator(labeled_packed(), rows, 1, seed=0))


# -- run log ---------------------------------------------------------------------------

def test_runlog_round_trip(tmp_path):
    log = [StepLog(1, 32, 1.2345678901234567, 0.5, 1e-3, 1e-2, 3.25),
           StepLog(2, 64, float("nan"), 0.25, 2e-3, 2e-2, 4.0)]
    path = tmp_path / "run_log.csv"
    write_runlog(path, log)
    back = read_runlog(path)
    assert back[0] == log[0]            # repr round-trips floats exactly
    assert back[1].step == 2 and math.isnan(back[1].loss)


# -- spike detection --------------------------------------------------------------------

def stable_window(n, loss=(1.0, 1.01), g=(0.5, 0.51)):
    losses = [loss[i % 2] for i in range(n)]
    gnorms = [g[i % 2] for i in range(n)]
    return losses, gnorms


def test_no_spike_on_stationary_noise():
    losses, gnorms = stable_window(40)
    assert detect_spike(list(zip(losses, gnorms)), recovery_window=10) is None


def test_short_window_is_never_classified():
    losses, gnorms = stable_window(8)
    assert detect_spike(list(zip(losses, gnorms)), recovery_window=10) is None


def test_transient_spike_detected_after_recovery():
    losses, gnorms = stable_window(40)
    losses[36:39] = [5.0, 6.0, 5.5]
    event = detect_spike(list(zip(losses, gnorms)), recovery_window=10)
    assert event is not None and event.kind == "transient"
    assert event.start_step == 36 and event.length == 3
    assert event.peak_loss == 6.0


def test_excursion_with_hot_grads_is_not_transient():
    losses, gnorms = stable_window(40)
    losses[36:39] = [5.0, 6.0, 5.5]
    gnorms[36:39] = [50.0, 60.0, 55.0]
    assert detect_spike(list(zip(losses, gnorms)), recovery_window=10) is None


def test_ongoing_excursion_not_yet_classified():
    losses, gnorms = stable_window(40)
    losses[-3:] = [5.0, 6.0, 5.5]       # still above the band at the end
    assert detect_spike(list(zip(losses, gnorms)), recovery_window=10) is None


def test_sustained_spike_by_long_run():
    losses, gnorms = stable_window(30)
    losses[-10:] = [5.0] * 10
    event = detect_spike(list(zip(losses, gnorms)), recovery_window=10)
    assert event is not None and event.kind == "sustained"
    assert event.start_step == 20 and event.length == 10


def test_sustained_spike_by_monotone_grad_norms():
    losses, gnorms = stable_window(30)
    gnorms[-10:] = [0.6 + 0.05 * i for i in range(10)]
    event = detect_spike(list(zip(losses, gnorms)), recovery_window=10)
    assert event is not None and event.kind == "sustained"


def test_detect_rejects_recovery_window_below_two():
    # a grad-norm tail of one value is always "strictly increasing", so a
    # window of 1 would read every calm step as a sustained spike
    losses, gnorms = stable_window(40)
    with pytest.raises(ConfigError, match="recovery_window must be in"):
        detect_spike(list(zip(losses, gnorms)), recovery_window=1)


RUN_SETTING_CASES = [
    *(({"recovery_window": w}, "recovery_window must be in") for w in (0, 1, -3)),
    *(({"checkpoint_every": n}, "checkpoint_every must be >= 1") for n in (0, -10)),
    ({"checkpoint_every": 2, "checkpoint_dir": None}, "needs a checkpoint_dir"),
    ({"steps": -1}, "steps must be >= 0")]


@pytest.mark.parametrize("settings, message", RUN_SETTING_CASES,
                         ids=[",".join(f"{k}={v}" for k, v in settings.items())
                              for settings, _ in RUN_SETTING_CASES])
def test_train_rejects_run_settings_before_first_step(tmp_path, settings, message):
    model, schedule, packed, _ = tiny_setup()
    before = {k: p.data.copy() for k, p in model.params.items()}
    kwargs = {"steps": 5, "checkpoint_dir": tmp_path, **settings}
    with pytest.raises(ConfigError, match=message):
        train(model, schedule, batch_iterator(packed, 2, 5, seed=1), **kwargs)
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k]), k
    assert list(tmp_path.iterdir()) == []


def test_train_rejects_detector_window_shorter_than_recovery_window():
    model, schedule, packed, _ = tiny_setup()
    before = {k: p.data.copy() for k, p in model.params.items()}
    with pytest.raises(ConfigError, match=rf"recovery_window must be in \[2, {DETECTOR_WINDOW}\]"):
        train(model, schedule, batch_iterator(packed, 2, 5, seed=1), steps=5,
              recovery_window=DETECTOR_WINDOW + 1)
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k]), k


# -- scoring and grid search ----------------------------------------------------------------

def test_smoothed_ramp_in():
    assert smoothed([1.0, 2.0, 3.0, 4.0], window=2) == [1.0, 1.5, 2.5, 3.5]


def test_score_run_failed_runs_rank_last():
    assert score_run([], "completed")[0] == math.inf
    log = [StepLog(1, 32, 1.0, 0.5, 0, 0, 0)]
    assert score_run(log, "diverged")[0] == math.inf
    assert score_run(log, "abort_recommended")[0] == math.inf


def test_score_run_clean_descent_scores_final_loss():
    losses = np.linspace(3.0, 1.0, 50)
    log = [StepLog(i + 1, 0, float(l), 0.5, 0, 0, 0) for i, l in enumerate(losses)]
    score, final, nonmono, gpen = score_run(log, "completed")
    assert nonmono == 0.0 and gpen == 0.0
    assert final == pytest.approx(np.mean(losses[-10:]))
    assert score == pytest.approx(final)


def test_score_run_penalizes_rising_grads():
    log = [StepLog(i + 1, 0, 1.0, 0.1 * i, 0, 0, 0) for i in range(40)]
    _, _, _, gpen = score_run(log, "completed")
    assert gpen > 0


def test_grid_ranking_is_order_invariant(tmp_path):
    hp_good = toy_hyperparams(steps=10, batch_tokens=32, warmup_steps=2)
    hp_bad = replace(hp_good, matrix_lr=100.0)
    config = toy_config(32, layer_num=1, vocab_size=64, context_length=16)
    rng = np.random.default_rng(5)
    docs = [list(map(int, rng.integers(1, 64, size=20))) for _ in range(10)]
    packed = pack(docs, 16, pad_id=0)
    e_ab = run_grid(config, [hp_good, hp_bad], packed, steps=10, seed=4,
                    rows_per_batch=2, out_dir=tmp_path)
    e_ba = run_grid(config, [hp_bad, hp_good], packed, steps=10, seed=4,
                    rows_per_batch=2)
    assert [e.config for e in e_ab] == [e.config for e in e_ba]
    assert [e.score for e in e_ab] == [e.score for e in e_ba]
    assert e_ab[0].score <= e_ab[1].score
    assert e_ab[0].config["matrix_learning_rate"] == hp_good.matrix_lr
    # persisted curves round-trip
    assert len(read_runlog(e_ab[0].curve_path or tmp_path / "grid000.csv")) == 10
    report = grid_report(e_ab)
    assert report["all_failed"] is False
    assert [r["score"] for r in report["ranking"]] == sorted(
        r["score"] for r in report["ranking"])


def test_grid_curve_is_the_detected_run_without_its_events(tmp_path):
    # The grid trains without the spike detector: with stop_on_abort off an
    # event never changes a run, so the curve and score match a detected run
    # on a candidate whose detector does report an event.
    config = toy_config(32, layer_num=1, vocab_size=64, context_length=16)
    rng = np.random.default_rng(5)
    packed = pack([list(map(int, rng.integers(1, 64, size=20))) for _ in range(10)],
                  16, pad_id=0)
    hp = replace(toy_hyperparams(steps=60, batch_tokens=32, warmup_steps=20),
                 vector_lr=0.1, matrix_lr=0.1)
    [entry] = run_grid(config, [hp], packed, steps=60, seed=4, rows_per_batch=2,
                       out_dir=tmp_path)
    model, schedule = Job(config, hp, 4, 2, 60).build()
    detected = train(model, schedule, batch_iterator(packed, 2, 60, 4), 60,
                     detect=True, stop_on_abort=False)
    assert detected.events

    def curve(log):
        return [(r.step, r.tokens, r.loss, r.grad_norm, r.lr_vector, r.lr_matrix) for r in log]
    assert curve(read_runlog(entry.curve_path)) == curve(detected.log)
    score = score_run(detected.log, detected.status)[0]
    assert (entry.status, entry.score) == (detected.status, score)


def test_grid_rejects_zero_steps():
    # a grid scores a curve, and zero steps leave none to score
    _, _, packed, hp = tiny_setup()
    config = toy_config(32, layer_num=1, vocab_size=64, context_length=16)
    with pytest.raises(ConfigError, match="steps must be >= 1"):
        run_grid(config, [hp], packed, steps=0, seed=0, rows_per_batch=2)


def test_grid_report_flags_all_failed():
    entries = [GridEntry(config={}, score=math.inf, status="diverged",
                         final_smoothed_loss=math.inf, non_monotonicity=math.inf,
                         grad_trend_penalty=math.inf)]
    assert grid_report(entries)["all_failed"] is True


def test_train_step_skips_nonfinite_gradients():
    model, schedule, packed, _ = tiny_setup()
    tokens, segments = packed
    opt = AdamState(model)
    row, ok = train_step(model, (tokens[:2], segments[:2]), opt, schedule, 0)
    assert ok and math.isfinite(row.grad_norm)
