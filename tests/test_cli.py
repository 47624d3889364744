"""End-to-end CLI: every subcommand, exit codes, run-directory layout."""
import argparse
import csv
import inspect
import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest

from desklm import cli
from desklm import evaluation as eval_mod
from desklm import io as dio
from desklm import trainer as trainer_mod
from desklm.corpus import (Document, dedup, load_packed, pack, save_packed,
                           write_jsonl)
from desklm.model import HyperParams, Model, ModelConfig, hyperparams_to_dict
from desklm.mup import CoordCheckResult
from desklm.presets import (reference_manifest, toy_config, toy_hyperparams)
from desklm.synth import STYLES, build_corpus
from desklm.tensor import RngState
from desklm.tokenizer import TokenizerModel, train_bbpe
from desklm.trainer import GridEntry, TrainResult


def run(argv):
    return cli.main(argv)


def json_out(capsys):
    return json.loads(capsys.readouterr().out)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: corpus, tokenizer, configs, packed data."""
    root = tmp_path_factory.mktemp("cliws")
    docs = build_corpus(seed=41, target_bytes=30_000)
    write_jsonl(root / "corpus.jsonl", docs)

    texts = [d.text for d in docs]
    tok = train_bbpe(texts, 300, specials=("<pad>",))
    tok.save(root / "tok.json")

    config = toy_config(32, layer_num=1, vocab_size=tok.vocab_size,
                        context_length=16)
    (root / "config.json").write_text(json.dumps(config.to_dict()))
    hp = toy_hyperparams(steps=50, batch_tokens=64, warmup_steps=4)
    (root / "hp.json").write_text(json.dumps(hyperparams_to_dict(hp)))
    zero = hyperparams_to_dict(hp)
    zero.update(learning_rate=0.0, matrix_learning_rate=0.0,
                minimum_learning_rate=0.0)
    (root / "hp_zero.json").write_text(json.dumps(zero))

    tokens, segments = pack([tok.encode(t) for t in texts], 16,
                            tok.specials["<pad>"])
    save_packed(root / "packed.dlm", tokens, segments)

    eval_docs = [Document(id=f"e{i}", domain=d.domain, text=d.text)
                 for i, d in enumerate(build_corpus(seed=43, target_bytes=12_000))]
    write_jsonl(root / "eval.jsonl", eval_docs)
    (root / "manifest.json").write_text(json.dumps(reference_manifest().to_dict()))
    return root


# -- tokenizer commands -----------------------------------------------------------

def test_tok_train_round_trip(ws, tmp_path, capsys):
    out = tmp_path / "tok.json"
    code = run(["tok-train", "--corpus", str(ws / "corpus.jsonl"),
                "--vocab-size", "300", "--special", "<pad>",
                "--out", str(out), "--json"])
    assert code == 0
    payload = json_out(capsys)
    assert payload["vocab_size"] == 300
    assert payload["specials"] == ["<pad>"]
    assert payload["compression_ratio"] < 1.0
    model = TokenizerModel.load(out)
    assert model.vocab_size == 300
    # same invocation is byte-for-byte reproducible
    out2 = tmp_path / "tok2.json"
    run(["tok-train", "--corpus", str(ws / "corpus.jsonl"),
         "--vocab-size", "300", "--special", "<pad>", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_tok_train_usage_errors(ws, tmp_path):
    assert run(["tok-train", "--corpus", str(ws / "missing.jsonl"),
                "--vocab-size", "300", "--out", str(tmp_path / "t.json")]) == 2
    assert run(["tok-train", "--corpus", str(ws / "corpus.jsonl"),
                "--vocab-size", "100", "--out", str(tmp_path / "t.json")]) == 2


def test_tok_stats_table(ws, capsys):
    code = run(["tok-stats", "--tokenizer", str(ws / "tok.json"),
                "--corpus", str(ws / "corpus.jsonl"), "--json"])
    assert code == 0
    payload = json_out(capsys)
    assert [r["domain"] for r in payload["rows"]] == sorted(STYLES)
    assert all(0 < r["ratio"] <= 1.0 for r in payload["rows"])
    assert payload["weighted"] is None


def test_tok_stats_weighted(ws, tmp_path, capsys):
    weights = {s: 1 / len(STYLES) for s in STYLES}
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(weights))
    code = run(["tok-stats", "--tokenizer", str(ws / "tok.json"),
                "--corpus", str(ws / "corpus.jsonl"),
                "--weights", str(wpath), "--json"])
    assert code == 0
    payload = json_out(capsys)
    ratios = [r["ratio"] for r in payload["rows"]]
    assert payload["weighted"] == pytest.approx(np.mean(ratios))


# -- corpus commands ----------------------------------------------------------------

def test_corpus_dedup_drops_planted_duplicate(ws, tmp_path, capsys):
    docs = build_corpus(seed=41, target_bytes=10_000)
    planted = docs + [Document(id="dup", domain=docs[0].domain, text=docs[0].text)]
    src = tmp_path / "with_dup.jsonl"
    write_jsonl(src, planted)
    out = tmp_path / "clean.jsonl"
    log = tmp_path / "removals.jsonl"
    # paragraph pass alone already empties and drops the exact copy
    code = run(["corpus-dedup", "--corpus", str(src), "--out", str(out),
                "--threshold", "0.5", "--log", str(log), "--json"])
    assert code == 0
    payload = json_out(capsys)
    assert payload["documents_in"] == len(planted)
    assert payload["documents_out"] == len(docs)
    assert payload["paragraphs_removed"] >= 1
    # with the paragraph pass disabled the copy falls through to minhash
    code = run(["corpus-dedup", "--corpus", str(src), "--out", str(out),
                "--threshold", "0.5", "--skip-paragraph",
                "--log", str(log), "--json"])
    assert code == 0
    payload = json_out(capsys)
    assert payload["near_duplicates_dropped"] == 1
    entry = json.loads(log.read_text().splitlines()[0])
    assert entry["dropped_id"] == "dup"
    assert entry["est_jaccard"] == 1.0


def test_removal_log_spells_an_id_as_the_corpus_does(tmp_path):
    text = build_corpus(seed=41, target_bytes=2_000)[0].text
    src, out, log = tmp_path / "src.jsonl", tmp_path / "dedup.jsonl", tmp_path / "removals.jsonl"
    write_jsonl(src, [Document("文档-1", "d", text), Document("文档-2", "d", text)])
    assert run(["corpus-dedup", "--corpus", str(src), "--out", str(out),
                "--skip-paragraph", "--log", str(log)]) == 0
    kept = json.dumps("文档-1", ensure_ascii=False).encode()
    assert kept in out.read_bytes() and kept in log.read_bytes()
    assert json.loads(log.read_bytes())["dropped_id"] == "文档-2"


def test_corpus_dedup_skip_flags(ws, tmp_path, capsys):
    docs = build_corpus(seed=41, target_bytes=5_000)
    planted = docs + [Document(id="dup", domain="d", text=docs[0].text)]
    src = tmp_path / "src.jsonl"
    write_jsonl(src, planted)
    out = tmp_path / "out.jsonl"
    code = run(["corpus-dedup", "--corpus", str(src), "--out", str(out),
                "--skip-minhash", "--skip-paragraph", "--json"])
    assert code == 0
    payload = json_out(capsys)
    assert payload["documents_out"] == len(planted)
    assert payload["near_duplicates_dropped"] == 0


def test_corpus_dedup_rejects_zero_bands(ws, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert run(["corpus-dedup", "--corpus", str(ws / "corpus.jsonl"), "--out", str(out),
                "--skip-paragraph", "--bands", "0"]) == 2
    assert "bands must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_corpus_plan_reference_quotas(ws, capsys):
    code = run(["corpus-plan", "--manifest", str(ws / "manifest.json"), "--json"])
    assert code == 0
    payload = json_out(capsys)
    quotas = {row["name"]: row["quota"] for row in payload["plan"]}
    assert all(row.keys() == {"name", "quota", "available"} for row in payload["plan"])
    assert quotas["WebText"] == 1_504_000_000_000
    assert payload["total_tokens"] == 2_000_000_000_000


def test_corpus_plan_infeasible_is_usage_error(ws, tmp_path, capsys):
    manifest = reference_manifest(tokens_per_byte=1.0).to_dict()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code = run(["corpus-plan", "--manifest", str(path)])
    assert code == 2
    assert "Profession-Math" in capsys.readouterr().err


def test_corpus_plan_refuses_a_domain_record_by_its_index(tmp_path, capsys):
    manifest = reference_manifest().to_dict()
    manifest["domains"][3]["size_bytes"] = -1
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert run(["corpus-plan", "--manifest", str(path)]) == 2
    assert f"{path}: domains[3]: domain WorldKnowledge: negative size_bytes" in \
        capsys.readouterr().err


def test_corpus_plan_refuses_a_manifest_budget_even_with_an_override(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(reference_manifest().to_dict() | {"total_token_budget": 0}))
    assert run(["corpus-plan", "--manifest", str(path), "--total-tokens", "100"]) == 2
    assert "total_token_budget must be positive" in capsys.readouterr().err


def test_corpus_pack_uses_tokenizer_pad(ws, tmp_path, capsys):
    out = tmp_path / "packed.dlm"
    code = run(["corpus-pack", "--corpus", str(ws / "corpus.jsonl"),
                "--tokenizer", str(ws / "tok.json"),
                "--context-length", "16", "--out", str(out), "--json"])
    assert code == 0
    payload = json_out(capsys)
    tokens, segments, meta = load_packed(out)
    assert meta["pad_id"] == 256          # the tokenizer's <pad> special
    assert tokens.shape == (payload["rows"], 16)
    assert payload["padding_fraction"] < 0.01
    assert int((segments > 0).sum()) == payload["total_tokens"]


# -- training ---------------------------------------------------------------------------

def test_train_run_directory_layout(ws, tmp_path, capsys):
    out = tmp_path / "run1"
    argv = ["train", "--config", str(ws / "config.json"),
            "--hyperparams", str(ws / "hp.json"),
            "--data", str(ws / "packed.dlm"),
            "--steps", "8", "--seed", "5", "--out", str(out), "--save-initial"]
    assert run(argv) == 0
    assert (out / "logs" / "run_log.csv").exists()
    assert (out / "checkpoints" / "initial.ckpt").exists()
    assert (out / "checkpoints" / "final.ckpt").exists()
    assert json.loads((out / "logs" / "events.json").read_text()) == []
    summary = json.loads((out / "reports" / "summary.json").read_text())
    assert summary["status"] == "completed"
    assert summary["steps_run"] == 8
    assert summary["rows_per_batch"] == 4          # 64 batch tokens / 16 context
    assert summary["tokens_seen"] == 8 * 4 * 16
    invocation = json.loads((out / "config" / "invocation.json").read_text())
    assert invocation["argv"] == argv
    assert set(invocation["resolved"]) == {   # the parsed flags, nothing used for dispatch
        "command", "config", "hyperparams", "data", "steps", "seed", "out", "rows_per_batch",
        "checkpoint_every", "save_initial", "recovery_window", "no_spike_detection", "keep_going"}
    saved_config = json.loads((out / "config" / "model_config.json").read_text())
    assert saved_config["hidden_size"] == 32
    log = trainer_mod.read_runlog(out / "logs" / "run_log.csv")
    assert len(log) == 8 and math.isfinite(log[-1].loss)
    assert "status: completed" in capsys.readouterr().out


def test_train_zero_lr_checkpoints_identical(ws, tmp_path):
    out = tmp_path / "zero"
    assert run(["train", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp_zero.json"),
                "--data", str(ws / "packed.dlm"),
                "--steps", "4", "--out", str(out), "--save-initial"]) == 0
    a, _ = dio.load_arrays(out / "checkpoints" / "initial.ckpt")
    b, _ = dio.load_arrays(out / "checkpoints" / "final.ckpt")
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k]), k


def test_train_output_does_not_depend_on_how_a_float_is_spelled(ws, tmp_path):
    config = json.loads((ws / "config.json").read_text())
    hp = json.loads((ws / "hp.json").read_text())
    runs = {}
    for spelling, theta, min_lr in (("float", 10000.0, 0.0), ("int", 10000, 0)):
        (tmp_path / f"{spelling}_config.json").write_text(
            json.dumps(config | {"rope_theta": theta}))
        (tmp_path / f"{spelling}_hp.json").write_text(
            json.dumps(hp | {"rope_theta": theta, "minimum_learning_rate": min_lr}))
        out = runs[spelling] = tmp_path / spelling
        assert run(["train", "--config", str(tmp_path / f"{spelling}_config.json"),
                    "--hyperparams", str(tmp_path / f"{spelling}_hp.json"),
                    "--data", str(ws / "packed.dlm"), "--steps", "3", "--out", str(out)]) == 0

    def outputs(root):
        files = {}
        for path in sorted(root.rglob("*")):
            name = path.relative_to(root).as_posix()
            if name == "logs/run_log.csv":      # less its timing column
                with open(path, newline="") as f:
                    files[name] = [{k: v for k, v in row.items() if k != "wall_ms"}
                                   for row in csv.DictReader(f)]
            elif path.is_file() and name != "config/invocation.json":    # names the inputs
                files[name] = path.read_bytes()
        return files
    got, want = outputs(runs["int"]), outputs(runs["float"])
    assert got.keys() == want.keys() and "checkpoints/final.ckpt" in got
    assert [name for name in want if got[name] != want[name]] == []


def test_train_context_mismatch_is_usage_error(ws, tmp_path):
    tok = TokenizerModel.load(ws / "tok.json")
    tokens, segments = pack([tok.encode("some text here")], 8, 256)
    bad = tmp_path / "ctx8.dlm"
    save_packed(bad, tokens, segments)
    assert run(["train", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp.json"), "--data", str(bad),
                "--steps", "2", "--out", str(tmp_path / "r")]) == 2


def packed_with_context(ws, tmp_path, context):
    tok = TokenizerModel.load(ws / "tok.json")
    docs = [tok.encode(d.text) for d in build_corpus(seed=41, target_bytes=3_000)]
    tokens, segments = pack(docs, context, tok.specials["<pad>"])
    path = tmp_path / f"ctx{context}.dlm"
    save_packed(path, tokens, segments)
    return path


def test_train_exit_codes_for_bad_outcomes(ws, tmp_path, monkeypatch):
    # `train` always logs at least one row: step 0 when steps=0
    row = trainer_mod.StepLog(2, 128, 1.0, 0.5, 0.0, 0.0, 0.0)

    def fake_train(*a, **k):
        return TrainResult(log=[row], events=[], status="abort_recommended")
    monkeypatch.setattr(trainer_mod, "train", fake_train)
    assert run(["train", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp.json"),
                "--data", str(ws / "packed.dlm"),
                "--steps", "2", "--out", str(tmp_path / "a")]) == 3

    def fake_diverged(*a, **k):
        return TrainResult(log=[replace(row, loss=math.inf)], events=[], status="diverged")
    monkeypatch.setattr(trainer_mod, "train", fake_diverged)
    assert run(["train", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp.json"),
                "--data", str(ws / "packed.dlm"),
                "--steps", "2", "--out", str(tmp_path / "b")]) == 1
    summary = dio.read_json(tmp_path / "b" / "reports" / "summary.json")
    assert summary["steps_run"] == 2 and summary["final_loss"] is None


def test_train_rejects_bad_rows_per_batch(ws, tmp_path):
    assert run(["train", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp.json"),
                "--data", str(ws / "packed.dlm"), "--steps", "2",
                "--rows-per-batch", "0", "--out", str(tmp_path / "r")]) == 2
    assert run(["coord-check", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp.json"), "--widths", "32",
                "--steps", "1", "--data", str(ws / "packed.dlm"),
                "--rows-per-batch", "0"]) == 2


def rejected_inputs(ws, tmp_path):
    """(hyperparameter file, extra argv) pairs that validation must reject:
    a rope_theta that differs from the model config's, and a warmup that
    outlasts the schedule once 64 rows of 16 tokens make up a step."""
    theta = hyperparams_to_dict(toy_hyperparams(steps=50, batch_tokens=64,
                                                warmup_steps=4))
    theta["rope_theta"] = 500.0
    path = tmp_path / "hp_theta.json"
    path.write_text(json.dumps(theta))
    return [(path, []), (ws / "hp.json", ["--rows-per-batch", "64"])]


def test_train_rejected_inputs_leave_no_run_directory(ws, tmp_path):
    for i, (hp_path, extra) in enumerate(rejected_inputs(ws, tmp_path)):
        out = tmp_path / f"r{i}"
        assert run(["train", "--config", str(ws / "config.json"),
                    "--hyperparams", str(hp_path), "--data", str(ws / "packed.dlm"),
                    "--steps", "2", "--out", str(out)] + extra) == 2
        assert not out.exists()


def test_warmup_is_checked_at_the_step_size_the_run_uses(ws, tmp_path, capsys):
    # 100 warmup steps of the published 1,024 tokens outlast a 100,000-token
    # schedule, but 100 steps of one 16-token row end after 1,600 tokens
    hp = replace(toy_hyperparams(), batch_tokens=1024, warmup_steps=100,
                 schedule_tokens=100_000)
    path = tmp_path / "hpw.json"
    path.write_text(json.dumps(hyperparams_to_dict(hp)))
    assert dio.decode_record(HyperParams, dio.read_json(path), path) == hp
    argv = ["train", "--config", str(ws / "config.json"), "--hyperparams", str(path),
            "--data", str(ws / "packed.dlm"), "--steps", "2"]
    assert run(argv + ["--rows-per-batch", "1", "--out", str(tmp_path / "one")]) == 0
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "derived")]) == 2      # 64 rows a step
    assert "warmup must end" in capsys.readouterr().err
    assert not (tmp_path / "derived").exists()


MISFIRING_SETTINGS = [
    *(("train", "--recovery-window", v, "recovery_window") for v in ("0", "1", "-3", "101")),
    *(("train", "--checkpoint-every", v, "checkpoint_every") for v in ("0", "-10")),
    *((c, "--steps", "-1", "steps") for c in ("train", "grid-search", "coord-check")),
    ("grid-search", "--steps", "0", "steps"),
    *(("coord-check", "--rms-ratio-limit", v, "--rms-ratio-limit") for v in ("nan", "-1", "0"))]


@pytest.mark.parametrize("command, flag, value, name", MISFIRING_SETTINGS,
                         ids=[f"{c}{f}={v}" for c, f, v, _ in MISFIRING_SETTINGS])
def test_train_rejects_misfiring_spike_detector(ws, tmp_path, capsys, command, flag, value,
                                                name):
    # a recovery window below 2 reads every step as a sustained spike and one
    # above the detector window never fires; a cadence below 1 or a negative
    # step count means nothing, and a grid of zero steps has no curve to
    # score; the base width's own ratio is 1, so a limit below 1 (or NaN)
    # fails every coordinate check.  Each is named before anything is written.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([json.loads((ws / "hp.json").read_text())]))
    out = tmp_path / "r"
    argv = {"train": ["--hyperparams", str(ws / "hp.json"), "--out", str(out)],
            "grid-search": ["--grid", str(grid), "--out", str(out)],
            "coord-check": ["--hyperparams", str(ws / "hp.json"), "--widths", "32",
                            "--rows-per-batch", "2", "--out", str(out / "coord.csv")]}[command]
    assert run([command, "--config", str(ws / "config.json"), "--data", str(ws / "packed.dlm"),
                "--steps", "2", *argv, flag, value]) == 2
    assert f"{name} must be" in capsys.readouterr().err
    assert not out.exists()


def test_train_and_grid_search_log_the_same_run(ws, tmp_path):
    hp = toy_hyperparams(steps=6, batch_tokens=64, warmup_steps=2)
    hp_path = tmp_path / "hp.json"
    hp_path.write_text(json.dumps(hyperparams_to_dict(hp)))
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([hyperparams_to_dict(hp)]))
    common = ["--config", str(ws / "config.json"), "--data", str(ws / "packed.dlm"),
              "--steps", "6", "--seed", "3", "--rows-per-batch", "2"]
    assert run(["train", "--hyperparams", str(hp_path),
                "--out", str(tmp_path / "t")] + common) == 0
    assert run(["grid-search", "--grid", str(grid_path),
                "--out", str(tmp_path / "g")] + common) == 0
    a = trainer_mod.read_runlog(tmp_path / "t" / "logs" / "run_log.csv")
    b = trainer_mod.read_runlog(tmp_path / "g" / "logs" / "grid000.csv")
    assert [r.tokens for r in a] == [32 * (i + 1) for i in range(6)]
    assert [(r.loss, r.tokens) for r in a] == [(r.loss, r.tokens) for r in b]


def test_train_spike_flags_change_the_exit_not_the_arithmetic(ws, tmp_path):
    # A recovery window of 2 reads the early descent as a sustained spike: the
    # plain run stops, --keep-going logs each event and trains on, and
    # --no-spike-detection never looks.  Detection never touches the weights.
    outs = {}
    for flag, code in (("", 3), ("--keep-going", 0), ("--no-spike-detection", 0)):
        outs[flag] = tmp_path / (flag.strip("-") or "plain")
        assert run(["train", "--config", str(ws / "config.json"),
                    "--hyperparams", str(ws / "hp.json"), "--data", str(ws / "packed.dlm"),
                    "--steps", "30", "--recovery-window", "2", "--out", str(outs[flag]),
                    *filter(None, [flag])]) == code
    kept, blind = outs["--keep-going"], outs["--no-spike-detection"]
    assert len(json.loads((kept / "logs" / "events.json").read_text())) > 1
    assert json.loads((blind / "logs" / "events.json").read_text()) == []
    assert ((kept / "checkpoints" / "final.ckpt").read_bytes()
            == (blind / "checkpoints" / "final.ckpt").read_bytes())

    def curve(out):
        return [(r.step, r.tokens, r.loss, r.grad_norm, r.lr_vector, r.lr_matrix)
                for r in trainer_mod.read_runlog(out / "logs" / "run_log.csv")]
    assert len(curve(kept)) == 30 and curve(kept) == curve(blind)


def test_train_refuses_spike_flags_that_cancel_each_other(ws, tmp_path, capsys):
    # --keep-going has nothing to keep going past once detection is off
    out = tmp_path / "both"
    with pytest.raises(SystemExit) as exit_:
        run(["train", "--config", str(ws / "config.json"), "--hyperparams", str(ws / "hp.json"),
             "--data", str(ws / "packed.dlm"), "--steps", "2", "--out", str(out),
             "--no-spike-detection", "--keep-going"])
    assert exit_.value.code == 2 and not out.exists()
    assert "not allowed with argument" in capsys.readouterr().err


# -- grid search --------------------------------------------------------------------------

def test_grid_search_builds_each_candidate_once(ws, tmp_path, monkeypatch):
    hp = hyperparams_to_dict(toy_hyperparams(steps=6, batch_tokens=64, warmup_steps=2))
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([dict(hp, learning_rate=hp["learning_rate"] / n)
                                     for n in (1, 2, 4)]))
    builds, real_build = [], Model.build
    monkeypatch.setattr(Model, "build", lambda *a: builds.append(a) or real_build(*a))
    assert run(["grid-search", "--config", str(ws / "config.json"),
                "--grid", str(grid_path), "--data", str(ws / "packed.dlm"),
                "--steps", "2", "--rows-per-batch", "2", "--out", str(tmp_path / "g")]) == 0
    assert len(builds) == 3


def test_grid_search_ranks_and_persists(ws, tmp_path, capsys):
    hp = hyperparams_to_dict(toy_hyperparams(steps=6, batch_tokens=64,
                                             warmup_steps=2))
    bad = dict(hp, matrix_learning_rate=100.0)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([hp, bad]))
    out = tmp_path / "grid_run"
    code = run(["grid-search", "--config", str(ws / "config.json"),
                "--grid", str(grid_path), "--data", str(ws / "packed.dlm"),
                "--steps", "6", "--rows-per-batch", "2", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "reports" / "grid_report.json").read_text())
    assert report["all_failed"] is False
    scores = [e["score"] for e in report["ranking"]]
    assert scores == sorted(scores)
    assert report["ranking"][0]["config"]["matrix_learning_rate"] == hp["matrix_learning_rate"]
    assert (out / "logs" / "grid000.csv").exists()
    assert "rank" in capsys.readouterr().out


def test_grid_search_all_failed_exit(ws, tmp_path, monkeypatch):
    hp = hyperparams_to_dict(toy_hyperparams(steps=6, batch_tokens=64,
                                             warmup_steps=2))
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([hp]))

    def fake_grid(*a, **k):
        return [GridEntry(config=hp, score=math.inf, status="diverged",
                          final_smoothed_loss=math.inf, non_monotonicity=math.inf,
                          grad_trend_penalty=math.inf)]
    monkeypatch.setattr(trainer_mod, "run_grid", fake_grid)
    assert run(["grid-search", "--config", str(ws / "config.json"),
                "--grid", str(grid_path), "--data", str(ws / "packed.dlm"),
                "--steps", "6", "--out", str(tmp_path / "g")]) == 1
    # the report's infinite scores are written as null, so the package reads it back
    report = dio.read_json(tmp_path / "g" / "reports" / "grid_report.json")
    assert report["all_failed"] is True and report["ranking"][0]["score"] is None


def test_grid_search_rejects_empty_grid(ws, tmp_path):
    grid_path = tmp_path / "empty.json"
    grid_path.write_text("[]")
    assert run(["grid-search", "--config", str(ws / "config.json"),
                "--grid", str(grid_path), "--data", str(ws / "packed.dlm"),
                "--steps", "2", "--out", str(tmp_path / "g")]) == 2


def test_grid_search_rejected_candidate_leaves_no_run_directory(ws, tmp_path):
    good = hyperparams_to_dict(toy_hyperparams(steps=500, batch_tokens=64,
                                               warmup_steps=4))
    for i, (hp_path, extra) in enumerate(rejected_inputs(ws, tmp_path)):
        grid_path = tmp_path / f"grid{i}.json"
        grid_path.write_text(json.dumps([good, json.loads(hp_path.read_text())]))
        out = tmp_path / f"g{i}"
        assert run(["grid-search", "--config", str(ws / "config.json"),
                    "--grid", str(grid_path), "--data", str(ws / "packed.dlm"),
                    "--steps", "2", "--out", str(out)] + extra) == 2
        assert not out.exists()


def test_grid_search_rejects_candidates_with_different_batch_tokens(ws, tmp_path, capsys):
    small, large = (hyperparams_to_dict(toy_hyperparams(steps=6, batch_tokens=n, warmup_steps=2))
                    for n in (64, 128))
    common = ["--config", str(ws / "config.json"), "--data", str(ws / "packed.dlm"),
              "--steps", "3"]
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([small, large]))
    out = tmp_path / "g"
    assert run(["grid-search", "--grid", str(grid_path), "--out", str(out)] + common) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "candidate 0: batch_size_tokens 64 -> 4 rows" in err
    assert "candidate 1: batch_size_tokens 128 -> 8 rows" in err
    # --rows-per-batch settles the step size for every candidate
    assert run(["grid-search", "--grid", str(grid_path), "--out", str(out),
                "--rows-per-batch", "2"] + common) == 0
    # an equal-batch grid still derives its rows from batch_size_tokens
    grid_path.write_text(json.dumps([large, dict(large, matrix_learning_rate=1e-3)]))
    out = tmp_path / "g2"
    assert run(["grid-search", "--grid", str(grid_path), "--out", str(out)] + common) == 0
    for i in range(2):
        log = trainer_mod.read_runlog(out / "logs" / f"grid00{i}.csv")
        assert [r.tokens for r in log] == [128, 256, 384]


@pytest.mark.parametrize("context", [8, 32])
def test_grid_search_context_mismatch_leaves_no_run_directory(ws, tmp_path, capsys, context):
    data = packed_with_context(ws, tmp_path, context)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([json.loads((ws / "hp.json").read_text())]))
    out = tmp_path / "g"
    assert run(["grid-search", "--config", str(ws / "config.json"), "--grid", str(grid_path),
                "--data", str(data), "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"context {context}" in err and "expects 16" in err
    assert not out.exists()


# -- coordinate check -----------------------------------------------------------------------

def coord_config(ws, tmp_path):
    config = toy_config(16, layer_num=1, vocab_size=300, context_length=16)
    path = tmp_path / "base16.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


def test_coord_check_stable_transfer(ws, tmp_path, capsys):
    cfg = coord_config(ws, tmp_path)
    csv_out = tmp_path / "coord.csv"
    code = run(["coord-check", "--config", str(cfg),
                "--hyperparams", str(ws / "hp.json"), "--widths", "16,32",
                "--steps", "2", "--data", str(ws / "packed.dlm"),
                "--rows-per-batch", "2", "--out", str(csv_out)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stable" in out
    header = csv_out.read_text().splitlines()[0]
    assert header == "width,step,metric,value"


def test_coord_check_strict_limit_fails(ws, tmp_path, capsys):
    cfg = coord_config(ws, tmp_path)
    code = run(["coord-check", "--config", str(cfg),
                "--hyperparams", str(ws / "hp.json"), "--widths", "16,32",
                "--steps", "2", "--data", str(ws / "packed.dlm"),
                "--rows-per-batch", "2", "--rms-ratio-limit", "1"])
    assert code == 1
    assert "NOT stable" in capsys.readouterr().out


def test_coord_check_fails_when_a_width_diverges(ws, tmp_path, monkeypatch, capsys):
    # equal activation scales, so only the diverged width makes the check fail
    def diverged(config, hp, widths, *a, **k):
        return CoordCheckResult(rows=[], diverged={w: w == widths[-1] for w in widths},
                                max_rms={w: 1.0 for w in widths})
    monkeypatch.setattr(cli, "coordinate_check", diverged)
    assert run(["coord-check", "--config", str(coord_config(ws, tmp_path)),
                "--hyperparams", str(ws / "hp.json"), "--widths", "16,32",
                "--data", str(ws / "packed.dlm")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("32 ") and lines[2].endswith("yes")
    assert lines[-1].endswith("NOT stable")


def test_coord_check_and_train_log_the_same_run(ws, tmp_path):
    # without --rows-per-batch both derive batch_size_tokens / context_length rows
    hp_path = tmp_path / "hp128.json"
    hp_path.write_text(json.dumps(hyperparams_to_dict(
        toy_hyperparams(steps=4, batch_tokens=128, warmup_steps=1))))
    common = ["--config", str(ws / "config.json"), "--hyperparams", str(hp_path),
              "--data", str(ws / "packed.dlm"), "--steps", "4", "--seed", "3"]
    assert run(["coord-check", "--widths", "32", "--out", str(tmp_path / "coord.csv")]
               + common) == 0
    assert run(["train", "--out", str(tmp_path / "t")] + common) == 0
    with open(tmp_path / "coord.csv", newline="") as f:
        coord = [float(r["value"]) for r in csv.DictReader(f)
                 if r["width"] == "32" and r["metric"] == "loss"]
    log = trainer_mod.read_runlog(tmp_path / "t" / "logs" / "run_log.csv")
    assert [r.tokens for r in log] == [8 * 16 * (i + 1) for i in range(4)]
    assert coord == [r.loss for r in log]


@pytest.mark.parametrize("context", [8, 32])
def test_coord_check_context_mismatch_writes_nothing(ws, tmp_path, capsys, context):
    cfg = coord_config(ws, tmp_path)
    out = tmp_path / "coord" / "coord.csv"
    assert run(["coord-check", "--config", str(cfg), "--hyperparams", str(ws / "hp.json"),
                "--widths", "16,32", "--steps", "1",
                "--data", str(packed_with_context(ws, tmp_path, context)),
                "--rows-per-batch", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"context {context}" in err and "expects 16" in err
    assert not out.parent.exists()


def test_coord_check_rejects_empty_widths(ws, tmp_path):
    cfg = coord_config(ws, tmp_path)
    assert run(["coord-check", "--config", str(cfg),
                "--hyperparams", str(ws / "hp.json"), "--widths", " , ",
                "--steps", "2", "--data", str(ws / "packed.dlm")]) == 2


@pytest.mark.parametrize("widths", ["16,16", "16,,32", "16,x"])
def test_coord_check_refuses_a_width_list_it_would_misread(ws, tmp_path, capsys, widths):
    out = tmp_path / "coord" / "coord.csv"
    assert run(["coord-check", "--config", str(coord_config(ws, tmp_path)),
                "--hyperparams", str(ws / "hp.json"), "--widths", widths,
                "--steps", "2", "--data", str(ws / "packed.dlm"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--widths" in err and repr(widths) in err
    assert not out.parent.exists()


def test_shared_flags_are_declared_alike_in_every_command():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    shared = {dest: ("train", "grid-search", "coord-check")
              for dest in ("config", "data", "seed", "rows_per_batch")}
    shared["json"] = ("tok-train", "tok-stats", "corpus-dedup", "corpus-plan",
                      "corpus-pack", "eval-bpb")
    for dest, names in shared.items():
        kinds = {(a.option_strings[0], a.help, a.default, a.required, a.type)
                 for name in names for a in commands[name]._actions if a.dest == dest}
        assert len(kinds) == 1, (dest, kinds)


def test_corpus_dedup_flags_default_to_dedup_defaults():
    defaults = {name: p.default for name, p in inspect.signature(dedup).parameters.items()
                if p.default is not p.empty}
    assert len(defaults) == 5
    flags = vars(cli.build_parser().parse_args(["corpus-dedup", "--corpus", "c", "--out", "o"]))
    assert {name: flags[name] for name in defaults} == defaults


# -- evaluation -------------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_run(ws, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert cli.main(["train", "--config", str(ws / "config.json"),
                     "--hyperparams", str(ws / "hp.json"),
                     "--data", str(ws / "packed.dlm"),
                     "--steps", "5", "--out", str(out)]) == 0
    return out


def test_eval_bpb_report(ws, trained_run, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    code = run(["eval-bpb", "--checkpoint", str(trained_run / "checkpoints" / "final.ckpt"),
                "--tokenizer", str(ws / "tok.json"),
                "--eval", str(ws / "eval.jsonl"),
                "--out", str(out_json), "--csv", str(out_csv), "--json"])
    assert code == 0
    payload = json_out(capsys)
    assert [r["domain"] for r in payload["rows"]] == sorted(STYLES)
    for r in payload["rows"]:
        assert r["bpb"] > 0
    assert "direct_average" in payload["aggregates"]
    assert json.loads(out_json.read_text()) == payload
    assert out_csv.read_text().startswith("domain,")


def test_eval_bpb_flat_weights_profile(ws, trained_run, tmp_path, capsys):
    weights = {s: 1 / len(STYLES) for s in STYLES}
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(weights))
    code = run(["eval-bpb", "--checkpoint", str(trained_run / "checkpoints" / "final.ckpt"),
                "--tokenizer", str(ws / "tok.json"),
                "--eval", str(ws / "eval.jsonl"),
                "--weights", str(wpath), "--json"])
    assert code == 0
    payload = json_out(capsys)
    assert payload["aggregates"]["weighted:weighted"] == pytest.approx(
        payload["aggregates"]["direct_average"])


def test_eval_bpb_has_no_rows_flag(ws, trained_run, capsys):
    # eval scores evaluation.EVAL_ROWS rows per forward; the row count is no knob
    with pytest.raises(SystemExit) as exit_:
        run(["eval-bpb", "--checkpoint", str(trained_run / "checkpoints" / "final.ckpt"),
             "--tokenizer", str(ws / "tok.json"), "--eval", str(ws / "eval.jsonl"),
             "--rows-per-batch", "8"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --rows-per-batch 8" in capsys.readouterr().err


def test_eval_bpb_refuses_a_tokenizer_wider_than_the_checkpoint(ws, trained_run, tmp_path,
                                                               capsys, monkeypatch):
    wide = tmp_path / "tok400.json"
    train_bbpe([d.text for d in build_corpus(seed=41, target_bytes=30_000)], 400,
               specials=("<pad>",)).save(wide)
    encodes = []
    monkeypatch.setattr(TokenizerModel, "encode", lambda *a: encodes.append(a))
    ckpt = trained_run / "checkpoints" / "final.ckpt"
    assert run(["eval-bpb", "--checkpoint", str(ckpt), "--tokenizer", str(wide),
                "--eval", str(ws / "eval.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"tokenizer {wide} has a vocabulary of 400, larger than the 300" in err
    assert f"checkpoint {ckpt}" in err and encodes == []


def test_eval_bpb_mismatched_weights(ws, trained_run, tmp_path):
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({"nonexistent": 1.0}))
    assert run(["eval-bpb", "--checkpoint", str(trained_run / "checkpoints" / "final.ckpt"),
                "--tokenizer", str(ws / "tok.json"),
                "--eval", str(ws / "eval.jsonl"),
                "--weights", str(wpath)]) == 2


def test_eval_bpb_rejects_truncated_checkpoint_by_name(ws, trained_run, tmp_path, capsys):
    good = (trained_run / "checkpoints" / "final.ckpt").read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(good[:len(good) // 2])
    assert run(["eval-bpb", "--checkpoint", str(cut),
                "--tokenizer", str(ws / "tok.json"),
                "--eval", str(ws / "eval.jsonl")]) == 2
    err = capsys.readouterr().err
    assert str(cut) in err and "truncated" in err


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("config"),
    lambda m: m.pop("multipliers"),
    lambda m: m["config"].update(bogus=1),
    lambda m: m["config"].pop("hidden_size"),
    lambda m: m.update(multipliers=[1.0, 1.0]),
    lambda m: m["multipliers"].update(input_mult=-1.0),
    lambda m: m.update(checkpoint_version=99),
    lambda m: m.pop("step"),
    lambda m: m.update(step=-3),
    lambda m: m.update(step="abc"),
    lambda m: m.update(step=True),
], ids=["no-config", "no-multipliers", "unknown-config-field", "missing-config-field",
        "list-multipliers", "negative-multiplier", "unsupported-version", "no-step",
        "negative-step", "string-step", "bool-step"])
def test_eval_bpb_rejects_malformed_checkpoint_meta_by_name(ws, trained_run, tmp_path,
                                                            capsys, edit):
    arrays, meta = dio.load_arrays(trained_run / "checkpoints" / "final.ckpt")
    edit(meta)
    bad = tmp_path / "bad.ckpt"
    dio.save_arrays(bad, arrays, meta)
    assert run(["eval-bpb", "--checkpoint", str(bad), "--tokenizer", str(ws / "tok.json"),
                "--eval", str(ws / "eval.jsonl")]) == 2
    assert str(bad) in capsys.readouterr().err


# -- malformed inputs ----------------------------------------------------------------------------
#
# Every file a command reads, mutated: each required field dropped, an unknown
# field added, each field given wrong types (a bool for a number, NaN among
# them), a non-object top level, and the file truncated.  Each case must exit
# 2 with the file's path on stderr, raise nothing out of main (no traceback)
# and leave no output behind.  Nothing here trains.

WRONG = {str: [7, None], int: [True, 1.5, "3"], float: [True, "0.5", math.nan],
         bool: [1], list: [{}], dict: [[]], type(None): [True]}


def object_mutations(obj):
    """(label, value) pairs: the JSON object ``obj`` as a list, with an
    unknown field, without each field that is not None (those are
    optional), and with each field given each wrong value of WRONG."""
    yield "list", [obj]
    yield "unknown field", {**obj, "bogus": 1}
    for k, v in obj.items():
        if v is not None:
            yield f"no {k}", {x: y for x, y in obj.items() if x != k}
        for bad in WRONG[type(v)]:
            yield f"{k}={bad!r}", {**obj, k: bad}


def json_cases(obj, variants=None):
    """(label, bytes): ``obj`` truncated, then each variant (by default the
    object mutations of ``obj``) as JSON."""
    text = json.dumps(obj)
    yield "truncated", text[:len(text) // 2].encode()
    for label, value in object_mutations(obj) if variants is None else variants:
        yield label, json.dumps(value).encode()


def dlm_bytes(tmp_path, arrays, meta):
    dio.save_arrays(tmp_path / "scratch.dlm", arrays, meta)
    return (tmp_path / "scratch.dlm").read_bytes()


def not_rejected(capsys, argv, path, out, cases):
    """{label: what happened} for each (label, bytes) of ``cases`` that,
    written to ``path``, ``argv`` fails to reject by name."""
    failed = {}
    for label, content in cases:
        path.write_bytes(content)
        capsys.readouterr()
        try:
            code = run(argv)
        except Exception as e:      # reported, not raised, so one run lists every case
            failed[label] = f"raised {e!r}"[:160]
            continue
        err = capsys.readouterr().err
        if code != 2 or str(path) not in err or "Traceback" in err or out.exists():
            failed[label] = f"exit {code}, out {out.exists()}: {err.strip()[:120]}"
            if out.is_dir():
                shutil.rmtree(out)
            else:
                out.unlink(missing_ok=True)
    return failed


def train_argv(ws, tmp_path, **files):
    paths = {"config": ws / "config.json", "hyperparams": ws / "hp.json",
             "data": ws / "packed.dlm", **files}
    return ["train", "--steps", "1", "--out", str(tmp_path / "run")] + [
        a for k, v in paths.items() for a in (f"--{k}", str(v))]


def test_malformed_model_config_is_rejected_by_name(ws, tmp_path, capsys):
    path = tmp_path / "config.json"
    config = json.loads((ws / "config.json").read_text())
    assert not_rejected(capsys, train_argv(ws, tmp_path, config=path), path,
                        tmp_path / "run", json_cases(config)) == {}


def test_malformed_hyperparams_are_rejected_by_name(ws, tmp_path, capsys):
    path = tmp_path / "hp.json"
    hp = json.loads((ws / "hp.json").read_text())
    assert not_rejected(capsys, train_argv(ws, tmp_path, hyperparams=path), path,
                        tmp_path / "run", json_cases(hp)) == {}


def test_malformed_grid_is_rejected_by_name(ws, tmp_path, capsys):
    path, out = tmp_path / "grid.json", tmp_path / "run"
    hp = json.loads((ws / "hp.json").read_text())
    variants = [("object", hp), ("empty", [])] + [
        (f"candidate 1: {label}", [hp, v]) for label, v in object_mutations(hp)]
    argv = ["grid-search", "--config", str(ws / "config.json"), "--grid", str(path),
            "--data", str(ws / "packed.dlm"), "--steps", "1", "--out", str(out)]
    assert not_rejected(capsys, argv, path, out, json_cases([hp, hp], variants)) == {}


def test_malformed_manifest_is_rejected_by_name(ws, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    manifest = reference_manifest().to_dict()
    domains = manifest["domains"]
    variants = list(object_mutations(manifest)) + [
        (f"domain 0: {label}", {**manifest, "domains": [v] + domains[1:]})
        for label, v in object_mutations(domains[0])]
    assert not_rejected(capsys, ["corpus-plan", "--manifest", str(path)], path,
                        tmp_path / "none", json_cases(manifest, variants)) == {}


@pytest.fixture(scope="module")
def untrained_ckpt(ws, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "init.ckpt"
    config = ModelConfig(**json.loads((ws / "config.json").read_text()))
    Model.build(config, toy_hyperparams(), RngState(0)).save(path)
    return path


def test_malformed_weights_are_rejected_by_name(ws, untrained_ckpt, tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "w.json"
    flat = {s: 1 / len(STYLES) for s in STYLES}
    tok_stats = ["tok-stats", "--tokenizer", str(ws / "tok.json"),
                 "--corpus", str(ws / "corpus.jsonl"), "--weights", str(path)]
    eval_bpb = ["eval-bpb", "--checkpoint", str(untrained_ckpt), "--tokenizer",
                str(ws / "tok.json"), "--eval", str(ws / "eval.jsonl"),
                "--weights", str(path), "--out", str(tmp_path / "report.json")]
    # the weight rule: exactly the documents' domains, none negative, summing to 1
    ruled = [("sum 0.6", dict.fromkeys(STYLES, 0.1)),
             ("a negative weight", {**flat, STYLES[0]: -0.5, STYLES[1]: 2 / len(STYLES) + 0.5}),
             (f"no {STYLES[0]}", {s: 1 / (len(STYLES) - 1) for s in STYLES[1:]})]
    flat_variants = list(object_mutations(flat)) + ruled
    nested = [(f"profile p: {label}", {"p": v}) for label, v in flat_variants] + [
        (f"profile p of 2: {label}", {"ok": flat, "p": v}) for label, v in ruled]

    def evaluated(*args, **kwargs):
        raise AssertionError("a rejected weights file was evaluated")

    # a rejected file tokenizes and evaluates nothing
    monkeypatch.setattr(TokenizerModel, "encode", evaluated)
    monkeypatch.setattr(eval_mod, "domain_loss", evaluated)
    assert not_rejected(capsys, tok_stats, path, tmp_path / "none",
                        json_cases(flat, flat_variants + nested)) == {}
    assert not_rejected(capsys, eval_bpb, path, tmp_path / "report.json",
                        json_cases(flat, flat_variants + nested)) == {}


def test_malformed_tokenizer_is_rejected_by_name(ws, tmp_path, capsys):
    path, out = tmp_path / "tok.json", tmp_path / "packed.dlm"
    tok = json.loads((ws / "tok.json").read_text())
    vocab = TokenizerModel.load(ws / "tok.json").vocab
    version_1 = {**tok, "version": 1, "specials": {"<pad>": 256},
                 "vocab": {str(i): b.hex() for i, b in enumerate(vocab)}}
    variants = list(object_mutations(tok)) + [
        ("a v1 file with its vocab", version_1),
        ("merge 0 of a later id", {**tok, "merges": [[97, 400]] + tok["merges"][1:]}),
        ("merge 0 a triple", {**tok, "merges": [[97, 98, 99]] + tok["merges"][1:]}),
        ("merge 0 of strings", {**tok, "merges": [["a", "b"]] + tok["merges"][1:]}),
        ("merge 1 repeating merge 0", {**tok, "merges": tok["merges"][:1] * 2 + tok["merges"][2:]})]
    argv = ["corpus-pack", "--corpus", str(ws / "corpus.jsonl"), "--tokenizer", str(path),
            "--context-length", "16", "--out", str(out)]
    assert not_rejected(capsys, argv, path, out, json_cases(tok, variants)) == {}


def test_malformed_corpus_line_is_rejected_by_name(ws, tmp_path, capsys):
    path, out = tmp_path / "corpus.jsonl", tmp_path / "clean.jsonl"
    lines = (ws / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    doc = json.loads(lines[1])
    cases = [("truncated", "\n".join(lines).encode()[:len("\n".join(lines)) // 2]),
             ("line 2 not JSON", f"{lines[0]}\nnot json\n".encode())] + [
        (f"line 2: {label}", f"{lines[0]}\n{json.dumps(v)}\n{lines[2]}\n".encode())
        for label, v in object_mutations(doc)]
    argv = ["corpus-dedup", "--corpus", str(path), "--out", str(out)]
    assert not_rejected(capsys, argv, path, out, cases) == {}


def test_malformed_packed_file_is_rejected_by_name(ws, tmp_path, capsys):
    path = tmp_path / "packed.dlm"
    tokens, segments, meta = load_packed(ws / "packed.dlm")
    good = (ws / "packed.dlm").read_bytes()
    variants = {
        "no tokens": {"segments": segments},
        "no segments": {"tokens": tokens},
        "an extra array": {"tokens": tokens, "segments": segments, "extra": tokens},
        "1-D arrays": {"tokens": tokens.ravel(), "segments": segments.ravel()},
        "float64 tokens": {"tokens": tokens.astype(np.float64), "segments": segments},
        "segments of another shape": {"tokens": tokens, "segments": segments[:-1]},
    }
    vocab_size = json.loads((ws / "config.json").read_text())["vocab_size"]
    for label, bad_id in [("id vocab_size", vocab_size), ("id -1", -1)]:
        bad = tokens.copy()
        bad[:, 3] = bad_id                  # in every row
        variants[f"{label} in every row"] = {"tokens": bad, "segments": segments}
    n = int.from_bytes(good[4:12], "little")
    header = json.loads(good[12:12 + n])
    header["arrays"][0]["nbytes"] = float(header["arrays"][0]["nbytes"])
    float_nbytes = json.dumps(header).encode()
    cases = [("truncated", good[:len(good) // 2]),
             ("float nbytes", good[:4] + len(float_nbytes).to_bytes(8, "little") + float_nbytes
              + good[12 + n:]),
             ("kind checkpoint", dlm_bytes(tmp_path, {"tokens": tokens, "segments": segments},
                                           {**meta, "kind": "checkpoint"}))] + [
        (label, dlm_bytes(tmp_path, arrays, meta)) for label, arrays in variants.items()]
    assert not_rejected(capsys, train_argv(ws, tmp_path, data=path), path,
                        tmp_path / "run", cases) == {}


def test_malformed_checkpoint_is_rejected_by_name(ws, untrained_ckpt, tmp_path, capsys):
    path, out = tmp_path / "bad.ckpt", tmp_path / "report.json"
    arrays, meta = dio.load_arrays(untrained_ckpt)
    good = untrained_ckpt.read_bytes()
    variants = [(f"no {k}", {n: a for n, a in arrays.items() if n != k}) for k in arrays] + [
        ("an extra array", {**arrays, "extra": arrays["lm_head"]}),
        ("lm_head transposed", {**arrays, "lm_head": arrays["lm_head"].T.copy()}),
        ("int32 embedding", {**arrays, "embedding": arrays["embedding"].astype(np.int32)})]
    metas = [(f"config: {label}", {**meta, "config": v})
             for label, v in object_mutations(meta["config"])] + [
        (f"multipliers: {label}", {**meta, "multipliers": v})
        for label, v in object_mutations(meta["multipliers"])] + [
        (f"no {k}", {m: v for m, v in meta.items() if m != k}) for k in ("config", "multipliers")]
    cases = [("truncated", good[:len(good) // 2])] + [
        (label, dlm_bytes(tmp_path, a, meta)) for label, a in variants] + [
        (label, dlm_bytes(tmp_path, arrays, m)) for label, m in metas]
    argv = ["eval-bpb", "--checkpoint", str(path), "--tokenizer", str(ws / "tok.json"),
            "--eval", str(ws / "eval.jsonl"), "--out", str(out)]
    assert not_rejected(capsys, argv, path, out, cases) == {}


# -- parser ------------------------------------------------------------------------------------

def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as ei:
        cli.main(["--version"])
    assert ei.value.code == 0


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as ei:
        cli.main(["no-such-command"])
    assert ei.value.code == 2


def test_missing_required_argument_exits_two():
    with pytest.raises(SystemExit) as ei:
        cli.main(["tok-train", "--vocab-size", "300"])
    assert ei.value.code == 2
