"""End-to-end CLI: every subcommand, exit codes, run-directory layout."""
import json
import math

import numpy as np
import pytest

from desklm import cli
from desklm import io as dio
from desklm import trainer as trainer_mod
from desklm.corpus import (Document, load_packed, pack, save_packed,
                           write_jsonl)
from desklm.model import Model
from desklm.mup import hyperparams_to_dict
from desklm.presets import (reference_manifest, toy_config, toy_hyperparams)
from desklm.synth import STYLES, build_corpus
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


def test_corpus_plan_reference_quotas(ws, capsys):
    code = run(["corpus-plan", "--manifest", str(ws / "manifest.json"), "--json"])
    assert code == 0
    payload = json_out(capsys)
    quotas = {row["name"]: row["quota"] for row in payload["plan"]}
    assert quotas["WebText"] == 1_504_000_000_000
    assert payload["total_tokens"] == 2_000_000_000_000


def test_corpus_plan_infeasible_is_usage_error(ws, tmp_path, capsys):
    manifest = reference_manifest(tokens_per_byte=1.0).to_dict()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code = run(["corpus-plan", "--manifest", str(path)])
    assert code == 2
    assert "Profession-Math" in capsys.readouterr().err


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


def test_train_context_mismatch_is_usage_error(ws, tmp_path):
    tok = TokenizerModel.load(ws / "tok.json")
    tokens, segments = pack([tok.encode("some text here")], 8, 256)
    bad = tmp_path / "ctx8.dlm"
    save_packed(bad, tokens, segments)
    assert run(["train", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp.json"), "--data", str(bad),
                "--steps", "2", "--out", str(tmp_path / "r")]) == 2


def test_train_exit_codes_for_bad_outcomes(ws, tmp_path, monkeypatch):
    def fake_train(*a, **k):
        return TrainResult(log=[], events=[], status="abort_recommended")
    monkeypatch.setattr(trainer_mod, "train", fake_train)
    assert run(["train", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp.json"),
                "--data", str(ws / "packed.dlm"),
                "--steps", "2", "--out", str(tmp_path / "a")]) == 3

    def fake_diverged(*a, **k):
        return TrainResult(log=[], events=[], status="diverged")
    monkeypatch.setattr(trainer_mod, "train", fake_diverged)
    assert run(["train", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp.json"),
                "--data", str(ws / "packed.dlm"),
                "--steps", "2", "--out", str(tmp_path / "b")]) == 1


def test_train_rejects_bad_rows_per_batch(ws, tmp_path):
    assert run(["train", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp.json"),
                "--data", str(ws / "packed.dlm"), "--steps", "2",
                "--rows-per-batch", "0", "--out", str(tmp_path / "r")]) == 2
    assert run(["coord-check", "--config", str(ws / "config.json"),
                "--hyperparams", str(ws / "hp.json"), "--widths", "32",
                "--steps", "1", "--data", str(ws / "packed.dlm"),
                "--rows-per-batch", "0"]) == 2


# -- grid search --------------------------------------------------------------------------

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


def test_grid_search_rejects_empty_grid(ws, tmp_path):
    grid_path = tmp_path / "empty.json"
    grid_path.write_text("[]")
    assert run(["grid-search", "--config", str(ws / "config.json"),
                "--grid", str(grid_path), "--data", str(ws / "packed.dlm"),
                "--steps", "2", "--out", str(tmp_path / "g")]) == 2


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
                "--rows-per-batch", "2", "--rms-ratio-limit", "0.5"])
    assert code == 1
    assert "NOT stable" in capsys.readouterr().out


def test_coord_check_rejects_empty_widths(ws, tmp_path):
    cfg = coord_config(ws, tmp_path)
    assert run(["coord-check", "--config", str(cfg),
                "--hyperparams", str(ws / "hp.json"), "--widths", " , ",
                "--steps", "2", "--data", str(ws / "packed.dlm")]) == 2


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


def test_eval_bpb_mismatched_weights(ws, trained_run, tmp_path):
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({"nonexistent": 1.0}))
    assert run(["eval-bpb", "--checkpoint", str(trained_run / "checkpoints" / "final.ckpt"),
                "--tokenizer", str(ws / "tok.json"),
                "--eval", str(ws / "eval.jsonl"),
                "--weights", str(wpath)]) == 2


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
