"""Bits-per-byte evaluation: arithmetic, aggregates, reports."""
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from desklm.errors import ConfigError
from desklm.evaluation import (BpbReport, append_bpb_curve, bpb, build_report,
                               direct_average, domain_loss, load_eval_set,
                               weighted_sum)
from desklm.model import Model
from desklm.presets import toy_config, toy_hyperparams
from desklm.synth import build_corpus
from desklm.tensor import RngState
from desklm.tokenizer import train_bbpe

DATA = Path(__file__).parent / "data"


def reference_tables() -> dict:
    with open(DATA / "bpb_reference.json") as f:
        return json.load(f)


def recompute(kind: str, values, table: dict):
    if kind == "direct_average":
        return direct_average(values)
    profile = kind.split(":", 1)[1]
    return weighted_sum(values, table["weight_profiles"][profile])


# -- published aggregates -------------------------------------------------------

def bpb_cases():
    tables = reference_tables()
    for lang, table in tables.items():
        if lang == "comment":
            continue
        for model_name, block in table["models"].items():
            for kind, want in block["expected"]["bpb"].items():
                yield lang, model_name, kind, block["bpb"], table, want


@pytest.mark.parametrize("lang,model_name,kind,values,table,want",
                         list(bpb_cases()),
                         ids=[f"{l}-{m}-{k}" for l, m, k, *_ in bpb_cases()])
def test_published_bpb_aggregates_reproduce(lang, model_name, kind, values, table, want):
    got = recompute(kind, values, table)
    assert abs(got - want) <= 5e-4, f"{got:.6f} vs published {want}"


def test_published_loss_aggregates_reproduce():
    # the loss rows are published at 3 decimals from unrounded inputs, so one
    # aggregate lands 5.5e-4 off its table figure; allow 1e-3 here
    tables = reference_tables()
    for lang, table in tables.items():
        if lang == "comment":
            continue
        for model_name, block in table["models"].items():
            for kind, want in block["expected"]["loss"].items():
                got = recompute(kind, block["loss"], table)
                assert abs(got - want) <= 1e-3, (lang, model_name, kind, got)


def test_weight_profiles_sum_to_one():
    tables = reference_tables()
    for lang, table in tables.items():
        if lang == "comment":
            continue
        for name, weights in table["weight_profiles"].items():
            assert abs(sum(weights) - 1.0) <= 1e-9, (lang, name)
            assert len(weights) == len(table["domains"])


# -- bpb arithmetic ------------------------------------------------------------------

def test_bpb_anchor_value():
    # loss 1.598 nats at 0.2438 tokens/byte is 0.562 bits/byte
    got = bpb(1.598, token_count=2438, byte_count=10000)
    assert got == pytest.approx(1.598 * 0.2438 / math.log(2), rel=1e-15)
    assert round(got, 3) == 0.562


def test_bpb_scales_linearly_with_compression():
    assert bpb(1.0, 500, 1000) == pytest.approx(bpb(1.0, 1000, 1000) / 2)


def test_bpb_validation():
    with pytest.raises(ConfigError):
        bpb(1.0, 0, 100)
    with pytest.raises(ConfigError):
        bpb(1.0, 100, 0)
    with pytest.raises(ConfigError):
        bpb(-0.1, 100, 100)


def test_weighted_sum_validation():
    assert weighted_sum([2.0, 4.0], [0.25, 0.75]) == 3.5
    with pytest.raises(ConfigError):
        weighted_sum([1.0], [0.5, 0.5])
    with pytest.raises(ConfigError):
        weighted_sum([1.0, 2.0], [0.6, 0.6])


def test_direct_average():
    assert direct_average([1.0, 2.0, 6.0]) == 3.0
    with pytest.raises(ConfigError):
        direct_average([])


# -- model-in-the-loop evaluation ------------------------------------------------------

@pytest.fixture(scope="module")
def eval_env():
    docs = [d.text for d in build_corpus(seed=17, target_bytes=12_000)]
    tok = train_bbpe(docs, 280, specials=("<pad>",))
    config = toy_config(32, layer_num=1, vocab_size=tok.vocab_size,
                        context_length=16)
    hp = toy_hyperparams(steps=10, batch_tokens=32, warmup_steps=2)
    model = Model.build(config, hp, RngState(4))
    return model, tok


def test_domain_loss_batch_size_invariant(eval_env):
    model, tok = eval_env
    docs = [d.text for d in build_corpus(seed=23, target_bytes=1_500)]
    es = load_eval_set("mix", docs, tok)
    a = domain_loss(model, tok, es, rows_per_batch=1)
    b = domain_loss(model, tok, es, rows_per_batch=7)
    c = domain_loss(model, tok, es, rows_per_batch=64)
    assert a == pytest.approx(b, rel=1e-12)
    assert a == pytest.approx(c, rel=1e-12)


def test_domain_loss_single_doc_equals_model_loss(eval_env):
    model, tok = eval_env
    from desklm.corpus import pack
    text = "one short document"
    es = load_eval_set("solo", [text], tok)
    tokens, segments = pack([tok.encode(text)], 16, pad_id=tok.specials["<pad>"])
    direct = model.loss(tokens, segments).item()
    assert domain_loss(model, tok, es, pad_id=tok.specials["<pad>"]) == pytest.approx(
        direct, rel=1e-15)


def test_zero_output_mult_gives_uniform_loss(eval_env):
    _, tok = eval_env
    from dataclasses import replace
    config = toy_config(32, layer_num=1, vocab_size=tok.vocab_size,
                        context_length=16)
    hp = replace(toy_hyperparams(steps=10, batch_tokens=32, warmup_steps=2),
                 output_mult=0.0)
    model = Model.build(config, hp, RngState(4))
    es = load_eval_set("u", ["uniform logits everywhere"], tok)
    assert domain_loss(model, tok, es) == pytest.approx(
        math.log(tok.vocab_size), rel=1e-14)


def test_domain_loss_requires_predictable_positions(eval_env):
    model, tok = eval_env
    es = load_eval_set("one-token", ["a"], tok)
    with pytest.raises(ConfigError):
        domain_loss(model, tok, es)
    es = load_eval_set("two-docs", ["first document", "second one"], tok)
    for rows in (0, -1):
        with pytest.raises(ConfigError, match="rows_per_batch"):
            domain_loss(model, tok, es, rows_per_batch=rows)


def test_load_eval_set_counts(eval_env):
    _, tok = eval_env
    es = load_eval_set("d", ["ab cd", "ef"], tok)
    assert es.byte_count == 7
    assert es.token_count == len(tok.encode("ab cd")) + len(tok.encode("ef"))
    with pytest.raises(ConfigError):
        load_eval_set("empty", [], tok)
    with pytest.raises(ConfigError):
        load_eval_set("no-bytes", [""], tok)


def test_build_report_rows_and_aggregates(eval_env):
    model, tok = eval_env
    sets = [load_eval_set("alpha", ["first domain text here"], tok),
            load_eval_set("beta", ["second domain goes here"], tok)]
    profiles = {"main": {"alpha": 0.6, "beta": 0.4}}
    report = build_report(model, tok, sets, weight_profiles=profiles)
    assert [r["domain"] for r in report.rows] == ["alpha", "beta"]
    for r in report.rows:
        assert r["bpb"] == pytest.approx(
            bpb(r["loss_nats"], r["token_count"], r["byte_count"]), rel=1e-15)
    bpbs = [r["bpb"] for r in report.rows]
    assert report.aggregates["direct_average"] == pytest.approx(np.mean(bpbs))
    assert report.aggregates["weighted:main"] == pytest.approx(
        0.6 * bpbs[0] + 0.4 * bpbs[1])


def test_build_report_rejects_mismatched_profile(eval_env):
    model, tok = eval_env
    sets = [load_eval_set("alpha", ["some text"], tok)]
    with pytest.raises(ConfigError):
        build_report(model, tok, sets, weight_profiles={"p": {"other": 1.0}})


def test_report_persistence(tmp_path):
    report = BpbReport(
        rows=[{"domain": "d", "loss_nats": 1.23456789012345, "token_count": 10,
               "byte_count": 20, "bpb": 0.890123456789}],
        aggregates={"direct_average": 0.890123456789},
        weight_profiles={})
    jpath = tmp_path / "report.json"
    report.save_json(jpath)
    assert json.loads(jpath.read_text()) == report.to_dict()
    cpath = tmp_path / "report.csv"
    report.save_csv(cpath)
    with open(cpath, newline="") as f:
        rows = list(csv.DictReader(f))
    assert float(rows[0]["loss_nats"]) == 1.23456789012345
    assert float(rows[0]["bpb"]) == 0.890123456789


def test_append_bpb_curve(tmp_path):
    path = tmp_path / "curve.csv"
    rows = [{"domain": "a", "bpb": 0.5}, {"domain": "b", "bpb": 0.75}]
    append_bpb_curve(path, 1000, rows)
    append_bpb_curve(path, 2000, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "tokens_seen,domain,bpb"
    assert len(lines) == 5
    assert lines[3].startswith("2000,a,")
