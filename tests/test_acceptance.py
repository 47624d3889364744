"""Ten end-to-end acceptance gates, each at its stated tolerance.

Sections in order: (1) parameter accounting, (2) published bits-per-byte
aggregates, (3) exact hyperparameter transfer, (4) wider-is-better loss
ordering, (5) activation-scale stability plus its negative control,
(6) finite-difference gradient checks, (7) tokenizer losslessness and
training fidelity, (8) schedule arithmetic, (9) near-duplicate detection,
(10) desk-scale substitutes for the published full-scale results.

The expensive artifacts — the 5MB seeded corpus, its vocab-512 tokenizer,
the packed rows, and the three-width training sweeps — are built once per
module and shared; criteria 4 and 5 read the same sweep.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from desklm import tensor as T
from desklm.corpus import (Document, dedup, estimate_jaccard, pack,
                           sequences_per_step, signature_from_hashes)
from desklm.evaluation import direct_average, weighted_sum
from desklm.model import (HyperParams, Model, ModelConfig, ParamClass, attention_bias,
                          count_params)
from desklm.mup import WidthPair, coordinate_check, transfer
from desklm.presets import (config_52b, config_mup_512, hyperparams_52b,
                            hyperparams_mup_512, toy_config, toy_hyperparams)
from desklm.synth import build_corpus, make_document, mutate_words
from desklm.tensor import RngState
from desklm.tokenizer import compression_ratio, train_bbpe
from desklm.trainer import Schedule, batch_iterator, detect_spike, lr_at, smoothed, train
from oracles import exact_jaccard, finite_diff_grad, reference_bbpe, rel_error

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"

CORPUS_SEED = 2026
WIDTHS = [64, 128, 256]
SWEEP_STEPS = 500
SWEEP_SEED = 11


# -- shared artifacts ---------------------------------------------------------

@pytest.fixture(scope="module")
def corpus5mb():
    return build_corpus(seed=CORPUS_SEED, target_bytes=5_000_000)


@pytest.fixture(scope="module")
def tok512(corpus5mb):
    texts, total = [], 0
    for d in corpus5mb:
        texts.append(d.text)
        total += len(d.text.encode("utf-8"))
        if total >= 1_000_000:
            break
    return train_bbpe(texts, 512, specials=("<pad>",))


@pytest.fixture(scope="module")
def packed5mb(corpus5mb, tok512):
    encoded = [tok512.encode(d.text) for d in corpus5mb]
    tokens, segments = pack(encoded, 128, tok512.specials["<pad>"])
    return tokens, segments, sum(len(e) for e in encoded)


@pytest.fixture(scope="module")
def width_sweep(packed5mb):
    tokens, segments, _ = packed5mb
    return coordinate_check(toy_config(), toy_hyperparams(), WIDTHS,
                            SWEEP_STEPS, (tokens, segments), SWEEP_SEED,
                            rows_per_batch=4)


@pytest.fixture(scope="module")
def broken_sweep(packed5mb):
    tokens, segments, _ = packed5mb
    return coordinate_check(toy_config(), toy_hyperparams(), WIDTHS,
                            SWEEP_STEPS, (tokens, segments), SWEEP_SEED,
                            rows_per_batch=4, break_transfer=True)


def final_smoothed_loss(sweep, width, window=50):
    series = [v for w, s, m, v in sweep.rows if w == width and m == "loss"]
    return smoothed(series, window)[-1]


def test_shared_corpus_is_the_frozen_one(corpus5mb, tok512, packed5mb):
    assert len(corpus5mb) == 4256
    assert sum(len(d.text.encode("utf-8")) for d in corpus5mb) == 5_000_412
    assert tok512.vocab_size == 512
    assert tok512.specials == {"<pad>": 256}
    tokens, segments, total = packed5mb
    assert total == 2_833_324
    assert tokens.shape == (22_136, 128)
    assert segments.shape == tokens.shape


# -- 1: parameter accounting matches the published sizes ----------------------

def test_flagship_parameter_count():
    n = count_params(config_52b())
    assert abs(n - 52_850e6) / 52_850e6 < 0.005


def test_search_proxy_parameter_count():
    n = count_params(config_mup_512())
    assert abs(n - 283e6) / 283e6 < 0.02


# -- 2: every published bits-per-byte aggregate reproduces to 3 decimals ------

def _bpb_aggregate_cases():
    with open(DATA / "bpb_reference.json") as f:
        tables = json.load(f)
    for lang, table in tables.items():
        if lang == "comment":
            continue
        for model_name, block in table["models"].items():
            for kind, want in block["expected"]["bpb"].items():
                yield lang, model_name, kind, block["bpb"], table, want


@pytest.mark.parametrize("lang,model_name,kind,values,table,want",
                         list(_bpb_aggregate_cases()),
                         ids=[f"{l}-{m}-{k}" for l, m, k, *_ in _bpb_aggregate_cases()])
def test_published_bpb_aggregates_to_three_decimals(lang, model_name, kind,
                                                    values, table, want):
    if kind == "direct_average":
        got = direct_average(values)
    else:
        profile = kind.split(":", 1)[1]
        got = weighted_sum(values, table["weight_profiles"][profile])
    assert round(got, 3) == want


# -- 3: width transfer is exact and compositional -----------------------------

def test_transfer_published_anchors_exactly():
    out = transfer(hyperparams_mup_512(), WidthPair(512, 8192))
    assert out.output_mult == 3.125e-2      # 0.5  / 16
    assert out.matrix_lr == 1.5e-4          # 2.4e-3 / 16
    assert out == hyperparams_52b()


def test_transfer_is_identity_at_ratio_one():
    hp = hyperparams_mup_512()
    assert transfer(hp, WidthPair(512, 512)) == hp


def test_transfer_composes_across_intermediate_widths():
    hp = toy_hyperparams()
    direct = transfer(hp, WidthPair(64, 1024))
    chained = transfer(transfer(hp, WidthPair(64, 256)), WidthPair(256, 1024))
    assert direct == chained


# -- 4: wider models reach lower loss under transferred hyperparameters -------

def test_loss_ordering_across_widths(width_sweep):
    assert not any(width_sweep.diverged.values())
    finals = {w: final_smoothed_loss(width_sweep, w) for w in WIDTHS}
    for narrow, wide in zip(WIDTHS, WIDTHS[1:]):
        assert finals[wide] <= finals[narrow] * 1.02, finals


# -- 5: activation scales stay flat across widths; the control blows up -------

def test_pre_logit_rms_stable_under_transfer(width_sweep):
    peaks = width_sweep.max_rms
    assert max(peaks.values()) / min(peaks.values()) < 3.0, peaks


def test_broken_transfer_control_exceeds_limit(broken_sweep):
    peaks = broken_sweep.max_rms
    assert max(peaks.values()) / min(peaks.values()) > 3.0, peaks


# -- 6: every differentiable op and a full model pass finite differences ------

_CONST = np.linspace(-1.0, 1.0, 9).reshape(3, 3)
_IDS = np.array([[0, 3, 3], [6, 0, 1]])
_POS = np.arange(5)
_CE_TARGETS = np.array([0, 3, 6, 1, 1])
_CE_MASK = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
# Two segments in each row, and a pad position that attends only to itself.
_ATTN_BIAS = attention_bias(np.array([[1, 1, 2, 2, 0], [1, 2, 2, 2, 2]]))

OP_CASES = [
    ("add", [(4, 5), (4, 5)], lambda a, b: T.add(a, b)),
    ("mul", [(3, 4), (3, 4)], lambda a, b: T.mul(a, b)),
    ("scale", [(6,)], lambda a: T.scale(a, -2.5)),
    ("add_const", [(3, 3)], lambda a: T.add_const(a, _CONST)),
    ("matmul", [(4, 6), (6, 3)], lambda a, b: T.matmul(a, b)),
    ("bmm", [(2, 3, 4, 5), (2, 3, 5, 2)], lambda a, b: T.bmm(a, b)),
    ("reshape", [(4, 6)], lambda a: T.reshape(a, (2, 3, 4))),
    ("transpose", [(2, 3, 4)], lambda a: T.transpose(a, (2, 0, 1))),
    ("embedding", [(7, 4)], lambda w: T.embedding(w, _IDS)),
    ("swish", [(4, 4)], lambda a: T.swish(a)),
    ("rms_norm", [(3, 8), (8,)], lambda x, g: T.rms_norm(x, g)),
    ("layer_norm", [(4, 6), (6,), (6,)], lambda x, g, b: T.layer_norm(x, g, b)),
    ("rope_rotate", [(2, 2, 5, 8)], lambda x: T.rope_rotate(x, _POS)),
    ("softmax_last", [(3, 6)], lambda a: T.softmax_last(a)),
    ("causal_attention", [(2, 2, 5, 4)] * 3,
     lambda q, k, v: T.causal_attention(q, k, v, _ATTN_BIAS, 0.25)),
    ("cross_entropy", [(5, 7)], lambda lg: T.softmax_cross_entropy(lg, _CE_TARGETS)),
    ("cross_entropy_masked", [(5, 7)],
     lambda lg: T.softmax_cross_entropy(lg, _CE_TARGETS, _CE_MASK)),
    ("swiglu_ffn", [(3, 6), (6, 10), (6, 10), (10, 6)],
     lambda x, wg, wu, wd: T.swiglu_ffn(x, wg, wu, wd)),
    ("sum_all", [(3, 5)], lambda a: T.sum_all(a)),
    ("mean_all", [(3, 5)], lambda a: T.mean_all(a)),
]


@pytest.mark.parametrize("name,shapes,op", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradient_matches_finite_difference(name, shapes, op):
    rng = np.random.default_rng(7)
    leaves = [T.Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    w = rng.standard_normal(op(*leaves).shape)

    def loss():
        return T.sum_all(T.mul(op(*leaves), T.Tensor(w)))

    loss().backward()
    for t in leaves:
        num = finite_diff_grad(lambda: loss().item(), t, h=1e-5)
        assert rel_error(t.grad, num) < 1e-5, name


def test_full_model_gradient_check():
    cfg = ModelConfig(layer_num=2, attention_heads=2, hidden_size=16,
                      ffn_hidden_size=40, vocab_size=32,
                      context_length=16)
    assert count_params(cfg) <= 10_000
    hp = HyperParams(vector_lr=3e-3, matrix_lr=1.2e-2, min_lr=1.2e-3,
                     vector_std=2e-2, matrix_std=8e-2,
                     input_mult=1.0, output_mult=1.0,
                     schedule_tokens=100_000, warmup_steps=2,
                     batch_tokens=64)
    model = Model.build(cfg, hp, RngState(3))
    rng = RngState(5)
    toks = rng.integers(0, 32, size=(2, 16)).astype(np.int32)
    seg = np.ones_like(toks)
    seg[1, 12:] = 0

    def loss_value():
        return model.loss(toks, seg).item()

    model.loss(toks, seg).backward()
    for name, p in model.params.items():
        num = finite_diff_grad(loss_value, p, h=1e-5)
        assert rel_error(p.grad, num) < 1e-5, name


# -- 7: tokenizer losslessness, merge-free baseline, training fidelity --------

def test_round_trip_ten_thousand_random_byte_strings(tok512):
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(10_000 - 3):
        n = int(rng.integers(0, 64))
        data = bytes(rng.integers(0, 256, size=n, dtype=np.uint8).tobytes())
        assert tok512.decode(tok512.encode(data)) == data
        checked += 1
    for data in (b"\xc3(", b"\xed\xa0\x80", bytes(range(256))):
        assert tok512.decode(tok512.encode(data)) == data   # invalid UTF-8 too
        checked += 1
    assert checked == 10_000


def test_merge_free_tokenizer_ratio_is_exactly_one():
    texts = [d.text for d in build_corpus(seed=3, target_bytes=20_000)]
    byte_model = train_bbpe(texts, 256)
    assert byte_model.merges == []
    assert compression_ratio(byte_model, texts) == 1.0


def test_training_matches_quadratic_oracle_on_fixture(tok512):
    texts = [d.text for d in build_corpus(1234, 1_000_000)]
    assert sum(len(t.encode("utf-8")) for t in texts) == 1_000_437
    model = train_bbpe(texts, 512, specials=("<pad>",))
    ref_merges, ref_vocab = reference_bbpe(texts, 512, specials=("<pad>",))
    assert model.merges == ref_merges
    assert model.vocab == ref_vocab


# -- 8: schedule arithmetic at machine precision -------------------------------

def test_learning_rate_anchors():
    sched = Schedule.from_hyperparams(hyperparams_52b())
    warmup_tokens = 2_000 * 5_505_024
    assert lr_at(sched, ParamClass.MATRIX, warmup_tokens) == 1.5e-4
    assert lr_at(sched, ParamClass.VECTOR, warmup_tokens) == 1.5e-4
    assert lr_at(sched, ParamClass.MATRIX, 2_500_000_000_000) == 1.5e-5
    assert lr_at(sched, ParamClass.MATRIX, 9_999_999_999_999) == 1.5e-5


def test_published_batch_is_1344_sequences():
    assert sequences_per_step(5_505_024, 4_096) == 1_344


# -- 9: near-duplicate detection ------------------------------------------------

def _random_set_pair(rng):
    n = int(rng.integers(50, 400))
    ov = int(rng.integers(0, n + 1))
    pool = rng.integers(0, 2 ** 63, size=2 * n - ov, dtype=np.uint64)
    pool = np.unique(pool)
    while pool.size < 2 * n - ov:
        extra = rng.integers(0, 2 ** 63, size=8, dtype=np.uint64)
        pool = np.unique(np.concatenate([pool, extra]))
    pool = pool[:2 * n - ov]
    return pool[:n], pool[n - ov:]


def test_minhash_tracks_exact_jaccard_on_100_pairs():
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(100):
        a, b = _random_set_pair(rng)
        sa = signature_from_hashes(a, 128, 9)
        sb = signature_from_hashes(b, 128, 9)
        exact = exact_jaccard(set(a.tolist()), set(b.tolist()))
        if abs(estimate_jaccard(sa, sb) - exact) <= 0.1:
            hits += 1
    assert hits >= 95, hits


def test_dedup_removes_planted_duplicates_and_is_idempotent():
    docs = build_corpus(seed=8, target_bytes=40_000)
    near = mutate_words(RngState(3), docs[0].text, 0.05)
    planted = docs + [
        Document(id="exact-copy", domain=docs[6].domain, text=docs[6].text),
        Document(id="near-copy", domain=docs[0].domain, text=near),
    ]
    kept, removals = dedup(planted, threshold=0.5)
    assert sorted(r.dropped_id for r in removals) == ["exact-copy", "near-copy"]
    assert [d.id for d in kept] == [d.id for d in docs]
    again, removals2 = dedup(kept, threshold=0.5)
    assert removals2 == []
    assert [d.id for d in again] == [d.id for d in kept]


# -- 10: desk-scale substitutes for the full-scale results ---------------------

def test_readme_states_what_is_out_of_reach():
    text = (ROOT / "README.md").read_text().lower()
    for phrase in ("two-trillion-token production run",
                   "absolute per-domain losses",
                   "80,000-entry production vocabulary",
                   "downstream benchmark scores"):
        assert phrase in text, phrase
    assert "memorization" in text and "stationary" in text


def test_single_document_memorization(tok512):
    doc = make_document(RngState(5), "english", size=12)
    ids = tok512.encode(doc)
    tokens, segments = pack([ids], 128, tok512.specials["<pad>"])
    rows = tokens.shape[0]          # the whole document in every batch
    hp = toy_hyperparams(steps=200, batch_tokens=rows * 128, warmup_steps=10)
    model = Model.build(toy_config(), hp, RngState(0))
    batches = batch_iterator((tokens, segments), rows, 200, seed=0)
    result = train(model, Schedule.from_hyperparams(hp), batches, 200,
                   detect=False)
    assert result.status == "completed"
    assert len(result.log) == 200
    assert result.log[-1].loss < 0.1, result.log[-1].loss


def test_no_spike_events_on_stationary_noise():
    rng = np.random.default_rng(99)
    losses = 1.0 + 0.02 * rng.random(10_000)
    gnorms = 0.5 + 0.02 * rng.random(10_000)
    events = 0
    for i in range(100, 10_001):
        window = list(zip(losses[i - 100:i], gnorms[i - 100:i]))
        if detect_spike(window) is not None:
            events += 1
    assert events == 0
