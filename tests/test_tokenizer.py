"""Byte-level BPE: losslessness, training-oracle agreement, compression."""
import json

import numpy as np
import pytest

from desklm import cli
from desklm.corpus import Document, write_jsonl
from desklm.synth import build_corpus
from desklm.tokenizer import (TokenizerModel, compression_ratio,
                              compression_table, train_bbpe)
from oracles import reference_bbpe, reference_encode


def byte_only_model(specials=(), word_split=True) -> TokenizerModel:
    return TokenizerModel([], specials, word_split=word_split)


def small_trained(word_split=True, vocab_size=320) -> TokenizerModel:
    docs = [d.text for d in build_corpus(seed=7, target_bytes=60_000)]
    return train_bbpe(docs, vocab_size, specials=("<pad>",), word_split=word_split)


# -- losslessness -------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "", "hello world", "the quick brown fox", "  leading and   runs\t\n",
    "汉字 mixed with ASCII", "emoji \U0001f600 and combining é",
])
def test_round_trip_text(text):
    model = small_trained()
    assert model.decode(model.encode(text)) == text.encode("utf-8")


@pytest.mark.parametrize("data", [
    b"\xff\xfe\x80ab", b"\x00\x01\x02", bytes(range(256)),
    b"\xc3(",           # invalid 2-byte sequence
    b"\xed\xa0\x80",    # lone surrogate encoding
])
def test_round_trip_invalid_utf8(data):
    model = small_trained()
    assert model.decode(model.encode(data)) == data


@pytest.mark.parametrize("word_split", [True, False])
def test_round_trip_random_bytes(word_split):
    model = small_trained(word_split=word_split)
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(0, 200))
        data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        assert model.decode(model.encode(data)) == data


def test_decode_rejects_unknown_id():
    model = byte_only_model()
    with pytest.raises(ValueError):
        model.decode([256])


# -- encode semantics ----------------------------------------------------------

@pytest.mark.parametrize("word_split", [True, False])
def test_encode_matches_global_merge_replay(word_split):
    # the chunked fast path must equal applying every merge rule in creation
    # order across the whole byte string
    model = small_trained(word_split=word_split)
    rng = np.random.default_rng(3)
    texts = [d.text for d in build_corpus(seed=99, target_bytes=4000)]
    blobs = [t.encode() for t in texts]
    blobs += [rng.integers(0, 256, size=150, dtype=np.uint8).tobytes() for _ in range(20)]
    for data in blobs:
        assert model.encode(data) == reference_encode(model, data)


CJK_STYLES = ("chinese", "classical_chinese")


def cjk_texts(seed=17, target_bytes=16_000):
    """CJK prose with no whitespace, so every document is one long chunk."""
    return [d.text for d in build_corpus(seed, target_bytes, styles=CJK_STYLES, doc_size=80)]


@pytest.mark.parametrize("style", CJK_STYLES)
def test_heap_encode_matches_global_merge_replay_on_long_cjk_chunks(style):
    model = train_bbpe(cjk_texts(), 400, specials=("<pad>",))
    blobs = [d.text.encode() for d in build_corpus(5, 12_000, styles=(style,), doc_size=80)]
    assert min(len(b) for b in blobs) >= 800
    for data in blobs:
        assert model.encode(data) == reference_encode(model, data)


@pytest.mark.parametrize("word_split", [True, False])
@pytest.mark.parametrize("data", [b"a" * 1000, b"aaab" * 200, b"a" * 7 + b"b" + b"a" * 2])
def test_heap_encode_overlapping_pairs(data, word_split):
    # merges (a, a), (aa, a) and (aa, aa) overlap on runs of one byte: the leftmost
    # occurrence of the lowest rank must win, exactly as in the replay
    model = TokenizerModel([(97, 97), (256, 97), (256, 256), (257, 98)], [],
                           word_split=word_split)
    assert model.encode(data) == reference_encode(model, data)
    assert model.decode(model.encode(data)) == data


def test_encode_cache_is_transparent():
    model = small_trained()
    text = "repeat repeat repeat tokens"
    first = model.encode(text)
    assert model.encode(text) == first


def test_encode_never_emits_specials():
    model = small_trained()
    special_ids = set(model.specials.values())
    ids = model.encode("text containing the literal <pad> marker")
    assert special_ids.isdisjoint(ids)
    assert model.decode(ids) == b"text containing the literal <pad> marker"


def test_word_split_merges_stay_within_chunks():
    model = small_trained(word_split=True)
    for entry in model.vocab[256 + len(model.specials):]:
        s = entry.decode("utf-8", errors="surrogateescape")
        assert s.isspace() or not any(ch.isspace() for ch in s)


# -- training ------------------------------------------------------------------

@pytest.mark.parametrize("word_split", [True, False])
def test_training_matches_quadratic_oracle(word_split):
    texts = [d.text for d in build_corpus(seed=13, target_bytes=20_000)]
    model = train_bbpe(texts, 330, specials=("<pad>",), word_split=word_split)
    ref_merges, ref_vocab = reference_bbpe(texts, 330, specials=("<pad>",),
                                           word_split=word_split)
    assert model.merges == ref_merges
    assert model.vocab == ref_vocab


@pytest.mark.parametrize("word_split", [True, False])
def test_neighbour_updates_match_quadratic_oracle_on_cjk_and_runs(word_split):
    # long chunks with many merge sites each, and runs of one byte, repeated
    # so that aa, aaa, aaaa, ... are learned and merge sites sit side by side
    texts = cjk_texts() + ["aaaa aaaaa aaaaaaa"] * 20
    model = train_bbpe(texts, 400, specials=("<pad>",), word_split=word_split)
    ref_merges, ref_vocab = reference_bbpe(texts, 400, specials=("<pad>",),
                                           word_split=word_split)
    assert model.merges == ref_merges
    assert model.vocab == ref_vocab


def test_vocab_growth_extends_merge_list():
    texts = [d.text for d in build_corpus(seed=21, target_bytes=15_000)]
    small = train_bbpe(texts, 300, specials=("<pad>",))
    large = train_bbpe(texts, 360, specials=("<pad>",))
    assert large.merges[:len(small.merges)] == small.merges


def test_training_is_deterministic():
    texts = [d.text for d in build_corpus(seed=5, target_bytes=10_000)]
    a = train_bbpe(texts, 300)
    b = train_bbpe(texts, 300)
    assert a.merges == b.merges and a.vocab == b.vocab


def test_empty_corpus_yields_bytes_plus_specials():
    model = train_bbpe([], 512, specials=("<pad>", "<eos>"))
    assert model.vocab_size == 258
    assert model.merges == []
    assert model.specials == {"<pad>": 256, "<eos>": 257}


def test_single_run_merge_sequence():
    model = train_bbpe(["aaaa"], 258)
    assert model.merges == [(97, 97), (256, 256)]
    assert model.encode("aaaa") == [257]
    assert model.encode("aaa") == [256, 97]


def test_merge_stops_when_nothing_left():
    model = train_bbpe(["ab"], 400)
    # only "ab" can ever merge; training must stop there, not error
    assert model.vocab_size == 257
    assert model.merges == [(97, 98)]


def test_train_rejects_bad_specials():
    with pytest.raises(ValueError):
        train_bbpe(["x"], 257, specials=("<pad>", "<pad>"))
    with pytest.raises(ValueError):
        train_bbpe(["x"], 256, specials=("<pad>",))


# -- persistence ----------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    model = small_trained()
    path = tmp_path / "tok.json"
    model.save(path)
    back = TokenizerModel.load(path)
    assert back.vocab == model.vocab
    assert back.merges == model.merges
    assert back.specials == model.specials
    assert back.word_split == model.word_split
    assert back.encode("round trip") == model.encode("round trip")


@pytest.mark.parametrize("seed", range(20))
def test_saved_model_loads_back_equal(tmp_path, seed):
    rng = np.random.default_rng(seed)
    specials = ["<pad>", "<eos>", "<sep>"][:int(rng.integers(0, 4))]
    word_split = bool(rng.integers(0, 2))
    docs = [d.text for d in build_corpus(seed, 6_000)]
    model = train_bbpe(docs, int(rng.integers(260, 601)), specials, word_split=word_split)
    path = tmp_path / "tok.json"
    model.save(path)
    back = TokenizerModel.load(path)
    assert (back.vocab, back.merges, back.specials, back.word_split) == (
        model.vocab, model.merges, model.specials, model.word_split)
    assert back.to_dict() == model.to_dict()
    for held_out in build_corpus(seed + 100, 2_000):
        assert back.encode(held_out.text) == model.encode(held_out.text)


def test_saved_file_holds_only_specials_and_merges(tmp_path):
    model = train_bbpe(["ab ab abc"], 300, specials=("<pad>", "<eos>"))
    model.save(tmp_path / "tok.json")
    saved = json.loads((tmp_path / "tok.json").read_text())
    assert saved == {"version": 2, "word_split": True, "specials": ["<pad>", "<eos>"],
                     "merges": [[97, 98], [258, 99]]}
    assert TokenizerModel([], ["<pad>", "<eos>"]).specials == {"<pad>": 256, "<eos>": 257}
    assert TokenizerModel([], ["<eos>", "<pad>"]).specials == {"<eos>": 256, "<pad>": 257}


def test_from_dict_rejects_bad_payloads(tmp_path):
    model = byte_only_model(specials=("<pad>",))
    good = model.to_dict()
    version_1 = {**good, "version": 1, "specials": {"<pad>": 256},
                 "vocab": {str(i): b.hex() for i, b in enumerate(model.vocab)}}
    path = tmp_path / "tok.json"
    for bad, why in [({**good, "version": 99}, "version 99"), (version_1, "version 1"),
                     ({**good, "specials": ["<pad>", "<pad>"]}, "duplicate special"),
                     ({**good, "merges": {}}, "merges: expected list"),
                     ({k: v for k, v in good.items() if k != "word_split"}, "word_split")]:
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=why):
            TokenizerModel.load(path)


def test_validate_rejects_inconsistent_models():
    with pytest.raises(ValueError, match="duplicate special"):
        TokenizerModel([], ["<pad>", "<eos>", "<pad>"])
    with pytest.raises(ValueError, match="merge 0"):     # a merge of its own id
        TokenizerModel([(97, 256)], [])
    with pytest.raises(ValueError, match="merge 1"):     # a merge of a later id
        TokenizerModel([(97, 98), (97, 500)], ["<pad>"])
    with pytest.raises(ValueError, match="merge 0"):     # a negative id
        TokenizerModel([(-1, 98)], [])
    with pytest.raises(ValueError, match="merge 1 repeats merge 0"):
        TokenizerModel([(97, 98), (97, 98)], [])        # encode would apply only one
    with pytest.raises(ValueError, match="merge 2 repeats merge 0"):
        TokenizerModel([(97, 98), (256, 99), (97, 98)], [])


# -- compression metrics ----------------------------------------------------------

def test_merge_free_ratio_is_exactly_one():
    model = byte_only_model()
    corpus = ["any text at all", "更多文字", "bytes \x00\x7f"]
    assert compression_ratio(model, corpus) == 1.0


def test_hand_built_model_hits_quarter_ratio():
    model = TokenizerModel([(116, 104), (256, 101), (257, 32)], [],   # th, the, "the "
                           word_split=False)
    assert compression_ratio(model, ["the the the the "]) == 0.25


def test_compression_ratio_needs_bytes():
    with pytest.raises(ValueError):
        compression_ratio(byte_only_model(), ["", ""])


def test_weighted_compression_math_and_validation(tmp_path, capsys):
    tok = tmp_path / "tok.json"
    TokenizerModel([(116, 104), (256, 101), (257, 32)], [],   # th, the, "the "
                   word_split=False).save(tok)
    corpus = tmp_path / "corpus.jsonl"             # ratios: a 0.5, b 0.25
    write_jsonl(corpus, [Document("d0", "a", "th"), Document("d1", "b", "the the the the ")])

    def tok_stats(weights):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(weights))
        code = cli.main(["tok-stats", "--tokenizer", str(tok), "--corpus", str(corpus),
                         "--weights", str(path), "--json"])
        out, err = capsys.readouterr()
        if code == 0:
            return json.loads(out)["weighted"]
        assert code == 2 and str(path) in err
        return None

    assert tok_stats({"a": 0.5, "b": 0.5}) == 0.375
    assert tok_stats({"b": 1.0}) is None
    assert tok_stats({"a": 0.9, "b": 0.2}) is None
    assert tok_stats({"a": -0.1, "b": 1.1}) is None


def test_compression_table_rows():
    model = byte_only_model()
    rows = compression_table(model, {"b_dom": ["xyzw"], "a_dom": ["ab", "cd"]})
    assert [r["domain"] for r in rows] == ["a_dom", "b_dom"]
    assert rows[0]["byte_count"] == 4 and rows[0]["token_count"] == 4
    assert [r["ratio"] for r in rows] == [1.0, 1.0]
    with pytest.raises(ValueError):
        compression_table(model, {"empty": [""]})


def test_trained_model_actually_compresses():
    docs = [d.text for d in build_corpus(seed=31, target_bytes=30_000)]
    model = train_bbpe(docs, 512, specials=("<pad>",))
    held_out = [d.text for d in build_corpus(seed=77, target_bytes=5_000)]
    assert compression_ratio(model, held_out) < 0.9
