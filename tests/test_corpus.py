"""Corpus pipeline: shingles, MinHash dedup, sampling plans, packing."""
from dataclasses import replace

import numpy as np
import pytest

from desklm import io as dio
from desklm.corpus import (CorpusManifest, Document, DomainSpec, dedup,
                           dedup_paragraphs, estimate_jaccard, load_packed,
                           pack, read_jsonl, sample_plan, save_packed,
                           sequences_per_step, shingle_hashes,
                           signature_from_hashes, write_jsonl)
from desklm.errors import ConfigError, CorruptFileError, EmptyShingleError, PlanningError
from desklm.presets import reference_manifest
from desklm.synth import build_corpus, mutate_words
from desklm.tensor import RngState
from oracles import exact_jaccard, oracle_shingles, reference_pack


# -- shingles -------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "the quick brown fox jumps over the lazy dog and keeps running",
    "short text",                     # fewer than n words: whole-text shingle
    "repeat repeat repeat repeat repeat repeat repeat",
    "Tabs\tand\nnewlines   collapse to single spaces here today maybe",
])
def test_shingles_match_independent_oracle(text):
    got = {int(h) for h in shingle_hashes(text)}
    assert got == oracle_shingles(text)


def test_shingles_reject_empty_documents():
    with pytest.raises(EmptyShingleError):
        shingle_hashes("   \n\t  ")


def test_shingles_are_case_sensitive():
    a = {int(h) for h in shingle_hashes("one two three four five six")}
    b = {int(h) for h in shingle_hashes("ONE two three four five six")}
    assert a != b


# -- MinHash ---------------------------------------------------------------------

def random_set_pair(rng):
    """Two uint64 sets of equal size n in [50, 400) with a controlled overlap."""
    n = int(rng.integers(50, 400))
    ov = int(rng.integers(0, n + 1))
    pool = rng.integers(0, 2 ** 63, size=2 * n - ov, dtype=np.uint64)
    pool = np.unique(pool)
    while pool.size < 2 * n - ov:   # implausible collision; top up
        extra = rng.integers(0, 2 ** 63, size=8, dtype=np.uint64)
        pool = np.unique(np.concatenate([pool, extra]))
    pool = pool[:2 * n - ov]
    a = pool[:n]
    b = pool[n - ov:]
    return a, b


def test_estimate_tracks_exact_jaccard():
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(30):
        a, b = random_set_pair(rng)
        exact = exact_jaccard(set(map(int, a)), set(map(int, b)))
        sig_a = signature_from_hashes(np.sort(a), k=128, seed=9)
        sig_b = signature_from_hashes(np.sort(b), k=128, seed=9)
        if abs(estimate_jaccard(sig_a, sig_b) - exact) <= 0.1:
            hits += 1
    assert hits >= 28


def test_identical_sets_estimate_one():
    h = shingle_hashes("five words of shingle text plus some more padding words")
    sig = signature_from_hashes(h, k=64, seed=3)
    assert estimate_jaccard(sig, signature_from_hashes(h, k=64, seed=3)) == 1.0


def test_disjoint_sets_estimate_near_zero():
    rng = np.random.default_rng(5)
    a = np.unique(rng.integers(0, 2 ** 63, size=300, dtype=np.uint64))
    b = np.unique(rng.integers(2 ** 63, 2 ** 64, size=300, dtype=np.uint64))
    est = estimate_jaccard(signature_from_hashes(a, 128, 9),
                           signature_from_hashes(b, 128, 9))
    assert est <= 0.05


def test_signature_validation():
    h = shingle_hashes("enough words to build a few shingles right here")
    with pytest.raises(EmptyShingleError):
        signature_from_hashes(np.empty(0, dtype=np.uint64), 128, 0)
    with pytest.raises(ConfigError):
        estimate_jaccard(signature_from_hashes(h, 128, 0),
                         signature_from_hashes(h, 128, 1))


def test_minhash_signature_deterministic():
    text = "determinism means the same text always hashes the same way"
    assert (signature_from_hashes(shingle_hashes(text, 5), 128, 0)
            == signature_from_hashes(shingle_hashes(text, 5), 128, 0))


# -- dedup ------------------------------------------------------------------------

def planted_corpus():
    docs = build_corpus(seed=8, target_bytes=40_000)
    originals = list(docs)
    rng = RngState(3)
    near = mutate_words(rng, docs[0].text, 0.05)
    docs = docs + [
        Document(id="exact-copy", domain=docs[6].domain, text=docs[6].text),
        Document(id="near-copy", domain=docs[0].domain, text=near),
    ]
    return originals, docs


def test_dedup_removes_planted_duplicates():
    originals, docs = planted_corpus()
    near_text = docs[-1].text
    # precondition: the planted near-duplicate really is above threshold
    j = exact_jaccard(oracle_shingles(near_text), oracle_shingles(originals[0].text))
    assert j >= 0.5
    kept, removals = dedup(docs, threshold=0.5)
    assert [d.id for d in kept] == [d.id for d in originals]
    dropped = {r.dropped_id: r.matched_id for r in removals}
    assert dropped == {"exact-copy": originals[6].id, "near-copy": originals[0].id}
    for r in removals:
        assert r.est_jaccard >= 0.5


def test_dedup_clean_corpus_untouched():
    docs = build_corpus(seed=8, target_bytes=40_000)
    kept, removals = dedup(docs, threshold=0.5)
    assert removals == [] and len(kept) == len(docs)


def test_dedup_idempotent():
    _, docs = planted_corpus()
    kept, removals = dedup(docs, threshold=0.5)
    again, removals2 = dedup(kept, threshold=0.5)
    assert removals2 == []
    assert [d.id for d in again] == [d.id for d in kept]


def test_dedup_exact_copy_scores_one():
    _, docs = planted_corpus()
    _, removals = dedup(docs, threshold=0.5)
    exact = [r for r in removals if r.dropped_id == "exact-copy"]
    assert exact[0].est_jaccard == 1.0


def test_dedup_matches_every_kept_document_when_ids_repeat():
    # the second "x" must not hide the first one's signature from "z", its near-copy
    originals, docs = planted_corpus()
    texts = originals[0].text, originals[1].text, docs[-1].text
    for ids in ("xyz", "xxz"):
        kept, removals = dedup([Document(i, "d", t) for i, t in zip(ids, texts)])
        assert [d.text for d in kept] == list(texts[:2])
        assert [(r.dropped_id, r.matched_id) for r in removals] == [("z", "x")]


def test_dedup_keeps_wordless_documents():
    docs = [Document(id="a", domain="d", text="   "),
            Document(id="b", domain="d", text="   ")]
    kept, removals = dedup(docs)
    assert len(kept) == 2 and removals == []


def test_dedup_parameter_validation():
    with pytest.raises(ConfigError):
        dedup([], threshold=0.0)
    with pytest.raises(ConfigError):
        dedup([], threshold=1.5)
    with pytest.raises(ConfigError):
        dedup([], k=100, bands=16)
    # shingles of no words, an empty signature or no bands would corrupt the
    # kept set or crash mid-corpus, so each is refused before the first document
    for name, value in [("k", 0), ("bands", 0), ("shingle_n", 0), ("shingle_n", -2)]:
        with pytest.raises(ConfigError, match=f"{name} must be >= 1"):
            dedup([], **{name: value})
    with pytest.raises(ConfigError, match="n must be >= 1"):
        shingle_hashes("one two three", n=0)


def test_write_removal_log(tmp_path):
    _, docs = planted_corpus()
    _, removals = dedup(docs, threshold=0.5)
    path = tmp_path / "removals.jsonl"
    write_jsonl(path, removals)
    lines = path.read_text().splitlines()
    assert len(lines) == 2 and "exact-copy" in lines[0] + lines[1]


# -- paragraph dedup -----------------------------------------------------------------

def test_paragraph_dedup_across_documents():
    docs = [
        Document(id="a", domain="d", text="alpha beta\n\ngamma"),
        Document(id="b", domain="d", text="Alpha   BETA\n\ndelta"),
        Document(id="c", domain="d", text="gamma"),
    ]
    out, removed = dedup_paragraphs(docs)
    assert removed == 2
    assert [(d.id, d.text) for d in out] == [("a", "alpha beta\n\ngamma"),
                                             ("b", "delta")]


def test_paragraph_dedup_within_one_document():
    docs = [Document(id="a", domain="d", text="same para\n\nsame para\n\nother")]
    out, removed = dedup_paragraphs(docs)
    assert removed == 1
    assert out[0].text == "same para\n\nother"


def test_paragraph_dedup_drops_emptied_documents():
    docs = [Document(id="a", domain="d", text="only para"),
            Document(id="b", domain="d", text="only para")]
    out, removed = dedup_paragraphs(docs)
    assert removed == 1 and [d.id for d in out] == ["a"]


# -- JSONL ------------------------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    docs = build_corpus(seed=4, target_bytes=5_000)
    path = tmp_path / "docs.jsonl"
    write_jsonl(path, docs)
    assert read_jsonl(path) == docs


def test_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": "1", "domain": "d", "text": "t"}\n\n\n')
    assert len(read_jsonl(path)) == 1


def test_jsonl_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "1", "domain": "d", "text": "t"}\nnot json\n')
    with pytest.raises(ConfigError, match="2"):
        read_jsonl(path)
    path.write_text('{"id": "1", "text": "missing domain"}\n')
    with pytest.raises(ConfigError, match="domain"):
        read_jsonl(path)


# -- manifest and plan ---------------------------------------------------------------------

def spec(name, prop, epochs=1.0, token_estimate=None):
    return DomainSpec(name=name, languages=["en"], path="", sampling_prop=prop,
                      epochs=epochs, size_bytes=1000, token_estimate=token_estimate)


def test_reference_plan_quotas():
    plan = sample_plan(reference_manifest())
    by_name = {q.name: q for q in plan}
    assert by_name["WebText"].quota == 1_504_000_000_000
    assert by_name["ClassicalChinese"].quota == 400_000_000
    assert sum(q.quota for q in plan) == 2_000_000_000_000
    assert all(q.available is None for q in plan)


def test_reference_plan_infeasible_at_unit_yield():
    # quota for the math domain exceeds size * epochs even at 1 token/byte
    with pytest.raises(PlanningError) as ei:
        sample_plan(reference_manifest(tokens_per_byte=1.0))
    assert ei.value.domains == ["Profession-Math"]
    carried = {q.name: q for q in ei.value.plan}
    assert carried["Profession-Math"].quota == 12_400_000_000
    assert carried["Profession-Math"].available == 12_200_000_000
    assert carried["WebText"].quota <= carried["WebText"].available
    assert [q.name for q in ei.value.plan if q.quota > q.available] == ei.value.domains


def test_residue_lands_on_largest_domain():
    manifest = CorpusManifest(
        domains=[spec("a", 0.3333), spec("b", 0.3333), spec("c", 0.3334)],
        total_token_budget=100)
    plan = sample_plan(manifest)
    assert [q.quota for q in plan] == [33, 33, 34]
    assert sum(q.quota for q in plan) == 100


def test_plan_total_override_and_validation():
    manifest = CorpusManifest(domains=[spec("a", 1.0)], total_token_budget=10)
    assert sample_plan(manifest, total_tokens=77)[0].quota == 77
    with pytest.raises(ConfigError):
        sample_plan(manifest, total_tokens=0)


def test_feasibility_uses_epochs_times_estimate():
    ok = CorpusManifest(domains=[spec("a", 1.0, epochs=2.0, token_estimate=50)],
                        total_token_budget=100)
    assert sample_plan(ok)[0].available == 100
    bad = CorpusManifest(domains=[spec("a", 1.0, epochs=1.9, token_estimate=50)],
                         total_token_budget=100)
    with pytest.raises(PlanningError, match="a"):
        sample_plan(bad)


def test_manifest_validation():
    with pytest.raises(ConfigError):
        CorpusManifest(domains=[], total_token_budget=1)
    with pytest.raises(ConfigError):
        CorpusManifest(domains=[spec("a", 0.5), spec("a", 0.5)],
                       total_token_budget=1)
    with pytest.raises(ConfigError):
        CorpusManifest(domains=[spec("a", 0.7)], total_token_budget=1)
    with pytest.raises(ConfigError):
        CorpusManifest(domains=[spec("a", 1.2), spec("b", -0.2)],
                       total_token_budget=1)
    with pytest.raises(ConfigError):
        CorpusManifest(domains=[spec("a", 1.0, epochs=0.0)],
                       total_token_budget=1)


@pytest.mark.parametrize("field, value, message", [
    ("size_bytes", -7, "domain a: negative size_bytes"),
    ("token_estimate", -1, "domain a: negative token_estimate"),
    ("epochs", 0.0, "domain a: epochs must be positive"),
    ("sampling_prop", -0.1, "domain a: negative sampling_prop"),
])
def test_domain_spec_checks_its_own_fields(field, value, message):
    with pytest.raises(ConfigError, match=message):
        replace(spec("a", 1.0), **{field: value})


@pytest.mark.parametrize("budget", [0, -5])
def test_manifest_refuses_a_budget_that_is_not_positive(budget):
    with pytest.raises(ConfigError, match="total_token_budget must be positive"):
        replace(reference_manifest(), total_token_budget=budget)


def test_manifest_domains_cannot_change_after_the_check():
    manifest = reference_manifest()
    with pytest.raises(AttributeError):     # a duplicate name would break the checked rule
        manifest.domains.append(manifest.domains[0])


def test_manifest_is_a_value_down_to_its_languages():
    manifest = reference_manifest()
    assert hash(manifest) == hash(reference_manifest())
    with pytest.raises(AttributeError):
        manifest.domains[0].languages.append("xx")
    assert manifest.to_dict()["domains"][0]["languages"] == ["en", "zh"]   # a JSON list


def test_manifest_round_trip(tmp_path):
    m = reference_manifest()
    path = tmp_path / "manifest.json"
    import json
    path.write_text(json.dumps(m.to_dict()))
    back = dio.decode_record(CorpusManifest, dio.read_json(path), path)
    assert back == m


# -- packing -----------------------------------------------------------------------------------

def test_pack_five_five_five_into_eight():
    docs = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11, 12, 13, 14, 15]]
    tokens, segments = pack(docs, context_length=8, pad_id=0)
    assert tokens.tolist() == [[1, 2, 3, 4, 5, 6, 7, 8],
                               [9, 10, 11, 12, 13, 14, 15, 0]]
    assert segments.tolist() == [[1, 1, 1, 1, 1, 2, 2, 2],
                                 [1, 1, 2, 2, 2, 2, 2, 0]]


def test_pack_matches_reference_on_random_docs():
    rng = np.random.default_rng(12)

    def docs(n, max_len, min_len=1):
        return [list(rng.integers(1, 50, size=int(rng.integers(min_len, max_len))))
                for _ in range(n)]

    cases = [(docs(30, 40), ctx, 0) for ctx in (4, 7, 16)] + [
        (docs(40, 12, min_len=0), 5, 0),      # empty documents mixed in
        (docs(25, 9), 2, 0),                  # the shortest context
        (docs(30, 40), 7, 511),               # a non-zero pad id
        ([], 4, 3)]                           # no documents
    for token_docs, ctx, pad_id in cases:
        got = pack(token_docs, ctx, pad_id=pad_id)
        want = reference_pack(token_docs, ctx, pad_id=pad_id)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert np.array_equal(g, w)


def test_pack_conserves_tokens():
    rng = np.random.default_rng(2)
    docs = [list(rng.integers(1, 99, size=int(rng.integers(0, 25))))
            for _ in range(40)]
    tokens, segments = pack(docs, 16, pad_id=0)
    total = sum(len(d) for d in docs)
    assert int((segments > 0).sum()) == total
    assert tokens[segments > 0].sum() == sum(sum(d) for d in docs)
    # padding only ever appears in the final row
    assert not (segments[:-1] == 0).any()


def test_pack_exact_fill_has_no_padding():
    tokens, segments = pack([[1] * 8, [2] * 8], 8, pad_id=0)
    assert tokens.shape == (2, 8)
    assert (segments > 0).all()


def test_pack_skips_empty_docs_and_validates():
    tokens, segments = pack([[], [1, 2], []], 4, pad_id=9)
    assert tokens.tolist() == [[1, 2, 9, 9]]
    assert segments.tolist() == [[1, 1, 0, 0]]
    with pytest.raises(ConfigError):
        pack([[1]], 1, pad_id=0)


def test_pack_empty_input_gives_zero_rows():
    tokens, segments = pack([], 8, pad_id=0)
    assert tokens.shape == (0, 8) and segments.shape == (0, 8)


def test_sequences_per_step_published_batch():
    assert sequences_per_step(5_505_024, 4096) == 1344
    with pytest.raises(ConfigError):
        sequences_per_step(100, 7)
    with pytest.raises(ConfigError):
        sequences_per_step(100, 0)


def test_packed_file_round_trip(tmp_path):
    tokens, segments = pack([[1, 2, 3], [4, 5]], 4, pad_id=0)
    path = tmp_path / "packed.dlm"
    save_packed(path, tokens, segments, meta={"note": "unit"})
    t2, s2, meta = load_packed(path)
    assert np.array_equal(t2, tokens) and np.array_equal(s2, segments)
    assert meta["kind"] == "packed" and meta["context_length"] == 4
    assert meta["note"] == "unit"


def test_load_packed_rejects_other_kinds(tmp_path):
    path = tmp_path / "other.dlm"
    dio.save_arrays(path, {"x": np.zeros(3)}, {"kind": "checkpoint"})
    with pytest.raises(ConfigError):
        load_packed(path)


@pytest.mark.parametrize("header", [{"context_length": 128}, {}], ids=["disagrees", "missing"])
def test_load_packed_checks_the_header_context_length(tmp_path, header):
    tokens, segments = pack([list(range(1, 40))], 16, pad_id=0)
    path = tmp_path / "packed.dlm"
    dio.save_arrays(path, {"tokens": tokens, "segments": segments}, {"kind": "packed", **header})
    with pytest.raises(CorruptFileError, match=f"{path}.*context_length.*16"):
        load_packed(path)
