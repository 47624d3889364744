"""DLM1 array container, atomic writes of every output file, and synthetic corpus generation."""
import json

import numpy as np
import pytest

from desklm import io as dio
from desklm.corpus import Document, Removal, write_jsonl
from desklm.errors import ConfigError, CorruptFileError
from desklm.evaluation import BpbReport
from desklm.io import canonical_json, load_arrays, save_arrays
from desklm.mup import CoordCheckResult
from desklm.synth import STYLES, build_corpus, make_document, mutate_words
from desklm.tensor import RngState
from desklm.tokenizer import train_bbpe
from desklm.trainer import StepLog, write_runlog


# -- container -----------------------------------------------------------------

def test_round_trip_preserves_values_and_order(tmp_path):
    arrays = {
        "weights": np.arange(12, dtype=np.float64).reshape(3, 4) / 7,
        "tokens": np.arange(6, dtype=np.int32).reshape(2, 3),
        "scalarish": np.array([3.5]),
    }
    meta = {"kind": "unit", "nested": {"a": [1, 2]}}
    path = tmp_path / "box.dlm"
    save_arrays(path, arrays, meta)
    back, back_meta = load_arrays(path)
    assert list(back) == list(arrays)
    for k in arrays:
        assert back[k].dtype == arrays[k].dtype
        assert np.array_equal(back[k], arrays[k])
    assert back_meta == meta


def test_same_content_same_bytes(tmp_path):
    arrays = {"a": np.linspace(0, 1, 9).reshape(3, 3)}
    p1, p2 = tmp_path / "one.dlm", tmp_path / "two.dlm"
    save_arrays(p1, arrays, {"k": "v"})
    save_arrays(p2, {"a": arrays["a"].copy()}, {"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_and_version_checks(tmp_path):
    path = tmp_path / "bad.dlm"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        load_arrays(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_arrays(tmp_path / "x.dlm", {"a": np.zeros(3, dtype=np.float32)})


def test_noncontiguous_arrays_are_fine(tmp_path):
    base = np.arange(20, dtype=np.float64).reshape(4, 5)
    view = base[:, ::2]
    path = tmp_path / "view.dlm"
    save_arrays(path, {"v": view})
    back, _ = load_arrays(path)
    assert np.array_equal(back["v"], view)


def test_empty_array_and_empty_meta(tmp_path):
    path = tmp_path / "empty.dlm"
    save_arrays(path, {"nothing": np.zeros((0, 4))})
    back, meta = load_arrays(path)
    assert back["nothing"].shape == (0, 4)
    assert meta == {}


def _small_container(tmp_path):
    path = tmp_path / "small.dlm"
    save_arrays(path, {"w": np.arange(6, dtype=np.float64).reshape(2, 3),
                       "ids": np.arange(3, dtype=np.int32)}, {"kind": "unit"})
    return path, path.read_bytes()


def test_truncation_at_every_byte_is_rejected_by_name(tmp_path):
    path, good = _small_container(tmp_path)
    cut = tmp_path / "cut.dlm"
    for n in range(len(good)):
        cut.write_bytes(good[:n])
        with pytest.raises(CorruptFileError, match="cut.dlm"):
            load_arrays(cut)


def test_trailing_bytes_are_rejected_by_name(tmp_path):
    path, good = _small_container(tmp_path)
    path.write_bytes(good + b"junk")
    with pytest.raises(CorruptFileError, match=r"small\.dlm: 4 trailing bytes"):
        load_arrays(path)


@pytest.mark.parametrize("text", ["NaN", "[Infinity]", '{"a": -Infinity}', "1e999", "{", "",
                                  b"\xff"])
def test_parse_json_rejects_non_json_by_name(text):
    # JSON has no NaN or Infinity, and 1e999 would overflow to one
    with pytest.raises(ConfigError, match="^where: not valid JSON"):
        dio.parse_json(text, "where")


def _with_header(good, edit):
    n = int.from_bytes(good[4:12], "little")
    header = json.loads(good[12:12 + n])
    edit(header)
    raw = json.dumps(header).encode()
    return good[:4] + len(raw).to_bytes(8, "little") + raw + good[12 + n:]


@pytest.mark.parametrize("edit,why", [
    (lambda h: h["arrays"][0].update(nbytes=40), "needs 48 bytes"),
    (lambda h: h["arrays"][1].update(offset=0), "at offset 48"),
    (lambda h: h["arrays"][0].update(shape=[2, 2]), "needs 32 bytes"),
    (lambda h: h["arrays"][0].pop("dtype"), "malformed array entry"),
    (lambda h: h.pop("arrays"), "unreadable header"),
    (lambda h: h.update(meta=[1]), "meta is a list"),
    (lambda h: h.update(format_version=2), "unsupported format_version 2"),
    (lambda h: h.update(arrays={}), "arrays is a dict"),
    (lambda h: h["arrays"][0].update(dtype="<f4"), "unsupported dtype '<f4'"),
    (lambda h: h["arrays"][0].update(shape=[-2, -3]), r"bad shape \[-2, -3\]"),
    (lambda h: h["arrays"][0].update(nbytes=48.0), "claims 48.0 bytes"),
    (lambda h: h["arrays"][0].update(shape=[True, 3]), r"bad shape \[True, 3\]"),
    (lambda h: h.update(format_version=True), "unsupported format_version True"),
    (lambda h: h["arrays"][1].update(name="w"), "array 'w' is listed twice"),
], ids=["nbytes", "offset", "shape", "no-dtype", "no-arrays", "list-meta", "version",
        "object-arrays", "f4-dtype", "negative-shape", "float-nbytes", "bool-shape",
        "bool-version", "repeated-name"])
def test_inconsistent_header_is_rejected_by_name(tmp_path, edit, why):
    path, good = _small_container(tmp_path)
    path.write_bytes(_with_header(good, edit))
    with pytest.raises(CorruptFileError, match=why) as ei:
        load_arrays(path)
    assert str(path) in str(ei.value)


def test_interrupted_save_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    path, good = _small_container(tmp_path)

    class DiskFull:
        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, b):
            self.writes += 1
            if self.writes == 3:
                raise OSError("disk full")
            return self.f.write(b)

    monkeypatch.setattr(dio, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_arrays(path, {"w": np.zeros((50, 50))}, {"kind": "unit"})
    assert path.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.dlm"]


def _disk_full_after(rows):
    """Yield ``rows``, then fail the way a full disk fails a write."""
    yield from rows
    raise OSError("disk full")


_BPB_ROW = {"domain": "english", "loss_nats": 1.5, "token_count": 3, "byte_count": 4, "bpb": 1.6}
_STEP = StepLog(step=1, tokens=64, loss=2.5, grad_norm=0.5, lr_vector=1e-3, lr_matrix=2e-3,
                wall_ms=3.0)
_DOC = Document("d1", "english", "some text")
_TOK = train_bbpe(["some text, some more text"], 260, specials=("<pad>",))

# writer -> (write the file, write it again and fail part-way)
WRITERS = {
    "write_json": (lambda p: dio.write_json(p, {"a": 1}),
                   lambda p: dio.write_json(p, {"a": 2, "b": object()})),
    "write_csv": (lambda p: dio.write_csv(p, ["x"], [[1]]),
                  lambda p: dio.write_csv(p, ["x"], _disk_full_after([[2]]))),
    "write_runlog": (lambda p: write_runlog(p, [_STEP]),
                     lambda p: write_runlog(p, _disk_full_after([_STEP, _STEP]))),
    "BpbReport.save_json": (
        lambda p: BpbReport([_BPB_ROW], {"direct_average": 1.6}).save_json(p),
        lambda p: BpbReport([_BPB_ROW], {"direct_average": object()}).save_json(p)),
    "BpbReport.save_csv": (
        lambda p: BpbReport([_BPB_ROW], {}).save_csv(p),
        lambda p: BpbReport(_disk_full_after([_BPB_ROW, _BPB_ROW]), {}).save_csv(p)),
    "CoordCheckResult.write_csv": (
        lambda p: CoordCheckResult([(16, 0, "loss", 1.0)], {}, {}).write_csv(p),
        lambda p: CoordCheckResult(_disk_full_after([(16, 1, "loss", 0.5)]), {}, {}).write_csv(p)),
    "write_jsonl": (lambda p: write_jsonl(p, [_DOC]),
                    lambda p: write_jsonl(p, _disk_full_after([_DOC, _DOC]))),
    "write_jsonl.removals": (
        lambda p: write_jsonl(p, [Removal("a", "b", 0.9)]),
        lambda p: write_jsonl(p, _disk_full_after([Removal("c", "d", 0.8)]))),
    "TokenizerModel.save": (lambda p: _TOK.save(p), lambda p: _broken_tokenizer().save(p)),
}


def _broken_tokenizer():
    """A tokenizer whose specials, serialised after its merges, hold a name
    JSON cannot encode, so its save fails part-way through the body."""
    tok = train_bbpe(["some text, some more text"], 260, specials=("<pad>",))
    tok.specials[object()] = 257
    return tok


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path, name):
    write, fail = WRITERS[name]
    path = tmp_path / "out.txt"
    write(path)
    before = path.read_bytes()
    assert before and sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    with pytest.raises((OSError, TypeError)):
        fail(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1.5, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1.5})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_written_json_reads_back_with_non_finite_floats_as_null(tmp_path):
    inf, nan = float("inf"), float("nan")
    dio.write_json(tmp_path / "x.json", {"loss": inf, "ctx": (1.5, nan, -inf),
                                         "nested": [{"score": np.float64(nan)}]})
    assert dio.read_json(tmp_path / "x.json") == {
        "loss": None, "ctx": [1.5, None, None], "nested": [{"score": None}]}


def test_a_float_field_reads_an_int_as_a_float():
    assert type(dio.decode_record(float, 1, "w")) is float
    assert dio.decode_record(dict[str, float], {"a": 0}, "w") == {"a": 0.0}
    assert type(dio.decode_record(float | None, 3, "w")) is float


def test_an_int_too_large_for_a_float_is_refused_by_name():
    with pytest.raises(ConfigError, match="^w: an int too large for a float"):
        dio.decode_record(float, 10**400, "w")


# -- synthetic corpus -----------------------------------------------------------

def test_build_corpus_deterministic_and_round_robin():
    a = build_corpus(seed=3, target_bytes=8_000)
    b = build_corpus(seed=3, target_bytes=8_000)
    assert a == b
    assert [d.domain for d in a[:6]] == list(STYLES)
    assert sum(len(d.text.encode()) for d in a) >= 8_000
    assert len({d.id for d in a}) == len(a)


def test_build_corpus_seed_changes_text():
    a = build_corpus(seed=3, target_bytes=2_000)
    b = build_corpus(seed=4, target_bytes=2_000)
    assert a[0].text != b[0].text


@pytest.mark.parametrize("style", STYLES)
def test_every_style_produces_text(style):
    text = make_document(RngState(1), style, size=10)
    assert len(text) > 20


def test_unknown_style_is_refused_by_name():
    with pytest.raises(ValueError, match="unknown style 'poetry'; the styles are english, "):
        make_document(RngState(1), "poetry")


def test_size_scales_documents():
    short = make_document(RngState(1), "english", size=5)
    long = make_document(RngState(1), "english", size=50)
    assert len(long) > len(short) * 3


def test_mutate_words_changes_requested_fraction():
    text = make_document(RngState(2), "english", size=20)
    mutated = mutate_words(RngState(3), text, 0.1)
    w0, w1 = text.split(), mutated.split()
    assert len(w0) == len(w1)
    changed = sum(a != b for a, b in zip(w0, w1))
    assert 0 < changed <= int(len(w0) * 0.1) + 1
