"""Deterministic synthetic corpora for demos, fixtures, and tests.

Documents are generated from seeded PCG64 streams, so a given (seed,
parameters) pair produces byte-identical text on every platform.  Styles
cover the domain families the tokenizer and BPB tooling care about:
prose-like English, CJK text, code, LaTeX-ish math, and accented
multilingual text.
"""

from __future__ import annotations

from .corpus import Document
from .tensor import RngState

_CONS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m",
         "n", "p", "r", "s", "t", "v", "w", "z", "st", "th", "ch"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_CODAS = ["", "n", "r", "s", "t", "l", "nd", "st"]


def _word_list(n: int = 2000) -> list[str]:
    words = []
    for c in _CONS:
        for v in _VOWELS:
            for d in _CODAS:
                words.append(c + v + d)
                if len(words) == n:
                    return words
    return words


_WORDS = _word_list()
_COMMON = ["the", "of", "and", "to", "in", "is", "that", "for", "it", "with",
           "as", "was", "on", "are", "by", "this", "be", "from", "or", "an"]
_IDENTIFIERS = ["value", "index", "count", "result", "items", "node", "data",
                "total", "buffer", "state", "queue", "score", "left", "right"]


def _sentence(rng: RngState) -> str:
    n = int(rng.integers(5, 18))
    words = []
    for _ in range(n):
        if rng.uniform() < 0.35:
            words.append(_COMMON[int(rng.integers(0, len(_COMMON)))])
        else:
            words.append(_WORDS[int(rng.integers(0, len(_WORDS)))])
    s = " ".join(words)
    return s[0].upper() + s[1:] + "."


def _english(rng: RngState, sentences: int) -> str:
    paras = []
    cur = []
    for _ in range(sentences):
        cur.append(_sentence(rng))
        if rng.uniform() < 0.2 and cur:
            paras.append(" ".join(cur))
            cur = []
    if cur:
        paras.append(" ".join(cur))
    return "\n\n".join(paras)


def _chinese(rng: RngState, chars: int, classical: bool = False) -> str:
    # A bounded block of common CJK codepoints keeps the vocabulary small
    # enough for byte-pair statistics to be interesting.
    base, span = 0x4E00, 600 if not classical else 200
    out = []
    run = 0
    for _ in range(chars):
        out.append(chr(base + int(rng.integers(0, span))))
        run += 1
        if run >= int(rng.integers(4, 12)):
            out.append("。" if classical or rng.uniform() < 0.6 else "，")
            run = 0
    return "".join(out)


def _code(rng: RngState, lines: int) -> str:
    out = []
    for _ in range(lines):
        a = _IDENTIFIERS[int(rng.integers(0, len(_IDENTIFIERS)))]
        b = _IDENTIFIERS[int(rng.integers(0, len(_IDENTIFIERS)))]
        k = int(rng.integers(0, 100))
        form = int(rng.integers(0, 4))
        if form == 0:
            out.append(f"def get_{a}({b}):")
            out.append(f"    return {b} + {k}")
        elif form == 1:
            out.append(f"{a} = [{b} * {k} for {b} in range({k + 1})]")
        elif form == 2:
            out.append(f"if {a} < {k}:")
            out.append(f"    {a} = {b}")
        else:
            out.append(f"{a}.append({b}[{k} % len({b})])")
    return "\n".join(out)


def _math(rng: RngState, terms: int) -> str:
    out = []
    for _ in range(terms):
        i, j = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        form = int(rng.integers(0, 3))
        if form == 0:
            out.append(f"x_{i} = \\sum_{{k=1}}^{{{j}}} a_k y^{i}")
        elif form == 1:
            out.append(f"\\frac{{{i}}}{{{j}}} + {i}.{j} = z_{j}")
        else:
            out.append(f"\\int_0^{i} f(t) dt \\approx {i * j}")
    return " \\quad ".join(out)


_ACCENTS = ["é", "ü", "ñ", "ø", "ß", "ç", "å", "î"]


def _multilingual(rng: RngState, words: int) -> str:
    out = []
    for _ in range(words):
        w = _WORDS[int(rng.integers(0, len(_WORDS)))]
        if rng.uniform() < 0.4:
            pos = int(rng.integers(0, len(w)))
            w = w[:pos] + _ACCENTS[int(rng.integers(0, len(_ACCENTS)))] + w[pos:]
        out.append(w)
    return " ".join(out)


STYLES = ("english", "chinese", "classical_chinese", "code", "math", "multilingual")


def make_document(rng: RngState, style: str, size: int = 60) -> str:
    """One synthetic document; ``size`` roughly scales its length."""
    if style == "english":
        return _english(rng, size)
    if style == "chinese":
        return _chinese(rng, size * 6)
    if style == "classical_chinese":
        return _chinese(rng, size * 4, classical=True)
    if style == "code":
        return _code(rng, size)
    if style == "math":
        return _math(rng, max(2, size // 3))
    if style == "multilingual":
        return _multilingual(rng, size * 8)
    return _english(rng, size)   # unknown domain names fall back to prose


def build_corpus(seed: int, target_bytes: int, styles=STYLES,
                 doc_size: int = 40) -> list[Document]:
    """Round-robin documents across styles until target_bytes is reached."""
    rng = RngState(seed)
    docs = []
    total = 0
    i = 0
    while total < target_bytes:
        style = styles[i % len(styles)]
        text = make_document(rng, style, doc_size)
        docs.append(Document(id=f"{style}-{i:05d}", domain=style, text=text))
        total += len(text.encode("utf-8"))
        i += 1
    return docs


def mixed_fixture_text(seed: int = 1234, target_bytes: int = 1_000_000) -> list[Document]:
    """The bundled mixed-text fixture used by tokenizer tests and the CLI."""
    return build_corpus(seed, target_bytes)


def mutate_words(rng: RngState, text: str, frac: float, contiguous: bool = True) -> str:
    """Replace a fraction of words, optionally as one contiguous block;
    handy for planting near-duplicates with a known overlap."""
    words = text.split()
    n = len(words)
    m = max(1, int(n * frac))
    if contiguous:
        start = int(rng.integers(0, max(1, n - m)))
        span = range(start, min(n, start + m))
    else:
        span = sorted(int(i) for i in
                      rng.permutation(n)[:m])
    for i in span:
        words[i] = _WORDS[int(rng.integers(0, len(_WORDS)))]
    return " ".join(words)
