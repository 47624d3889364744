"""Byte-level BPE tokenizer.

The base alphabet is always the 256 byte values (ids 0..255), so any byte
sequence round-trips losslessly, including invalid UTF-8.  Optional special
tokens sit right after the base alphabet; learned merge tokens follow.  A
model is its ordered specials and merges, and its file stores only those.

Training greedily merges the highest-frequency adjacent pair.  Ties break
deterministically: lexicographically smallest left token bytes, then right.
By default text is split on Unicode whitespace runs before counting, so no
merge ever crosses a word/whitespace boundary; ``word_split=False`` lifts
that restriction.  The best pair comes off a lazily invalidated heap, and a
merge updates only the pair counts next to its sites.

Encoding applies merges in creation order (lowest rank first, left to
right) in one pass over the symbols, driven by a min-heap of (rank,
position) that takes only the two new neighbour pairs of each merge.
Word-split models encode per whitespace chunk with a cache, which matches
whole-text application because no learned merge spans a chunk boundary.
The test oracles ``reference_encode`` and ``reference_bbpe`` pin both paths.
"""

from __future__ import annotations

import heapq
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import io as dio
from .errors import ConfigError

_CHUNK_RE = re.compile(r"\s+|\S+")
TOKENIZER_VERSION = 2


def _to_bytes(text) -> bytes:
    return text.encode("utf-8") if isinstance(text, str) else bytes(text)


def _chunks(data: bytes) -> list[bytes]:
    """Partition bytes into alternating whitespace / non-whitespace runs.

    surrogateescape makes the str round trip lossless for arbitrary bytes,
    and escape surrogates never count as whitespace.
    """
    s = data.decode("utf-8", errors="surrogateescape")
    return [c.encode("utf-8", errors="surrogateescape") for c in _CHUNK_RE.findall(s)]


class TokenizerModel:
    """A tokenizer as training makes it: merge rules and special names in id
    order (``specials`` maps each to 256 plus its position), from which the
    vocabulary is derived: 256 bytes, the names in UTF-8, then each merge.
    Each merge joins two earlier ids, and no pair is merged twice."""

    def __init__(self, merges: list[tuple[int, int]], specials: list[str],
                 word_split: bool = True):
        self.merges = [tuple(m) for m in merges]
        self.specials = {name: 256 + j for j, name in enumerate(specials)}
        if len(self.specials) != len(specials):
            raise ValueError(f"duplicate special token names in {list(specials)}")
        self.word_split = bool(word_split)
        self.ranks: dict[tuple, int] = {}
        self._cache: dict[bytes, list[int]] = {}
        self.vocab = [bytes([i]) for i in range(256)] + [n.encode("utf-8") for n in self.specials]
        for k, (l, r) in enumerate(self.merges):
            if not (0 <= l < len(self.vocab) and 0 <= r < len(self.vocab)):
                raise ValueError(f"merge {k} references undefined token ids ({l}, {r})")
            if (l, r) in self.ranks:    # encode would apply only one of the two
                raise ValueError(f"merge {k} repeats merge {self.ranks[l, r]}, ({l}, {r})")
            self.ranks[l, r] = k
            self.vocab.append(self.vocab[l] + self.vocab[r])

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def pad_id(self) -> int:
        """The ``<pad>`` special if there is one, else 0.  Padding positions
        carry segment id 0 everywhere downstream, so the value is inert."""
        return self.specials.get("<pad>", 0)

    # -- encode / decode ---------------------------------------------------

    def _bpe(self, bs: bytes) -> list[int]:
        # A pair holding the new token ranks above it and equal ranks pop left
        # to right, so this replays the merges in creation order.  Merged-away
        # slots hold -1 and are skipped; -2 ends the list and, as syms[-1],
        # is the head's left neighbour.
        syms = [*bs, -2]
        ranks, merges = self.ranks, self.merges
        heap = [(r, i) for i, r in enumerate(map(ranks.get, zip(syms, syms[1:])))
                if r is not None]
        heapq.heapify(heap)
        base = 256 + len(self.specials)
        while heap:
            rank, i = heapq.heappop(heap)
            j = i + 1
            while syms[j] == -1:
                j += 1
            if merges[rank] != (syms[i], syms[j]):
                continue
            new = syms[i] = base + rank
            syms[j] = -1
            k = j + 1
            while syms[k] == -1:
                k += 1
            r = ranks.get((new, syms[k]))
            if r is not None:
                heapq.heappush(heap, (r, i))
            p = i - 1
            while syms[p] == -1:
                p -= 1
            r = ranks.get((syms[p], new))
            if r is not None:
                heapq.heappush(heap, (r, p))
        return [s for s in syms if s >= 0]

    def encode(self, text) -> list[int]:
        """Byte sequence (or str, taken as UTF-8) to token ids.

        Deterministic; never emits special tokens; lossless under decode.
        """
        data = _to_bytes(text)
        if not data:
            return []
        if not self.word_split:
            return self._bpe(data)
        out = []
        for chunk in _chunks(data):
            got = self._cache.get(chunk)
            if got is None:
                got = self._bpe(chunk)
                if len(self._cache) < 1_000_000:
                    self._cache[chunk] = got
            out.extend(got)
        return out

    def decode(self, ids) -> bytes:
        """Token ids back to bytes.  Unknown ids raise ValueError."""
        parts = []
        for i in ids:
            if not (0 <= i < len(self.vocab)):
                raise ValueError(f"token id {i} outside vocab of size {len(self.vocab)}")
            parts.append(self.vocab[i])
        return b"".join(parts)

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"version": TOKENIZER_VERSION, "word_split": self.word_split,
                "specials": list(self.specials), "merges": [list(m) for m in self.merges]}

    def save(self, path):
        with dio.atomic_open(path) as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=1)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "TokenizerModel":
        obj = dio.read_json(path)   # version first: an older file has other fields
        if isinstance(obj, dict) and obj.get("version", TOKENIZER_VERSION) != TOKENIZER_VERSION:
            raise ValueError(f"{path}: unsupported tokenizer version {obj['version']!r}")
        saved = dio.decode_record(_SavedTokenizer, obj, path)
        try:
            return cls(saved.merges, saved.specials, saved.word_split)
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from e


@dataclass
class _SavedTokenizer:
    """A tokenizer file, as :meth:`TokenizerModel.to_dict` writes it."""
    version: int
    word_split: bool
    specials: list[str]
    merges: list[list[int]]


def _initial_words(corpus, word_split: bool) -> Counter:
    """Count occurrences of each training unit (whitespace chunk or whole
    document) as bytes."""
    counts: Counter = Counter()
    for doc in corpus:
        data = _to_bytes(doc)
        if not data:
            continue
        if word_split:
            for chunk in _chunks(data):
                counts[chunk] += 1
        else:
            counts[data] += 1
    return counts


def _merge_word(syms, pair: tuple, new_id: int):
    """``syms`` with each non-overlapping occurrence of ``pair``, left to
    right, replaced by ``new_id``, and the change in the word's pair counts:
    down for the pairs at and beside each site, up for those holding new_id."""
    a, b = pair
    out, delta = [], defaultdict(int)
    start, i, last = 0, 0, len(syms) - 1
    while True:
        try:
            i = syms.index(a, i, last)
        except ValueError:
            return out + syms[start:], delta
        if syms[i + 1] != b:
            i += 1
            continue
        out += syms[start:i]
        if out:
            left = out[-1]
            if left != new_id:  # else the previous site already counted (b, a)
                delta[left, a] -= 1
            delta[left, new_id] += 1
        delta[pair] -= 1
        if i + 1 < last:
            delta[b, syms[i + 2]] -= 1
            if tuple(syms[i + 2:i + 4]) != pair:  # no site right after this one
                delta[new_id, syms[i + 2]] += 1
        out.append(new_id)
        start = i = i + 2


def train_bbpe(corpus, vocab_size: int, specials=(), word_split: bool = True) -> TokenizerModel:
    """Learn a byte-level BPE tokenizer.

    corpus: iterable of str or bytes documents.
    vocab_size: total target size including the 256-byte base alphabet and
    any specials.  Training stops early only when no adjacent pair is left
    to merge.  Growing vocab_size extends the merge list of a smaller run
    on the same corpus (the tie-break is deterministic, so the greedy
    sequence is a prefix).
    """
    specials = list(specials)
    vocab = TokenizerModel([], specials).vocab
    if vocab_size < len(vocab):
        raise ValueError(
            f"vocab_size {vocab_size} cannot hold 256 bytes + {len(specials)} specials")

    word_counts = _initial_words(corpus, word_split)
    words, wfreq = [list(w) for w in word_counts], list(word_counts.values())

    pair_counts, pair_words = {}, {}
    for wi, syms in enumerate(words):
        c = wfreq[wi]
        for pair in zip(syms, syms[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + c
            pair_words.setdefault(pair, set()).add(wi)

    # A pair's count rises only in the merge that creates one of its tokens,
    # so no heap entry ranks a pair too low, and a popped entry with a stale
    # count is pushed back with the current one.  The key is the tie-break.
    def key(p):
        return -pair_counts[p], vocab[p[0]], vocab[p[1]], p

    heap = [key(p) for p in pair_counts]
    heapq.heapify(heap)
    merges: list[tuple[int, int]] = []
    while len(vocab) < vocab_size and heap:
        neg, _, _, best = heapq.heappop(heap)
        if pair_counts.get(best, 0) != -neg:
            if best in pair_counts:
                heapq.heappush(heap, key(best))
            continue
        new_id = len(vocab)
        vocab.append(vocab[best[0]] + vocab[best[1]])
        merges.append(best)
        born = set()
        # pair_words may still list words that lost the pair; they merge to no change.
        for wi in pair_words.pop(best):
            words[wi], delta = _merge_word(words[wi], best, new_id)
            for p, d in delta.items():
                left = pair_counts.get(p, 0) + d * wfreq[wi]
                if left:
                    pair_counts[p] = left
                else:
                    del pair_counts[p]
                    pair_words.pop(p, None)
                if d > 0:
                    pair_words.setdefault(p, set()).add(wi)
                    born.add(p)
        for p in born:
            heapq.heappush(heap, key(p))

    return TokenizerModel(merges, specials, word_split=word_split)


# -- compression metrics ----------------------------------------------------

def compression_ratio(model: TokenizerModel, corpus) -> float:
    """Tokens per byte over a corpus of documents; lower is better.

    A merge-free tokenizer scores exactly 1.0.
    """
    tokens = 0
    nbytes = 0
    for doc in corpus:
        data = _to_bytes(doc)
        tokens += len(model.encode(data))
        nbytes += len(data)
    if nbytes == 0:
        raise ValueError("compression_ratio needs a non-empty corpus")
    return tokens / nbytes


def compression_table(model: TokenizerModel, docs_by_domain: dict) -> list:
    """Per-domain compression: a list of {domain, byte_count, token_count,
    ratio} dicts in sorted domain order."""
    rows = []
    for domain in sorted(docs_by_domain):
        docs = docs_by_domain[domain]
        nbytes = sum(len(_to_bytes(d)) for d in docs)
        ntok = sum(len(model.encode(d)) for d in docs)
        if nbytes == 0:
            raise ValueError(f"domain {domain!r} has no bytes")
        rows.append({"domain": domain, "byte_count": nbytes,
                     "token_count": ntok, "ratio": ntok / nbytes})
    return rows
