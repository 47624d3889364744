"""Corpus curation: near-duplicate removal, domain sampling plans, and
sequence packing.

Documents travel as JSONL records ``{"id", "domain", "text"}``.  Dedup is
MinHash over 5-gram word shingles with LSH banding for candidate pairs;
an exact-hash pass handles verbatim paragraph repeats.  Sampling plans
turn per-domain proportions into integer token quotas.  Packing fills
fixed-length rows completely, splitting documents at row boundaries and
tagging each row position with a segment id so attention masks can stop
cross-document mixing.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, asdict
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import io as dio
from .errors import ConfigError, CorruptFileError, EmptyShingleError, PlanningError


@dataclass
class Document:
    id: str
    domain: str
    text: str


def read_jsonl(path) -> list[Document]:
    """The documents of a JSONL file, one per non-blank line."""
    return [dio.decode_record(Document, dio.parse_json(line, f"{path}:{n}"), f"{path}:{n}")
            for n, line in enumerate(Path(path).read_bytes().splitlines(), 1) if line.strip()]


def write_jsonl(path, records):
    """Write each record (a ``Document``, a ``Removal``) as one line of its
    fields, keys sorted, text as UTF-8."""
    with dio.atomic_open(path) as f:
        for r in records:
            f.write(json.dumps(asdict(r), ensure_ascii=False, sort_keys=True) + "\n")


# -- exact paragraph dedup ---------------------------------------------------

_WS_RE = re.compile(r"\s+")


def _normalize(text: str) -> str:
    return _WS_RE.sub(" ", text.lower()).strip()


def dedup_paragraphs(docs) -> tuple[list, int]:
    """Remove paragraphs whose normalized text already appeared anywhere
    earlier in the corpus (case-folded, whitespace-collapsed exact match).

    Returns (new documents, paragraphs removed).  Documents left empty are
    dropped entirely.
    """
    seen = set()
    out = []
    removed = 0
    for d in docs:
        kept = []
        for para in d.text.split("\n\n"):
            norm = _normalize(para)
            if not norm:
                kept.append(para)
                continue
            key = hashlib.blake2b(norm.encode("utf-8"), digest_size=16).digest()
            if key in seen:
                removed += 1
                continue
            seen.add(key)
            kept.append(para)
        text = "\n\n".join(kept)
        if text.strip():
            out.append(Document(id=d.id, domain=d.domain, text=text))
    return out, removed


# -- MinHash -----------------------------------------------------------------

# dedup's defaults, which the corpus-dedup flags also take
DEDUP_THRESHOLD, MINHASH_K, SHINGLE_N, MINHASH_SEED, LSH_BANDS = 0.8, 128, 5, 0, 16


def shingle_hashes(text: str, n: int = SHINGLE_N) -> np.ndarray:
    """64-bit hashes of n-gram word shingles (whitespace-normalized).

    Documents with fewer than n words contribute a single whole-text
    shingle; a document with no words raises EmptyShingleError.
    """
    if n < 1:
        raise ConfigError(f"shingle n must be >= 1, got {n}")
    words = text.split()
    if not words:
        raise EmptyShingleError("document has no words to shingle")
    if len(words) < n:
        grams = [" ".join(words)]
    else:
        grams = [" ".join(words[i:i + n]) for i in range(len(words) - n + 1)]
    out = np.empty(len(grams), dtype=np.uint64)
    for i, g in enumerate(grams):
        digest = hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest()
        out[i] = int.from_bytes(digest, "little")
    return np.unique(out)


def _permutations(k: int, seed: int):
    """Affine 64-bit hash mixers: odd multiplier a, offset b.

    Multiplication by an odd constant is a bijection mod 2^64, so each
    (a, b) pair permutes the shingle-hash space.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    a = gen.integers(0, 2 ** 63, size=k, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = gen.integers(0, 2 ** 63, size=k, dtype=np.uint64)
    return a, b


@dataclass
class MinHashSignature:
    k: int
    seed: int
    mins: np.ndarray   # k uint64 values

    def __eq__(self, other):
        return (self.k == other.k and self.seed == other.seed
                and np.array_equal(self.mins, other.mins))


def signature_from_hashes(hashes: np.ndarray, k: int, seed: int) -> MinHashSignature:
    if hashes.size == 0:
        raise EmptyShingleError("empty shingle set")
    a, b = _permutations(k, seed)
    # (n, k) permuted values; uint64 arithmetic wraps mod 2^64 by design.
    permuted = hashes[:, None] * a[None, :] + b[None, :]
    return MinHashSignature(k=k, seed=seed, mins=permuted.min(axis=0))


def estimate_jaccard(a: MinHashSignature, b: MinHashSignature) -> float:
    """Fraction of matching signature slots; unbiased estimate of Jaccard."""
    if a.k != b.k or a.seed != b.seed:
        raise ConfigError("signatures come from different permutation families")
    return float(np.mean(a.mins == b.mins))


@dataclass
class Removal:
    dropped_id: str
    matched_id: str
    est_jaccard: float


def dedup(docs, threshold: float = DEDUP_THRESHOLD, k: int = MINHASH_K,
          shingle_n: int = SHINGLE_N, seed: int = MINHASH_SEED,
          bands: int = LSH_BANDS) -> tuple[list, list]:
    """Greedy near-duplicate removal in input order.

    Each document is bucketed by LSH bands (k/bands rows per band); only
    documents sharing a band bucket with an already-kept document are
    compared, by full-signature Jaccard estimate.  At or above
    ``threshold`` the newcomer is dropped and logged against its best
    match.  Deterministic for fixed inputs and seed; idempotent because a
    second pass replays the identical keep decisions.

    Documents with no words are kept as-is (nothing to hash).
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigError("threshold must be in (0, 1]")
    for name, value in (("k", k), ("bands", bands), ("shingle_n", shingle_n)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if k % bands != 0:
        raise ConfigError(f"k={k} must divide evenly into {bands} bands")
    rows = k // bands
    buckets: dict = {}
    kept, removals = [], []
    signed = []     # (kept document, its signature); bucket entries index this list
    for doc in docs:
        try:
            sig = signature_from_hashes(shingle_hashes(doc.text, shingle_n), k, seed)
        except EmptyShingleError:
            kept.append(doc)
            continue
        band_keys = [(bi, sig.mins[bi * rows:(bi + 1) * rows].tobytes()) for bi in range(bands)]
        best, best_est = None, -1.0
        for ki in dict.fromkeys(i for key in band_keys for i in buckets.get(key, ())):
            est = estimate_jaccard(sig, signed[ki][1])
            if est > best_est:
                best, best_est = ki, est
        if best is not None and best_est >= threshold:
            removals.append(Removal(dropped_id=doc.id, matched_id=signed[best][0].id,
                                    est_jaccard=best_est))
            continue
        kept.append(doc)
        for key in band_keys:
            buckets.setdefault(key, []).append(len(signed))
        signed.append((doc, sig))
    return kept, removals


# -- manifest and sampling plan ----------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    name: str
    languages: list[str]
    path: str
    sampling_prop: float
    epochs: float
    size_bytes: int
    token_estimate: int | None = None
    quality: str | None = None     # carried through for operators; never computed

    def __post_init__(self):
        object.__setattr__(self, "languages", tuple(self.languages))   # unchangeable once made
        if not self.sampling_prop >= 0:
            raise ConfigError(f"domain {self.name}: negative sampling_prop")
        if not self.epochs > 0:
            raise ConfigError(f"domain {self.name}: epochs must be positive")
        if not self.size_bytes >= 0:
            raise ConfigError(f"domain {self.name}: negative size_bytes")
        if self.token_estimate is not None and not self.token_estimate >= 0:
            raise ConfigError(f"domain {self.name}: negative token_estimate")


@dataclass(frozen=True)
class CorpusManifest:
    domains: list[DomainSpec]
    total_token_budget: int

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))   # unchangeable once checked
        if not self.domains:
            raise ConfigError("manifest has no domains")
        names = [d.name for d in self.domains]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate domain names in manifest")
        total = sum(d.sampling_prop for d in self.domains)
        if not abs(total - 1.0) <= 1e-6:
            raise ConfigError(f"sampling proportions sum to {total!r}, expected 1")
        if not self.total_token_budget > 0:
            raise ConfigError(f"total_token_budget must be positive, got {self.total_token_budget}")

    def to_dict(self) -> dict:
        return asdict(self) | {"domains": [asdict(d) | {"languages": list(d.languages)}
                                           for d in self.domains]}   # JSON lists


@dataclass
class DomainQuota:
    name: str
    quota: int
    available: int | None    # epochs * token_estimate, None if unknown


def sample_plan(manifest: CorpusManifest, total_tokens: int | None = None) -> list:
    """Integer token quotas per domain.

    quota_i = round(prop_i * total); any rounding residue lands on the
    largest domain so the quotas sum to the total exactly.  A domain is
    infeasible when its quota exceeds epochs * token_estimate; any
    infeasible domain raises PlanningError naming the offenders (the full
    plan rides along on the exception).
    """
    total = manifest.total_token_budget if total_tokens is None else int(total_tokens)
    if total <= 0:
        raise ConfigError("total token budget must be positive")
    quotas = {d.name: int(round(d.sampling_prop * total)) for d in manifest.domains}
    residue = total - sum(quotas.values())
    largest = max(manifest.domains, key=lambda d: (d.sampling_prop, d.name)).name
    quotas[largest] += residue
    plan = [DomainQuota(name=d.name, quota=quotas[d.name],
                        available=None if d.token_estimate is None
                        else int(d.epochs * d.token_estimate))
            for d in manifest.domains]
    bad = [q.name for q in plan if q.available is not None and q.quota > q.available]
    if bad:
        raise PlanningError(
            f"sampling plan infeasible for domain(s) {', '.join(bad)}: "
            f"quota exceeds epochs * token_estimate", domains=bad, plan=plan)
    return plan


# -- packing -----------------------------------------------------------------

def sequences_per_step(batch_tokens: int, context_length: int) -> int:
    """How many packed rows form one optimizer step's batch."""
    if context_length <= 0:
        raise ConfigError("context_length must be positive")
    if batch_tokens % context_length != 0:
        raise ConfigError(
            f"batch_tokens {batch_tokens} not divisible by context {context_length}")
    return batch_tokens // context_length


def pack(token_docs, context_length: int, pad_id: int):
    """Pack documents (lists of token ids) into fixed-length rows.

    The non-empty documents are concatenated in order into one stream, which
    is padded with ``pad_id`` to whole rows; a document hitting a row boundary
    continues in the next row, so only the final row can contain padding.
    Each position is tagged with its document's number, and each row's tags
    are renumbered from 1 at its first document (documents in a row are
    consecutive), with 0 for padding: segment ids for cross-document
    attention masking and loss masks.  Non-pad positions == input tokens.

    Returns (tokens, segments) int32 arrays of shape [rows, context_length].
    """
    if context_length < 2:
        raise ConfigError("context_length must be at least 2")
    docs = [d for d in token_docs if len(d)]
    lengths = [len(d) for d in docs]
    n = sum(lengths)
    size = n + -n % context_length
    tokens = np.fromiter(chain(chain.from_iterable(docs), repeat(pad_id, size - n)),
                         np.int32, size).reshape(-1, context_length)
    segments = np.zeros(size, dtype=np.int32)
    segments[:n] = np.repeat(np.arange(1, len(docs) + 1, dtype=np.int32), lengths)
    segments = segments.reshape(-1, context_length)
    np.subtract(segments, segments[:, :1] - 1, out=segments, where=segments > 0)
    return tokens, segments


def save_packed(path, tokens, segments, meta: dict | None = None):
    m = {"kind": "packed", "context_length": int(tokens.shape[1])}
    if meta:
        m.update(meta)
    dio.save_arrays(path, {"tokens": tokens.astype(np.int32),
                           "segments": segments.astype(np.int32)}, m)


def load_packed(path):
    arrays, meta = dio.load_arrays(path)
    if meta.get("kind") != "packed":
        raise ConfigError(f"{path} is not a packed-token file")
    got = {k: (a.dtype.str, a.shape) for k, a in arrays.items()}
    shape = got.get("tokens", (None, ()))[1]
    if len(shape) != 2 or got != {"tokens": ("<i4", shape), "segments": ("<i4", shape)}:
        raise CorruptFileError(f"{path}: a packed file holds two 2-D <i4 arrays of one shape, "
                               f"tokens and segments, not {got}")
    if meta.get("context_length") != shape[1]:
        raise CorruptFileError(f"{path}: header context_length {meta.get('context_length')!r} "
                               f"differs from its rows of {shape[1]} tokens")
    return arrays["tokens"], arrays["segments"], meta
