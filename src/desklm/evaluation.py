"""Bits-per-byte evaluation.

BPB normalizes a model's per-token loss by how many bytes each token
covers, making models with different tokenizers comparable:

    bpb = loss_nats * (token_count / byte_count) / ln(2)

Reports carry per-domain rows plus two aggregate styles: the direct
(unweighted) average over domains and weighted sums under named weight
profiles.  Token counts are always recomputed from the tokenizer; byte
counts are the raw UTF-8 size of the documents.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import corpus as corpus_mod
from .errors import ConfigError

LN2 = math.log(2.0)


@dataclass
class DomainEvalSet:
    name: str
    documents: list            # raw text documents
    byte_count: int
    token_count: int


def load_eval_set(name: str, docs, tokenizer) -> DomainEvalSet:
    """Build an eval set from text documents, recomputing both counts."""
    texts = [d.text if hasattr(d, "text") else str(d) for d in docs]
    if not texts:
        raise ConfigError(f"eval set {name!r} has no documents")
    byte_count = sum(len(t.encode("utf-8")) for t in texts)
    token_count = sum(len(tokenizer.encode(t)) for t in texts)
    if byte_count == 0 or token_count == 0:
        raise ConfigError(f"eval set {name!r} is empty after tokenization")
    return DomainEvalSet(name=name, documents=texts,
                         byte_count=byte_count, token_count=token_count)


def domain_loss(model, tokenizer, eval_set: DomainEvalSet,
                rows_per_batch: int = 8, pad_id: int = 0) -> float:
    """Mean next-token loss (nats) over an eval set.

    Documents are packed without cross-document attention, exactly like
    training rows; the mean is over all predicted positions (document
    boundaries inside a row included), so batching cannot change it.
    """
    if rows_per_batch <= 0:
        raise ConfigError(f"rows_per_batch must be positive, got {rows_per_batch}")
    ctx = model.config.context_length
    token_docs = [tokenizer.encode(t) for t in eval_set.documents]
    token_docs = [d for d in token_docs if len(d) >= 1]
    tokens, segments = corpus_mod.pack(token_docs, ctx, pad_id)
    total_nats = 0.0
    total_positions = 0
    for start in range(0, tokens.shape[0], rows_per_batch):
        tb = tokens[start:start + rows_per_batch]
        sb = segments[start:start + rows_per_batch]
        mask = np.zeros(tb.shape, dtype=np.float64)
        mask[:, :-1] = (sb[:, :-1] != 0) & (sb[:, 1:] != 0)
        n = mask.sum()
        if n == 0:
            continue
        loss = model.loss(tb, sb)
        total_nats += loss.item() * n
        total_positions += n
    if total_positions == 0:
        raise ConfigError(f"eval set {eval_set.name!r} has no predictable positions")
    return total_nats / total_positions


def bpb(loss_nats: float, token_count: int, byte_count: int) -> float:
    """Bits per byte from per-token loss and corpus-level counts."""
    if token_count <= 0 or byte_count <= 0:
        raise ConfigError("token_count and byte_count must be positive")
    if loss_nats < 0:
        raise ConfigError("loss must be non-negative")
    return loss_nats * (token_count / byte_count) / LN2


def weighted_sum(values, weights) -> float:
    """Sum of w_i * v_i; weights must sum to 1 within 1e-9."""
    values = list(values)
    weights = list(weights)
    if len(values) != len(weights):
        raise ConfigError(f"{len(values)} values but {len(weights)} weights")
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"weights sum to {total!r}, expected 1")
    return float(sum(w * v for w, v in zip(weights, values)))


def direct_average(values) -> float:
    values = list(values)
    if not values:
        raise ConfigError("direct_average of no values")
    return float(sum(values) / len(values))


@dataclass
class BpbReport:
    rows: list                      # {domain, loss_nats, token_count, byte_count, bpb}
    aggregates: dict                # {"direct_average": x, "weighted:<name>": y}
    weight_profiles: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"rows": self.rows, "aggregates": self.aggregates,
                "weight_profiles": self.weight_profiles}

    def save_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=2)
            f.write("\n")

    def save_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["domain", "loss_nats", "token_count", "byte_count", "bpb"])
            for r in self.rows:
                w.writerow([r["domain"], repr(r["loss_nats"]), r["token_count"],
                            r["byte_count"], repr(r["bpb"])])


def build_report(model, tokenizer, eval_sets, weight_profiles: dict | None = None,
                 rows_per_batch: int = 8) -> BpbReport:
    """Per-domain BPB rows plus aggregates.

    weight_profiles maps a profile name to {domain: weight}; every profile
    must cover exactly the eval-set domains and sum to 1.
    """
    rows = []
    for es in eval_sets:
        loss = domain_loss(model, tokenizer, es, rows_per_batch=rows_per_batch)
        rows.append({
            "domain": es.name,
            "loss_nats": loss,
            "token_count": es.token_count,
            "byte_count": es.byte_count,
            "bpb": bpb(loss, es.token_count, es.byte_count),
        })
    domains = [r["domain"] for r in rows]
    bpbs = [r["bpb"] for r in rows]
    aggregates = {"direct_average": direct_average(bpbs)}
    profiles = weight_profiles or {}
    for name, prof in profiles.items():
        if set(prof) != set(domains):
            raise ConfigError(
                f"profile {name!r} domains {sorted(prof)} do not match "
                f"eval domains {sorted(domains)}")
        aggregates[f"weighted:{name}"] = weighted_sum(bpbs, [prof[d] for d in domains])
    return BpbReport(rows=rows, aggregates=aggregates, weight_profiles=profiles)


def append_bpb_curve(path, tokens_seen: int, rows):
    """Append per-domain BPB points to a long-format CSV
    (tokens_seen, domain, bpb) suitable for plotting curves."""
    header_needed = True
    try:
        with open(path) as f:
            header_needed = not f.readline().strip()
    except FileNotFoundError:
        pass
    with open(path, "a", newline="") as f:
        w = csv.writer(f)
        if header_needed:
            w.writerow(["tokens_seen", "domain", "bpb"])
        for r in rows:
            w.writerow([tokens_seen, r["domain"], repr(r["bpb"])])
