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

import math
from dataclasses import asdict, dataclass, field

from . import corpus as corpus_mod
from . import io as dio
from .errors import ConfigError
from .model import Model, predicted_positions
from .tensor import Tensor

LN2 = math.log(2.0)
# Rows per forward of `domain_loss`, read at call time.  The count sets memory and,
# by summation order, a loss's last bits, so it is one constant, not a knob.
EVAL_ROWS = 8


@dataclass
class DomainEvalSet:
    name: str
    token_docs: list           # one list of token ids per document
    byte_count: int
    token_count: int


def load_eval_set(name: str, texts, tokenizer) -> DomainEvalSet:
    """Build an eval set from document texts, tokenizing each once and
    recomputing both counts."""
    texts = list(texts)
    for t in texts:
        if not isinstance(t, str):
            raise ConfigError(f"eval set {name!r}: got a {type(t).__name__}, not a str")
    if not texts:
        raise ConfigError(f"eval set {name!r} has no documents")
    byte_count = sum(len(t.encode("utf-8")) for t in texts)
    token_docs = [tokenizer.encode(t) for t in texts]
    token_count = sum(len(d) for d in token_docs)
    if byte_count == 0 or token_count == 0:
        raise ConfigError(f"eval set {name!r} is empty after tokenization")
    return DomainEvalSet(name=name, token_docs=token_docs,
                         byte_count=byte_count, token_count=token_count)


def domain_loss(model, tokenizer, eval_set: DomainEvalSet) -> float:
    """Mean next-token loss (nats) over an eval set.

    Documents are packed without cross-document attention, exactly like
    training rows, padded with ``tokenizer.pad_id``; the mean is over all
    predicted positions (document boundaries inside a row included), so
    batching changes it only by rounding; each forward scores ``EVAL_ROWS`` rows.

    The forward runs over views of the parameters that need no gradient
    (same arrays, no copy), so it builds no tape and leaves ``model``'s
    gradients and ``last_stats`` as they were.
    """
    view = Model(model.config, model.multipliers,
                 {k: Tensor(p.data) for k, p in model.params.items()})
    tokens, segments = corpus_mod.pack(eval_set.token_docs, model.config.context_length,
                                       tokenizer.pad_id)
    total_nats = 0.0
    total_positions = 0
    for start in range(0, tokens.shape[0], EVAL_ROWS):
        tb = tokens[start:start + EVAL_ROWS]
        sb = segments[start:start + EVAL_ROWS]
        n = predicted_positions(sb).sum()
        if n == 0:
            continue
        total_nats += view.loss(tb, sb).item() * n
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


def check_weights(weights: dict, domains, where) -> dict:
    """``weights`` if it weighs exactly ``domains``, with no weight below 0,
    and sums to 1 within 1e-9; else a ConfigError starting with ``where``."""
    if sorted(weights) != sorted(domains):
        raise ConfigError(f"{where}: weights for {sorted(weights)}, "
                          f"but the domains are {sorted(domains)}")
    if bad := {k: w for k, w in weights.items() if not w >= 0}:
        raise ConfigError(f"{where}: weights must be non-negative, got {bad}")
    if not abs((total := sum(weights.values())) - 1.0) <= 1e-9:
        raise ConfigError(f"{where}: weights sum to {total!r}, expected 1")
    return weights


def weighted_sum(values, weights) -> float:
    """Sum of w_i * v_i, one weight per value under ``check_weights``."""
    values, weights = list(values), list(weights)
    if len(values) != len(weights):
        raise ConfigError(f"weighted_sum: {len(weights)} weights for {len(values)} values")
    check_weights(dict(enumerate(weights)), range(len(values)), "weighted_sum")
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
        return asdict(self)

    def save_json(self, path):
        dio.write_json(path, self.to_dict())

    def save_csv(self, path):
        dio.write_csv(path, ["domain", "loss_nats", "token_count", "byte_count", "bpb"], (
            [r["domain"], repr(r["loss_nats"]), r["token_count"], r["byte_count"], repr(r["bpb"])]
            for r in self.rows))


def build_report(model, tokenizer, eval_sets, weight_profiles: dict | None = None) -> BpbReport:
    """Per-domain BPB rows plus aggregates.

    weight_profiles maps a profile name to {domain: weight}; every profile
    must pass ``check_weights`` on the eval-set domains, which is checked
    before any domain is evaluated.
    """
    domains = [es.name for es in eval_sets]
    profiles = weight_profiles or {}
    for name, prof in profiles.items():
        check_weights(prof, domains, f"profile {name!r}")
    rows = []
    for es in eval_sets:
        loss = domain_loss(model, tokenizer, es)
        rows.append({
            "domain": es.name,
            "loss_nats": loss,
            "token_count": es.token_count,
            "byte_count": es.byte_count,
            "bpb": bpb(loss, es.token_count, es.byte_count),
        })
    bpbs = [r["bpb"] for r in rows]
    aggregates = {"direct_average": direct_average(bpbs)}
    for name, prof in profiles.items():
        aggregates[f"weighted:{name}"] = weighted_sum(bpbs, [prof[d] for d in domains])
    return BpbReport(rows=rows, aggregates=aggregates, weight_profiles=profiles)
