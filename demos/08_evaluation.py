"""Bits-per-byte evaluation: the metric that makes models comparable.

Per-token loss depends on the tokenizer, so cross-model comparisons use
bits per byte: loss_nats * (tokens / bytes) / ln 2.  A model that
compresses text better gets credit for it.  This demo scores a small
trained model on held-out synthetic domains, then replays the published
aggregate arithmetic digit for digit.
"""
from desklm.corpus import pack
from desklm.evaluation import (bpb, build_report, direct_average,
                               load_eval_set, weighted_sum)
from desklm.model import Model
from desklm.presets import toy_config, toy_hyperparams
from desklm.synth import STYLES, build_corpus
from desklm.tensor import RngState
from desklm.tokenizer import train_bbpe
from desklm.trainer import Schedule, batch_iterator, train


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


banner("Train briefly, then evaluate held-out domains")
train_docs = build_corpus(seed=40, target_bytes=150_000)
tok = train_bbpe([d.text for d in train_docs], 512, specials=("<pad>",))
packed = pack([tok.encode(d.text) for d in train_docs], 128, tok.specials["<pad>"])
hp = toy_hyperparams(steps=120, batch_tokens=512, warmup_steps=12)
model = Model.build(toy_config(), hp, RngState(0))
result = train(model, Schedule.from_hyperparams(hp),
               batch_iterator(packed, 4, 120, seed=3), steps=120)
print(f"trained {len(result.log)} steps, final loss {result.log[-1].loss:.3f}")

held_out = build_corpus(seed=77, target_bytes=30_000)
eval_sets = [load_eval_set(s, [d.text for d in held_out if d.domain == s], tok)
             for s in STYLES]
report = build_report(model, tok, eval_sets,
                      weight_profiles={"flat": {s: 1 / len(STYLES) for s in STYLES}})
print(f"\n{'domain':18s} {'loss(nats)':>10s} {'tok/byte':>9s} {'bpb':>7s}")
for row in report.rows:
    ratio = row["token_count"] / row["byte_count"]
    print(f"{row['domain']:18s} {row['loss_nats']:>10.3f} {ratio:>9.3f} "
          f"{row['bpb']:>7.3f}")
for name, value in report.aggregates.items():
    print(f"{name:38s} {value:>7.3f}")

banner("Why bits per byte: a worked example")
loss, tokens, bytes_ = 1.598, 2438, 10_000
print(f"loss {loss} nats on {tokens} tokens over {bytes_} bytes")
print(f"bpb = {loss} * ({tokens}/{bytes_}) / ln2 "
      f"= {bpb(loss, tokens, bytes_):.3f}")

banner("The published aggregate arithmetic, replayed")
domains = ["WebText", "Github", "Wikipedia", "Book", "ArXiv", "StackExchange"]
flagship_bpb = [0.562, 0.164, 0.570, 0.700, 0.567, 0.531]
external = [0.82, 0.045, 0.045, 0.045, 0.025, 0.02]
native = [0.7517, 0.1348, 0.0356, 0.0526, 0.0146, 0.0107]
print("six English validation domains, flagship model:")
for d, v in zip(domains, flagship_bpb):
    print(f"  {d:14s} {v:.3f}")
print(f"weighted by external proportions: "
      f"{weighted_sum(flagship_bpb, external):.3f}   (published 0.550)")
print(f"weighted by training proportions: "
      f"{weighted_sum(flagship_bpb, native):.3f}   (published 0.516)")
print(f"direct average:                   "
      f"{direct_average(flagship_bpb):.3f}")
print("\nall eight published aggregates (two languages, two model sizes)")
print("reproduce to three decimals in tests/test_acceptance.py.")
