"""Corpus pipeline: deduplicate, plan the mixture, pack into rows.

Three stages that decide what a model actually trains on.  MinHash/LSH
near-duplicate removal keeps repeated documents from being memorized;
the sampling planner turns a domain mixture into integer token quotas and
refuses infeasible ones; the packer lays token streams into fixed-length
rows with document boundaries preserved for attention masking.
"""
from desklm.corpus import Document, dedup, pack, sample_plan
from desklm.errors import PlanningError
from desklm.presets import reference_manifest
from desklm.synth import build_corpus, mutate_words
from desklm.tensor import RngState
from desklm.tokenizer import train_bbpe


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


banner("Near-duplicate removal")
docs = build_corpus(seed=8, target_bytes=40_000)
near = mutate_words(RngState(3), docs[0].text, 0.05)   # 95% word overlap
planted = docs + [
    Document(id="exact-copy", domain=docs[6].domain, text=docs[6].text),
    Document(id="near-copy", domain=docs[0].domain, text=near),
]
kept, removals = dedup(planted, threshold=0.5)
print(f"{len(planted)} documents in, {len(kept)} kept")
for r in removals:
    print(f"  dropped {r.dropped_id!r}: estimated Jaccard "
          f"{r.est_jaccard:.2f} against {r.matched_id!r}")
kept2, removals2 = dedup(kept, threshold=0.5)
print(f"second pass removes {len(removals2)} documents (idempotent)")

banner("The published 11-domain mixture as a sampling plan")
manifest = reference_manifest()
plan = sample_plan(manifest)
specs = {d.name: d for d in manifest.domains}
print(f"{'domain':22s} {'proportion':>10s} {'epochs':>7s} {'token quota':>18s}")
for q in plan:
    spec = specs[q.name]
    print(f"{q.name:22s} {spec.sampling_prop:>10.4f} {spec.epochs:>7.1f} "
          f"{q.quota:>18,d}")
print(f"{'total':22s} {'':>10s} {'':>7s} {sum(q.quota for q in plan):>18,d}")

banner("Feasibility is checked when token yields are known")
print("at 1.0 tokens per byte the math domain cannot fill its quota:")
try:
    sample_plan(reference_manifest(tokens_per_byte=1.0))
except PlanningError as e:
    print(f"  PlanningError: {e}")
    print(f"  infeasible domains: {e.domains}")

banner("Packing documents into training rows")
small = build_corpus(seed=2, target_bytes=6_000)
tok = train_bbpe([d.text for d in small], 300, specials=("<pad>",))
token_docs = [tok.encode(d.text) for d in small]
tokens, segments = pack(token_docs, context_length=32, pad_id=tok.specials["<pad>"])
total = sum(len(t) for t in token_docs)
pad_frac = float((segments == 0).mean())
print(f"{len(token_docs)} documents, {total} tokens -> "
      f"{tokens.shape[0]} rows of {tokens.shape[1]} "
      f"({pad_frac:.2%} padding, all in the final row)")
boundary_row = next(i for i in range(tokens.shape[0])
                    if len({s for s in segments[i] if s > 0}) > 1)
print(f"segment ids of row {boundary_row}, where one document ends and "
      f"the next begins:")
print(" ", segments[boundary_row].tolist())
