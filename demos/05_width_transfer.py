"""Width transfer: tune small, scale up, verify activations stay put.

Hyperparameters are classified by the shape of the tensor they act on:
matrix-like parameters (both dims grow with width) get their learning rate
and init scaled down as width grows; vector-like ones don't.  The published
recipe tuned at width 512 and transferred to width 8192 — the ratio-16
transfer below reproduces the flagship values exactly.  A coordinate check
then validates the rule empirically: under a correct transfer, activation
scales barely move across widths; skip the rescaling and they explode.
"""
from desklm.corpus import pack
from desklm.mup import WidthPair, coordinate_check, transfer
from desklm.presets import (hyperparams_52b, hyperparams_mup_512, toy_config,
                            toy_hyperparams)
from desklm.synth import build_corpus
from desklm.tokenizer import train_bbpe


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


banner("The published width-512 -> width-8192 transfer (ratio 16)")
base, target = hyperparams_mup_512(), hyperparams_52b()
out = transfer(base, WidthPair(512, 8192))
print(f"{'field':12s} {'width 512':>12s} {'transferred':>12s} {'published':>12s}")
for field in ("matrix_lr", "vector_lr", "min_lr", "matrix_std", "vector_std",
              "output_mult", "input_mult"):
    b, o, t = (getattr(x, field) for x in (base, out, target))
    print(f"{field:12s} {b:>12.6g} {o:>12.6g} {t:>12.6g}")
print(f"transferred == published flagship row: {out == target}")
print(f"identity at ratio 1: {transfer(base, WidthPair(512, 512)) == base}")

banner("Coordinate check on toy widths 64 and 256")
docs = build_corpus(seed=12, target_bytes=150_000)
tok = train_bbpe([d.text for d in docs], 512, specials=("<pad>",))
packed = pack([tok.encode(d.text) for d in docs], 128, tok.specials["<pad>"])
widths = [64, 256]

result = coordinate_check(toy_config(), toy_hyperparams(), widths, steps=20,
                          packed=packed, seed=4, rows_per_batch=4)
print("with the transfer applied, peak pre-logit RMS per width:")
for w in widths:
    print(f"  width {w:3d}: {result.max_rms[w]:9.2f}")
ratio = max(result.max_rms.values()) / min(result.max_rms.values())
print(f"  spread {ratio:.2f}x (stable: < 3x)")

broken = coordinate_check(toy_config(), toy_hyperparams(), widths, steps=20,
                          packed=packed, seed=4, rows_per_batch=4, break_transfer=True)
print("with matrix learning-rate scaling deliberately skipped:")
for w in widths:
    print(f"  width {w:3d}: {broken.max_rms[w]:9.2f}")
ratio = max(broken.max_rms.values()) / min(broken.max_rms.values())
print(f"  spread {ratio:.2f}x — the wide model's activations blow up")
