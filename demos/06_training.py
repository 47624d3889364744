"""A monitored training run, then a sabotaged one.

The loop reproduces the production training mechanics at desk scale:
linear warmup into a cosine decay, separate matrix/vector learning rates,
global-norm gradient clipping, Adam, and a loss-spike detector that
classifies excursions as transient (log and continue) or sustained
(recommend aborting to a checkpoint).
"""
from dataclasses import replace

import numpy as np

from desklm.corpus import pack
from desklm.model import Model, ParamClass
from desklm.presets import toy_config, toy_hyperparams
from desklm.synth import build_corpus
from desklm.tensor import RngState
from desklm.tokenizer import train_bbpe
from desklm.trainer import (Schedule, batch_iterator, detect_spike, lr_at,
                            smoothed, train)


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


banner("The schedule, before any training")
hp = toy_hyperparams(steps=150, batch_tokens=512, warmup_steps=15)
sched = Schedule.from_hyperparams(hp)
for tokens in (0, 4 * 512, 15 * 512, 75 * 512, 150 * 512):
    lr_m = lr_at(sched, ParamClass.MATRIX, tokens)
    lr_v = lr_at(sched, ParamClass.VECTOR, tokens)
    print(f"  after {tokens:6d} tokens: matrix lr {lr_m:.5f}, vector lr {lr_v:.5f}")

banner("Training 150 steps")
docs = build_corpus(seed=20, target_bytes=120_000)
tok = train_bbpe([d.text for d in docs], 512, specials=("<pad>",))
packed = pack([tok.encode(d.text) for d in docs], 128, tok.specials["<pad>"])
model = Model.build(toy_config(), hp, RngState(0))

result = train(model, sched, batch_iterator(packed, 4, 150, seed=1), steps=150)
losses = [r.loss for r in result.log]
print(f"status: {result.status}, {len(result.log)} steps, "
      f"{result.log[-1].tokens:,} tokens")
print(f"loss: {losses[0]:.3f} (step 1) -> {losses[-1]:.3f} (step 150), "
      f"smoothed {smoothed(losses, 25)[-1]:.3f}")
print(f"spike events: {len(result.events)}")
print("last rows of the log (step, lr, loss, grad norm):")
for r in result.log[-3:]:
    print(f"  {r.step:4d}  {r.lr_matrix:.5f}  {r.loss:.4f}  {r.grad_norm:.3f}")

banner("Sabotage 1: an initialization that overflows float64")
bad_hp = replace(hp, matrix_std=1e200)
bad_model = Model.build(toy_config(), bad_hp, RngState(0))
with np.errstate(over="ignore", invalid="ignore"):
    bad = train(bad_model, Schedule.from_hyperparams(bad_hp),
                batch_iterator(packed, 4, 150, seed=1), steps=150)
print(f"status: {bad.status} after {len(bad.log)} step(s) — "
      f"the loop stops on the first non-finite loss")

banner("Sabotage 2: what the spike detector sees")
# Interestingly, hostile learning rates alone rarely spike this toy: global
# norm clipping plus RMSNorm everywhere make it very hard to destabilize.
# So drive the detector directly with the loss shapes it classifies.
calm = [(1.0 + 0.01 * (i % 2), 0.5 + 0.01 * (i % 2)) for i in range(97)]
transient = calm[:96] + [(5.0, 0.505), (6.0, 0.5), (5.5, 0.505)] + calm[:1]
event = detect_spike(transient)
print(f"3 bad steps, then recovery      -> {event.kind} "
      f"(length {event.length}, peak loss {event.peak_loss})")
sustained = calm[:70] + [(5.0 + 0.01 * i, 0.5) for i in range(27)]
event = detect_spike(sustained)
print(f"27 bad steps and still climbing -> {event.kind} "
      f"(training would stop with status 'abort_recommended')")
print(f"the calm window alone           -> {detect_spike(calm)}")
