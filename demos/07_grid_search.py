"""Hyperparameter grid search, scored the way the production recipe scored it.

Every candidate trains on an identical seeded data order, then gets a score
combining the smoothed final loss with penalties for non-monotone loss
curves and rising gradient norms.  Diverged or aborted candidates score
infinity.  The ranking is invariant to the order candidates are listed in.
"""
from dataclasses import replace

from desklm.corpus import pack
from desklm.presets import toy_config, toy_hyperparams
from desklm.synth import build_corpus
from desklm.tokenizer import train_bbpe
from desklm.trainer import Job, run_grid


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


banner("Candidates")
base = toy_hyperparams(steps=60, batch_tokens=512, warmup_steps=6)
grid = [
    replace(base, matrix_lr=base.matrix_lr / 10),
    base,
    replace(base, matrix_lr=base.matrix_lr * 5),
    replace(base, matrix_lr=base.matrix_lr, output_mult=20.0),
]
for i, hp in enumerate(grid):
    print(f"  #{i}: matrix_lr={hp.matrix_lr:g}, output_mult={hp.output_mult:g}")

banner("Racing them for 60 steps each")
docs = build_corpus(seed=30, target_bytes=120_000)
tok = train_bbpe([d.text for d in docs], 512, specials=("<pad>",))
packed = pack([tok.encode(d.text) for d in docs], 128, tok.specials["<pad>"])

# one Job per candidate: same model, seed, rows and steps, so one data order
jobs = [Job(toy_config(), hp, seed=2, rows_per_batch=4, steps=60) for hp in grid]
entries = run_grid(jobs, packed)
print(f"{'rank':>4s} {'score':>8s} {'loss':>8s} {'nonmono':>8s} "
      f"{'gradpen':>8s}  config")
for rank, e in enumerate(entries):
    tag = (f"matrix_lr={e.config['matrix_learning_rate']:g}, "
           f"output_mult={e.config['output_mult']:g}")
    print(f"{rank:>4d} {e.score:>8.3f} {e.final_smoothed_loss:>8.3f} "
          f"{e.non_monotonicity:>8.3f} {e.grad_trend_penalty:>8.3f}  {tag}")
print("\nthe matrix learning rate is pinched from both sides (5x up or 10x")
print("down both lose), while a hot output multiplier buys short-horizon")
print("loss — exactly the kind of trade a longer validation run has to")
print("settle.  Scores are deterministic: rerunning reproduces this table.")
