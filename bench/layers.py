"""Which library calls the traced run wraps, and the per-layer metrics
computed from their spans.

Each metric is computed per traced iteration and the median over
iterations is reported, except the per-step timing distributions
(``trainer.*_ms`` below), which pool every sample of the run.  A layer a
workload does not reach reports 0.
"""

from __future__ import annotations

import os
import statistics

from desklm import corpus, evaluation, io, model, mup, synth, tensor, tokenizer, trainer

from tracing import Target, ancestor_attr, has_ancestor

STYLES = synth.STYLES
WIDTHS = (64, 128, 256)
# Forward ops whose self time is reported; swish and mul are not wrapped,
# so they stay inside swiglu_ffn's self time.
FWD_OPS = ("matmul", "bmm", "softmax_last", "scale", "add_const", "add",
           "rope_rotate", "rms_norm", "layer_norm", "swiglu_ffn",
           "softmax_cross_entropy", "embedding", "transpose", "reshape")


def _tape_size(root) -> int:
    """Nodes reachable from a loss tensor, parameter leaves included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _after_loss(span, args, kwargs, out):
    span.attrs["ops"] = _tape_size(out[0] if isinstance(out, tuple) else out)


def _encode_bytes(args, kwargs):
    text = args[1]
    return {"bytes": len(text.encode("utf-8") if isinstance(text, str) else text)}


def _model_width(args, kwargs):
    return {"width": args[0].config.hidden_size}


def _set(key, fn):
    def after(span, args, kwargs, out):
        span.attrs[key] = fn(out, args)
    return after


def targets() -> list[Target]:
    ts = [
        Target(synth, "build_corpus", "synth.build_corpus"),
        Target(corpus, "read_jsonl", "corpus.read_jsonl"),
        Target(corpus, "dedup_paragraphs", "corpus.dedup_paragraphs",
               after=_set("removed", lambda out, a: out[1])),
        Target(corpus, "dedup", "corpus.dedup",
               after=_set("removed", lambda out, a: len(out[1]))),
        Target(corpus, "estimate_jaccard", "corpus.estimate_jaccard"),
        Target(corpus, "pack", "corpus.pack"),
        Target(corpus, "save_packed", "corpus.save_packed"),
        Target(tokenizer, "train_bbpe", "tokenizer.train_bbpe",
               after=_set("merges", lambda out, a: len(out.merges))),
        Target(tokenizer.TokenizerModel, "encode", "tokenizer.encode", attrs=_encode_bytes),
        Target(tensor.Tensor, "backward", "tensor.backward"),
        Target(model, "attention_bias", "model.attention_bias"),
        Target(model.Model, "build", "model.build", attrs=lambda a, k: {"width": a[1].hidden_size}),
        Target(model.Model, "forward", "model.forward"),
        Target(model.Model, "loss", "model.loss", after=_after_loss),
        Target(model.Model, "save", "model.save"),
        Target(model.Model, "load", "model.load"),
        Target(trainer, "train", "trainer.train",
               after=_set("skipped", lambda out, a: out.skipped_steps)),
        Target(trainer, "train_step", "trainer.train_step", attrs=_model_width),
        Target(trainer, "run_coord_steps", "trainer.run_coord_steps", attrs=_model_width),
        Target(trainer, "clip_gradients", "trainer.clip_gradients"),
        Target(trainer, "detect_spike", "trainer.detect_spike"),
        Target(trainer, "batch_iterator", "trainer.batch_wait", generator=True),
        Target(trainer.AdamState, "apply", "trainer.adam"),
        Target(mup, "coordinate_check", "mup.coordinate_check"),
        Target(io, "save_arrays", "io.save_arrays",
               after=_set("bytes", lambda out, a: os.path.getsize(a[0]))),
        Target(io, "load_arrays", "io.load_arrays"),
        Target(evaluation, "load_eval_set", "evaluation.load_eval_set",
               attrs=lambda a, k: {"style": a[0]}),
        Target(evaluation, "domain_loss", "evaluation.domain_loss",
               attrs=lambda a, k: {"style": a[2].name}),
        Target(evaluation, "build_report", "evaluation.build_report",
               after=_set("tokens", lambda out, a: sum(r["token_count"] for r in out.rows))),
    ]
    ts += [Target(tensor, op, f"tensor.{op}") for op in FWD_OPS]
    return ts


# -- metrics ------------------------------------------------------------------

# name -> (unit, how it is computed / what a ratio is a share of)
METRICS = {
    "synth.build_corpus_s": ("s", "synth.build_corpus per set-up"),
    "corpus.read_jsonl_s": ("s", "per iteration"),
    "corpus.dedup_paragraphs_s": ("s", "per iteration"),
    "corpus.paragraphs_removed": ("count", "exact paragraph repeats removed per iteration"),
    "corpus.dedup_s": ("s", "MinHash/LSH dedup per iteration"),
    "corpus.jaccard_calls": ("count", "signature comparisons per iteration"),
    "corpus.dedup_useful_ratio": ("ratio", "docs removed / Jaccard calls"),
    "corpus.planted_recall": ("ratio", "planted near-duplicates removed / planted"),
    "corpus.pack_s": ("s", "per iteration"),
    "corpus.save_packed_s": ("s", "per iteration"),
    "tokenizer.train_bbpe_s": ("s", "per iteration"),
    "tokenizer.merges_per_s": ("1/s", "merges learned / train_bbpe seconds"),
    "tokenizer.encode_s": ("s", "all encode calls per iteration"),
    **{f"tokenizer.encode_mb_per_s.{s}": ("MB/s", f"{s} bytes / encode seconds")
       for s in STYLES},
    **{f"tensor.fwd_ms.{op}": ("ms", "self time per Model.loss call") for op in FWD_OPS},
    "tensor.backward_ms": ("ms", "per Tensor.backward call"),
    "tensor.ops_per_step": ("count", "tape nodes per Model.loss, leaves included"),
    "model.forward_ms": ("ms", "per Model.forward call"),
    "model.loss_ms": ("ms", "per Model.loss call, forward included"),
    "model.attention_bias_ms": ("ms", "per Model.forward call"),
    "trainer.step_ms.p50": ("ms", "train_step, all widths pooled"),
    "trainer.step_ms.p90": ("ms", "train_step, all widths pooled"),
    "trainer.step_ms.n": ("count", "train_step samples behind p50/p90"),
    **{f"trainer.step_ms.w{w}": ("ms", f"median train_step at width {w}") for w in WIDTHS},
    "trainer.adam_ms": ("ms", "median per AdamState.apply"),
    "trainer.clip_ms": ("ms", "median per clip_gradients"),
    "trainer.batch_wait_ms": ("ms", "median per batch drawn"),
    "trainer.detect_spike_ms": ("ms", "median per detect_spike"),
    "trainer.ckpt_stall_ms": ("ms", "median per checkpoint written inside train"),
    "trainer.skipped_steps": ("count", "per iteration"),
    **{f"mup.width_s.{w}": ("s", f"build + steps at width {w} per coordinate_check")
       for w in WIDTHS},
    "mup.rms_spread": ("ratio", "max / min peak pre-logit RMS across widths"),
    "io.save_arrays_s": ("s", "per iteration"),
    "io.load_arrays_s": ("s", "per iteration"),
    "io.bytes_written": ("count", "bytes written by save_arrays per iteration"),
    "evaluation.load_eval_set_s": ("s", "per iteration"),
    "evaluation.domain_loss_s": ("s", "per iteration"),
    "evaluation.encode_share": ("ratio", "encode seconds / (load_eval_set + build_report) seconds"),
    "evaluation.tokens_per_s": ("tokens/s", "eval tokens / build_report seconds"),
    "proc.cpu_util": ("ratio", "CPU s of self + children / (wall s x nproc), untraced iterations"),
    "trace.overhead_s": ("s", "median traced minus median untraced iteration wall"),
    "trace.spans": ("count", "spans per traced iteration"),
}


class Spans:
    """Index over the spans of one traced iteration."""

    def __init__(self, spans):
        self.all = spans
        self.by_id = {s.id: s for s in spans}
        self.by_name: dict = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)

    def named(self, name):
        return self.by_name.get(name, [])

    def total(self, name) -> float:
        return sum(s.duration for s in self.named(name))

    def self_total(self, name) -> float:
        return sum(s.self_time for s in self.named(name))

    def count(self, name) -> int:
        return len(self.named(name))

    def attr_sum(self, name, key) -> float:
        return sum(s.attrs.get(key, 0) for s in self.named(name))

    def under(self, name, roots):
        return [s for s in self.named(name) if has_ancestor(self.by_id, s, roots)]


def _div(a, b):
    return a / b if b else 0.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _eval_encode(sp: Spans):
    """(seconds in encode during eval, seconds of eval)."""
    enc_s = sum(s.duration for s in sp.under(
        "tokenizer.encode", ("evaluation.load_eval_set", "evaluation.build_report")))
    return enc_s, sp.total("evaluation.load_eval_set") + sp.total("evaluation.build_report")


def iteration_metrics(sp: Spans, facts: dict) -> dict:
    """Metrics of one traced iteration; ``facts`` come from the workload."""
    m = {}
    for key in ("read_jsonl", "dedup_paragraphs", "dedup", "pack", "save_packed"):
        m[f"corpus.{key}_s"] = sp.total(f"corpus.{key}")
    m["corpus.paragraphs_removed"] = sp.attr_sum("corpus.dedup_paragraphs", "removed")
    calls = sp.count("corpus.estimate_jaccard")
    m["corpus.jaccard_calls"] = calls
    m["corpus.dedup_useful_ratio"] = _div(sp.attr_sum("corpus.dedup", "removed"), calls)
    m["corpus.planted_recall"] = facts.get("planted_recall", 0.0)

    bbpe_s = sp.total("tokenizer.train_bbpe")
    m["tokenizer.train_bbpe_s"] = bbpe_s
    m["tokenizer.merges_per_s"] = _div(sp.attr_sum("tokenizer.train_bbpe", "merges"), bbpe_s)
    m["tokenizer.encode_s"] = sp.total("tokenizer.encode")
    per_style = {s: [0, 0.0] for s in STYLES}
    for s in sp.named("tokenizer.encode"):
        style = ancestor_attr(sp.by_id, s, "style")
        if style in per_style:
            per_style[style][0] += s.attrs["bytes"]
            per_style[style][1] += s.duration
    for style, (nbytes, secs) in per_style.items():
        m[f"tokenizer.encode_mb_per_s.{style}"] = _div(nbytes / 1e6, secs)

    n_loss = sp.count("model.loss")
    for op in FWD_OPS:
        m[f"tensor.fwd_ms.{op}"] = _div(sp.self_total(f"tensor.{op}") * 1e3, n_loss)
    m["tensor.backward_ms"] = _div(sp.total("tensor.backward") * 1e3, sp.count("tensor.backward"))
    m["tensor.ops_per_step"] = _median([s.attrs["ops"] for s in sp.named("model.loss")])
    n_fwd = sp.count("model.forward")
    m["model.forward_ms"] = _div(sp.total("model.forward") * 1e3, n_fwd)
    m["model.loss_ms"] = _div(sp.total("model.loss") * 1e3, n_loss)
    m["model.attention_bias_ms"] = _div(sp.total("model.attention_bias") * 1e3, n_fwd)

    m["trainer.skipped_steps"] = sp.attr_sum("trainer.train", "skipped")
    for w in WIDTHS:
        m[f"mup.width_s.{w}"] = sum(
            s.duration for name in ("model.build", "trainer.run_coord_steps")
            for s in sp.under(name, ("mup.coordinate_check",)) if s.attrs["width"] == w)
    m["mup.rms_spread"] = facts.get("rms_spread", 0.0)

    m["io.save_arrays_s"] = sp.total("io.save_arrays")
    m["io.load_arrays_s"] = sp.total("io.load_arrays")
    m["io.bytes_written"] = sp.attr_sum("io.save_arrays", "bytes")

    m["evaluation.load_eval_set_s"] = sp.total("evaluation.load_eval_set")
    m["evaluation.domain_loss_s"] = sp.total("evaluation.domain_loss")
    m["evaluation.encode_share"] = _div(*_eval_encode(sp))
    m["evaluation.tokens_per_s"] = _div(sp.attr_sum("evaluation.build_report", "tokens"),
                                        sp.total("evaluation.build_report"))
    m["trace.spans"] = len(sp.all)
    return m


def pooled_metrics(iters: list) -> dict:
    """Per-call timing distributions over every traced iteration."""
    def ms(name, filt=lambda s: True):
        return [s.duration * 1e3 for sp in iters for s in sp.named(name) if filt(s)]

    steps = ms("trainer.train_step")
    m = {
        "trainer.step_ms.p50": _median(steps),
        "trainer.step_ms.p90": (statistics.quantiles(steps, n=10)[-1]
                                if len(steps) >= 2 else _median(steps)),
        "trainer.step_ms.n": len(steps),
        "trainer.adam_ms": _median(ms("trainer.adam")),
        "trainer.clip_ms": _median(ms("trainer.clip_gradients")),
        "trainer.batch_wait_ms": _median(ms("trainer.batch_wait")),
        "trainer.detect_spike_ms": _median(ms("trainer.detect_spike")),
        "trainer.ckpt_stall_ms": _median([
            s.duration * 1e3 for sp in iters for s in sp.under("model.save", ("trainer.train",))]),
    }
    for w in WIDTHS:
        m[f"trainer.step_ms.w{w}"] = _median(
            ms("trainer.train_step", lambda s, w=w: s.attrs["width"] == w))
    return m


def ratio_bases(traced: list, facts: list) -> dict:
    """Numerator and denominator behind each ratio, summed over the
    traced iterations, for printing beside the ratio."""
    def tot(name, key=None):
        return sum(sp.attr_sum(name, key) if key else sp.total(name) for sp in traced)

    def fact(key):
        return sum(f.get(key, 0) for f in facts)

    n = len(traced)
    calls = sum(sp.count("corpus.estimate_jaccard") for sp in traced)
    enc_s = sum(_eval_encode(sp)[0] for sp in traced)
    eval_s = sum(_eval_encode(sp)[1] for sp in traced)
    notes = {
        "corpus.dedup_useful_ratio":
            f"{tot('corpus.dedup', 'removed'):.0f} docs removed / {calls} Jaccard calls",
        "corpus.planted_recall":
            f"{fact('near_removed')} removed / {fact('near_planted')} planted near-duplicates",
        "tokenizer.merges_per_s":
            f"{tot('tokenizer.train_bbpe', 'merges'):.0f} merges / "
            f"{tot('tokenizer.train_bbpe'):.3f} s",
        "evaluation.encode_share": f"{enc_s:.3f} s encode / {eval_s:.3f} s eval",
        "evaluation.tokens_per_s":
            f"{tot('evaluation.build_report', 'tokens'):.0f} tokens / "
            f"{tot('evaluation.build_report'):.3f} s",
        "mup.rms_spread": f"max {max((f.get('rms_max', 0) for f in facts), default=0):.4g} / "
                          f"min {min((f.get('rms_min', 0) for f in facts), default=0):.4g}",
    }
    return {k: f"{v}, over {n} traced iterations" for k, v in notes.items()}


def run_metrics(traced: list, facts: list, setups: list) -> dict:
    """Per-layer metrics of a run, less the process and overhead ones."""
    per_iter = [iteration_metrics(sp, f) for sp, f in zip(traced, facts)]
    out = {k: _median([m[k] for m in per_iter]) for k in per_iter[0]}
    out.update(pooled_metrics(traced))
    out["synth.build_corpus_s"] = _median([sp.total("synth.build_corpus") for sp in setups])
    return out
