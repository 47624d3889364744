"""The three benchmark workloads: inputs, one timed iteration, and checks.

Each workload is a closed loop driven from one process: an iteration is a
fixed sequence of library calls, and the next starts only when the last
has finished and been checked.  Inputs are built from the run's seed with
``desklm.synth`` during set-up; the timed calls see only those inputs.

* ``prep``: read -> exact-paragraph dedup -> MinHash/LSH dedup -> BPE
  training on a prefix -> cold-cache encode -> pack -> save.  The only
  workload that runs the tokenizer and corpus layers in its timed region,
  and it runs no tensor code.  CJK text is about a fifth of the bytes and
  most of the encode time.
* ``sweep``: the first steps of the acceptance gate's coordinate check at
  widths 64/128/256 (T=128, 4 rows per batch, vocab 512) on rows packed
  during set-up.  Independent widths, so a process pool shows here;
  matmul and Adam dominate at width 256.  No tokenizer in the timed region.
* ``train-eval``: one width-64 model at T=256 trained with spike detection
  and periodic checkpoints, reloaded from its last checkpoint and scored
  for bits per byte on held-out per-style eval sets with a freshly loaded
  tokenizer.  A single run, so a pool predicts no change; the T x T
  attention chain weighs most here, and eval re-tokenizes.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from desklm import corpus, evaluation, mup, synth, tokenizer, trainer
from desklm.model import Model, Multipliers
from desklm.presets import toy_config, toy_hyperparams
from desklm.tensor import RngState

VOCAB = 512
PAD = "<pad>"
BPE_PREFIX_BYTES = 48_000
ROWS_PER_BATCH = 4


@dataclass
class Iteration:
    """What one timed iteration produced, for metrics and checks."""
    wall: float                  # whole iteration, seconds
    stage_tokens: int            # tokens through the token-processing stage
    stage_s: float               # seconds of that stage
    bits_per_byte: float
    tokens_per_byte: float
    digest: str                  # identical on every iteration of a run
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def _prefix(texts, limit: int) -> list:
    out, total = [], 0
    for t in texts:
        out.append(t)
        total += len(t.encode("utf-8"))
        if total >= limit:
            break
    return out


def _train_tokenizer(texts):
    return tokenizer.train_bbpe(_prefix(texts, BPE_PREFIX_BYTES), VOCAB, specials=(PAD,))


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _paragraph_key(text: str) -> str:
    return " ".join(text.lower().split())


# -- prep -------------------------------------------------------------------

PREP_BYTES = 200_000
PLANTED_REPEATS = 12        # paragraphs copied verbatim into a later doc
PLANTED_NEAR_DUPS = 12      # docs re-inserted later with words replaced
NEAR_DUP_FRAC = 0.03        # contiguous word share replaced in a near-dup
NEAR_DUP_MIN_WORDS = 200    # short docs (and CJK, one "word" each) fall below
PREP_CONTEXT = 128


def planted_corpus(seed: int):
    """Seeded six-style mix with planted exact paragraph repeats and
    near-duplicate documents.

    Returns (docs, repeats, near_dup_ids) where ``repeats`` lists
    (host doc id, paragraph) pairs whose paragraph first appears earlier.
    Hosts and near-duplicate sources are disjoint, so a near-duplicate
    keeps its known word overlap of 1 - NEAR_DUP_FRAC with its source.
    """
    docs = synth.build_corpus(seed, PREP_BYTES)
    rng = RngState(seed).child(1)
    order = [int(i) for i in rng.permutation(len(docs)) if i > 0]
    repeats = []
    for host in order[:PLANTED_REPEATS]:
        src = int(rng.integers(0, host))
        paras = [p for p in docs[src].text.split("\n\n") if p.strip()]
        para = paras[int(rng.integers(0, len(paras)))]
        d = docs[host]
        docs[host] = corpus.Document(d.id, d.domain, d.text + "\n\n" + para)
        repeats.append((d.id, para))
    sources = [i for i in order[PLANTED_REPEATS:]
               if len(docs[i].text.split()) >= NEAR_DUP_MIN_WORDS][:PLANTED_NEAR_DUPS]
    inserts = []
    for i in sources:
        d = docs[i]
        text = synth.mutate_words(rng, d.text, NEAR_DUP_FRAC)
        at = int(rng.integers(i + 1, len(docs) + 1))
        inserts.append((at, corpus.Document(f"{d.id}-near", d.domain, text)))
    for at, doc in sorted(inserts, key=lambda x: -x[0]):
        docs.insert(at, doc)
    return docs, repeats, [doc.id for _, doc in inserts]


class Prep:
    name = "prep"

    def setup(self, seed, work):
        docs, repeats, near = planted_corpus(seed)
        path = work / "corpus.jsonl"
        corpus.write_jsonl(path, docs)
        return {"path": path, "work": work, "repeats": repeats, "near": near}

    def run(self, st, tr) -> dict:
        work = st["work"]
        t0 = perf_counter()
        docs = corpus.read_jsonl(st["path"])
        para_kept, _ = corpus.dedup_paragraphs(docs)
        kept, _ = corpus.dedup(para_kept)
        _train_tokenizer([d.text for d in kept]).save(work / "tokenizer.json")
        t1 = perf_counter()
        tok = tokenizer.TokenizerModel.load(work / "tokenizer.json")
        ids = []
        for d in kept:
            with tr.span("bench.encode_doc", style=d.domain):
                ids.append(tok.encode(d.text))
        t2 = perf_counter()
        tokens, segments = corpus.pack(ids, PREP_CONTEXT, tok.specials[PAD])
        corpus.save_packed(work / "packed.dlm", tokens, segments)
        t3 = perf_counter()
        return {"tok": tok, "para_kept": para_kept, "kept": kept, "ids": ids,
                "tokens": tokens, "segments": segments, "wall": t3 - t0, "encode_s": t2 - t1}

    def check(self, st, out) -> Iteration:
        tok, para_kept, kept, ids = out["tok"], out["para_kept"], out["kept"], out["ids"]
        tokens, segments = out["tokens"], out["segments"]
        problems = []
        bad = sum(tok.decode(i) != d.text.encode("utf-8") for d, i in zip(kept, ids))
        if bad:
            problems.append(f"{bad} of {len(kept)} docs fail encode->decode")
        n_tok = sum(len(i) for i in ids)
        if int((segments != 0).sum()) != n_tok:
            problems.append(f"pack kept {int((segments != 0).sum())} of {n_tok} tokens")
        if not all(np.array_equal(a, b) for a, b in zip(
                corpus.load_packed(st["work"] / "packed.dlm")[:2], (tokens, segments))):
            problems.append("saved packed rows do not reload equal")
        hosts = {d.id: {_paragraph_key(p) for p in d.text.split("\n\n")} for d in para_kept}
        missed = sum(_paragraph_key(p) in hosts.get(h, ()) for h, p in st["repeats"])
        if missed:
            problems.append(f"{missed} of {len(st['repeats'])} planted paragraph repeats kept")
        kept_ids = {d.id for d in kept}
        near_removed = sum(i not in kept_ids for i in st["near"])
        nbytes = sum(len(d.text.encode("utf-8")) for d in kept)
        counts = np.bincount(np.concatenate([np.asarray(i) for i in ids]))
        p = counts[counts > 0] / n_tok
        unigram_bits = float(-(p * np.log2(p)).sum())
        return Iteration(
            wall=out["wall"], stage_tokens=n_tok, stage_s=out["encode_s"],
            bits_per_byte=unigram_bits * n_tok / nbytes, tokens_per_byte=n_tok / nbytes,
            digest=_digest(sorted(kept_ids), tokens.tobytes(), segments.tobytes()),
            attempted=len(kept), failed=bad, problems=problems,
            facts={"planted_recall": near_removed / len(st["near"]),
                   "near_removed": near_removed, "near_planted": len(st["near"])})

    def finish(self, st):
        return 0, 0, []


# -- sweep ------------------------------------------------------------------

SWEEP_BYTES = 100_000
SWEEP_WIDTHS = (64, 128, 256)
SWEEP_STEPS = 3
SWEEP_CONTEXT = 128


def _packed_rows(seed, nbytes, context):
    """Tokenizer trained on a prefix, and every doc encoded and packed."""
    docs = synth.build_corpus(seed, nbytes)
    tok = _train_tokenizer([d.text for d in docs])
    ids = [tok.encode(d.text) for d in docs]
    n_bytes = sum(len(d.text.encode("utf-8")) for d in docs)
    packed = corpus.pack(ids, context, tok.specials[PAD])
    return tok, packed, sum(len(i) for i in ids) / n_bytes


class Sweep:
    name = "sweep"

    def setup(self, seed, work):
        _, packed, tpb = _packed_rows(seed, SWEEP_BYTES, SWEEP_CONTEXT)
        return {"seed": seed, "packed": packed, "tokens_per_byte": tpb,
                "config": toy_config(width=SWEEP_WIDTHS[0], vocab_size=VOCAB,
                                     context_length=SWEEP_CONTEXT),
                "hp": toy_hyperparams()}

    def run(self, st, tr) -> dict:
        t0 = perf_counter()
        res = mup.coordinate_check(st["config"], st["hp"], SWEEP_WIDTHS, SWEEP_STEPS,
                                   st["packed"], st["seed"], rows_per_batch=ROWS_PER_BATCH)
        return {"res": res, "wall": perf_counter() - t0}

    def check(self, st, out) -> Iteration:
        res, wall = out["res"], out["wall"]
        problems = []
        losses = {w: [v for ww, _, m, v in res.rows if ww == w and m == "loss"]
                  for w in SWEEP_WIDTHS}
        ok = sum(math.isfinite(v) for series in losses.values() for v in series)
        attempted = len(SWEEP_WIDTHS) * SWEEP_STEPS
        if any(res.diverged.values()):
            problems.append(f"diverged widths: {[w for w, d in res.diverged.items() if d]}")
        if ok != attempted:
            problems.append(f"{attempted - ok} of {attempted} steps without a finite loss")
        widest = losses[SWEEP_WIDTHS[-1]]
        final = trainer.smoothed(widest, len(widest))[-1] if widest else math.nan
        peaks = list(res.max_rms.values())
        return Iteration(
            wall=wall, stage_tokens=attempted * ROWS_PER_BATCH * SWEEP_CONTEXT, stage_s=wall,
            bits_per_byte=final * st["tokens_per_byte"] / math.log(2),
            tokens_per_byte=st["tokens_per_byte"],
            digest=_digest(res.rows, res.diverged), attempted=attempted,
            failed=attempted - ok, problems=problems,
            facts={"rms_spread": max(peaks) / min(peaks), "rms_max": max(peaks),
                   "rms_min": min(peaks)})

    def finish(self, st):
        """Finite-difference spot-check of gradient coordinates, untimed."""
        cfg = toy_config(width=16, layer_num=1, vocab_size=32, context_length=8, head_dim=8)
        model = Model.build(cfg, toy_hyperparams(), RngState(st["seed"]))
        toks = RngState(st["seed"]).integers(0, 32, size=(2, 8))
        model.zero_grads()
        model.loss(toks).backward()
        problems, picks = [], ("embedding", "layers.0.attn.wq", "layers.0.ffn.w_down", "lm_head")
        h = 1e-5    # central-difference error is ~1e-10 here, far below the tolerance
        for name in picks:
            p = model.params[name]
            flat = p.data.reshape(-1)
            i = int(np.argmax(np.abs(p.grad)))
            orig = flat[i]
            flat[i] = orig + h
            hi = model.loss(toks).item()
            flat[i] = orig - h
            lo = model.loss(toks).item()
            flat[i] = orig
            fd, an = (hi - lo) / (2 * h), float(p.grad.reshape(-1)[i])
            if abs(fd - an) > 1e-6 * abs(an) + 1e-9:
                problems.append(f"{name}[{i}]: analytic {an!r} vs finite difference {fd!r}")
        return len(picks), len(problems), problems


# -- train-eval ---------------------------------------------------------------

TE_TRAIN_BYTES = 150_000
TE_EVAL_BYTES = 18_000      # held out, about 3 KB per style
TE_WIDTH = 64
TE_CONTEXT = 256
TE_STEPS = 16
TE_CHECKPOINT_EVERY = 8
TE_RECOVERY_WINDOW = 8      # lets the spike detector run within 16 steps
TE_WARMUP_STEPS = 2


class TrainEval:
    name = "train-eval"

    def setup(self, seed, work):
        tok, packed, _ = _packed_rows(seed, TE_TRAIN_BYTES, TE_CONTEXT)
        tok_path = work / "tokenizer.json"
        tok.save(tok_path)
        held_out = synth.build_corpus(RngState(seed).child(1).seed, TE_EVAL_BYTES)
        eval_docs = [(s, [d.text for d in held_out if d.domain == s]) for s in synth.STYLES]
        batch_tokens = ROWS_PER_BATCH * TE_CONTEXT
        return {"seed": seed, "work": work, "packed": packed, "tok_path": tok_path,
                "eval_docs": eval_docs, "runs": 0,
                "config": toy_config(width=TE_WIDTH, vocab_size=VOCAB,
                                     context_length=TE_CONTEXT),
                "hp": toy_hyperparams(steps=TE_STEPS, batch_tokens=batch_tokens,
                                      warmup_steps=TE_WARMUP_STEPS)}

    def run(self, st, tr) -> dict:
        st["runs"] += 1
        run_dir = st["work"] / f"run{st['runs']}"
        run_dir.mkdir()
        hp = st["hp"]
        t0 = perf_counter()
        model = Model.build(st["config"], hp, RngState(st["seed"]))
        batches = trainer.batch_iterator(st["packed"], ROWS_PER_BATCH, TE_STEPS, st["seed"])
        result = trainer.train(model, trainer.Schedule.from_hyperparams(hp), batches, TE_STEPS,
                               detect=True, recovery_window=TE_RECOVERY_WINDOW,
                               checkpoint_every=TE_CHECKPOINT_EVERY, checkpoint_dir=str(run_dir))
        t1 = perf_counter()
        final = Model.load(run_dir / f"step{TE_STEPS:06d}.ckpt")
        tok = tokenizer.TokenizerModel.load(st["tok_path"])
        sets = [evaluation.load_eval_set(s, texts, tok) for s, texts in st["eval_docs"]]
        report = evaluation.build_report(final, tok, sets)
        t2 = perf_counter()
        shutil.rmtree(run_dir)
        return {"model": model, "final": final, "result": result, "report": report,
                "tok": tok, "sets": sets, "wall": t2 - t0, "train_s": t1 - t0}

    def check(self, st, out) -> Iteration:
        model, final, result, report = out["model"], out["final"], out["result"], out["report"]
        st["last"] = out
        problems = []
        ok_steps = len(result.log) - result.skipped_steps - (result.status == "diverged")
        failed = TE_STEPS - ok_steps
        if result.status != "completed" or failed:
            problems.append(f"training {result.status}, {failed} of {TE_STEPS} steps failed")
        if (list(final.params) != list(model.params)
                or any(final.params[k].data.tobytes() != p.data.tobytes()
                       for k, p in model.params.items())
                or final.config != model.config or final.multipliers != model.multipliers):
            problems.append("checkpoint does not reload bit-exactly")
        tok = out["tok"]
        for r, (s, texts) in zip(report.rows, st["eval_docs"]):
            if not math.isfinite(r["bpb"]):
                failed += 1
                problems.append(f"{s}: bpb is not finite")
            tokens = sum(len(tok.encode(t)) for t in texts)
            nbytes = sum(len(t.encode("utf-8")) for t in texts)
            want = r["loss_nats"] * (tokens / nbytes) / math.log(2)
            if (r["domain"], r["token_count"], r["byte_count"]) != (s, tokens, nbytes) \
                    or abs(r["bpb"] - want) > 1e-12 * want:
                problems.append(f"{s}: bpb row {r} != loss*tokens/bytes/ln2 = {want!r}")
        bpbs = [r["bpb"] for r in report.rows]
        n_tok = sum(r["token_count"] for r in report.rows)
        n_bytes = sum(r["byte_count"] for r in report.rows)
        return Iteration(
            wall=out["wall"], stage_tokens=TE_STEPS * ROWS_PER_BATCH * TE_CONTEXT,
            stage_s=out["train_s"],
            bits_per_byte=report.aggregates["direct_average"],
            tokens_per_byte=n_tok / n_bytes,
            digest=_digest([r.loss for r in result.log], bpbs),
            attempted=TE_STEPS + len(report.rows), failed=failed, problems=problems)

    def finish(self, st):
        """A model with output_mult=0 predicts uniformly: loss is ln V."""
        last = st["last"]
        final = last["final"]
        uniform = Model(final.config, Multipliers(final.multipliers.input_mult, 0.0),
                        final.params)
        want = math.log(final.config.vocab_size)
        problems = []
        for es in last["sets"]:
            got = evaluation.domain_loss(uniform, last["tok"], es)
            # Summing n copies of ln V may round in the last place.
            if abs(got - want) > 1e-14 * want:
                problems.append(f"{es.name}: output_mult=0 loss {got!r} != ln V {want!r}")
        return len(last["sets"]), len(problems), problems


WORKLOADS = {w.name: w for w in (Prep(), Sweep(), TrainEval())}
