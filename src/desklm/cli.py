"""Command-line front end for the full pipeline.

Subcommands mirror the library's stages:

    tok-train     train a byte-level BPE tokenizer from a JSONL corpus
    tok-stats     per-domain compression ratios for a saved tokenizer
    corpus-dedup  exact paragraph dedup + MinHash near-duplicate removal
    corpus-plan   per-domain token quotas from a mixing manifest
    corpus-pack   tokenize and pack documents into fixed-length rows
    train         monitored training run with checkpoints and spike events
    grid-search   rank hyperparameter candidates on a shared data order
    coord-check   activation-scale check of hyperparameter width transfer
    eval-bpb      bits-per-byte evaluation report over held-out domains

Exit codes: 0 success; 1 runtime failure (including diverged runs and a
grid where every candidate failed); 2 invalid inputs; 3 training stopped
because a sustained loss spike made aborting the recommended action.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import io as dio
from . import tokenizer as tok_mod
from . import trainer as trainer_mod
from .errors import ConfigError
from .model import HyperParams, Model, ModelConfig, count_params, hyperparams_to_dict
from .mup import coordinate_check

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_ABORT = 3


# -- small shared helpers ----------------------------------------------------

def _emit(args, payload: dict, text_lines):
    """Print either canonical JSON (--json) or human-readable lines."""
    if args.json:
        print(dio.canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


def _docs_by_domain(docs):
    groups: dict[str, list[str]] = {}
    for d in docs:
        groups.setdefault(d.domain, []).append(d.text)
    return groups


def _load_run_inputs(args):
    """The model config and packed ``(tokens, segments)`` of a run; raises
    ConfigError when the packed rows' context or token ids do not fit the
    config."""
    config = dio.decode_record(ModelConfig, dio.read_json(args.config), args.config)
    tokens, segments, _ = corpus_mod.load_packed(args.data)
    if tokens.shape[1] != config.context_length:
        raise ConfigError(f"{args.data}: packed rows have context {tokens.shape[1]}, "
                          f"model config {args.config} expects {config.context_length}")
    if tokens.size and not 0 <= tokens.min() <= tokens.max() < config.vocab_size:
        raise ConfigError(f"{args.data}: token ids span [{tokens.min()}, {tokens.max()}], "
                          f"outside the vocabulary [0, {config.vocab_size}) of "
                          f"model config {args.config}")
    return config, (tokens, segments)


def _start_run(args, snapshots: dict) -> dict:
    """Make the run directory ``args.out``, write config/invocation.json and
    each ``{file name: object}`` of ``snapshots`` into config/, and return the
    subdirectory paths by name.  Call it once every input has been checked."""
    root = Path(args.out)
    dirs = {name: root / name for name in ("config", "logs", "checkpoints", "reports")}
    for p in dirs.values():
        p.mkdir(parents=True, exist_ok=True)
    resolved = {k: v for k, v in vars(args).items() if k not in ("func", "argv")}
    snapshots = {"invocation.json": {"argv": args.argv, "resolved": resolved}, **snapshots}
    for name, obj in snapshots.items():
        dio.write_json(dirs["config"] / name, obj)
    return dirs


def _derive_rows_per_batch(args, hp: HyperParams, config: ModelConfig) -> int:
    if args.rows_per_batch is not None:
        return args.rows_per_batch
    return corpus_mod.sequences_per_step(hp.batch_tokens, config.context_length)


# -- tokenizer commands ------------------------------------------------------

def cmd_tok_train(args):
    docs = corpus_mod.read_jsonl(args.corpus)
    texts = [d.text for d in docs]
    model = tok_mod.train_bbpe(texts, args.vocab_size,
                               specials=tuple(args.special),
                               word_split=not args.no_word_split)
    model.save(args.out)
    ratio = tok_mod.compression_ratio(model, texts)
    _emit(args, {
        "documents": len(docs),
        "vocab_size": model.vocab_size,
        "merges": len(model.merges),
        "specials": sorted(model.specials),
        "compression_ratio": ratio,
        "out": str(args.out),
    }, [
        f"trained on {len(docs)} documents",
        f"vocab {model.vocab_size} = 256 bytes + {len(model.specials)} specials "
        f"+ {len(model.merges)} merges",
        f"compression on training corpus: {ratio:.4f} tokens/byte",
        f"wrote {args.out}",
    ])
    return EXIT_OK


def cmd_tok_stats(args):
    tok = tok_mod.TokenizerModel.load(args.tokenizer)
    groups = _docs_by_domain(corpus_mod.read_jsonl(args.corpus))
    weights = weighted = None
    if args.weights:
        flat = dio.decode_record(dict[str, float], dio.read_json(args.weights), args.weights)
        weights = eval_mod.check_weights(flat, groups, args.weights)
    rows = tok_mod.compression_table(tok, groups)
    if weights is not None:
        weighted = eval_mod.weighted_sum([r["ratio"] for r in rows],
                                         [weights[r["domain"]] for r in rows])
    lines = [f"{'domain':<24}{'bytes':>12}{'tokens':>12}{'tokens/byte':>14}"]
    for r in rows:
        lines.append(f"{r['domain']:<24}{r['byte_count']:>12}"
                     f"{r['token_count']:>12}{r['ratio']:>14.4f}")
    if weighted is not None:
        lines.append(f"{'weighted':<24}{'':>12}{'':>12}{weighted:>14.4f}")
    _emit(args, {"rows": rows, "weighted": weighted}, lines)
    return EXIT_OK


# -- corpus commands ---------------------------------------------------------

def cmd_corpus_dedup(args):
    docs = corpus_mod.read_jsonl(args.corpus)
    n_in = len(docs)
    paragraphs_removed = 0
    if not args.skip_paragraph:
        docs, paragraphs_removed = corpus_mod.dedup_paragraphs(docs)
    removals = []
    if not args.skip_minhash:
        docs, removals = corpus_mod.dedup(docs, threshold=args.threshold,
                                          k=args.k, shingle_n=args.shingle_n,
                                          seed=args.seed, bands=args.bands)
    corpus_mod.write_jsonl(args.out, docs)
    if args.log:
        corpus_mod.write_jsonl(args.log, removals)
    _emit(args, {
        "documents_in": n_in,
        "documents_out": len(docs),
        "paragraphs_removed": paragraphs_removed,
        "near_duplicates_dropped": len(removals),
        "out": str(args.out),
    }, [
        f"{n_in} documents in, {len(docs)} out",
        f"duplicate paragraphs removed: {paragraphs_removed}",
        f"near-duplicate documents dropped: {len(removals)}",
        f"wrote {args.out}" + (f" (removal log: {args.log})" if args.log else ""),
    ])
    return EXIT_OK


def cmd_corpus_plan(args):
    manifest = dio.decode_record(corpus_mod.CorpusManifest, dio.read_json(args.manifest),
                                 args.manifest)
    plan = corpus_mod.sample_plan(manifest, args.total_tokens)
    total = sum(q.quota for q in plan)
    lines = [f"{'domain':<24}{'quota':>16}{'available':>16}"]
    for q in plan:
        avail = "unknown" if q.available is None else str(q.available)
        lines.append(f"{q.name:<24}{q.quota:>16}{avail:>16}")
    lines.append(f"{'total':<24}{total:>16}")
    _emit(args, {"total_tokens": total, "plan": [asdict(q) for q in plan]}, lines)
    return EXIT_OK


def cmd_corpus_pack(args):
    tok = tok_mod.TokenizerModel.load(args.tokenizer)
    docs = corpus_mod.read_jsonl(args.corpus)
    token_docs = [tok.encode(d.text) for d in docs]
    tokens, segments = corpus_mod.pack(token_docs, args.context_length, tok.pad_id)
    total_tokens = sum(len(t) for t in token_docs)
    corpus_mod.save_packed(args.out, tokens, segments, meta={
        "documents": len(docs),
        "pad_id": tok.pad_id,
        "tokenizer": str(args.tokenizer),
        "total_tokens": total_tokens,
    })
    pad_frac = float((segments == 0).mean()) if segments.size else 0.0
    _emit(args, {
        "documents": len(docs),
        "rows": int(tokens.shape[0]),
        "context_length": args.context_length,
        "total_tokens": total_tokens,
        "padding_fraction": pad_frac,
        "out": str(args.out),
    }, [
        f"packed {len(docs)} documents ({total_tokens} tokens) into "
        f"{tokens.shape[0]} rows of {args.context_length}",
        f"padding fraction: {pad_frac:.4%}",
        f"wrote {args.out}",
    ])
    return EXIT_OK


# -- training commands -------------------------------------------------------

def cmd_train(args):
    config, packed = _load_run_inputs(args)
    hp = dio.decode_record(HyperParams, dio.read_json(args.hyperparams), args.hyperparams)
    rows_per_batch = _derive_rows_per_batch(args, hp, config)
    job = trainer_mod.Job(config, hp, args.seed, rows_per_batch, args.steps)
    trainer_mod.check_run(args.steps, args.recovery_window, args.checkpoint_every,
                          Path(args.out) / "checkpoints")

    dirs = _start_run(args, {"model_config.json": config.to_dict(),
                             "hyperparams.json": hyperparams_to_dict(hp)})
    model, schedule, batches = job.build(packed)
    if args.save_initial:
        model.save(dirs["checkpoints"] / "initial.ckpt", step=0)
    result = trainer_mod.train(
        model, schedule, batches, args.steps, detect=not args.no_spike_detection,
        recovery_window=args.recovery_window, stop_on_abort=not args.keep_going,
        checkpoint_every=args.checkpoint_every, checkpoint_dir=dirs["checkpoints"])

    trainer_mod.write_runlog(dirs["logs"] / "run_log.csv", result.log)
    dio.write_json(dirs["logs"] / "events.json", [asdict(e) for e in result.events])
    steps_run = result.log[-1].step
    model.save(dirs["checkpoints"] / "final.ckpt", step=steps_run)
    summary = {
        "status": result.status,
        "steps_run": steps_run,
        "skipped_steps": result.skipped_steps,
        "tokens_seen": result.log[-1].tokens,
        "final_loss": result.log[-1].loss,
        "spike_events": len(result.events),
        "params": count_params(config),
        "rows_per_batch": rows_per_batch,
    }
    dio.write_json(dirs["reports"] / "summary.json", summary)
    print(f"status: {result.status} after {steps_run} steps "
          f"({summary['tokens_seen']} tokens)")
    print(f"final loss: {result.log[-1].loss:.4f}  grad norm: {result.log[-1].grad_norm:.4f}")
    if result.events:
        print(f"spike events: {len(result.events)} "
              f"({sum(1 for e in result.events if e.kind == 'sustained')} sustained)")
    print(f"run directory: {args.out}")
    if result.status == "abort_recommended":
        return EXIT_ABORT
    if result.status == "diverged":
        print("training diverged (non-finite loss)", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_grid_search(args):
    config, packed = _load_run_inputs(args)
    grid_spec = dio.read_json(args.grid)
    if not isinstance(grid_spec, list) or not grid_spec:
        raise ConfigError(f"{args.grid}: a grid is a non-empty list of hyperparameter objects")
    hp_list = [dio.decode_record(HyperParams, d, f"{args.grid}: candidate {i}")
               for i, d in enumerate(grid_spec)]
    jobs = [trainer_mod.Job(config, hp, args.seed, _derive_rows_per_batch(args, hp, config),
                            args.steps) for hp in hp_list]
    trainer_mod.check_grid(jobs)

    dirs = _start_run(args, {"model_config.json": config.to_dict(), "grid.json": grid_spec})
    entries = trainer_mod.run_grid(jobs, packed, out_dir=dirs["logs"])
    report = trainer_mod.grid_report(entries)
    dio.write_json(dirs["reports"] / "grid_report.json", report)

    print(f"{'rank':<6}{'score':>12}  {'status':<18}candidate")
    for i, e in enumerate(entries):
        score = "inf" if e.score == float("inf") else f"{e.score:.4f}"
        brief = {k: e.config[k] for k in
                 ("learning_rate", "matrix_learning_rate", "standard_deviation",
                  "matrix_standard_deviation", "input_mult", "output_mult")}
        print(f"{i + 1:<6}{score:>12}  {e.status:<18}{json.dumps(brief, sort_keys=True)}")
    print(f"report: {dirs['reports'] / 'grid_report.json'}")
    if report["all_failed"]:
        print("every candidate diverged or aborted", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_coord_check(args):
    config, packed = _load_run_inputs(args)
    hp = dio.decode_record(HyperParams, dio.read_json(args.hyperparams), args.hyperparams)
    try:
        widths = sorted(int(w) for w in args.widths.split(","))
    except ValueError:
        raise ConfigError(f"--widths takes comma-separated integers, got {args.widths!r}") from None
    if len(set(widths)) < len(widths):
        raise ConfigError(f"--widths lists a width twice: {args.widths!r}")
    if not args.rms_ratio_limit >= 1:
        raise ConfigError(f"--rms-ratio-limit must be >= 1, the base width's own ratio; "
                          f"got {args.rms_ratio_limit:g}")
    result = coordinate_check(config, hp, widths, args.steps, packed, args.seed,
                              _derive_rows_per_batch(args, hp, config),
                              break_transfer=args.break_transfer)
    base = widths[0]
    base_rms = result.max_rms[base]
    lines = [f"{'width':<8}{'max pre-logit RMS':>20}{'vs width ' + str(base):>16}  diverged"]
    worst = 0.0
    for w in widths:
        ratio = result.max_rms[w] / base_rms if base_rms > 0 else float("inf")
        worst = max(worst, ratio)
        lines.append(f"{w:<8}{result.max_rms[w]:>20.4f}{ratio:>15.2f}x"
                     f"  {'yes' if result.diverged[w] else 'no'}")
    stable = worst <= args.rms_ratio_limit and not any(result.diverged.values())
    lines.append(f"activation growth {worst:.2f}x across widths "
                 f"(limit {args.rms_ratio_limit:g}x): "
                 + ("stable" if stable else "NOT stable"))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        result.write_csv(args.out)
        lines.append(f"wrote {args.out}")
    for line in lines:
        print(line)
    return EXIT_OK if stable else EXIT_RUNTIME


# -- evaluation --------------------------------------------------------------

def _read_weight_profiles(path, domains) -> dict:
    """``{profile: {domain: weight}}`` from ``path``, which holds that or one
    flat ``{domain: weight}`` profile, named "weighted"."""
    raw = dio.read_json(path)
    if isinstance(raw, dict) and not any(isinstance(v, dict) for v in raw.values()):
        raw = {"weighted": raw}
    profiles = dio.decode_record(dict[str, dict[str, float]], raw, path)
    return {name: eval_mod.check_weights(w, domains, f"{path}: {name}")
            for name, w in profiles.items()}


def cmd_eval_bpb(args):
    model = Model.load(args.checkpoint)
    tok = tok_mod.TokenizerModel.load(args.tokenizer)
    if tok.vocab_size > model.config.vocab_size:
        raise ConfigError(f"tokenizer {args.tokenizer} has a vocabulary of {tok.vocab_size}, "
                          f"larger than the {model.config.vocab_size} of checkpoint "
                          f"{args.checkpoint}")
    groups = _docs_by_domain(corpus_mod.read_jsonl(args.eval))
    profiles = _read_weight_profiles(args.weights, groups) if args.weights else None
    eval_sets = [eval_mod.load_eval_set(name, groups[name], tok)
                 for name in sorted(groups)]
    report = eval_mod.build_report(model, tok, eval_sets, weight_profiles=profiles)
    if args.out:
        report.save_json(args.out)
    if args.csv:
        report.save_csv(args.csv)
    lines = [f"{'domain':<24}{'loss(nats)':>12}{'tokens':>10}{'bytes':>10}{'bpb':>10}"]
    for r in report.rows:
        lines.append(f"{r['domain']:<24}{r['loss_nats']:>12.4f}"
                     f"{r['token_count']:>10}{r['byte_count']:>10}{r['bpb']:>10.4f}")
    for name in sorted(report.aggregates):
        lines.append(f"{name:<24}{'':>12}{'':>10}{'':>10}{report.aggregates[name]:>10.4f}")
    if args.out:
        lines.append(f"wrote {args.out}")
    _emit(args, report.to_dict(), lines)
    return EXIT_OK


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="desklm",
        description="Desk-scale language-model pre-training laboratory.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_, *parents):
        sp = sub.add_parser(name, help=help_, description=help_, parents=parents)
        sp.set_defaults(func=func)
        return sp

    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json", action="store_true", help="machine-readable output")
    run_inputs = argparse.ArgumentParser(add_help=False)
    run_inputs.add_argument("--config", required=True, help="model config JSON")
    run_inputs.add_argument("--data", required=True, help="packed token file")
    run_inputs.add_argument("--seed", type=int, default=0, help="weight and batch-order seed")
    run_inputs.add_argument("--rows-per-batch", type=int, default=None,
                            help="default: batch_size_tokens / context_length")

    sp = add("tok-train", cmd_tok_train, "train a byte-level BPE tokenizer", json_out)
    sp.add_argument("--corpus", required=True, help="JSONL corpus (id, domain, text)")
    sp.add_argument("--vocab-size", type=int, required=True)
    sp.add_argument("--special", action="append", default=[],
                    help="special token (repeatable)")
    sp.add_argument("--no-word-split", action="store_true",
                    help="merge across whitespace chunk boundaries")
    sp.add_argument("--out", required=True, help="output tokenizer JSON")

    sp = add("tok-stats", cmd_tok_stats, "compression ratios over a corpus", json_out)
    sp.add_argument("--tokenizer", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--weights", help="JSON {domain: weight} for a weighted average")

    sp = add("corpus-dedup", cmd_corpus_dedup, "paragraph + near-duplicate dedup", json_out)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True, help="deduplicated JSONL")
    sp.add_argument("--threshold", type=float, default=0.8,
                    help="estimated-Jaccard drop threshold (default 0.8)")
    sp.add_argument("--k", type=int, default=128, help="MinHash permutations")
    sp.add_argument("--shingle-n", type=int, default=5, help="words per shingle")
    sp.add_argument("--bands", type=int, default=16, help="LSH bands")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--log", help="removal log JSONL")
    sp.add_argument("--skip-paragraph", action="store_true")
    sp.add_argument("--skip-minhash", action="store_true")

    sp = add("corpus-plan", cmd_corpus_plan, "token quotas from a mixing manifest", json_out)
    sp.add_argument("--manifest", required=True, help="manifest JSON")
    sp.add_argument("--total-tokens", type=int, default=None,
                    help="override the manifest's total token budget")

    sp = add("corpus-pack", cmd_corpus_pack, "tokenize and pack into fixed rows", json_out)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--tokenizer", required=True)
    sp.add_argument("--context-length", type=int, required=True)
    sp.add_argument("--out", required=True, help="packed token file")

    sp = add("train", cmd_train, "monitored training run", run_inputs)
    sp.add_argument("--hyperparams", required=True, help="hyperparameter JSON")
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--out", required=True, help="run directory")
    sp.add_argument("--checkpoint-every", type=int, default=None)
    sp.add_argument("--save-initial", action="store_true",
                    help="checkpoint the untrained model as initial.ckpt")
    sp.add_argument("--recovery-window", type=int, default=trainer_mod.RECOVERY_WINDOW)
    spikes = sp.add_mutually_exclusive_group()
    spikes.add_argument("--no-spike-detection", action="store_true")
    spikes.add_argument("--keep-going", action="store_true",
                        help="log sustained spikes but do not stop")

    sp = add("grid-search", cmd_grid_search, "rank hyperparameter candidates", run_inputs)
    sp.add_argument("--grid", required=True,
                    help="JSON list of hyperparameter objects")
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--out", required=True, help="run directory")

    sp = add("coord-check", cmd_coord_check, "width-transfer activation check", run_inputs)
    sp.add_argument("--hyperparams", required=True,
                    help="hyperparameters tuned at the --config width")
    sp.add_argument("--widths", required=True, help="comma-separated widths to rescale --config to")
    sp.add_argument("--steps", type=int, default=5)
    sp.add_argument("--rms-ratio-limit", type=float, default=3.0,
                    help="max allowed activation growth across widths")
    sp.add_argument("--break-transfer", action="store_true",
                    help="negative control: skip the matrix LR rescaling")
    sp.add_argument("--out", help="per-step statistics CSV")

    sp = add("eval-bpb", cmd_eval_bpb, "bits-per-byte evaluation report", json_out)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--tokenizer", required=True)
    sp.add_argument("--eval", required=True, help="held-out JSONL with domains")
    sp.add_argument("--weights",
                    help="JSON {profile: {domain: w}} or flat {domain: w}")
    sp.add_argument("--out", help="report JSON")
    sp.add_argument("--csv", help="per-domain CSV")

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        # Covers the library's error types (all ValueError subclasses),
        # malformed JSON, and missing/unreadable files.
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
