"""Run the whole CLI pipeline on a seeded synthetic corpus and print the
sha256 of every file it writes, so two source trees can be compared for
byte-identical output.

    python tools/pipeline_digest.py [--tree DIR]

``--tree`` is the root of a desklm checkout (default: this one); its
``src/`` is put on PYTHONPATH for every command, and every command runs with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``, so the listing does not
depend on the machine's BLAS thread count.  The script builds a
``synth`` corpus of ``NBYTES`` bytes from ``SEED`` in a temporary directory
and runs tok-train, ``tok-stats --weights``, ``corpus-dedup --log``,
corpus-plan, corpus-pack, ``train --save-initial --checkpoint-every
--recovery-window`` (a window of 8 over 20 steps, so the spike detector runs
13 times), grid-search (24 steps, longer than the default recovery window of
20, so a grid that ran the detector would run it), ``coord-check --out`` at 3
steps and at 0 (one forward at initialization), ``eval-bpb --weights --out
--csv`` and ``train --steps 0 --save-initial`` (the forward at initialization,
whose ``final.ckpt`` is its ``initial.ckpt``) there, with relative paths so no
output names the directory.  It
prints canonical JSON ``{file: sha256}`` for every file written and every
command's stdout (``<n>.<command>.stdout``).  The ``wall_ms`` column is dropped from
``run_log.csv`` and ``gridNNN.csv`` first, since it is a timing.  Exits 1
if any command exits non-zero.  Compare two trees with

    diff <(python tools/pipeline_digest.py --tree A) \\
         <(python tools/pipeline_digest.py --tree B)

``tests/data/pipeline_digest.json`` holds the listing of the current outputs;
``tests/test_pipeline_digest.py`` runs this tool and names each entry that
differs from it.  A change that alters an output on purpose regenerates it with

    python tools/pipeline_digest.py > tests/data/pipeline_digest.json
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VOCAB = 300
CONTEXT = 16
SEED = 5
NBYTES = 40_000
# A float64 sum blocked over 2 BLAS threads rounds differently from one over 1,
# so every command runs single-threaded and the listing is one per tree.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# Writes every input file with the tree's own library, planting two exact
# copies and one near copy for dedup to find; argv: dir seed bytes.
SETUP = f"""
import json, sys
from pathlib import Path
from desklm.corpus import Document, write_jsonl
from desklm.model import hyperparams_to_dict
from desklm.presets import reference_manifest, toy_config, toy_hyperparams
from desklm.synth import STYLES, build_corpus
root, seed, nbytes = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
docs = build_corpus(seed=seed, target_bytes=nbytes)
planted = [Document(id=f"dup{{i}}", domain=docs[i].domain, text=docs[i].text + tail)
           for i, tail in ((0, ""), (1, ""), (3, " once more"))]
write_jsonl(root / "corpus.jsonl", docs + planted)
write_jsonl(root / "eval.jsonl", [Document(id=f"e{{i}}", domain=d.domain, text=d.text)
            for i, d in enumerate(build_corpus(seed=seed + 1, target_bytes=nbytes // 3))])
def dump(name, obj):
    (root / name).write_text(json.dumps(obj))
dump("config.json", toy_config(32, layer_num=1, vocab_size={VOCAB},
                               context_length={CONTEXT}).to_dict())
hp = hyperparams_to_dict(toy_hyperparams(steps=40, batch_tokens=64, warmup_steps=4))
dump("hp.json", hp)
dump("grid.json", [hp, dict(hp, learning_rate=hp["learning_rate"] / 2)])
dump("manifest.json", reference_manifest().to_dict())
flat = {{s: 1 / len(STYLES) for s in STYLES}}
dump("weights.json", flat)
first = dict.fromkeys(STYLES, 0.0)
first[STYLES[0]] = 1.0
dump("profiles.json", {{"uniform": flat, "first": first}})
"""

COMMANDS = [
    ["tok-train", "--corpus", "corpus.jsonl", "--vocab-size", str(VOCAB),
     "--special", "<pad>", "--out", "tok.json", "--json"],
    ["tok-stats", "--tokenizer", "tok.json", "--corpus", "corpus.jsonl",
     "--weights", "weights.json", "--json"],
    ["corpus-dedup", "--corpus", "corpus.jsonl", "--out", "dedup.jsonl",
     "--log", "removals.jsonl", "--json"],
    ["corpus-plan", "--manifest", "manifest.json", "--json"],
    ["corpus-pack", "--corpus", "dedup.jsonl", "--tokenizer", "tok.json",
     "--context-length", str(CONTEXT), "--out", "packed.dlm", "--json"],
    ["train", "--config", "config.json", "--hyperparams", "hp.json", "--data", "packed.dlm",
     "--steps", "20", "--seed", "3", "--out", "run", "--save-initial",
     "--checkpoint-every", "10", "--recovery-window", "8"],
    ["grid-search", "--config", "config.json", "--grid", "grid.json", "--data", "packed.dlm",
     "--steps", "24", "--seed", "3", "--out", "grid"],
    ["coord-check", "--config", "config.json", "--hyperparams", "hp.json",
     "--widths", "32,64", "--steps", "3", "--data", "packed.dlm", "--out", "coord.csv"],
    ["coord-check", "--config", "config.json", "--hyperparams", "hp.json",
     "--widths", "32,64", "--steps", "0", "--data", "packed.dlm", "--out", "coord0.csv"],
    ["eval-bpb", "--checkpoint", "run/checkpoints/final.ckpt", "--tokenizer", "tok.json",
     "--eval", "eval.jsonl", "--weights", "profiles.json", "--out", "report.json",
     "--csv", "report.csv", "--json"],
    # appended, not inserted: an insertion renumbers every later <n>.<command>.stdout
    ["train", "--config", "config.json", "--hyperparams", "hp.json", "--data", "packed.dlm",
     "--steps", "0", "--seed", "3", "--out", "run0", "--save-initial"],
]


def without_wall_ms(data: bytes) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    drop = rows[0].index("wall_ms")
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator="\n").writerows(
        [v for i, v in enumerate(r) if i != drop] for r in rows)
    return out.getvalue().encode("utf-8")


def digest(root: Path) -> dict:
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "run_log.csv" or (path.name.startswith("grid")
                                          and path.suffix == ".csv"):
            data = without_wall_ms(data)
        out[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", default=Path(__file__).resolve().parent.parent, type=Path)
    args = p.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(args.tree.resolve() / "src"), **ONE_THREAD}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, "-c", SETUP, str(work), str(SEED), str(NBYTES)],
                       env=env, check=True)
        for i, cmd in enumerate(COMMANDS):
            done = subprocess.run([sys.executable, "-m", "desklm.cli", *cmd], cwd=work,
                                  env=env, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{cmd[0]} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
                return 1
            (work / f"{i}.{cmd[0]}.stdout").write_text(done.stdout)
        print(json.dumps(digest(work), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
