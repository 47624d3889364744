"""desklm: a desk-scale laboratory for decoder-only LM pre-training.

Float64 autodiff tensors, an RMSNorm/SwiGLU/RoPE transformer, muP-style
width transfer, a byte-level BPE tokenizer, corpus curation (MinHash dedup,
sampling plans, sequence packing), a monitored training loop, and
bits-per-byte evaluation.
"""

from .tensor import Tensor, RngState, trunc_normal
from .model import (HyperParams, Model, ModelConfig, Multipliers, ParamClass, classify,
                    count_params)
from .mup import WidthPair, transfer, coordinate_check, scaled_config
from .tokenizer import TokenizerModel, train_bbpe, compression_ratio
from .corpus import (Document, CorpusManifest, DomainSpec, dedup, dedup_paragraphs,
                     minhash_signature, estimate_jaccard, sample_plan, pack,
                     sequences_per_step)
from .trainer import (Schedule, lr_at, clip_gradients, train, train_step,
                      detect_spike, run_grid, batch_iterator)
from .evaluation import bpb, weighted_sum, direct_average, build_report, load_eval_set

__version__ = "0.1.0"
