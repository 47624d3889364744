"""desklm: a desk-scale laboratory for decoder-only LM pre-training.

Float64 autodiff tensors, an RMSNorm/SwiGLU/RoPE transformer, muP-style
width transfer, a byte-level BPE tokenizer, corpus curation (MinHash dedup,
sampling plans, sequence packing), a monitored training loop, and
bits-per-byte evaluation.
"""

__version__ = "0.1.0"
