"""Published reference configurations and small presets for experiments.

The two model rows are the flagship 52B-parameter architecture and the
narrow width-512 proxy used for hyperparameter search; both share depth,
context, vocabulary, and a fixed head dim of 128.  The hyperparameter
presets are exact width-transfer partners: transferring the width-512
search optimum to width 8192 reproduces the flagship values bit for bit.
Each preset states only what differs from the ``ModelConfig`` and
``HyperParams`` defaults, which are the published values.
"""

from __future__ import annotations

from .corpus import CorpusManifest, DomainSpec
from .model import HyperParams, ModelConfig


def config_52b() -> ModelConfig:
    """Flagship architecture: 64 layers, width 8192, ~52.8B parameters."""
    return ModelConfig(
        layer_num=64,
        attention_heads=64,
        hidden_size=8192,
        ffn_hidden_size=21824,
        vocab_size=80000,
        context_length=4096,
    )


def config_mup_512() -> ModelConfig:
    """Width-512 search proxy: same depth and head dim, ~281M parameters."""
    return ModelConfig(
        layer_num=64,
        attention_heads=4,
        hidden_size=512,
        ffn_hidden_size=1344,
        vocab_size=80000,
        context_length=4096,
    )


def hyperparams_52b() -> HyperParams:
    """Flagship training hyperparameters (width 8192)."""
    return HyperParams(
        vector_lr=1.5e-4,
        matrix_lr=1.5e-4,
        min_lr=1.5e-5,
        vector_std=4e-3,
        matrix_std=4.242e-3,
        input_mult=1.0,
        output_mult=3.125e-2,
    )


def hyperparams_mup_512() -> HyperParams:
    """Width-512 base point whose transfer to width 8192 (ratio 16) gives
    hyperparams_52b() exactly: matrix lr and output mult divide by 16,
    matrix std by 4."""
    return HyperParams(
        vector_lr=1.5e-4,
        matrix_lr=2.4e-3,
        min_lr=2.4e-4,
        vector_std=4e-3,
        matrix_std=1.6968e-2,
        input_mult=1.0,
        output_mult=0.5,
    )


# Published 11-domain pre-training mixture: (name, languages, sampling
# proportion, epochs, disk size in GB).  Proportions sum to 1.0001 in the
# source table; the manifest builder renormalizes WebText's share to close
# the gap so validation holds.
REFERENCE_DOMAIN_MIX = [
    ("WebText", ["en", "zh"], 0.7521, 1.0, 5900.0),
    ("Code", ["code"], 0.0981, 1.0, 528.1),
    ("Book", ["en", "zh"], 0.0717, 0.8, 647.6),
    ("WorldKnowledge", ["multi", "en", "zh"], 0.0287, 2.5, 67.5),
    ("QA", ["en", "zh"], 0.0212, 1.0, 159.2),
    ("AcademicPaper", ["en"], 0.0099, 1.0, 54.4),
    ("Profession-Law", ["zh"], 0.0104, 1.0, 84.2),
    ("Profession-Math", ["math"], 0.0062, 2.0, 6.1),
    ("Profession-Patent", ["zh"], 0.0014, 1.0, 10.4),
    ("Profession-Medical", ["zh"], 0.0002, 1.0, 1.2),
    ("ClassicalChinese", ["zh"], 0.0002, 2.5, 0.5),
]


def reference_manifest(total_token_budget: int = 2_000_000_000_000,
                       tokens_per_byte: float | None = None):
    """CorpusManifest for the published 11-domain mixture.

    Token yield depends on the tokenizer, so token estimates default to
    unknown (feasibility unchecked).  Pass a tokens-per-byte figure to
    derive estimates from disk size — note that at realistic compression
    the published proportions overdraw several small domains (the math
    domain's quota exceeds its size times epochs even at one token per
    byte), which the sampling planner duly reports.
    """
    props = [row[2] for row in REFERENCE_DOMAIN_MIX]
    slack = 1.0 - sum(props)
    domains = []
    for i, (name, langs, prop, epochs, size_gb) in enumerate(REFERENCE_DOMAIN_MIX):
        if i == 0:
            prop = prop + slack
        size_bytes = int(size_gb * 1e9)
        est = int(size_bytes * tokens_per_byte) if tokens_per_byte else None
        domains.append(DomainSpec(name=name, languages=langs, path="",
                                  sampling_prop=prop, epochs=epochs,
                                  size_bytes=size_bytes, token_estimate=est))
    return CorpusManifest(domains=domains, total_token_budget=total_token_budget)


def toy_config(width: int = 64, layer_num: int = 2, vocab_size: int = 512,
               context_length: int = 128, head_dim: int = 16) -> ModelConfig:
    """Desk-scale config family; ffn and heads scale integrally with width
    so it slots straight into coordinate checks."""
    if width % head_dim != 0:
        raise ValueError("width must be a multiple of head_dim")
    ffn = width * 21 // 8   # 2.625x, close to the flagship ffn/hidden ratio
    return ModelConfig(
        layer_num=layer_num,
        attention_heads=width // head_dim,
        hidden_size=width,
        ffn_hidden_size=ffn,
        vocab_size=vocab_size,
        context_length=context_length,
    )


def toy_hyperparams(steps: int = 500, batch_tokens: int = 512,
                    warmup_steps: int = 20) -> HyperParams:
    """Width-64 base hyperparameters for desk-scale runs.

    The searched values were tuned once on synthetic text at width 64 and
    are frozen here; schedule fields are sized from the run length.
    """
    return HyperParams(
        vector_lr=3e-3,
        matrix_lr=1.2e-2,
        min_lr=1.2e-3,
        vector_std=2e-2,
        matrix_std=8e-2,
        input_mult=1.0,
        output_mult=1.0,
        schedule_tokens=steps * batch_tokens,
        warmup_steps=warmup_steps,
        batch_tokens=batch_tokens,
    )
