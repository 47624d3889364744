"""Hyperparameter classification, width transfer, and scaling rules."""
from dataclasses import replace

import pytest

from desklm.errors import ClassificationError, ConfigError
from desklm.io import decode_record
from desklm.model import HyperParams, ParamClass, classify, hyperparams_to_dict
from desklm.mup import WidthPair, scaled_config, transfer
from desklm.presets import (config_52b, config_mup_512, hyperparams_52b,
                            hyperparams_mup_512, toy_config, toy_hyperparams)


# -- classification ------------------------------------------------------------

@pytest.mark.parametrize("role", [
    "layers.0.attn.wq", "layers.7.attn.wk", "layers.3.attn.wv",
    "layers.1.attn.wo", "layers.0.ffn.w_gate", "layers.5.ffn.w_up",
    "layers.2.ffn.w_down",
])
def test_matrix_like_roles(role):
    assert classify(role) == ParamClass.MATRIX


@pytest.mark.parametrize("role,shape", [
    ("embedding", (512, 64)), ("lm_head", (64, 512)),
    ("layers.0.attn_norm.gain", (64,)), ("layers.4.ffn_norm.gain", (64,)),
    ("final_norm.gain", (64,)), ("final_norm.bias", (64,)),
])
def test_vector_like_roles(role, shape):
    assert classify(role) == ParamClass.VECTOR


def test_unknown_role_rejected():
    with pytest.raises(ClassificationError):
        classify("layers.0.attn.w_strange")


# -- transfer arithmetic ---------------------------------------------------------

def test_published_pair_transfers_exactly():
    got = transfer(hyperparams_mup_512(), WidthPair(512, 8192))
    assert got == hyperparams_52b()


def test_transfer_anchor_values_exact():
    # ratio 16: the two anchors must land exactly on the published values
    hp = hyperparams_mup_512()
    wide = transfer(hp, WidthPair(512, 8192))
    assert hp.output_mult == 0.5 and wide.output_mult == 3.125e-2
    assert hp.matrix_lr == 2.4e-3 and wide.matrix_lr == 1.5e-4
    assert wide.min_lr == 1.5e-5
    assert wide.matrix_std == 4.242e-3


def test_transfer_identity_at_ratio_one():
    hp = hyperparams_mup_512()
    assert transfer(hp, WidthPair(512, 512)) == hp


def test_transfer_leaves_vector_quantities_alone():
    hp = hyperparams_mup_512()
    wide = transfer(hp, WidthPair(512, 8192))
    assert wide.vector_lr == hp.vector_lr
    assert wide.vector_std == hp.vector_std
    assert wide.input_mult == hp.input_mult
    assert wide.schedule_tokens == hp.schedule_tokens
    assert wide.batch_tokens == hp.batch_tokens


def test_transfer_compositional_exact_for_square_ratios():
    # 64 -> 256 -> 1024 chains two ratio-4 hops; sqrt(4) is exact, so the
    # composition must equal the direct ratio-16 transfer bit for bit
    hp = toy_hyperparams()
    chained = transfer(transfer(hp, WidthPair(64, 256)), WidthPair(256, 1024))
    direct = transfer(hp, WidthPair(64, 1024))
    assert chained == direct


def test_transfer_compositional_approx_for_any_ratio():
    hp = toy_hyperparams()
    chained = transfer(transfer(hp, WidthPair(64, 160)), WidthPair(160, 1024))
    direct = transfer(hp, WidthPair(64, 1024))
    assert chained.matrix_lr == pytest.approx(direct.matrix_lr, rel=1e-14)
    assert chained.matrix_std == pytest.approx(direct.matrix_std, rel=1e-14)
    assert chained.output_mult == pytest.approx(direct.output_mult, rel=1e-14)


def test_transfer_downscales_too():
    hp = hyperparams_52b()
    narrow = transfer(hp, WidthPair(8192, 512))
    assert narrow == hyperparams_mup_512()


def test_widthpair_rejects_nonpositive():
    for base, target in [(0, 64), (64, -1), (0, 0)]:   # when made, before .ratio is read
        with pytest.raises(ConfigError, match="widths must be positive"):
            WidthPair(base, target)


# -- validation ------------------------------------------------------------------

def test_zero_learning_rate_is_valid():
    hp = replace(toy_hyperparams(), vector_lr=0.0, matrix_lr=0.0, min_lr=0.0)
    assert hp.vector_lr == hp.matrix_lr == hp.min_lr == 0.0


def test_negative_learning_rate_rejected():
    with pytest.raises(ConfigError):
        replace(toy_hyperparams(), matrix_lr=-1e-4)


def test_min_lr_above_peak_rejected():
    with pytest.raises(ConfigError):
        replace(toy_hyperparams(), min_lr=1.0)


@pytest.mark.parametrize("name", ["vector_lr", "matrix_lr", "min_lr", "vector_std",
                                  "matrix_std", "clip_grad", "weight_decay", "rope_theta"])
def test_nan_hyperparameter_rejected(name):
    # NaN fails every comparison, so a check written "x < 0" lets it through
    with pytest.raises(ConfigError):
        replace(toy_hyperparams(), **{name: float("nan")})


# -- JSON round trip ---------------------------------------------------------------

def test_json_round_trip():
    hp = hyperparams_52b()
    assert decode_record(HyperParams, hyperparams_to_dict(hp), "hp") == hp


def test_json_uses_published_field_names():
    d = hyperparams_to_dict(hyperparams_52b())
    assert d["learning_rate"] == 1.5e-4
    assert d["matrix_learning_rate"] == 1.5e-4
    assert d["minimum_learning_rate"] == 1.5e-5
    assert d["standard_deviation"] == 4e-3
    assert d["matrix_standard_deviation"] == 4.242e-3
    assert d["input_mult"] == 1.0
    assert d["output_mult"] == 3.125e-2
    assert d["lr_schedule_type"] == "cosine"
    assert d["lr_schedule_tokens"] == 2_500_000_000_000
    assert d["warmup_step"] == 2000
    assert d["clip_grad"] == 1.0
    assert d["batch_size_tokens"] == 5_505_024
    assert d["rope_theta"] == 10_000.0


def test_json_rejects_unknown_and_missing_fields():
    d = hyperparams_to_dict(hyperparams_52b())
    d["typo_field"] = 1
    with pytest.raises(ConfigError, match=r"hp: unknown fields \['typo_field'\]"):
        decode_record(HyperParams, d, "hp")
    d2 = hyperparams_to_dict(hyperparams_52b())
    del d2["output_mult"]
    with pytest.raises(ConfigError, match=r"hp: .*missing fields \['output_mult'\]"):
        decode_record(HyperParams, d2, "hp")


# -- config scaling ------------------------------------------------------------------

def test_scaled_config_consistent_with_family():
    assert scaled_config(toy_config(64), 256) == toy_config(256)


def test_scaled_config_identity():
    assert scaled_config(toy_config(64), 64) == toy_config(64)


def test_scaled_config_preserves_depth_and_vocab():
    cfg = scaled_config(toy_config(64, layer_num=3, vocab_size=777), 128)
    assert cfg.layer_num == 3 and cfg.vocab_size == 777
    assert cfg.hidden_size == 128
    assert cfg.ffn_hidden_size == toy_config(64).ffn_hidden_size * 2


def test_scaled_config_rejects_non_integral():
    with pytest.raises(ConfigError):
        scaled_config(toy_config(64), 100)  # heads would become 6.25


def test_published_widths_are_not_an_integral_family():
    # the published wide/narrow pair differs from a pure x16 rescale in the
    # ffn width (21824 vs 1344*16), so scaled_config must not pretend otherwise
    assert config_52b().ffn_hidden_size != config_mup_512().ffn_hidden_size * 16
