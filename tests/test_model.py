"""Architecture: parameter accounting, masking, checkpointing, gradients."""
import math

import numpy as np
import pytest

from desklm import tensor as T
from desklm.errors import ConfigError
from desklm.model import Model, ModelConfig, Multipliers, attention_bias, count_params
from desklm.mup import HyperParams
from desklm.presets import config_52b, config_mup_512, toy_config, toy_hyperparams
from desklm.tensor import RngState
from oracles import finite_diff_grad, rel_error


def small_config(**kw):
    base = dict(layer_num=2, attention_heads=2, hidden_size=16,
                ffn_hidden_size=40, vocab_size=32, context_length=16)
    base.update(kw)
    return ModelConfig(**base).validate()


def small_hp():
    return HyperParams(
        vector_lr=3e-3, matrix_lr=1.2e-2, min_lr=1.2e-3,
        vector_std=2e-2, matrix_std=8e-2, input_mult=1.0, output_mult=1.0,
        schedule_tokens=100_000, warmup_steps=2, batch_tokens=64,
    ).validate()


def build_small(seed=0, **cfg_kw):
    cfg = small_config(**cfg_kw)
    return Model.build(cfg, small_hp(), RngState(seed))


# -- parameter accounting ----------------------------------------------------

def test_count_params_published_52b_row():
    n = count_params(config_52b())
    assert n == 52_817_838_080
    assert abs(n - 52_850e6) / 52_850e6 < 0.005


def test_count_params_published_512_row():
    n = count_params(config_mup_512())
    assert n == 281_216_000
    assert abs(n - 283e6) / 283e6 < 0.02


def test_count_params_matches_built_model():
    cfg = small_config()
    model = Model.build(cfg, small_hp(), RngState(0))
    assert model.num_params() == count_params(cfg)
    assert count_params(cfg) == 7008          # fits the <=1e4 gradient check


def test_untied_embeddings():
    model = build_small()
    emb, head = model.params["embedding"], model.params["lm_head"]
    assert emb.shape == (32, 16) and head.shape == (16, 32)
    assert emb.data.base is not head.data.base
    before = head.data.copy()
    emb.data += 1.0
    np.testing.assert_array_equal(head.data, before)


def test_no_biases_outside_final_norm():
    model = build_small()
    with_bias = [k for k in model.params if "bias" in k]
    assert with_bias == ["final_norm.bias"]


def test_param_roles_cover_expected_set():
    model = build_small()
    roles = set(model.params)
    expected = {"embedding", "lm_head", "final_norm.gain", "final_norm.bias"}
    for i in range(2):
        expected |= {f"layers.{i}.attn_norm.gain", f"layers.{i}.ffn_norm.gain"}
        expected |= {f"layers.{i}.attn.{w}" for w in ("wq", "wk", "wv", "wo")}
        expected |= {f"layers.{i}.ffn.{w}" for w in ("w_gate", "w_up", "w_down")}
    assert roles == expected


# -- config validation -------------------------------------------------------

def test_config_rejects_odd_head_dim():
    with pytest.raises(ConfigError):
        small_config(hidden_size=18, attention_heads=2, ffn_hidden_size=40)


def test_config_rejects_dropout():
    with pytest.raises(ConfigError):
        small_config(dropout_rate=0.1)


def test_config_rejects_unknown_scale_mode():
    with pytest.raises(ConfigError):
        small_config(attn_scale_mode="rsqrt")


def test_scale_modes_differ():
    toks = np.array([[1, 2, 3, 4]], dtype=np.int32)
    a = build_small(attn_scale_mode="mup").forward(toks).data
    b = build_small(attn_scale_mode="standard").forward(toks).data
    assert not np.allclose(a, b)


# -- attention bias / masking ------------------------------------------------

def test_attention_bias_causal_single_segment():
    seg = np.array([[1, 1, 1]], dtype=np.int32)
    bias = attention_bias(seg)
    assert bias.shape == (1, 1, 3, 3)
    want = np.array([[0, -np.inf, -np.inf],
                     [0, 0, -np.inf],
                     [0, 0, 0]], dtype=float)
    np.testing.assert_array_equal(bias[0, 0], want)


def test_attention_bias_blocks_cross_segment():
    seg = np.array([[1, 1, 2, 2]], dtype=np.int32)
    bias = bias4 = attention_bias(seg)[0, 0]
    assert bias4[2, 1] == -np.inf and bias4[3, 0] == -np.inf
    assert bias4[3, 2] == 0.0


def test_attention_bias_pads_self_attend():
    seg = np.array([[1, 1, 0, 0]], dtype=np.int32)
    bias = attention_bias(seg)[0, 0]
    assert bias[2, 2] == 0.0 and bias[3, 3] == 0.0     # no NaN softmax rows
    assert bias[2, 0] == -np.inf and bias[3, 2] == -np.inf
    assert bias[1, 2] == -np.inf                       # real token can't see pad


def test_causality_is_bit_exact():
    model = build_small()
    toks = np.array([[3, 1, 4, 1, 5, 9, 2, 6]], dtype=np.int32)
    base = model.forward(toks).data.copy()
    perturbed = toks.copy()
    perturbed[0, 5] = 27
    after = model.forward(perturbed).data
    np.testing.assert_array_equal(after[0, :5], base[0, :5])
    assert not np.array_equal(after[0, 5:], base[0, 5:])


def test_segment_isolation_is_bit_exact():
    model = build_small()
    toks = np.array([[3, 1, 4, 1, 5, 9, 2, 6]], dtype=np.int32)
    seg = np.array([[1, 1, 1, 1, 2, 2, 2, 2]], dtype=np.int32)
    base = model.forward(toks, seg).data.copy()
    perturbed = toks.copy()
    perturbed[0, 6] = 30                   # inside segment 2
    after = model.forward(perturbed, seg).data
    np.testing.assert_array_equal(after[0, :4], base[0, :4])


# -- forward / loss semantics -------------------------------------------------

def test_fresh_model_loss_near_log_vocab():
    cfg = toy_config(width=64, vocab_size=512, context_length=64)
    model = Model.build(cfg, toy_hyperparams(), RngState(0))
    toks = RngState(1).integers(0, 512, size=(4, 64)).astype(np.int32)
    loss = model.loss(toks).item()
    assert loss == pytest.approx(math.log(512), rel=0.05)


def test_output_mult_zero_gives_exact_uniform():
    cfg = small_config()
    hp = small_hp()
    model = Model.build(cfg, hp, RngState(0))
    model.multipliers = Multipliers(input_mult=1.0, output_mult=0.0)
    toks = np.array([[1, 2, 3, 4]], dtype=np.int32)
    logits = model.forward(toks).data
    assert np.all(logits == 0.0)
    assert model.loss(toks).item() == pytest.approx(math.log(32), rel=1e-15)


def test_loss_matches_manual_composition():
    model = build_small()
    toks = np.array([[5, 7, 9, 2]], dtype=np.int32)
    loss = model.loss(toks).item()
    logits = model.forward(toks)
    manual = T.softmax_cross_entropy(
        T.Tensor(logits.data[0, :3]), np.array([7, 9, 2])).item()
    assert loss == pytest.approx(manual, rel=1e-14)


def test_loss_ignores_pad_targets_and_pad_inputs():
    model = build_small()
    toks = np.array([[5, 7, 9, 0, 0, 0]], dtype=np.int32)
    seg = np.array([[1, 1, 1, 0, 0, 0]], dtype=np.int32)
    loss = model.loss(toks, seg).item()
    # same document alone in a 3-long row: identical masked-mean loss
    short = model.loss(np.array([[5, 7, 9]], dtype=np.int32),
                       np.array([[1, 1, 1]], dtype=np.int32)).item()
    assert loss == pytest.approx(short, rel=1e-12)


def test_cross_document_transition_counts():
    # position t predicts t+1 whenever both positions are non-pad, including
    # across a document boundary inside the row (documented behavior)
    model = build_small()
    toks = np.array([[5, 7, 9, 2]], dtype=np.int32)
    both = model.loss(toks, np.array([[1, 1, 2, 2]], dtype=np.int32)).item()
    logits = model.forward(toks, np.array([[1, 1, 2, 2]], dtype=np.int32))
    manual = T.softmax_cross_entropy(
        T.Tensor(logits.data[0, :3]), np.array([7, 9, 2])).item()
    assert both == pytest.approx(manual, rel=1e-14)


def test_batch_row_permutation_invariance():
    model = build_small()
    rng = RngState(4)
    toks = rng.integers(0, 32, size=(6, 16)).astype(np.int32)
    seg = np.ones_like(toks)
    seg[-1, 10:] = 0
    perm = np.array([3, 0, 5, 1, 4, 2])
    out = model.forward(toks, seg).data
    out_p = model.forward(toks[perm], seg[perm]).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)
    a = model.loss(toks, seg).item()
    b = model.loss(toks[perm], seg[perm]).item()
    assert a == pytest.approx(b, rel=1e-12)


def test_gradient_reaches_every_parameter():
    model = build_small()
    toks = RngState(2).integers(0, 32, size=(2, 16)).astype(np.int32)
    model.zero_grads()
    model.loss(toks).backward()
    for name, p in model.params.items():
        assert p.grad is not None and np.linalg.norm(p.grad) > 0, name


# -- full-model finite-difference check (acceptance criterion 6 core) ---------

def test_full_model_gradient_check():
    model = build_small(seed=3)
    assert model.num_params() <= 10_000
    rng = RngState(5)
    toks = rng.integers(0, 32, size=(2, 16)).astype(np.int32)
    seg = np.ones_like(toks)
    seg[1, 12:] = 0                       # include pad masking in the check
    model.zero_grads()
    model.loss(toks, seg).backward()

    def loss_value():
        return model.loss(toks, seg).item()

    for name, p in model.params.items():
        num = finite_diff_grad(loss_value, p, h=1e-5)
        err = rel_error(p.grad, num)
        assert err < 1e-5, f"{name}: rel err {err:.2e}"


# -- stats hooks ---------------------------------------------------------------

def test_forward_records_rms_metrics():
    model = build_small()
    toks = np.array([[1, 2, 3, 4, 5, 6, 7, 8]], dtype=np.int32)
    seg = np.array([[1, 1, 1, 1, 1, 1, 0, 0]], dtype=np.int32)
    model.loss(toks, seg)
    stats = model.last_stats
    assert set(stats) == {"pre_logit_rms", "block_rms"}
    assert len(stats["block_rms"]) == 2
    assert all(math.isfinite(v) for v in stats["block_rms"])
    assert stats["pre_logit_rms"] > 0


def test_build_rejects_mismatched_rope_theta():
    with pytest.raises(ConfigError, match="10000.0 differs .* 500000.0"):
        build_small(rope_theta=500_000.0)


# -- checkpointing -------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = build_small(seed=8)
    path = tmp_path / "m.ckpt"
    model.save(path, step=17, extra_meta={"note": "unit"})
    again = Model.load(path)
    assert again.loaded_step == 17
    assert again.config == model.config
    assert again.multipliers == model.multipliers
    for name in model.params:
        np.testing.assert_array_equal(again.params[name].data,
                                      model.params[name].data)
    toks = np.array([[9, 8, 7, 6]], dtype=np.int32)
    np.testing.assert_array_equal(again.forward(toks).data,
                                  model.forward(toks).data)


def test_checkpoint_files_are_deterministic(tmp_path):
    model = build_small(seed=8)
    model.save(tmp_path / "a.ckpt", step=3)
    model.save(tmp_path / "b.ckpt", step=3)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_load_rejects_wrong_kind(tmp_path):
    from desklm.io import save_arrays
    save_arrays(tmp_path / "x.dlm", {"a": np.zeros(3)}, {"kind": "packed"})
    with pytest.raises(ConfigError):
        Model.load(tmp_path / "x.dlm")
