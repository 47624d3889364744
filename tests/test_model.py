"""Architecture: parameter accounting, masking, checkpointing, gradients."""
import math
from dataclasses import replace

import numpy as np
import pytest

from desklm import tensor as T
from desklm.errors import ConfigError, CorruptFileError
from desklm.model import (HyperParams, Model, ModelConfig, Multipliers, attention_bias,
                          count_params)
from desklm.presets import config_52b, config_mup_512, toy_config, toy_hyperparams
from desklm.tensor import RngState


def small_config(**kw):
    base = dict(layer_num=2, attention_heads=2, hidden_size=16,
                ffn_hidden_size=40, vocab_size=32, context_length=16)
    base.update(kw)
    return ModelConfig(**base)


def small_hp():
    return HyperParams(
        vector_lr=3e-3, matrix_lr=1.2e-2, min_lr=1.2e-3,
        vector_std=2e-2, matrix_std=8e-2, input_mult=1.0, output_mult=1.0,
        schedule_tokens=100_000, warmup_steps=2, batch_tokens=64,
    )


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
    assert sum(p.data.size for p in model.params.values()) == count_params(cfg)
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


@pytest.mark.parametrize("name", ["rope_theta", "norm_eps"])
def test_config_rejects_nan(name):
    with pytest.raises(ConfigError):
        small_config(**{name: float("nan")})


def test_config_is_checked_when_replaced():
    with pytest.raises(ConfigError, match="divisible by attention_heads"):
        replace(small_config(), attention_heads=3)


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


def _reachable(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_backward_frees_the_tape_but_keeps_parameter_grads():
    model = build_small()
    toks = RngState(2).integers(0, 32, size=(2, 16)).astype(np.int32)
    seg = np.ones_like(toks)
    seg[1, 10:] = 0
    model.zero_grads()
    loss = model.loss(toks, seg)
    loss.backward()
    leaves = {id(p) for p in model.params.values()}
    interior = [n for n in _reachable(loss) if id(n) not in leaves]
    assert len(interior) > 50
    for node in interior:
        assert node.grad is None and node._backward_fn is None, node
    for name, p in model.params.items():
        assert p.grad is not None, name


def test_each_block_is_one_call(monkeypatch):
    model = build_small(layer_num=3)
    names = {id(p): name for name, p in model.params.items()}
    calls, current, read = [], [None], {}
    block, make = Model._block, T._make

    def tagged_block(self, i, h, bias):
        calls.append(i)
        current[0] = i
        try:
            return block(self, i, h, bias)
        finally:
            current[0] = None

    def tagged_make(data, parents, op, backward_fn):
        read.setdefault(current[0], set()).update(
            names[id(p)] for p in parents if id(p) in names)
        return make(data, parents, op, backward_fn)

    monkeypatch.setattr(Model, "_block", tagged_block)
    monkeypatch.setattr(T, "_make", tagged_make)
    model.loss(RngState(2).integers(0, 32, size=(2, 16)).astype(np.int32))
    assert calls == [0, 1, 2]
    for i in range(3):
        assert read[i] == {n for n in model.params if n.startswith(f"layers.{i}.")}
        assert len(read[i]) == 9
    assert read[None] == {"embedding", "final_norm.gain", "final_norm.bias", "lm_head"}


def test_loss_over_frozen_parameters_builds_no_tape():
    model = build_small()
    frozen = Model(model.config, model.multipliers,
                   {k: T.Tensor(p.data) for k, p in model.params.items()})
    toks = RngState(2).integers(0, 32, size=(2, 16)).astype(np.int32)
    loss = frozen.loss(toks)
    assert loss._parents == () and not loss.requires_grad
    assert loss.item() == model.loss(toks).item()
    with pytest.raises(RuntimeError, match="needs no gradient"):
        loss.backward()


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


@pytest.mark.parametrize("call, tokens, segments, why", [
    ("forward", np.arange(4), None, r"tokens must be \[B, T\]"),
    ("forward", np.zeros((1, 17), dtype=np.int32), None, "sequence length 17 exceeds context 16"),
    ("forward", np.array([[1, 32]]), None, "out of vocabulary"),
    ("forward", np.array([[1, -1]]), None, "out of vocabulary"),
    ("forward", np.ones((1, 4), dtype=np.int32), np.ones((1, 3), dtype=np.int32),
     "segments shape"),
    ("loss", np.ones((2, 1), dtype=np.int32), None, "at least 2 tokens"),
], ids=["1d", "too-long", "id-at-vocab", "negative-id", "segment-shape", "one-token-rows"])
def test_forward_and_loss_refuse_inputs_that_do_not_fit(call, tokens, segments, why):
    with pytest.raises(ConfigError, match=why):
        getattr(build_small(), call)(tokens, segments)


def test_build_rejects_mismatched_rope_theta():
    with pytest.raises(ConfigError, match="10000.0 differs .* 500000.0"):
        build_small(rope_theta=500_000.0)


# -- checkpointing -------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = build_small(seed=8)
    path = tmp_path / "m.ckpt"
    model.save(path, step=17)
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


@pytest.mark.parametrize("step", ["abc", -3, 2.5, None, True, "missing"])
def test_load_rejects_a_step_that_is_not_a_count(tmp_path, step):
    from desklm.io import load_arrays, save_arrays
    path = tmp_path / "m.ckpt"
    build_small(seed=8).save(path, step=3)
    arrays, meta = load_arrays(path)
    meta.pop("step") if step == "missing" else meta.update(step=step)
    save_arrays(path, arrays, meta)
    with pytest.raises(CorruptFileError, match=f"{path}: step"):
        Model.load(path)


def test_load_rejects_wrong_kind(tmp_path):
    from desklm.io import save_arrays
    save_arrays(tmp_path / "x.dlm", {"a": np.zeros(3)}, {"kind": "packed"})
    with pytest.raises(ConfigError):
        Model.load(tmp_path / "x.dlm")
