"""Autodiff core: every op finite-difference checked, plus numeric anchors."""
import ctypes
import gc
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from desklm import tensor as T
from desklm.errors import ShapeError
from desklm.model import Model, attention_bias
from desklm.presets import toy_config, toy_hyperparams
from oracles import (cross_entropy_mpmath, finite_diff_grad, rel_error,
                     truncated_normal_sd)

TOL = 1e-5
H = 1e-5


def _rand(rng, *shape, scale=1.0):
    return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def check_grads(build, *tensors, tol=TOL):
    """build() -> scalar Tensor. Verifies backward against central FD."""
    loss = build()
    loss.backward()
    for t in tensors:
        assert t.grad is not None, "no gradient reached a leaf"
        num = finite_diff_grad(lambda: build().item(), t, h=H)
        err = rel_error(t.grad, num)
        assert err < tol, f"gradient mismatch: rel err {err:.3e}"


def weighted(out, rng):
    """Reduce via a fixed random projection so axis mix-ups can't cancel."""
    w = rng.standard_normal(out.shape)
    return T.sum_all(T.mul(out, T.Tensor(w)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# -- elementwise and structural ops -----------------------------------------

def test_add_grad(rng):
    a, b = _rand(rng, 4, 5), _rand(rng, 4, 5)
    check_grads(lambda: weighted(T.add(a, b), np.random.default_rng(1)), a, b)


def test_add_broadcast_grad(rng):
    a, b = _rand(rng, 4, 5), _rand(rng, 5)
    check_grads(lambda: weighted(T.add(a, b), np.random.default_rng(1)), a, b)


def test_mul_grad(rng):
    a, b = _rand(rng, 3, 4), _rand(rng, 3, 4)
    check_grads(lambda: weighted(T.mul(a, b), np.random.default_rng(1)), a, b)


def test_mul_broadcast_grad(rng):
    a, b = _rand(rng, 3, 1), _rand(rng, 1, 4)
    check_grads(lambda: weighted(T.mul(a, b), np.random.default_rng(1)), a, b)


def test_scale_grad(rng):
    a = _rand(rng, 6)
    check_grads(lambda: weighted(T.scale(a, -2.5), np.random.default_rng(1)), a)


def test_add_const_grad(rng):
    a = _rand(rng, 3, 3)
    c = rng.standard_normal((3, 3))
    check_grads(lambda: weighted(T.add_const(a, c), np.random.default_rng(1)), a)


def test_matmul_grad(rng):
    a, b = _rand(rng, 4, 6), _rand(rng, 6, 3)
    check_grads(lambda: weighted(T.matmul(a, b), np.random.default_rng(1)), a, b)


def test_bmm_grad(rng):
    a, b = _rand(rng, 2, 3, 4, 5), _rand(rng, 2, 3, 5, 2)
    check_grads(lambda: weighted(T.bmm(a, b), np.random.default_rng(1)), a, b)


def test_reshape_grad(rng):
    a = _rand(rng, 4, 6)
    check_grads(lambda: weighted(T.reshape(a, (2, 3, 4)), np.random.default_rng(1)), a)


def test_transpose_grad(rng):
    a = _rand(rng, 2, 3, 4)
    check_grads(lambda: weighted(T.transpose(a, (2, 0, 1)), np.random.default_rng(1)), a)


def test_embedding_grad(rng):
    w = _rand(rng, 7, 4)
    # repeated ids exercise scatter-add accumulation
    ids = np.array([[0, 3, 3], [6, 0, 1]])
    check_grads(lambda: weighted(T.embedding(w, ids), np.random.default_rng(1)), w)


def test_sum_all_grad(rng):
    a = _rand(rng, 3, 5)
    check_grads(lambda: T.sum_all(a), a)


def test_mean_all_grad(rng):
    a = _rand(rng, 3, 5)
    check_grads(lambda: T.mean_all(a), a)


# -- nonlinearities and norms ------------------------------------------------

def test_swish_grad(rng):
    a = _rand(rng, 4, 4, scale=2.0)
    check_grads(lambda: weighted(T.swish(a), np.random.default_rng(1)), a)


def test_swish_anchor():
    out = T.swish(T.Tensor(np.array([1.0])))
    assert out.data[0] == pytest.approx(0.7310585786300049, abs=1e-15)


def test_rms_norm_grad(rng):
    x, g = _rand(rng, 3, 8), _rand(rng, 8)
    check_grads(lambda: weighted(T.rms_norm(x, g), np.random.default_rng(1)), x, g)


def test_rms_norm_anchor():
    # rms([3,4]) = sqrt(12.5); eps=0 is allowed and keeps the anchor exact
    x = T.Tensor(np.array([[3.0, 4.0]]))
    g = T.Tensor(np.ones(2))
    out = T.rms_norm(x, g, eps=0.0)
    np.testing.assert_allclose(out.data, [[3 / math.sqrt(12.5), 4 / math.sqrt(12.5)]],
                               rtol=1e-15)


def test_layer_norm_grad(rng):
    x, g, b = _rand(rng, 4, 6), _rand(rng, 6), _rand(rng, 6)
    check_grads(lambda: weighted(T.layer_norm(x, g, b), np.random.default_rng(1)),
                x, g, b)


def test_layer_norm_zero_mean_unit_var():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.standard_normal((5, 16)) * 3 + 1)
    out = T.layer_norm(x, T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)), eps=0.0)
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, rtol=1e-12)


# -- attention pieces --------------------------------------------------------

def test_rope_grad(rng):
    x = _rand(rng, 2, 2, 5, 8)          # (B, heads, T, head_dim)
    pos = np.arange(5)
    check_grads(lambda: weighted(T.rope_rotate(x, pos), np.random.default_rng(1)), x)


# Two segments in row 0 and a pad tail in row 1, which attends only to itself.
_SEGMENTS = np.array([[1, 1, 1, 2, 2, 2, 2], [1, 1, 1, 1, 1, 0, 0]])


def test_causal_attention_grad(rng):
    q, k, v = (_rand(rng, 2, 3, 7, 4) for _ in range(3))
    bias = attention_bias(_SEGMENTS)
    check_grads(lambda: weighted(T.causal_attention(q, k, v, bias, 0.5),
                                 np.random.default_rng(1)), q, k, v)


def _attention_chain(q, k, v, bias, s):
    """The primitive composition causal_attention replaces; its oracle."""
    scores = T.add_const(T.scale(T.bmm(q, T.transpose(k, (0, 1, 3, 2))), s), bias)
    return T.bmm(T.softmax_last(scores), v)


def _assert_matches_primitive_chain(segments, s, rtol, heads=3):
    bias = attention_bias(segments)
    results = []
    b, t = segments.shape
    for op in (T.causal_attention, _attention_chain):
        rng = np.random.default_rng(3)
        q, k, v = (_rand(rng, b, heads, t, 16, scale=2.0) for _ in range(3))
        out = op(q, k, v, bias, s)
        weighted(out, np.random.default_rng(4)).backward()
        results.append([out.data, q.grad, k.grad, v.grad])
    for got, want in zip(*results):
        if rtol == 0.0:
            np.testing.assert_array_equal(got, want)
        else:
            assert rel_error(got, want) < rtol


@pytest.mark.parametrize("s,rtol", [(1 / 16, 0.0), (1 / 4, 0.0),
                                    (1 / math.sqrt(8), 1e-12), (1 / 12, 1e-12)],
                         ids=["inv16", "inv4", "inv_sqrt8", "inv12"])
def test_causal_attention_matches_primitive_chain(s, rtol):
    """Bit-identical where folding the scale into q is exact (a power of
    two, as for every head_dim-16 config), within 1e-12 otherwise."""
    _assert_matches_primitive_chain(_SEGMENTS, s, rtol)


@pytest.mark.parametrize("t", [T.ATTN_TILE + 1, 40, 130, 256])
@pytest.mark.parametrize("s,rtol", [(1 / 16, 0.0), (1 / math.sqrt(8), 1e-12)],
                         ids=["inv16", "inv_sqrt8"])
def test_causal_attention_tiles_match_primitive_chain(t, s, rtol):
    """Across query tiles: a one-row tail (joined to the tile before), a
    partial second tile (40), rows past numpy's 128-long pairwise block
    (130) and the bench length (256).  Row 0 holds two segments, row 1 a
    pad tail; the skipped keys are exact zeros of P, so the bits stay."""
    segments = np.ones((2, t), dtype=int)
    segments[0, t // 3:] = 2
    segments[1, t - t // 5:] = 0
    _assert_matches_primitive_chain(segments, s, rtol, heads=2)


def test_causal_attention_within_tolerance_at_every_length():
    """Every T from 2 to 300 at head_dim 16 and scale 1/16: within 1e-15 of
    the chain, not bit-identical, since at some T above 200 BLAS rounds a
    partial last tile's q k^T unlike the same rows of the full product."""
    for t in range(2, 301):
        _assert_matches_primitive_chain(np.ones((1, t), dtype=int), 1 / 16, 1e-15, heads=1)


def test_causal_attention_grad_across_two_tiles(rng):
    t = T.ATTN_TILE + 9
    segments = np.ones((2, t), dtype=int)
    segments[0, 20:] = 2                # a segment that starts in tile 0, ends in tile 1
    segments[1, t - 4:] = 0
    q, k, v = (_rand(rng, 2, 2, t, 4) for _ in range(3))
    check_grads(lambda: weighted(T.causal_attention(q, k, v, attention_bias(segments), 0.5),
                                 np.random.default_rng(1)), q, k, v)


def test_causal_attention_rejects_bad_shapes(rng):
    q, k = _rand(rng, 2, 3, 7, 4), _rand(rng, 2, 3, 7, 4)
    with pytest.raises(ShapeError):
        T.causal_attention(q, _rand(rng, 2, 3, 6, 4), k, np.zeros((1, 1, 7, 7)), 1.0)
    two_heads = np.repeat(attention_bias(np.ones((2, 7), dtype=int)), 2, axis=1)
    with pytest.raises(ValueError, match="broadcast"):     # numpy's broadcasting check
        T.causal_attention(q, k, k, two_heads, 1.0)


def test_causal_attention_refuses_a_bias_that_is_not_causal(rng):
    """Skipping the keys after each query tile is exact only if the bias
    hides them; a zero bias of any shape, or one key let through inside the
    last tile, is refused rather than computed."""
    t = T.ATTN_TILE + 9
    q, k, v = (_rand(rng, 2, 2, t, 4) for _ in range(3))
    T.causal_attention(q, k, v, attention_bias(np.ones((2, t), dtype=int)), 0.5)
    leaky = attention_bias(np.ones((2, t), dtype=int))
    leaky[1, 0, t - 3, t - 1] = 0.0
    for bias in (np.zeros((t, t)), np.zeros((1, 1, 1, 1)), leaky):
        with pytest.raises(ValueError, match="must hide .* every key after its query"):
            T.causal_attention(q, k, v, bias, 0.5)


def test_backward_frees_the_tape_without_the_cycle_collector():
    """A reference cycle through an op's closure keeps the arrays it saved
    (attention's P tiles among them) alive until the cycle collector runs.
    With the collector off, five train steps must not grow memory."""
    config = toy_config(64, layer_num=2, vocab_size=64, context_length=64)
    model = Model.build(config, toy_hyperparams(), T.RngState(0))
    tokens = np.random.default_rng(0).integers(0, 64, size=(8, 64))
    segments = np.ones_like(tokens)
    segments[:, 40:] = 2
    levels = []
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(5):
            model.loss(tokens, segments).backward()
            levels.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        gc.enable()
    assert max(levels[1:]) - levels[0] < 1_000_000, levels


def test_backward_stays_near_the_forward_memory():
    """Each op hands its gradient to its parent without a copy, so backward's
    traced peak stays near the live memory of the forward: at width 64,
    T=128, 4 rows it reads about 2.2 MB over, and 6.3 MB when every first
    arrival was copied."""
    config = toy_config(64, vocab_size=512, context_length=128)
    model = Model.build(config, toy_hyperparams(), T.RngState(0))
    tokens = np.random.default_rng(0).integers(0, 512, size=(4, 128))
    segments = np.ones_like(tokens)
    segments[:, 64:] = 2
    tracemalloc.start()
    try:
        loss = model.loss(tokens, segments)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        over = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert over < 4_000_000, over


def test_rope_anchor_single_pair():
    # head_dim 2, frequency theta^0 = 1: position m rotates by angle m
    x = T.Tensor(np.array([[[[1.0, 0.0]]]]))
    out = T.rope_rotate(x, np.array([1]), theta=10000.0)
    np.testing.assert_allclose(out.data.ravel(), [math.cos(1.0), math.sin(1.0)],
                               rtol=1e-15)


def test_rope_position_zero_is_identity(rng):
    x = _rand(rng, 1, 2, 1, 8)
    out = T.rope_rotate(x, np.array([0]))
    np.testing.assert_array_equal(out.data, x.data)


def test_rope_preserves_norm(rng):
    x = _rand(rng, 2, 3, 7, 16)
    out = T.rope_rotate(x, np.arange(7))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1),
                               np.linalg.norm(x.data, axis=-1), rtol=1e-12)


def test_softmax_last_grad(rng):
    a = _rand(rng, 3, 6, scale=2.0)
    check_grads(lambda: weighted(T.softmax_last(a), np.random.default_rng(1)), a)


def test_softmax_rows_sum_to_one(rng):
    a = _rand(rng, 4, 9, scale=30.0)    # large logits: max-subtraction matters
    out = T.softmax_last(a)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-12)


def test_cross_entropy_grad(rng):
    logits = _rand(rng, 5, 7, scale=2.0)
    targets = np.array([0, 3, 6, 1, 1])
    check_grads(lambda: T.softmax_cross_entropy(logits, targets), logits)


def test_cross_entropy_masked_grad(rng):
    logits = _rand(rng, 5, 7, scale=2.0)
    targets = np.array([0, 3, 6, 1, 1])
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    check_grads(lambda: T.softmax_cross_entropy(logits, targets, mask), logits)


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = T.Tensor(np.zeros((3, 11)))
    loss = T.softmax_cross_entropy(logits, np.array([0, 5, 10]))
    assert loss.item() == pytest.approx(math.log(11), rel=1e-15)


def test_cross_entropy_against_mpmath(rng):
    logits = rng.standard_normal((1, 13)) * 5
    want = cross_entropy_mpmath(logits[0], target=4)
    got = T.softmax_cross_entropy(T.Tensor(logits), np.array([4])).item()
    assert got == pytest.approx(want, abs=1e-12)


def test_swiglu_grad(rng):
    x = _rand(rng, 3, 6)
    wg, wu, wd = _rand(rng, 6, 10), _rand(rng, 6, 10), _rand(rng, 10, 6)
    check_grads(lambda: weighted(T.swiglu_ffn(x, wg, wu, wd),
                                 np.random.default_rng(1)), x, wg, wu, wd)


# -- engine behavior ---------------------------------------------------------

def test_backward_requires_scalar(rng):
    a = _rand(rng, 2, 2)
    with pytest.raises(ShapeError):
        T.add(a, a).backward()


def test_backward_refuses_a_tensor_that_needs_no_gradient(rng):
    with pytest.raises(RuntimeError, match="leaf tensor that needs no gradient"):
        T.Tensor(np.float64(2.0)).backward()
    const = T.sum_all(T.mul(T.Tensor(rng.standard_normal(3)), T.Tensor(np.ones(3))))
    with pytest.raises(RuntimeError, match="sum tensor that needs no gradient"):
        const.backward()
    assert const.grad is None


def _add_x_x(rng):
    x = _rand(rng, 3, 4)
    return lambda: T.add(x, x), (x,)


def _mul_a_a(rng):
    a = _rand(rng, 3, 4)
    return lambda: T.mul(a, a), (a,)


def _add_of_views(rng):
    a, b = _rand(rng, 3, 4), _rand(rng, 3, 4)
    return lambda: T.add(T.reshape(a, (4, 3)), T.transpose(b, (1, 0))), (a, b)


def _feeds_add_and_matmul(rng):
    x, y, w = _rand(rng, 3, 4), _rand(rng, 3, 4), _rand(rng, 4, 2)
    return lambda: T.add(weighted(T.add(x, y), np.random.default_rng(2)),
                         weighted(T.matmul(x, w), np.random.default_rng(3))), (x, y, w)


def _scale_chain(rng):
    a, b = _rand(rng, 5), _rand(rng, 5)

    def build():
        x = T.add(a, b)
        for i in range(50):
            x = T.scale(x, 1.0 + 0.01 * i)
        return x
    return build, (a, b)


def _scalar_leaves(rng):
    s, t = _rand(rng), _rand(rng)
    return lambda: T.scale(T.add(T.mul(s, t), s), 2.0), (s, t)


@pytest.mark.parametrize("case", [_add_x_x, _mul_a_a, _add_of_views, _feeds_add_and_matmul,
                                  _scale_chain, _scalar_leaves],
                         ids=lambda case: case.__name__[1:])
def test_leaf_gradients_never_alias(rng, case):
    """Ops hand their gradient arrays over without a copy; no two leaves may
    end up holding one buffer, and each must still match FD."""
    out, leaves = case(rng)
    build = lambda: weighted(out(), np.random.default_rng(1))
    check_grads(build, *leaves)
    grads = [t.grad for t in leaves]
    for i, g in enumerate(grads):
        assert isinstance(g, np.ndarray), type(g)
        assert not any(np.shares_memory(g, h) for h in grads[i + 1:])


def test_no_grad_leaves_untouched(rng):
    a = _rand(rng, 3)
    b = T.Tensor(np.ones(3))            # requires_grad=False
    T.sum_all(T.mul(a, b)).backward()
    assert a.grad is not None
    assert b.grad is None


def test_shared_leaf_accumulates(rng):
    a = _rand(rng, 4)
    loss = T.sum_all(T.add(T.mul(a, a), a))    # d/da (a^2 + a) = 2a + 1
    loss.backward()
    np.testing.assert_allclose(a.grad, 2 * a.data + 1, rtol=1e-12)


def test_deep_graph_no_recursion_limit():
    a = T.Tensor(np.array([1.0]), requires_grad=True)
    x = a
    for _ in range(3000):
        x = T.scale(x, 1.0)
    T.sum_all(x).backward()
    assert a.grad[0] == pytest.approx(1.0)


def test_backward_frees_interior_nodes_and_keeps_leaf_grads(rng):
    a = _rand(rng, 3, 4)
    b = _rand(rng, 4, 2)
    h = T.matmul(a, b)
    loss = T.sum_all(T.swish(h))
    loss.backward()
    assert a.grad is not None and b.grad is not None
    for node in (h, loss):
        assert node.grad is None and node._backward_fn is None


def test_consumed_graph_refuses_a_second_backward(rng):
    a = _rand(rng, 3)
    h = T.mul(a, a)
    T.sum_all(h).backward()
    first = a.grad.copy()
    with pytest.raises(RuntimeError, match="already freed"):
        T.sum_all(T.scale(h, 2.0)).backward()    # shares the freed node h
    loss = T.sum_all(h)
    with pytest.raises(RuntimeError, match="already freed"):
        loss.backward()
    np.testing.assert_array_equal(a.grad, first)


def test_ops_without_gradient_record_no_tape(rng):
    a = T.Tensor(rng.standard_normal((3, 4)))
    b = _rand(rng, 4, 2)
    const = T.swish(T.scale(a, 2.0))
    assert const._parents == () and const._backward_fn is None
    assert not const.requires_grad
    mixed = T.matmul(const, b)
    assert mixed._parents == (const, b) and mixed.requires_grad


def test_matmul_rejects_non_2d(rng):
    a, b = _rand(rng, 2, 3, 4), _rand(rng, 4, 2)
    with pytest.raises(ShapeError):
        T.matmul(a, b)


# -- RNG and initialization --------------------------------------------------

def test_rngstate_deterministic():
    a = T.RngState(42).standard_normal((4, 4))
    b = T.RngState(42).standard_normal((4, 4))
    np.testing.assert_array_equal(a, b)


def test_rngstate_children_differ():
    root = T.RngState(7)
    c0 = root.child(0).standard_normal((8,))
    c1 = root.child(1).standard_normal((8,))
    assert not np.array_equal(c0, c1)
    # children are a pure function of (seed, index), not of draw order
    again = T.RngState(7).child(0).standard_normal((8,))
    np.testing.assert_array_equal(c0, again)


def test_trunc_normal_bounds_and_moments():
    std = 4e-3
    rng = T.RngState(123)
    x = T.trunc_normal((1_000_000,), mean=0.0, std=std, rng=rng)
    assert np.all(np.abs(x) <= 2 * std + 1e-15)
    assert abs(x.mean()) < 3e-5
    want_sd = truncated_normal_sd(std)          # scipy truncnorm oracle
    assert want_sd == pytest.approx(0.87962 * std, rel=1e-4)
    assert x.std() == pytest.approx(want_sd, rel=2e-3)
    # the published-style sanity band used elsewhere in the suite
    assert 0.86 * std < x.std() < 0.90 * std


def test_trunc_normal_deterministic():
    a = T.trunc_normal((64, 64), 0.0, 0.02, T.RngState(9))
    b = T.trunc_normal((64, 64), 0.0, 0.02, T.RngState(9))
    np.testing.assert_array_equal(a, b)


def run_fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter that imports this desklm; its printed words."""
    env = {**os.environ, "PYTHONPATH": str(Path(T.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_importing_tensor_starts_no_process():
    # ctypes.util.find_library runs ldconfig or gcc in a child, whose RSS the
    # bench's peak_rss_mb counts; the allocator setting must not look libc up that way
    before, after = run_fresh(
        "import resource\n"
        "def children(): return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "before = children()\n"
        "import desklm.tensor\n"
        "print(before, children())")
    assert before == after


def test_importing_tensor_keeps_freed_arrays_in_the_heap():
    # glibc's default maps a 4 MiB array on its own (one more mmapped chunk in
    # mallinfo2) and unmaps it when freed; after the import it comes from the heap
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("the C library has no mallinfo2")
    before, after = run_fresh(
        "import ctypes\n"
        "import numpy as np\n"
        "import desklm.tensor\n"
        "libc = ctypes.CDLL(None)\n"
        "class Info(ctypes.Structure):\n"
        "    _fields_ = [(n, ctypes.c_size_t) for n in 'arena ordblks smblks hblks hblkhd"
        " usmblks fsmblks uordblks fordblks keepcost'.split()]\n"
        "libc.mallinfo2.restype = Info\n"
        "before = libc.mallinfo2().hblks\n"
        "x = np.ones(1 << 19)\n"
        "print(before, libc.mallinfo2().hblks)")
    assert before == after
