import json
import math

import numpy as np
import pytest

from oracle import (
    conv_backward,
    conv_forward,
    conv_unroll,
    curve_encoder_pass,
    fd_noise_floor,
    grad_check,
    history_inputs,
)
from oracle import softplus as softplus_where

from graybo.core import History, Observation, encode, sample_pipeline
from graybo.costmodel import CostPredictor
from graybo.neural import (
    Adam,
    CheckpointFormatError,
    Conv1d,
    CurveEncoder,
    Dense,
    MLP,
    NonFiniteGradientError,
    ParamBlock,
    ParamVector,
    blocks_to_payload,
    fit_best,
    load_into_blocks,
    payload_to_arrays,
    softplus,
)
from graybo.rng import substream
from graybo.surrogate import LATENT_WIDTH, DeepKernelGP, PredictorContext


def _mlp(seed=0, widths=(6, 32, 32, 1)):
    return MLP("net", widths, substream(seed, "mlp"))


# ---------------------------------------------------------------------------
# forward


def test_zero_parameters_give_zero_output():
    net = _mlp()
    for p in net.params():
        p.values[...] = 0.0
    x = substream(1, "x").standard_normal((5, 6))
    y, _ = net.forward(x)
    assert np.all(y == 0.0)


def test_identity_dense_layer_passes_input_through():
    layer = Dense("id", 4, 4, substream(0, "d"))
    layer.W.values[...] = np.eye(4)
    layer.b.values[...] = 0.0
    x = substream(2, "x").standard_normal((3, 4))
    y, _ = layer.forward(x)
    assert np.array_equal(y, x)


def test_forward_deterministic():
    net = _mlp(seed=3)
    x = substream(4, "x").standard_normal((2, 6))
    y1, _ = net.forward(x)
    y2, _ = net.forward(x)
    assert np.array_equal(y1, y2)


def test_forward_rejects_width_mismatch():
    net = _mlp()
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, 7)))


def test_conv_rejects_channel_mismatch():
    conv = Conv1d("c", 2, 4, 3, substream(0, "c"))
    with pytest.raises(ValueError):
        conv.forward(np.zeros((1, 3, 10)))


def test_curve_encoder_output_width():
    enc = CurveEncoder("e", 20, substream(5, "e"))
    z, _ = enc.forward(np.zeros((7, 20)))
    assert z.shape == (7, 8)


# ---------------------------------------------------------------------------
# backward


def test_scalar_product_gradient():
    layer = Dense("w", 1, 1, substream(0, "w"))
    layer.W.values[...] = 1.5
    layer.b.values[...] = 0.0
    x = np.array([[2.0]])
    _, cache = layer.forward(x)
    layer.W.grad[...] = 0.0
    layer.b.grad[...] = 0.0
    layer.backward(cache, np.array([[1.0]]))
    assert layer.W.grad[0, 0] == 2.0


def test_mlp_gradients_match_finite_differences():
    net = _mlp(seed=6)
    x = substream(7, "x").standard_normal((4, 6))
    target = substream(8, "t").standard_normal((4, 1))

    def loss_fn():
        y, _ = net.forward(x)
        d = y - target
        return float((d * d).sum())

    def grad_fn():
        for p in net.params():
            p.grad[...] = 0.0
        y, cache = net.forward(x)
        net.backward(cache, 2.0 * (y - target))

    assert grad_check(net.params(), loss_fn, grad_fn) <= 1e-4


def test_linear_network_gradients_near_exact():
    layer = Dense("lin", 5, 1, substream(9, "l"))
    x = substream(10, "x").standard_normal((6, 5))

    def loss_fn():
        y, _ = layer.forward(x)
        return float(y.sum())

    def grad_fn():
        for p in layer.params():
            p.grad[...] = 0.0
        _, cache = layer.forward(x)
        layer.backward(cache, np.ones((6, 1)))

    assert grad_check(layer.params(), loss_fn, grad_fn) <= 1e-10


def test_doubling_upstream_gradient_doubles_parameter_gradients():
    net = _mlp(seed=11)
    x = substream(12, "x").standard_normal((3, 6))
    y, cache = net.forward(x)
    dy = substream(13, "dy").standard_normal(y.shape)
    for p in net.params():
        p.grad[...] = 0.0
    net.backward(cache, dy)
    g1 = [p.grad.copy() for p in net.params()]
    for p in net.params():
        p.grad[...] = 0.0
    y, cache = net.forward(x)
    net.backward(cache, 2.0 * dy)
    for p, g in zip(net.params(), g1):
        assert np.allclose(p.grad, 2.0 * g, rtol=1e-12, atol=1e-14)


def test_conv_gradients_match_finite_differences():
    enc = CurveEncoder("e", 9, substream(14, "e"))
    curves = substream(15, "c").uniform(0.0, 1.0, (5, 9))
    target = substream(16, "t").standard_normal((5, 8))

    def loss_fn():
        z, _ = enc.forward(curves)
        d = z - target
        return float((d * d).sum())

    def grad_fn():
        for p in enc.params():
            p.grad[...] = 0.0
        z, cache = enc.forward(curves)
        enc.backward(cache, 2.0 * (z - target))

    assert grad_check(enc.params(), loss_fn, grad_fn) <= 1e-4


def test_grad_check_deterministic():
    net = _mlp(seed=17)
    x = substream(18, "x").standard_normal((2, 6))

    def loss_fn():
        y, _ = net.forward(x)
        return float((y * y).sum())

    def grad_fn():
        for p in net.params():
            p.grad[...] = 0.0
        y, cache = net.forward(x)
        net.backward(cache, 2.0 * y)

    assert grad_check(net.params(), loss_fn, grad_fn) == grad_check(
        net.params(), loss_fn, grad_fn
    )


def test_softplus_positive_and_smooth():
    x = np.array([-700.0, -1.0, 0.0, 1.0, 700.0])
    y, sig = softplus(x)
    assert np.all(np.isfinite(y)) and np.all(y >= 0.0)
    assert y[2] == pytest.approx(math.log(2.0))
    assert np.all((sig > 0.0) & (sig <= 1.0))
    interior = sig[1:4]
    assert np.all((interior > 0.0) & (interior < 1.0))


@pytest.mark.parametrize("shape", [(64, 8, 50), (96, 8, 50), (100, 8, 50), (1000, 8, 50), (96, 32)])
def test_softplus_matches_the_where_form_byte_for_byte(shape):
    rng = substream(0, "softplus", *shape)
    specials = [0.0, -0.0, 800.0, -800.0, 1e-320, -1e-320, 36.0, -36.0, np.inf, -np.inf, np.nan, -np.nan]
    for scale in (1e-3, 1e-1, 1.0, 5.0, 30.0):
        x = rng.normal(size=shape) * scale
        x.flat[: len(specials)] = specials
        want = softplus_where(x)
        for got, ref in zip(softplus(x), want):
            assert got.tobytes() == ref.tobytes()
        y, sig = softplus(x, grad=False)
        assert sig is None and y.tobytes() == want[0].tobytes()


def _signed_inputs(rng, shape, scale):
    """Normal draws times ``scale`` with the last third of every row zero,
    as in a zero-padded curve, and ±0.0, |x| > 40 and subnormals planted."""
    x = rng.normal(size=shape) * scale
    x[..., 2 * shape[-1] // 3 :] = 0.0
    specials = [0.0, -0.0, 45.0, -45.0, 1e-320, -1e-320]
    n = min(len(specials), x.size)
    x.flat[:n] = specials[:n]
    return x


def _conv_pair(c_in, c_out, width, seed):
    """Two convolutions with the same parameters: one to run, one for the
    reference to accumulate its gradients into."""
    return [Conv1d("c", c_in, c_out, width, substream(seed, "conv")) for _ in range(2)]


@pytest.mark.parametrize("batch", [1, 7, 64, 96])
def test_conv_matches_the_padded_reference_byte_for_byte(batch):
    for c_in, c_out, width, length in ((1, 8, 3, 50), (8, 8, 3, 50), (3, 2, 5, 4), (2, 3, 5, 1)):
        rng = substream(batch, "conv-inputs", c_in, width, length)
        conv, ref = _conv_pair(c_in, c_out, width, batch)
        ref.b.values[...] = conv.b.values[...] = rng.normal(size=c_out)
        x = _signed_inputs(rng, (batch, c_in, length), 20.0)
        assert conv.unroll(x).tobytes() == conv_unroll(ref, x).tobytes()
        y, cache = conv.forward(x)
        y_ref, flat_ref = conv_forward(ref, x)
        assert y.tobytes() == y_ref.tobytes()
        dy = _signed_inputs(rng, y.shape, 3.0)
        dx = conv.backward(cache, dy)
        dx_ref = conv_backward(ref, flat_ref, dy)
        assert dx.shape == x.shape and dx.tobytes() == dx_ref.tobytes()
        for p, q in zip(conv.params(), ref.params()):
            assert p.grad.tobytes() == q.grad.tobytes(), p.name


def test_conv_input_gradient_sums_every_window_onto_a_positive_zero():
    """dx[t] is ((0 + window 0) + window 1) + window 2, so where every
    window contributes -0.0 the sum is +0.0; a sum started from one
    window's values, with the others added after, gives -0.0 there."""
    conv, ref = _conv_pair(2, 2, 3, 0)
    conv.W.values[...] = ref.W.values[...] = 1e-100
    x = np.ones((3, 2, 6))
    dy = np.full((3, 2, 6), -1e-300)  # every product underflows to -0.0
    if not np.signbit(np.matmul(conv.W.values.reshape(2, 6).T, dy)).all():
        pytest.skip("this BLAS rounds an underflowing dot product to +0.0")
    _, cache = conv.forward(x)
    dx = conv.backward(cache, dy)
    assert not np.signbit(dx).any()
    assert dx.tobytes() == conv_backward(ref, conv_forward(ref, x)[1], dy).tobytes()


@pytest.mark.parametrize("batch", [1, 7, 64, 96])
def test_curve_encoder_matches_the_reference_pass_byte_for_byte(batch):
    rng = substream(batch, "curve-inputs")
    enc, ref = (CurveEncoder("e", 50, substream(batch, "curve-encoder")) for _ in range(2))
    curves = _signed_inputs(rng, (batch, 50), 30.0)
    dz = _signed_inputs(rng, (batch, 8), 1.0)
    z, cache = enc.forward(curves)
    enc.backward(cache, dz)
    assert z.tobytes() == curve_encoder_pass(ref, curves, dz).tobytes()
    for p, q in zip(enc.params(), ref.params()):
        assert p.grad.tobytes() == q.grad.tobytes(), p.name
    z_only, (_, m1, _, m2) = enc.forward(curves, grad=False)
    assert z_only.tobytes() == z.tobytes() and m1 is None and m2 is None


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_keeps_parameters():
    p = ParamBlock("p", np.array([1.0, -2.0]))
    opt = Adam(ParamVector([p]), lr=1e-2)
    p.grad[...] = 0.0
    opt.step()
    assert np.array_equal(p.values, [1.0, -2.0])
    assert opt.step_count == 1


def test_adam_first_step_closed_form():
    p = ParamBlock("p", np.array(0.0))
    opt = Adam(ParamVector([p]), lr=1e-4)
    p.grad[...] = 0.3
    opt.step()
    expected = -1e-4 * 0.3 / (0.3 + 1e-8)
    assert p.values.item() == pytest.approx(expected, rel=1e-12)


def test_adam_opposite_gradients_give_opposite_updates():
    a = ParamBlock("a", np.array([0.0]))
    b = ParamBlock("b", np.array([0.0]))
    opt_a = Adam(ParamVector([a]), lr=1e-3)
    opt_b = Adam(ParamVector([b]), lr=1e-3)
    a.grad[...] = 0.7
    b.grad[...] = -0.7
    opt_a.step()
    opt_b.step()
    assert a.values.item() == -b.values.item()
    assert a.values.item() != 0.0


def test_adam_zero_lr_keeps_parameters():
    p = ParamBlock("p", np.array([3.0]))
    opt = Adam(ParamVector([p]), lr=0.0)
    p.grad[...] = 5.0
    opt.step()
    assert p.values.item() == 3.0


@pytest.mark.parametrize("lr", [-1.0, math.nan])
def test_adam_rejects_a_negative_or_nan_learning_rate(lr):
    with pytest.raises(ValueError):
        Adam(ParamVector([ParamBlock("p", np.array([1.0]))]), lr=lr)


def test_adam_rejects_non_finite_gradient():
    a = ParamBlock("a", np.array([1.0, 2.0]))
    b = ParamBlock("b", np.array([[3.0], [4.0]]))
    vector = ParamVector([a, b])
    opt = Adam(vector, lr=1e-3)
    a.grad[...] = 1.0
    b.grad[1, 0] = np.nan
    with pytest.raises(NonFiniteGradientError, match="in b$"):
        opt.step()
    assert np.array_equal(vector.values, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(a.values, [1.0, 2.0]) and np.array_equal(b.values, [[3.0], [4.0]])


def test_param_vector_views_share_the_blocks_storage(small_space, meta_features):
    # the predictors' blocks are views of their vector, so writes through a
    # block (a checkpoint load, the closed-form head refit) land in it
    ctx = PredictorContext.from_space(small_space, meta_features, 10, 1)
    cp = CostPredictor(ctx, substream(40, "vector"))
    assert [b.name for b in cp.vector.blocks] == [b.name for b in cp.params()]
    other = CostPredictor(ctx, substream(41, "vector"))
    load_into_blocks(cp.params(), {b.name: b.values for b in other.params()})
    assert cp.vector.values.tobytes() == other.vector.values.tobytes()
    h = History()
    for pid in range(3):
        for ep in range(1, 4):
            h.append(Observation(pid, ep, 0.5, 2.0 * ep + pid))
    rng = substream(42, "vector")
    encs = {pid: encode(sample_pipeline(small_space, rng), small_space) for pid in range(3)}
    inputs, _, costs = history_inputs(h, encs, ctx)
    before = cp.vector.values.copy()
    report = cp.fit(inputs, costs, cp.head_vector())
    assert report.steps == 1 and not report.rolled_back
    head = len(cp.vector.values) - (LATENT_WIDTH + 1)
    assert np.array_equal(cp.vector.values[:head], before[:head])
    assert np.array_equal(cp.vector.values[head:], cp.head_vector())
    assert not np.array_equal(cp.vector.values[head:], before[head:])


# ---------------------------------------------------------------------------
# fit_best


class _Scripted:
    """An objective that plays back ``values``, one per gradient evaluation,
    with a unit gradient (NaN at ``nan_grad_at``), recording the parameters
    it was evaluated at."""

    def __init__(self, block, values, nan_grad_at=None):
        self.block = block
        self.values = list(values)
        self.nan_grad_at = nan_grad_at
        self.seen = []

    def __call__(self):
        k = len(self.seen)
        self.seen.append(self.block.values.copy())
        self.block.grad[...] = np.nan if k == self.nan_grad_at else 1.0
        return self.values[k]


def _block():
    p = ParamBlock("p", np.array([1.0, -2.0]))
    return p, ParamVector([p])


def test_fit_best_rolls_back_on_a_non_finite_loss_at_step_k():
    p, vector = _block()
    objective = _Scripted(p, [5.0, 3.0, math.nan, 1.0])
    report = fit_best(vector, objective, lambda: 0.0, steps=4, lr=0.1)
    assert (report.initial, report.final, report.steps, report.rolled_back) == (5.0, 5.0, 2, True)
    assert np.array_equal(p.values, [1.0, -2.0])
    assert not np.array_equal(objective.seen[2], [1.0, -2.0])  # it had moved


def test_fit_best_rolls_back_on_a_non_finite_gradient():
    p, vector = _block()
    objective = _Scripted(p, [5.0, 3.0, 2.0, 1.0], nan_grad_at=2)
    report = fit_best(vector, objective, lambda: 0.0, steps=4, lr=0.1)
    assert (report.initial, report.final, report.steps, report.rolled_back) == (5.0, 5.0, 2, True)
    assert np.array_equal(p.values, [1.0, -2.0])


def test_fit_best_keeps_the_best_state_when_the_final_loss_is_worse():
    p, vector = _block()
    objective = _Scripted(p, [5.0, 3.0, 4.0, 6.0])
    report = fit_best(vector, objective, lambda: 10.0, steps=4, lr=0.1)
    assert (report.initial, report.final, report.steps, report.rolled_back) == (5.0, 3.0, 4, False)
    assert np.array_equal(p.values, objective.seen[1])


@pytest.mark.parametrize("model", [DeepKernelGP, CostPredictor])
def test_predictor_fit_with_a_nan_weight_keeps_parameters(model, small_space, meta_features):
    # a NaN trunk weight makes the loss non-finite: a zero-step GP fit
    # returns a report, and a GP fit with steps and the cost head's solve
    # roll back, all leaving the parameters
    ctx = PredictorContext.from_space(small_space, meta_features, 10, 1)
    h = History()
    for pid in range(3):
        for ep in range(1, 4):
            h.append(Observation(pid, ep, 0.5 / ep + 0.1 * pid, 2.0 * ep))
    rng = substream(30, "nan-fit")
    encs = {pid: encode(sample_pipeline(small_space, rng), small_space) for pid in range(3)}
    inputs, y, costs = history_inputs(h, encs, ctx)
    net = model(ctx, substream(31, "nan-fit"))
    net.fx.trunk.layers[0].W.values[0, 0] = np.nan
    before = [p.values.copy() for p in net.params()]
    if model is DeepKernelGP:
        fits = [(lambda s=s: net.fit(inputs, y, steps=s, lr=1e-3), s > 0) for s in (0, 3)]
    else:  # one closed-form solve for the head, with no step count
        fits = [(lambda: net.fit(inputs, costs, net.head_vector()), True)]
    for fit, rolls_back in fits:
        report = fit()
        assert report.steps == 0 and report.rolled_back == rolls_back
        assert not math.isfinite(report.final)
        for p, b in zip(net.params(), before):
            assert np.array_equal(p.values, b, equal_nan=True)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bitwise():
    net = _mlp(seed=19)
    payload = blocks_to_payload({p.name: p.values for p in net.params()})
    text = json.dumps(payload)
    arrays = payload_to_arrays(json.loads(text))
    for p in net.params():
        assert np.array_equal(arrays[p.name], p.values)


def test_checkpoint_load_into_blocks_validates_shape():
    net = _mlp(seed=20)
    arrays = payload_to_arrays(blocks_to_payload({p.name: p.values for p in net.params()}))
    other = MLP("net", (6, 32, 32, 2), substream(21, "m"))
    with pytest.raises(CheckpointFormatError):
        load_into_blocks(other.params(), arrays)


def test_checkpoint_rejects_bad_format():
    with pytest.raises(CheckpointFormatError):
        payload_to_arrays({"format": "qtck-0", "blocks": []})


def test_fd_noise_floor_scales_with_objective():
    import pytest as _pytest

    assert fd_noise_floor(100.0) == _pytest.approx(10 * fd_noise_floor(10.0))
    assert fd_noise_floor(0.5) == fd_noise_floor(1.0)
