"""Minimal differentiable substrate for the predictor networks.

Fixed architectures only: dense layers, 1-D convolutions, softplus, mean
pooling, Adam, and the best-state fit loop (``fit_best``) that the GP
trains with.  Every layer exposes ``forward(x) -> (y, cache)`` and
``backward(cache, dy) -> dx`` with parameter gradients accumulated into
the owning :class:`ParamBlock`; a predictor's blocks are views of its one
:class:`ParamVector`, which Adam and ``fit_best`` update whole.  All
arithmetic is float64.  A network's ``forward(..., grad=False)`` skips the
softplus derivatives, which only ``backward`` reads.  Softplus and the
convolutions work in place, but every result is the bytes of the plain
expressions in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NonFiniteGradientError(RuntimeError):
    """Raised by the optimizer step when a gradient is NaN or infinite."""


class ParamBlock:
    """Named parameter array with a like-shaped gradient accumulator."""

    __slots__ = ("name", "values", "grad")

    def __init__(self, name: str, values: np.ndarray) -> None:
        self.name = name
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


class ParamVector:
    """Parameter blocks whose ``values`` and ``grad`` are rebound as views of
    one flat ``values`` and one flat ``grad`` array, in the given order.

    Build one per predictor: a second vector over the same blocks would
    re-home them and leave the first one, and any Adam holding it, stale.
    """

    def __init__(self, blocks: Sequence[ParamBlock]) -> None:
        self.blocks = list(blocks)
        self.values = np.concatenate([b.values.ravel() for b in self.blocks])
        self.grad = np.concatenate([b.grad.ravel() for b in self.blocks])
        lo = 0
        for b in self.blocks:
            shape, hi = b.shape, lo + b.values.size
            b.values = self.values[lo:hi].reshape(shape)
            b.grad = self.grad[lo:hi].reshape(shape)
            lo = hi


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Dense:
    """Affine map y = x @ W (+ b) over batched row vectors."""

    def __init__(
        self,
        name: str,
        n_in: int,
        n_out: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        self.n_in = n_in
        self.n_out = n_out
        self.W = ParamBlock(f"{name}.W", glorot_uniform(rng, (n_in, n_out), n_in, n_out))
        self.b = ParamBlock(f"{name}.b", np.zeros(n_out)) if bias else None

    def params(self) -> list[ParamBlock]:
        return [self.W] if self.b is None else [self.W, self.b]

    def forward(self, x: np.ndarray):
        if x.shape[-1] != self.n_in:
            raise ValueError(f"{self.W.name}: input width {x.shape[-1]} != {self.n_in}")
        y = x @ self.W.values
        if self.b is not None:
            y = y + self.b.values
        return y, x

    def backward(self, cache: np.ndarray, dy: np.ndarray) -> np.ndarray:
        self.W.grad += cache.T @ dy
        if self.b is not None:
            self.b.grad += dy.sum(axis=0)
        return dy @ self.W.values.T


def softplus(x: np.ndarray, grad: bool = True):
    """Smooth rectifier log(1 + e^x) and its derivative (None without
    ``grad``); the predictors use it throughout so every objective is
    C-infinity and finite-difference checkable at every parameter (ReLU's
    kinks and exactly-linear regions are not)."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)  # e^-|x|
    y = np.maximum(x, 0.0)
    if not grad:
        y += np.log1p(e, out=e)
        return y, None
    sig = np.log1p(e)
    y += sig
    # e <= 1, so max(e, [x >= 0]) picks 1 or e: the logistic sigmoid of x
    # without a branchy np.where
    np.greater_equal(x, 0.0, out=sig)
    np.maximum(e, sig, out=sig)
    e += 1.0
    sig /= e
    return y, sig


class Conv1d:
    """Stride-1 same-padded 1-D convolution over (batch, channels, length).

    Implemented as a batched matmul over unrolled input windows so the
    inner loops run in BLAS.
    """

    def __init__(self, name: str, c_in: int, c_out: int, width: int, rng: np.random.Generator) -> None:
        self.c_in = c_in
        self.c_out = c_out
        self.width = width
        self.pad = width // 2
        fan_in, fan_out = c_in * width, c_out * width
        self.W = ParamBlock(f"{name}.W", glorot_uniform(rng, (c_out, c_in, width), fan_in, fan_out))
        self.b = ParamBlock(f"{name}.b", np.zeros(c_out))

    def params(self) -> list[ParamBlock]:
        return [self.W, self.b]

    def _spans(self, length: int):
        """Per window j: the positions t whose x[t + j - pad] exists, and those x positions."""
        for j in range(self.width):
            s = j - self.pad
            lo = max(-s, 0)
            hi = max(length - max(s, 0), lo)
            yield j, slice(lo, hi), slice(lo + s, hi + s)

    def unroll(self, x: np.ndarray) -> np.ndarray:
        """(batch, c_in * width, length) window matrix of the zero-padded input."""
        batch, _, length = x.shape
        windows = np.empty((batch, self.c_in, self.width, length))
        windows[..., : self.pad] = windows[..., length - self.pad :] = 0.0  # where windows read padding
        for j, out, src in self._spans(length):
            windows[:, :, j, out] = x[:, :, src]
        return windows.reshape(batch, self.c_in * self.width, length)

    def forward(self, x: np.ndarray):
        if x.shape[1] != self.c_in:
            raise ValueError(f"{self.W.name}: channel count {x.shape[1]} != {self.c_in}")
        flat = self.unroll(x)
        w_mat = self.W.values.reshape(self.c_out, self.c_in * self.width)
        y = np.matmul(w_mat, flat)
        y += self.b.values[None, :, None]
        return y, flat

    def backward(self, flat: np.ndarray, dy: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        batch, _, length = dy.shape
        # view transposes keep the contractions in BLAS without copies
        dW = np.matmul(dy, flat.transpose(0, 2, 1)).sum(axis=0)
        self.W.grad += dW.reshape(self.c_out, self.c_in, self.width)
        self.b.grad += dy.sum(axis=(0, 2))
        if not need_dx:
            return None
        w_mat = self.W.values.reshape(self.c_out, self.c_in * self.width)
        dwin = np.matmul(w_mat.T, dy).reshape(batch, self.c_in, self.width, length)
        # dx[t] = ((0 + window 0) + window 1) + ..., as a padded sum would be
        dx = np.zeros((batch, self.c_in, length))
        for j, out, src in self._spans(length):
            dx[:, :, src] += dwin[:, :, j, out]
        return dx


class MLP:
    """Dense stack with softplus between layers (linear output).

    ``bias_pattern`` controls which layers carry a bias.  Feeding a
    stationary kernel, the output layer's bias is a pure translation of the
    latent space (exactly unidentifiable), and the last hidden layer's
    biases nearly translate it whenever a softplus unit sits in its linear
    region across the whole batch; such layers should run bias-free.
    """

    def __init__(
        self,
        name: str,
        widths: Sequence[int],
        rng: np.random.Generator,
        bias_pattern: Sequence[bool] | None = None,
    ) -> None:
        self.widths = tuple(widths)
        n_layers = len(widths) - 1
        if bias_pattern is None:
            bias_pattern = [True] * n_layers
        if len(bias_pattern) != n_layers:
            raise ValueError("bias_pattern length must match the layer count")
        self.layers = [
            Dense(f"{name}.{i}", widths[i], widths[i + 1], rng, bias=bias_pattern[i])
            for i in range(n_layers)
        ]

    def params(self) -> list[ParamBlock]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray, grad: bool = True):
        caches = []
        for i, layer in enumerate(self.layers):
            x, c = layer.forward(x)
            caches.append((layer, c))
            if i < len(self.layers) - 1:
                x, m = softplus(x, grad)
                caches.append((None, m))  # the softplus derivative
        return x, caches

    def backward(self, caches, dy: np.ndarray) -> np.ndarray:
        for layer, cache in reversed(caches):
            dy = dy * cache if layer is None else layer.backward(cache, dy)
        return dy


class CurveEncoder:
    """Two same-padded 1-D convolutions (1->8->8, width 3, softplus) with a
    global mean pool; maps a zero-padded loss curve to an 8-wide embedding."""

    channels = 8
    kernel = 3

    def __init__(self, name: str, n_epochs: int, rng: np.random.Generator) -> None:
        self.n_epochs = n_epochs
        self.conv1 = Conv1d(f"{name}.conv1", 1, self.channels, self.kernel, rng)
        self.conv2 = Conv1d(f"{name}.conv2", self.channels, self.channels, self.kernel, rng)

    def params(self) -> list[ParamBlock]:
        return self.conv1.params() + self.conv2.params()

    def forward(self, curves: np.ndarray, grad: bool = True):
        if curves.shape[1] != self.n_epochs:
            raise ValueError(f"curve length {curves.shape[1]} != {self.n_epochs}")
        h1, c1 = self.conv1.forward(curves[:, None, :])
        a1, m1 = softplus(h1, grad)
        h2, c2 = self.conv2.forward(a1)
        a2, m2 = softplus(h2, grad)
        z = a2.mean(axis=2)
        return z, (c1, m1, c2, m2)

    def backward(self, cache, dz: np.ndarray) -> None:
        # the curve itself is an input, not a parameter: its gradient is
        # never consumed, so the first convolution skips it
        c1, m1, c2, m2 = cache
        da2 = np.broadcast_to(dz[:, :, None] / self.n_epochs, m2.shape)
        da1 = self.conv2.backward(c2, da2 * m2)
        self.conv1.backward(c1, da1 * m1, need_dx=False)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a :class:`ParamVector`: one vectorized
    update of the whole vector per step; refuses to apply a step when any
    gradient is non-finite.
    """

    def __init__(self, vector: ParamVector, lr: float) -> None:
        if not lr >= 0:
            raise ValueError("learning rate must be >= 0")
        self.vector = vector
        self.lr = lr
        self.step_count = 0
        self._m = np.zeros_like(vector.values)
        self._v = np.zeros_like(vector.values)

    def zero_grad(self) -> None:
        self.vector.grad[...] = 0.0

    def step(self) -> None:
        g = self.vector.grad
        if not np.isfinite(g).all():
            name = next(b.name for b in self.vector.blocks if not np.isfinite(b.grad).all())
            raise NonFiniteGradientError(f"non-finite gradient in {name}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        self._m *= ADAM_BETA1
        self._m += (1.0 - ADAM_BETA1) * g
        self._v *= ADAM_BETA2
        self._v += (1.0 - ADAM_BETA2) * g**2
        self.vector.values -= self.lr * (self._m / bc1) / (np.sqrt(self._v / bc2) + ADAM_EPS)


@dataclass
class FitReport:
    """Objective before the first and after the last step of a fit;
    ``rolled_back`` marks a fit undone by a non-finite loss or gradient."""

    initial: float
    final: float
    steps: int
    rolled_back: bool = False


def fit_best(
    vector: ParamVector,
    loss_and_grads: Callable[[], float],
    loss: Callable[[], float],
    steps: int,
    lr: float,
) -> FitReport:
    """Full-batch Adam from the current parameters, keeping the best seen.

    ``loss_and_grads`` evaluates the objective and accumulates its gradient
    into ``vector``; ``loss`` evaluates it alone.  A non-finite loss or
    gradient puts the parameters back as they were before the fit.
    Otherwise the parameters with the lowest loss seen are kept, so the
    final loss never exceeds the initial one.  With ``steps == 0`` the
    parameters are left as they are.
    """
    pre_fit = vector.values.copy()
    best_state = np.empty_like(pre_fit)
    adam = Adam(vector, lr)
    best_val = math.inf
    initial = math.nan
    for step in range(steps):
        adam.zero_grad()
        val = loss_and_grads()
        if step == 0:
            initial = val
        if not math.isfinite(val):
            vector.values[...] = pre_fit
            return FitReport(initial, initial, step, rolled_back=True)
        if val < best_val:
            best_val = val
            best_state[...] = vector.values
        try:
            adam.step()
        except NonFiniteGradientError:
            vector.values[...] = pre_fit
            return FitReport(initial, initial, step, rolled_back=True)
    final = loss()
    if best_val < math.inf and not (math.isfinite(final) and final <= best_val):
        vector.values[...] = best_state
        final = best_val
    return FitReport(initial, final, steps)
