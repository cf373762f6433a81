"""Minimal differentiable substrate for the predictor networks.

Fixed architectures only: dense layers, 1-D convolutions, softplus, mean
pooling, Adam, and the best-state fit loop (``fit_best``) that both
predictors train with.  Every layer exposes ``forward(x) -> (y, cache)`` and
``backward(cache, dy) -> dx`` with parameter gradients accumulated into
the owning :class:`ParamBlock`.  All arithmetic is float64.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NonFiniteGradientError(RuntimeError):
    """Raised by the optimizer step when a gradient is NaN or infinite."""


class CheckpointFormatError(ValueError):
    """Raised when a parameter checkpoint fails schema validation."""


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

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


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


def softplus(x: np.ndarray):
    """Smooth rectifier log(1 + e^x); the predictors use it throughout so
    every objective is C-infinity and finite-difference checkable at every
    parameter (ReLU's kinks and exactly-linear regions are not)."""
    e = np.exp(-np.abs(x))
    y = np.maximum(x, 0.0) + np.log1p(e)
    # e <= 1, so max(e, [x >= 0]) picks 1 or e: the logistic sigmoid of x
    # without a branchy np.where
    sig = np.maximum(e, x >= 0.0) / (1.0 + e)
    return y, sig


def softplus_backward(sig: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy * sig


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

    def unroll(self, x: np.ndarray) -> np.ndarray:
        """(batch, c_in * width, length) window matrix of a padded input."""
        batch, _, length = x.shape
        padded = np.zeros((batch, self.c_in, length + 2 * self.pad))
        padded[:, :, self.pad : self.pad + length] = x
        windows = np.empty((batch, self.c_in, self.width, length))
        for j in range(self.width):
            windows[:, :, j, :] = padded[:, :, j : j + length]
        return windows.reshape(batch, self.c_in * self.width, length)

    def forward(self, x: np.ndarray, flat: np.ndarray | None = None):
        """``flat`` may carry a precomputed ``unroll(x)`` (inputs that stay
        constant across many parameter updates)."""
        if x.shape[1] != self.c_in:
            raise ValueError(f"{self.W.name}: channel count {x.shape[1]} != {self.c_in}")
        length = x.shape[2]
        if flat is None:
            flat = self.unroll(x)
        w_mat = self.W.values.reshape(self.c_out, self.c_in * self.width)
        y = np.matmul(w_mat, flat) + self.b.values[None, :, None]
        return y, (flat, length)

    def backward(self, cache, dy: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        flat, length = cache
        batch = dy.shape[0]
        ck = self.c_in * self.width
        # view transposes keep the contractions in BLAS without copies
        dW = np.matmul(dy, flat.transpose(0, 2, 1)).sum(axis=0)
        self.W.grad += dW.reshape(self.c_out, self.c_in, self.width)
        self.b.grad += dy.sum(axis=(0, 2))
        if not need_dx:
            return None
        w_mat = self.W.values.reshape(self.c_out, ck)
        dflat = np.matmul(w_mat.T, dy)
        dwin = dflat.reshape(batch, self.c_in, self.width, length)
        dpad = np.zeros((batch, self.c_in, length + 2 * self.pad))
        for j in range(self.width):
            dpad[:, :, j : j + length] += dwin[:, :, j, :]
        return dpad[:, :, self.pad : self.pad + length]


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

    def forward(self, x: np.ndarray):
        caches = []
        for i, layer in enumerate(self.layers):
            x, c = layer.forward(x)
            caches.append(("dense", c))
            if i < len(self.layers) - 1:
                x, m = softplus(x)
                caches.append(("act", m))
        return x, caches

    def backward(self, caches, dy: np.ndarray) -> np.ndarray:
        it = reversed(list(zip(self._ops(), caches)))
        for op, (kind, cache) in it:
            if kind == "act":
                dy = softplus_backward(cache, dy)
            else:
                dy = op.backward(cache, dy)
        return dy

    def _ops(self):
        ops = []
        for i, layer in enumerate(self.layers):
            ops.append(layer)
            if i < len(self.layers) - 1:
                ops.append(None)
        return ops


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

    def unroll(self, curves: np.ndarray) -> np.ndarray:
        return self.conv1.unroll(curves[:, None, :])

    def forward(self, curves: np.ndarray, flat1: np.ndarray | None = None):
        if curves.shape[1] != self.n_epochs:
            raise ValueError(f"curve length {curves.shape[1]} != {self.n_epochs}")
        x = curves[:, None, :]
        h1, c1 = self.conv1.forward(x, flat=flat1)
        a1, m1 = softplus(h1)
        h2, c2 = self.conv2.forward(a1)
        a2, m2 = softplus(h2)
        z = a2.mean(axis=2)
        return z, (c1, m1, c2, m2)

    def backward(self, cache, dz: np.ndarray) -> None:
        # the curve itself is an input, not a parameter: its gradient is
        # never consumed, so the first convolution skips it
        c1, m1, c2, m2 = cache
        da2 = np.broadcast_to(dz[:, :, None] / self.n_epochs, m2.shape)
        dh2 = softplus_backward(m2, da2)
        da1 = self.conv2.backward(c2, dh2)
        dh1 = softplus_backward(m1, da1)
        self.conv1.backward(c1, dh1, need_dx=False)
        return None


class Adam:
    """Bias-corrected Adam over a list of ParamBlocks.

    Moments live in one flat buffer (a single vectorized update per step);
    refuses to apply a step when any gradient is non-finite.
    """

    def __init__(
        self,
        params: Sequence[ParamBlock],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr < 0:
            raise ValueError("learning rate must be >= 0")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        sizes = [p.values.size for p in self.params]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        self._slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(sizes))]
        total = int(offsets[-1])
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._g = np.empty(total)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        g = self._g
        for p, sl in zip(self.params, self._slices):
            g[sl] = p.grad.reshape(-1)
        if not np.all(np.isfinite(g)):
            for p in self.params:
                if not np.all(np.isfinite(p.grad)):
                    raise NonFiniteGradientError(f"non-finite gradient in {p.name}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        self._m *= self.beta1
        self._m += (1.0 - self.beta1) * g
        self._v *= self.beta2
        self._v += (1.0 - self.beta2) * g**2
        delta = self.lr * (self._m / bc1) / (np.sqrt(self._v / bc2) + self.eps)
        for p, sl in zip(self.params, self._slices):
            p.values -= delta[sl].reshape(p.values.shape)


@dataclass
class FitReport:
    """Objective before the first and after the last step of a fit;
    ``rolled_back`` marks a fit undone by a non-finite loss or gradient."""

    initial: float
    final: float
    steps: int
    rolled_back: bool = False


def _restore(params: Sequence[ParamBlock], state: Sequence[np.ndarray]) -> None:
    for p, saved in zip(params, state):
        p.values[...] = saved


def fit_best(
    params: Sequence[ParamBlock],
    loss_and_grads: Callable[[], float],
    loss: Callable[[], float],
    steps: int,
    lr: float,
) -> FitReport:
    """Full-batch Adam from the current parameters, keeping the best seen.

    ``loss_and_grads`` evaluates the objective and accumulates its gradient
    into ``params``; ``loss`` evaluates it alone.  A non-finite loss or
    gradient puts the parameters back as they were before the fit.
    Otherwise the parameters with the lowest loss seen are kept, so the
    final loss never exceeds the initial one.  With ``steps == 0`` the
    parameters are left as they are.
    """
    pre_fit = [p.values.copy() for p in params]
    adam = Adam(params, lr)
    best_val = math.inf
    best_state: list[np.ndarray] | None = None
    initial = math.nan
    for step in range(steps):
        adam.zero_grad()
        val = loss_and_grads()
        if step == 0:
            initial = val
        if not math.isfinite(val):
            _restore(params, pre_fit)
            return FitReport(initial, initial, step, rolled_back=True)
        if val < best_val:
            best_val = val
            best_state = [p.values.copy() for p in params]
        try:
            adam.step()
        except NonFiniteGradientError:
            _restore(params, pre_fit)
            return FitReport(initial, initial, step, rolled_back=True)
    final = loss()
    if best_state is not None and not (math.isfinite(final) and final <= best_val):
        _restore(params, best_state)
        final = best_val
    return FitReport(initial, final, steps)


# ---------------------------------------------------------------------------
# Parameter checkpoint ("qtck-1"): versioned JSON of base64 float64 blocks.


def blocks_to_payload(blocks: Sequence[ParamBlock]) -> dict:
    return {
        "format": "qtck-1",
        "blocks": [
            {
                "name": b.name,
                "shape": list(b.shape),
                "values_b64_f64le": base64.b64encode(
                    b.values.astype("<f8").tobytes()
                ).decode("ascii"),
            }
            for b in blocks
        ],
    }


def payload_to_arrays(payload: dict) -> dict[str, np.ndarray]:
    if payload.get("format") != "qtck-1":
        raise CheckpointFormatError(f"unsupported checkpoint format {payload.get('format')!r}")
    out: dict[str, np.ndarray] = {}
    for entry in payload.get("blocks", []):
        raw = base64.b64decode(entry["values_b64_f64le"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(entry["shape"])
        if not np.all(np.isfinite(arr)):
            raise CheckpointFormatError(f"block {entry['name']!r} holds non-finite values")
        out[entry["name"]] = arr
    return out


def load_into_blocks(blocks: Sequence[ParamBlock], arrays: dict[str, np.ndarray], prefix: str = "") -> None:
    """Copy checkpoint arrays into live blocks, matching ``prefix + name``."""
    for b in blocks:
        key = prefix + b.name
        if key not in arrays:
            raise CheckpointFormatError(f"checkpoint missing block {key!r}")
        arr = arrays[key]
        if tuple(arr.shape) != b.shape:
            raise CheckpointFormatError(
                f"block {key!r}: shape {tuple(arr.shape)} != expected {b.shape}"
            )
        b.values[...] = arr


def save_checkpoint(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
