"""Deep-kernel Gaussian-process loss predictor.

A neural feature extractor maps (encoded hyperparameters, budget fraction,
dataset meta-features, model embedding, learning-curve embedding) to a
32-wide latent vector; a Matern-5/2 kernel over that latent space with a
learned noise level gives an exact GP posterior over validation losses.
Kernel parameters and network weights train jointly on the negative log
marginal likelihood.

Importing this module (so importing graybo) makes two process-wide
settings once, which fork workers inherit: scipy's bundled OpenBLAS runs
on the calling thread (``single_thread_scipy_blas``), and glibc keeps
64 MiB free at the heap top instead of trimming it (``keep_heap_top``).
scipy's LAPACK is imported by the first solve (``load_lapack``), not here.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy

from .core import EncodedPipeline, MetaFeatures, SearchSpace
from .neural import CurveEncoder, Dense, FitReport, MLP, ParamBlock, ParamVector, fit_best


def bundled_openblas_threads(libs_dir: str):
    """The (get, set) num-threads functions of a wheel-bundled OpenBLAS
    (``libscipy_openblas*.so``) that is already loaded from ``libs_dir``, or
    None.  numpy's 64-bit-integer build suffixes its symbols with ``64_``.
    The library is looked up with ``RTLD_NOLOAD``, so nothing new is loaded,
    and builds without one (MKL, Accelerate, conda) give None.
    """
    for path in sorted(glob.glob(os.path.join(libs_dir, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", ""), ("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _libs_dir(package) -> str:
    return os.path.join(os.path.dirname(os.path.dirname(package.__file__)), f"{package.__name__}.libs")


def single_thread_scipy_blas(libs_dir: str | None = None) -> None:
    """Run scipy's bundled OpenBLAS (used here only by the LAPACK ``trtrs``
    triangular solves of ``solve_lower``) on the calling thread.

    A wheel install loads two OpenBLAS libraries, numpy's and scipy's, each
    with its own thread pool whose idle threads spin for ~0.1 s after every
    call; on a small machine the pools fight the main thread for cores.
    The solves are too small to gain from threads, so scipy's pool is set to
    one thread by ``load_lapack``; numpy's pool (gemm, Cholesky) keeps the
    caller's setting except while ``single_thread_numpy_blas`` is in force.
    ``fork`` children inherit the setting.
    """
    threads = bundled_openblas_threads(libs_dir or _libs_dir(scipy))
    if threads is not None:
        threads[1](1)


single_thread_scipy_blas()
_dtrtrs = None


def load_lapack():
    """scipy's LAPACK ``dtrtrs``, imported (~0.25 s) and its pool set to one
    thread on the first call; forking commands call it before they fork."""
    global _dtrtrs
    if _dtrtrs is None:
        from scipy.linalg.lapack import dtrtrs as _dtrtrs
        single_thread_scipy_blas()
    return _dtrtrs


M_TOP_PAD = -2  # glibc mallopt parameter: bytes kept free at the heap top
TOP_PAD_BYTES = 64 << 20


def keep_heap_top(libc=None) -> None:
    """Set glibc's ``M_TOP_PAD`` to 64 MiB for this process and its forks;
    called once, when ``graybo.surrogate`` is imported.

    Every fit and meta-train iteration frees several MB at the top of the
    heap; with glibc's default pad the heap is trimmed and the next
    iteration faults the pages back in.  One warm 500-iteration
    ``meta_train`` call took ~630k minor faults and ~1.4 s of system time,
    and under ten faults and no system time with the pad (2 vCPUs,
    glibc 2.36).  Like ``single_thread_scipy_blas`` this is a process-wide
    setting that is not undone (``mallopt`` has no getter); it costs at
    most 64 MiB of untrimmed heap.  Does nothing where the C library has no
    ``mallopt``.
    """
    try:
        mallopt = (libc or ctypes.CDLL(None)).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TOP_PAD, TOP_PAD_BYTES)


keep_heap_top()


@contextlib.contextmanager
def single_thread_numpy_blas(libs_dir: str | None = None):
    """Run numpy's bundled OpenBLAS pool on the calling thread inside the
    block (or decorated function), then restore the caller's thread count,
    on an exception too.  ``optimizer.tune`` runs under it: its products and
    Cholesky factors are small and come between long stretches of Python,
    so a second BLAS thread mostly spins idle.  Importing graybo leaves
    numpy's pool alone, and without a bundled library this does nothing.
    """
    threads = bundled_openblas_threads(libs_dir or _libs_dir(np))
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


SQRT5 = math.sqrt(5.0)
NOISE_FLOOR = 1e-8
JITTER_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
LATENT_WIDTH = 32
GRAM_BLOCK = 32  # rows per elementwise pass of ``gram``
MODEL_EMBED_WIDTH = 4
CURVE_EMBED_WIDTH = 8
HIDDEN_WIDTHS = (32, 32)


class SingularKernelError(RuntimeError):
    """Raised when the training Gram matrix stays indefinite after jitter escalation."""


def scale_meta(meta: MetaFeatures) -> np.ndarray:
    """Bound the four integer meta-features to O(1) inputs."""
    return np.array(
        [
            math.log10(meta.n_samples) / 6.0,
            math.log10(meta.resolution) / 3.0,
            meta.channels / 4.0,
            math.log10(meta.classes) / 3.0,
        ]
    )


@dataclass(frozen=True)
class PredictorContext:
    """Static per-run quantities shared by both predictors."""

    hp_width: int
    n_models: int
    n_epochs: int
    dt: int
    meta: MetaFeatures

    @classmethod
    def from_space(cls, space: SearchSpace, meta: MetaFeatures, n_epochs: int, dt: int) -> "PredictorContext":
        return cls(
            hp_width=space.hp_width,
            n_models=len(space.hub),
            n_epochs=n_epochs,
            dt=dt,
            meta=meta,
        )


@dataclass
class PredictorInputs:
    """Batched network inputs: one row per (pipeline, epoch) query."""

    hp: np.ndarray  # (B, hp_width)
    model_onehot: np.ndarray  # (B, n_models)
    curves: np.ndarray  # (B, n_epochs)
    epoch: np.ndarray  # (B,) int64 query epoch tau
    meta: np.ndarray  # (B, 4), already scaled
    # Candidate rows only: observed cumulative cost at epoch tau - dt (0 for
    # an unobserved pipeline).  None on training rows.
    observed_cost: np.ndarray | None = None

    def __len__(self) -> int:
        return self.hp.shape[0]


@dataclass(frozen=True)
class Encodings:
    """Per-pipeline blocks every predictor input is gathered from: the
    hyperparameters (n, hp_width), the model one-hot (n, n_models) and the
    scaled meta-features (4,), one row shared by every pipeline; ``dt`` is
    the epoch step, which sets how much of a curve a row sees."""

    hp: np.ndarray
    onehot: np.ndarray
    meta: np.ndarray
    dt: int

    @classmethod
    def of(cls, ctx: PredictorContext, encodings: Sequence[EncodedPipeline]) -> "Encodings":
        feats = np.stack([e.features for e in encodings])
        return cls(feats[:, : ctx.hp_width], feats[:, ctx.hp_width :], scale_meta(ctx.meta), ctx.dt)

    def inputs(
        self,
        pids: np.ndarray,
        epochs: np.ndarray,
        curves: np.ndarray,
        observed_cost: np.ndarray | None = None,
    ) -> PredictorInputs:
        """Rows (pids[i], epochs[i]).  Row i's curve input is ``curves[i]``
        at indices < epochs[i] - dt (the epochs up to tau - dt), zero
        elsewhere; meta is a broadcast view of the one row."""
        epochs = np.asarray(epochs, dtype=np.int64)
        visible = np.arange(curves.shape[1]) < (epochs - self.dt)[:, None]
        return PredictorInputs(
            hp=self.hp[pids],
            model_onehot=self.onehot[pids],
            curves=np.where(visible, curves, 0.0),
            epoch=epochs,
            meta=np.broadcast_to(self.meta, (len(epochs), 4)),
            observed_cost=observed_cost,
        )


class FeatureExtractor:
    """Model embedding + curve encoder + trunk MLP -> 32-wide latent."""

    def __init__(self, ctx: PredictorContext, rng: np.random.Generator, name: str = "fx") -> None:
        self.ctx = ctx
        self.model_embed = Dense(f"{name}.model_embed", ctx.n_models, MODEL_EMBED_WIDTH, rng)
        self.curve_encoder = CurveEncoder(f"{name}.curve", ctx.n_epochs, rng)
        trunk_in = ctx.hp_width + 1 + 4 + MODEL_EMBED_WIDTH + CURVE_EMBED_WIDTH
        self.trunk = MLP(
            f"{name}.trunk",
            (trunk_in, *HIDDEN_WIDTHS, LATENT_WIDTH),
            rng,
            bias_pattern=(True, False, False),
        )

    def params(self) -> list[ParamBlock]:
        return self.model_embed.params() + self.curve_encoder.params() + self.trunk.params()

    def forward(self, inputs: PredictorInputs, grad: bool = True):
        e_model, c_model = self.model_embed.forward(inputs.model_onehot)
        e_curve, c_curve = self.curve_encoder.forward(inputs.curves, grad=grad)
        tfrac = inputs.epoch[:, None] / self.ctx.n_epochs
        x = np.concatenate([inputs.hp, tfrac, inputs.meta, e_model, e_curve], axis=1)
        z, c_trunk = self.trunk.forward(x, grad=grad)
        return z, (c_model, c_curve, c_trunk)

    def backward(self, trace, dz: np.ndarray) -> None:
        c_model, c_curve, c_trunk = trace
        dx = self.trunk.backward(c_trunk, dz)
        hp_w = self.ctx.hp_width
        off = hp_w + 1 + 4
        d_model = dx[:, off : off + MODEL_EMBED_WIDTH]
        d_curve = dx[:, off + MODEL_EMBED_WIDTH :]
        self.model_embed.backward(c_model, d_model)
        self.curve_encoder.backward(c_curve, d_curve)


class KernelParams:
    """Log-parameterized Matern-5/2 lengthscale, signal variance, and noise."""

    def __init__(
        self,
        log_lengthscale: float = 0.0,
        log_signal_var: float = 0.0,
        log_noise_var: float = math.log(1e-1),
    ) -> None:
        self.log_ls = ParamBlock("kernel.log_ls", np.array(log_lengthscale))
        self.log_sv = ParamBlock("kernel.log_sv", np.array(log_signal_var))
        self.log_nv = ParamBlock("kernel.log_nv", np.array(log_noise_var))

    def params(self) -> list[ParamBlock]:
        return [self.log_ls, self.log_sv, self.log_nv]

    @property
    def lengthscale(self) -> float:
        return float(np.exp(self.log_ls.values))

    @property
    def signal_var(self) -> float:
        return float(np.exp(self.log_sv.values))

    @property
    def noise_var(self) -> float:
        return float(np.exp(self.log_nv.values)) + NOISE_FLOOR


def _sqdist(s1: np.ndarray, s2: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Squared distances from squared norms and the Gram ``G = Z1 Z2^T``."""
    return np.maximum(s1[:, None] + s2[None, :] - 2.0 * G, 0.0)


def _pairwise_sqdist(Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    return _sqdist((Z1 * Z1).sum(axis=1), (Z2 * Z2).sum(axis=1), Z1 @ Z2.T)


def _matern52(sqdist: np.ndarray, kernel: KernelParams, out: np.ndarray | None = None) -> np.ndarray:
    u = SQRT5 * np.sqrt(sqdist) / kernel.lengthscale
    return np.multiply(kernel.signal_var * (1.0 + u + u * u / 3.0), np.exp(-u), out=out)


def kernel_matrix(Z1: np.ndarray, Z2: np.ndarray, kernel: KernelParams) -> np.ndarray:
    return _matern52(_pairwise_sqdist(Z1, Z2), kernel)


def gram(
    Z: np.ndarray, kernel: KernelParams, noise: float, out: np.ndarray | None = None, lower: bool = False
) -> np.ndarray:
    """``K(Z, Z) + noise * I``, bit-identical to ``kernel_matrix(Z, Z, kernel)
    + noise * np.eye(n)``, written into the leading n x n square of ``out``
    (a new array by default) and returned as that view.

    The symmetric product ``Z Z^T`` is one BLAS call, as in
    ``kernel_matrix``; the elementwise passes then run over ``GRAM_BLOCK``
    rows at a time, so their temporaries stay in cache, and the noise is
    added on the diagonal only (off it ``k + 0.0 == k``, as kernel values
    are >= +0.0).  Nothing outside the square is read or written.  ``lower``
    fills only what a Cholesky factorization reads: above it stays ``Z Z^T``.
    """
    n = len(Z)
    K = (np.empty((n, n)) if out is None else out)[:n, :n]
    np.matmul(Z, Z.T, out=K)
    s = (Z * Z).sum(axis=1)
    for lo in range(0, n, GRAM_BLOCK):
        hi = lo + GRAM_BLOCK
        rows = K[lo:hi, : hi if lower else n]
        _matern52(_sqdist(s[lo:hi], s[: rows.shape[1]], rows), kernel, out=rows)
    d = np.arange(n)
    K[d, d] += noise
    return K


def _chol_with_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``A + jitter * I`` at the first jitter of
    ``JITTER_LADDER`` that succeeds; ``A`` itself is never modified.

    The first rung factors ``A`` as given (no identity is added: that would
    change no bit of a Gram matrix, whose entries are >= +0.0); later rungs
    add the jitter to the diagonal of a copy.  The factor is checked finite
    here, once, so ``solve_lower`` need not scan it on every solve (a NaN in
    ``A`` can pass ``cholesky`` silently).
    """
    d = np.arange(A.shape[0])
    for jitter in JITTER_LADDER:
        if jitter == 0.0:
            B = A
        else:
            B = np.array(A)
            B[d, d] += jitter
        try:
            L = np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(L).all():
            raise ValueError("Cholesky factor must not contain infs or NaNs")
        return L, jitter
    raise SingularKernelError(
        f"Gram matrix of size {A.shape[0]} not positive definite after jitter escalation"
    )


def solve_lower(L_rows: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve ``L x = b`` (``L^T x = b`` with ``transpose``) for a finite
    lower-triangular L held in the leading n x n square of ``L_rows``, the
    first n = len(b) rows of a C-ordered buffer.

    ``L_rows.T`` is a Fortran-ordered upper-triangular matrix whose leading
    dimension is the buffer's width, so LAPACK ``trtrs`` reads L in place:
    the call ``scipy.linalg.solve_triangular`` makes, without its copy of a
    strided slice or its O(n^2) finiteness scan of L (``_chol_with_jitter``
    checks L once).  A non-finite ``b`` raises ``ValueError`` and a zero
    pivot ``LinAlgError``, as ``solve_triangular`` does.
    """
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    x, info = (_dtrtrs or load_lapack())(L_rows.T, b, lower=0, trans=0 if transpose else 1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK trtrs")
    return x


@dataclass
class Posterior:
    """GP posterior in the original loss scale."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def variance(self) -> np.ndarray:
        return np.maximum(np.diag(self.cov), 0.0)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)


class DeepKernelGP:
    """Feature extractor + Matern kernel + target normalization."""

    def __init__(self, ctx: PredictorContext, rng: np.random.Generator) -> None:
        self.ctx = ctx
        self.fx = FeatureExtractor(ctx, rng, name="surrogate")
        self.kernel = KernelParams()
        self.vector = ParamVector(self.params())
        self.y_mean = 0.0
        self.y_std = 1.0

    def params(self) -> list[ParamBlock]:
        return self.fx.params() + self.kernel.params()

    def set_normalization(self, y: np.ndarray) -> None:
        y = np.asarray(y, dtype=np.float64)
        mean = float(y.mean()) if y.size else 0.0
        std = float(y.std()) if y.size else 0.0
        if not np.isfinite(std) or std <= 0.0:
            std = 1.0
        if not np.isfinite(mean):
            mean = 0.0
        self.y_mean = mean
        self.y_std = std

    def normalize(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=np.float64) - self.y_mean) / self.y_std

    def features_batch(self, inputs: PredictorInputs) -> np.ndarray:
        z, _ = self.fx.forward(inputs, grad=False)
        return z

    # -- GP math ------------------------------------------------------------

    def posterior(self, Z_train: np.ndarray, y_train: np.ndarray, Z_test: np.ndarray) -> Posterior:
        """Exact posterior over the test latents, de-normalized on return.

        Noise enters only the training Gram diagonal; with no training data
        the prior is returned (mean 0, variance signal + noise, both in the
        normalized scale).
        """
        Z_test = np.atleast_2d(Z_test)
        t = Z_test.shape[0]
        noise = self.kernel.noise_var
        if Z_train is None or len(Z_train) == 0:
            cov_n = gram(Z_test, self.kernel, noise)
            mean = np.full(t, self.y_mean)
            return Posterior(mean=mean, cov=cov_n * self.y_std**2)
        Z_train = np.atleast_2d(Z_train)
        y_n = self.normalize(y_train)
        L, _ = _chol_with_jitter(gram(Z_train, self.kernel, noise))
        Ks = kernel_matrix(Z_train, Z_test, self.kernel)
        Kss = kernel_matrix(Z_test, Z_test, self.kernel)
        V = solve_lower(L, Ks)
        w = solve_lower(L, y_n)
        mean_n = V.T @ w
        cov_n = Kss - V.T @ V
        cov_n = 0.5 * (cov_n + cov_n.T)
        d = np.arange(t)
        cov_n[d, d] = np.maximum(cov_n[d, d], 0.0)
        return Posterior(mean=self.y_mean + self.y_std * mean_n, cov=cov_n * self.y_std**2)

    def nll(self, Z_train: np.ndarray, y_train: np.ndarray) -> float:
        """Negative log marginal likelihood of the normalized targets.

        Non-finite features or kernel values yield +inf (divergence signal
        for the fitting loop) rather than an exception."""
        y_n = self.normalize(y_train)
        n = len(y_n)
        if not np.all(np.isfinite(Z_train)):
            return math.inf
        A = gram(Z_train, self.kernel, self.kernel.noise_var)
        if not np.all(np.isfinite(A)):
            return math.inf
        L, _ = _chol_with_jitter(A)
        w = solve_lower(L, y_n)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        return 0.5 * float(w @ w) + 0.5 * logdet + 0.5 * n * math.log(2.0 * math.pi)

    def nll_with_grads(self, inputs: PredictorInputs, y: np.ndarray) -> float:
        """Full-batch NLL; accumulates gradients into every parameter block
        (kernel parameters analytically, network weights by backprop)."""
        z, trace = self.fx.forward(inputs)
        y_n = self.normalize(y)
        n = len(y_n)
        if not np.all(np.isfinite(z)):
            return math.inf
        ls = self.kernel.lengthscale
        sv = self.kernel.signal_var
        noise = self.kernel.noise_var
        # in place, as (sv ((1+u) + u^2/3)) e, ((sv u^2/3) (1+u)) e G and (c (1+u)) e G
        u = SQRT5 * np.sqrt(_pairwise_sqdist(z, z))
        u /= ls
        e = np.exp(-u)
        u1 = 1.0 + u
        u2 = np.divide(np.multiply(u, u, out=u), 3.0, out=u)
        K = (u1 + u2) * sv
        K *= e
        A = K.copy()  # K stays for the gradients
        d = np.arange(n)
        A[d, d] += noise
        if not np.all(np.isfinite(A)):
            return math.inf
        L, _ = _chol_with_jitter(A)
        w = solve_lower(L, y_n)
        alpha = solve_lower(L, w, transpose=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        value = 0.5 * float(w @ w) + 0.5 * logdet + 0.5 * n * math.log(2.0 * math.pi)

        Linv = solve_lower(L, np.eye(n))
        Ainv = Linv.T @ Linv
        G = 0.5 * (Ainv - np.outer(alpha, alpha))

        self.kernel.log_sv.grad += np.sum(np.multiply(K, G, out=K))
        u2 *= sv
        u2 *= u1
        u2 *= e
        self.kernel.log_ls.grad += np.sum(np.multiply(u2, G, out=u2))
        self.kernel.log_nv.grad += np.trace(G) * (noise - NOISE_FLOOR)

        # dK/dz_i = c_ij (z_i - z_j) with c finite at r = 0.
        W = np.multiply(u1, -(5.0 * sv / (3.0 * ls * ls)), out=u1)
        W *= e
        W *= G
        rowsum = W.sum(axis=1)
        dz = 2.0 * (rowsum[:, None] * z - W @ z)
        self.fx.backward(trace, dz)
        return value

    def fit(
        self,
        inputs: PredictorInputs,
        y: np.ndarray,
        steps: int = 100,
        lr: float = 1e-4,
    ) -> FitReport:
        """Full-batch Adam on the NLL, warm from current parameters.

        Target normalization is recomputed first; ``fit_best`` then keeps
        the best parameters seen and rolls back on a non-finite NLL or
        gradient.
        """
        y = np.asarray(y, dtype=np.float64)
        if len(y) == 0:
            return FitReport(math.nan, math.nan, 0)
        self.set_normalization(y)
        return fit_best(
            self.vector,
            lambda: self.nll_with_grads(inputs, y),
            lambda: self.nll(self.features_batch(inputs), y),
            steps,
            lr,
        )
